"""Transfer potentials, multipliers, and the dissipation ledger.

The transfer potential w of a partial step of length tau solves the Neumann
problem with source (chi_bar - chi_anchor)/tau. Its Dirichlet energy is the
squared velocity of a step and, sampled at the De Giorgi interpolants, the
squared slope in the sharp dissipation bookkeeping of the ledger. The mass
multiplier closes the weak Gibbs-Thomson defect, `_gt_defect`, along a
constructed wall-tangential direction field; the residual audit reads the
same defect over the test-field basis.
"""

from dataclasses import dataclass

from .fields import (
    MeanZeroField,
    VectorField,
    grad_centered,
    h1_norm_sq,
    mollify,
    neumann_solve,
    require_same_grid,
)
from .energy import (
    PHASE_MASS_RTOL,
    constraint_integral,
    default_tangential_fields,
    energy,
    field_scale,
    first_variation,
    interface_measure,
    mollification_width,
)

NORMALIZER_FLOOR = 1e-6


@dataclass(frozen=True)
class StepRecord:
    """One ledger row. lambda_ carries the mass-constraint multiplier."""

    n: int
    t: float
    E_bulk: float
    E_boundary: float
    E_total: float
    vel_sq: float
    slope_sq: float
    lambda_: float
    gt_residual: float
    relaxation_gap: float
    dissipation_margin: float
    mass: float

    def __post_init__(self):
        if self.E_total < -1e-12:
            raise ValueError("negative total energy in ledger row")
        if self.vel_sq < -1e-12 or self.slope_sq < -1e-12:
            raise ValueError("negative squared norm in ledger row")


@dataclass(frozen=True)
class Ledger:
    """Rows of `dissipation_ledger` or of a ledger CSV, and the run's verdicts."""

    records: tuple

    def __post_init__(self):
        ts = [r.t for r in self.records]
        if ts != sorted(ts):
            raise ValueError("ledger records are not time-ordered")

    @property
    def E0(self):
        """The initial energy, the first row's total."""
        return self.records[0].E_total

    @property
    def worst_margin(self):
        """The smallest dissipation margin of the run."""
        return min(r.dissipation_margin for r in self.records)

    @property
    def mass_drift(self):
        """The largest distance of a row's mass from the first row's."""
        return max(abs(r.mass - self.records[0].mass) for r in self.records)


def potential_w(chi_bar, chi_anchor, tau):
    """Neumann potential of the transfer rate between two equal-mass states."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    require_same_grid(chi_bar, chi_anchor)
    grid = chi_bar.domain
    if abs(chi_bar.integral() - chi_anchor.integral()) > PHASE_MASS_RTOL * grid.volume:
        raise ValueError("non-conservative source: masses differ")
    src = (chi_bar.values - chi_anchor.values) / tau
    src = src - src.mean()
    return neumann_solve(MeanZeroField(grid, src))


def construct_xi(chi, eps):
    """Wall-tangential direction field with a positive volume pairing.

    Gradient of the Neumann potential sourced by the mollified phase;
    even reflection at the walls makes the normal component vanish there
    discretely. The pairing integral chi div(xi) acts as the multiplier
    normalizer and must stay away from zero.
    """
    grid = chi.domain
    if not (0.0 < chi.m0 < grid.volume):
        raise ValueError("phase must occupy a proper subvolume")
    smoothed = mollify(chi.values, grid, eps)
    phi = neumann_solve(MeanZeroField(grid, smoothed - smoothed.mean()))
    xi = VectorField(grid, grad_centered(phi.values, grid), tangential=True)
    if constraint_integral(chi, xi) < NORMALIZER_FLOOR:
        raise ValueError("degenerate multiplier normalizer")
    return xi


def _gt_defect(chi, slc, f, B, p):
    """The weak Gibbs-Thomson defect along B under the cell potential f:
    the first variation along B minus the integral of chi div(f B)."""
    fB = VectorField(chi.domain, [f * c for c in B.components], tangential=B.tangential)
    return first_variation(chi, slc, B, p) - constraint_integral(chi, fB)


def lagrange_multiplier(chi, slc, w, xi, p):
    """The mass multiplier: the defect of w along xi over integral chi div xi,
    the constant that leaves w + lambda no defect along xi."""
    denom = constraint_integral(chi, xi)
    if denom < NORMALIZER_FLOOR:
        raise ValueError("degenerate multiplier normalizer")
    return _gt_defect(chi, slc, w.values, xi, p) / denom


def gibbs_thomson_residual(chi, slc, w, lam, p, basis):
    """Worst defect under w + lam over `basis`, each over its `field_scale`.

    `first_variation` refuses a basis field that is not wall-tangential.
    """
    f = w.values + lam
    return max(abs(_gt_defect(chi, slc, f, B, p)) / field_scale(B) for B in basis)


def _slope_from_samples(chi_anchor, samples, h, vel_sq):
    """Trapezoid average of squared slopes over De Giorgi sample times.

    samples holds (tau, field) pairs strictly inside (0, h); the
    integrand vanishes at tau = 0 and equals vel_sq at tau = h.
    """
    if not samples:
        return vel_sq
    taus = [tau for tau, _field in samples]
    vals = []
    for tau, field in samples:
        w = potential_w(field, chi_anchor, tau)
        vals.append(h1_norm_sq(w))
    nodes = [0.0] + taus + [h]
    integrand = [0.0] + vals + [vel_sq]
    integral = 0.0
    for i in range(len(nodes) - 1):
        integral += 0.5 * (integrand[i] + integrand[i + 1]) * (nodes[i + 1] - nodes[i])
    return integral / h


def dissipation_ledger(traj, p, cfg):
    """The one audit of a trajectory: energies, slopes, margins, Gibbs-Thomson.

    Row n books state n's energy, the squared velocity and slope of the
    step into it, and the mass multiplier and worst Gibbs-Thomson residual
    over the whole `default_tangential_fields` basis, paired with that
    step's transfer potential. Row 0 takes the initial state as its own
    anchor, so its potential, velocity, slope and margin are zero and its
    residual is the stationary one. The margin is the initial energy minus
    the current one minus the accumulated half-sums of squared velocity
    and slope; a nonnegative column certifies the sharp dissipation
    inequality up to solver tolerance. Slopes use the full-step potential,
    or the trapezoid rule over the De Giorgi snapshots, (tau, field) pairs,
    S - 1 per step for S = cfg.interpolant_samples: step n's samples are
    the n-th block, and any other snapshot count raises ValueError.
    """
    states = traj.states()
    grid = states[0].domain
    h = cfg.h
    per_step = max(cfg.interpolant_samples - 1, 0)
    snaps = traj.interpolant_snapshots
    if len(snaps) != traj.n_steps * per_step:
        raise ValueError("%d interpolant snapshots for %d steps of %d samples"
                         % (len(snaps), traj.n_steps, cfg.interpolant_samples))
    eps = mollification_width(grid)
    basis = default_tangential_fields(grid)
    anchors = states[:1] + states[:-1]
    blocks = [()] + [snaps[k * per_step:(k + 1) * per_step]
                     for k in range(traj.n_steps)]
    gaps = [0.0] + [s.relaxation_gap for s in traj.steps]
    E0 = energy(states[0], p).total

    records = []
    cum = 0.0
    for n, (chi, prev, samples, gap) in enumerate(zip(states, anchors, blocks, gaps)):
        br = energy(chi, p)
        slc = interface_measure(chi, eps)
        xi = construct_xi(chi, eps)
        w = potential_w(chi, prev, h)
        vel_sq = h1_norm_sq(w)
        slope_sq = _slope_from_samples(prev, samples, h, vel_sq)
        cum += h * (0.5 * vel_sq + 0.5 * slope_sq)
        lam = lagrange_multiplier(chi, slc, w, xi, p)
        gt = gibbs_thomson_residual(chi, slc, w, lam, p, basis)
        records.append(StepRecord(
            n=n,
            t=n * h,
            E_bulk=br.bulk,
            E_boundary=br.boundary,
            E_total=br.total,
            vel_sq=vel_sq,
            slope_sq=slope_sq,
            lambda_=lam,
            gt_residual=gt,
            relaxation_gap=gap,
            dissipation_margin=E0 - (br.total + cum),
            mass=chi.integral(),
        ))
    return Ledger(records=tuple(records))
