"""Transfer potentials, multipliers, and the dissipation ledger.

The transfer potential w of a partial step of length tau solves the Neumann
problem with source (chi_bar - chi_anchor)/tau. Its Dirichlet energy is the
squared velocity of a step and, sampled at the De Giorgi interpolants, the
squared slope in the sharp dissipation bookkeeping of the ledger. Lagrange
multipliers for the mass constraint come from pairing the interface first
variation with a constructed wall-tangential direction field.
"""

from dataclasses import dataclass

import numpy as np

from .fields import (
    MeanZeroField,
    VectorField,
    div_mirror,
    grad_centered,
    h1_inner,
    mollify,
    neumann_solve,
    require_same_grid,
)
from .energy import (
    PHASE_MASS_RTOL,
    _c1_seminorm,
    constraint_integral,
    default_tangential_fields,
    energy,
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
    records: tuple
    E0: float

    def __post_init__(self):
        ts = [r.t for r in self.records]
        if ts != sorted(ts):
            raise ValueError("ledger records are not time-ordered")
        if self.records and abs(self.E0 - self.records[0].E_total) > 1e-12:
            raise ValueError("E0 does not match the first record")


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


def lagrange_multiplier(chi, slc, w, xi, p):
    """Mass-constraint multiplier from the xi-pairing of the first variation."""
    grid = chi.domain
    denom = constraint_integral(chi, xi)
    if denom < NORMALIZER_FLOOR:
        raise ValueError("degenerate multiplier normalizer")
    flux = [w.values * c for c in xi.components]
    div = div_mirror(flux, grid, tangential=xi.tangential)
    wpair = float(np.sum(chi.values * div)) * grid.cell_volume
    return (first_variation(slc, xi, p) - wpair) / denom


def gibbs_thomson_residual(chi, slc, w, lam, p, basis):
    """Worst normalized defect of the curvature-potential relation."""
    grid = chi.domain
    worst = 0.0
    for B in basis:
        if not B.tangential:
            raise ValueError("Gibbs-Thomson basis fields must be tangential")
        flux = [(w.values + lam) * c for c in B.components]
        div = div_mirror(flux, grid, tangential=True)
        pair = float(np.sum(chi.values * div)) * grid.cell_volume
        resid = abs(first_variation(slc, B, p) - pair)
        worst = max(worst, resid / (1.0 + B.max_norm() + _c1_seminorm(B, grid)))
    return worst


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
        vals.append(h1_inner(w, w))
    nodes = [0.0] + taus + [h]
    integrand = [0.0] + vals + [vel_sq]
    integral = 0.0
    for i in range(len(nodes) - 1):
        integral += 0.5 * (integrand[i] + integrand[i + 1]) * (nodes[i + 1] - nodes[i])
    return integral / h


def dissipation_ledger(traj, p, cfg):
    """Per-step energies, velocities, slopes, multipliers, and margins.

    The margin of row n is the initial energy minus the current energy
    minus the accumulated half-sums of squared velocity and slope, so a
    nonnegative column certifies the sharp dissipation inequality up to
    solver tolerance. Slopes use the full-step transfer potential, or the
    trapezoid rule over the trajectory's De Giorgi snapshots when present.
    The step length is cfg.h, the mollification width four cell spacings.
    """
    states = traj.states()
    grid = states[0].domain
    h = cfg.h
    eps = mollification_width(grid)
    basis = default_tangential_fields(grid, count=6)

    records = []
    E0 = None
    cum = 0.0
    zero_w = MeanZeroField(grid, np.zeros(grid.shape))
    for n, chi in enumerate(states):
        br = energy(chi, p)
        slc = interface_measure(chi, eps)
        xi = construct_xi(chi, eps)
        if n == 0:
            w = zero_w
            vel_sq = 0.0
            slope_sq = 0.0
            gap = 0.0
        else:
            prev = states[n - 1]
            w = potential_w(chi, prev, h)
            vel_sq = h1_inner(w, w)
            samples = [
                (t - (n - 1) * h, field)
                for t, field in traj.interpolant_snapshots
                if (n - 1) * h < t < n * h
            ]
            slope_sq = _slope_from_samples(prev, samples, h, vel_sq)
            gap = traj.steps[n - 1].relaxation_gap
            cum += h * (0.5 * vel_sq + 0.5 * slope_sq)
        lam = lagrange_multiplier(chi, slc, w, xi, p)
        gt = gibbs_thomson_residual(chi, slc, w, lam, p, basis)
        if E0 is None:
            E0 = br.total
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
    return Ledger(records=tuple(records), E0=E0)
