"""Implicit time stepping for the mass-preserving capillary flow.

One step minimizes the interface energy plus a movement penalty, the
squared dual-metric distance to the previous state divided by twice the
step size, over relaxed densities u in [0,1] with the prescribed mass.
The inner problem is convex; a primal-dual splitting (gradient on the
smooth nonlocal penalty, proximal handling of the total-variation term,
projection onto the box-and-mass set) solves it to a relative residual,
and a mass-rank threshold maps the minimizer back to an indicator field.
The projection is a continuous quadratic knapsack, solved exactly by a
breakpoint method warm started from the previous iteration's shift
(Kiwiel 2008): up to four Newton evaluations, then a sorted sweep only if
they have not landed. Each PD iteration pays for about two clipped sums
(1.7 to 2.3 on the benchmark steps) and, in practice, no sort.
The over-relaxation (factor 1.5) is written x_hat + 0.5 (x_hat - x): a
cell clipped to 0 then halves exactly to 0 instead of cycling at +-1 ulp
of the smallest subnormal, where every operation on u runs slowly.

One private body, _step, runs solve, threshold and binary selection at a
penalty time tau. mm_step is its tau = h face and returns the step record;
de_giorgi_interpolant is its tau in (0, h] face and returns the variational
interpolant that the dissipation ledger samples between consecutive states,
so the tau = h sample, started from the same point, reproduces the step
output bit for bit. run_trajectory iterates the steps and raises when a
solve hits its iteration cap. Within one step it solves the sampled
tau = h/S, ..., h in increasing order as a continuation: the first solve
starts cold, and each later one, the step itself last, starts from the
previous solve's final primal-dual pair and projection shift. The PD
iteration converges from any starting pair (Chambolle & Pock 2011), so the
warm start changes the cost of a solve, not the problem it solves.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .fields import (
    ScalarField,
    grad_forward,
    grad_forward_adjoint,
    hminus_norm_sq,
    poisson_apply_raw,
    project_mean_zero,
)
from .energy import PhaseField, energy, wall_weight

# Convergence of the relaxed splitting needs 1/t - sigma*|K|^2 >= L/2 and a
# relaxation factor below 2 - (L/2)/(1/t - sigma*|K|^2); the step sizes
# below keep both with a margin. The dual scale trades primal for dual
# step length and was tuned on disk benchmarks.
_DUAL_SCALE = 32.0
_RELAX = 1.5
_CHECK_EVERY = 10
# landing tolerance of the box-and-mass projection, on the mean
_MEAN_TOL = 1e-15


@dataclass(frozen=True)
class StepConfig:
    h: float
    pd_max_iters: int = 40000
    pd_tol: float = 1e-5
    interpolant_samples: int = 0

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("time step h must be positive")
        if self.pd_max_iters < 100:
            raise ValueError("pd_max_iters must be at least 100")
        if not (0.0 < self.pd_tol <= 1e-3):
            raise ValueError("pd_tol must lie in (0, 1e-3]")
        if self.interpolant_samples < 0:
            raise ValueError("interpolant_samples must be nonnegative")


@dataclass(frozen=True)
class SolveInfo:
    """Inner-solver bookkeeping of one relaxed solve.

    `end` is the solve's final (u_hat, y_hat, shift): primal iterate, dual
    iterate and projection shift, the warm start of a solve on the same
    anchor at a larger tau. run_trajectory drops it from stored records.
    """

    iters: int
    converged: bool
    residual: float
    end: tuple = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class StepResult:
    chi_next: PhaseField
    objective: float
    relaxation_gap: float
    pd_iters: int
    converged: bool


@dataclass
class Trajectory:
    chi0: PhaseField
    steps: list = field(default_factory=list)
    interpolant_snapshots: list = field(default_factory=list)

    def states(self):
        out = [self.chi0]
        for s in self.steps:
            out.append(s.chi_next)
        return out

    @property
    def n_steps(self):
        return len(self.steps)


def _project_box_mass(v, mean_target, shift):
    """Euclidean projection onto {u in [0,1]^N : mean(u) = mean_target}.

    The projection is clip(v + s) for the scalar shift s at which the
    clipped sum f(s) = sum(clip(v + s, 0, 1)) reaches N * mean_target (a
    continuous quadratic knapsack). f is nondecreasing and piecewise linear:
    its slope is the number of free cells (0 < v + s < 1) and its
    breakpoints are -v_i, where a cell leaves 0, and 1 - v_i, where it
    reaches 1. The root lies in [lo, hi] = [-max v, 1 - min v].

    Newton steps start from `shift`, the previous call's root, and use the
    one-sided slope towards the root, so a step that stays on the root's
    linear piece lands on it exactly. Every evaluation shrinks the bracket.
    When four evaluations have not landed, or a step would leave the
    bracket, a sweep over the breakpoints inside the bracket, sorted,
    finds the root's linear piece and solves it exactly. Within a PD solve
    the warm shift is close and four evaluations land every call of the
    benchmark steps; with two, up to 28% of the calls paid for the sort.

    Returns (u, s).
    """
    n = v.size
    target = mean_target * n
    # rounding floor of the clipped sum: evaluations within it have landed
    tol = _MEAN_TOL * n
    lo, hi = -float(v.max()), 1.0 - float(v.min())
    f_lo = -target
    s = min(max(shift, lo), hi)
    for _ in range(4):
        w = v + s
        u = np.clip(w, 0.0, 1.0)
        r = float(u.sum()) - target
        if abs(r) <= tol:
            return u, s
        if r < 0.0:
            lo, f_lo = s, r
            slope = np.count_nonzero((w >= 0.0) & (w < 1.0))
        else:
            hi = s
            slope = np.count_nonzero((w > 0.0) & (w <= 1.0))
        if slope == 0:
            break
        s -= r / slope
        if not lo < s < hi:
            break
    s = _sweep_root(v, lo, f_lo, hi)
    return np.clip(v + s, 0.0, 1.0), s


def _sweep_root(v, lo, f_lo, hi):
    """Root of the clipped sum in (lo, hi), given its value f_lo at lo.

    Walks the breakpoints strictly inside the bracket in order, tracking
    the slope (+1 where a cell leaves 0, -1 where it reaches 1) and the
    value of f at each breakpoint; the root lies on the last linear piece
    that starts below zero.
    """
    enter = -v[(v > -hi) & (v < -lo)]
    leave = 1.0 - v[(v > 1.0 - hi) & (v < 1.0 - lo)]
    points = np.concatenate((enter, leave))
    order = np.argsort(points, kind="stable")
    xs = np.concatenate(([lo], points[order]))
    turns = np.concatenate((np.ones(enter.size), -np.ones(leave.size)))[order]
    # slope just right of lo: cells with 0 <= v + lo < 1
    slope_lo = np.count_nonzero((v >= -lo) & (v < 1.0 - lo))
    slopes = slope_lo + np.concatenate(([0.0], np.cumsum(turns)))
    f = f_lo + np.concatenate(([0.0], np.cumsum(slopes[:-1] * np.diff(xs))))
    k = max(int(np.searchsorted(f, 0.0)) - 1, 0)
    return float(xs[k] - f[k] / slopes[k])


def _dual_init(chi, grid, c0):
    """Deterministic warm start: the total-variation subgradient of chi."""
    gs = grad_forward(chi, grid)
    mag = np.sqrt(sum(g * g for g in gs))
    safe = np.where(mag > 0.0, mag, 1.0)
    return [c0 * g / safe for g in gs]


def _clip_dual(ys, c0, mag, factor):
    """Scale each dual vector longer than c0 back to length c0, in place.

    mag and factor are scratch arrays of the grid shape. Returns ys.
    """
    np.multiply(ys[0], ys[0], out=mag)
    for y in ys[1:]:
        mag += np.multiply(y, y, out=factor)
    np.sqrt(mag, out=mag)
    factor.fill(1.0)
    np.divide(c0, mag, out=factor, where=mag > c0)
    for y in ys:
        y *= factor
    return ys


def _solve_relaxed(chi_prev, tau, p, cfg, start=None):
    """Primal-dual iteration for the relaxed movement-penalized problem.

    Returns the relaxed minimizer at penalty time tau and its SolveInfo.
    Without `start` the iteration begins cold, at u = chi_prev with the
    dual at the total-variation subgradient of chi_prev; with it, at the
    `end` of an earlier solve on the same anchor (copied, not modified).
    Works in objective-density units (energies divided by the domain
    volume) so the step sizes are resolution-independent scalars. The
    nonlocal penalty enters through its gradient, one inverse-Laplacian
    apply per iteration, which is exact in the cosine basis.

    The over-relaxation x + r (x_hat - x) is evaluated as
    x_hat + (r - 1) (x_hat - x). Where the projection clips u_hat to 0 the
    first form multiplies u by 1 - r = -1/2 with rounding, and at the
    smallest subnormal that rounding keeps u flipping between +1 and -1 ulp
    for the rest of the solve, so every operation reading u takes the slow
    subnormal path; the second form halves u exactly and reaches 0. The
    loop works in place, in preallocated buffers.
    """
    if not tau > 0:
        raise ValueError("penalty time tau must be positive")
    grid = chi_prev.domain
    chi = chi_prev.values
    mean_target = chi_prev.m0 / grid.volume

    beta = p.cos_alpha * p.c0 * wall_weight(grid)
    lip = (max(grid.lengths) / np.pi) ** 2 / tau
    knorm_sq = sum(4.0 / h ** 2 for h in grid.spacing)
    sigma = _DUAL_SCALE * p.c0 / np.sqrt(knorm_sq)
    slack = min((2.0 - _RELAX) / _RELAX, 1.0)
    t = 1.0 / (0.5 * lip / slack * 1.02 + 1.02 * sigma * knorm_sq)

    if start is None:
        u = chi.copy()
        y = _dual_init(chi, grid, p.c0)
        shift = 0.0
    else:
        u = start[0].copy()
        y = [a.copy() for a in start[1]]
        shift = start[2]
    u_hat, y_hat = u, y
    diff = np.empty(grid.shape)  # u - chi, mean removed
    arg = np.empty(grid.shape)  # primal argument of the projection
    ext = np.empty(grid.shape)  # extrapolated primal 2 u_hat - u
    mag = np.empty(grid.shape)
    factor = np.empty(grid.shape)

    iters = 0
    converged = False
    residual = np.inf
    for iters in range(1, cfg.pd_max_iters + 1):
        np.subtract(u, chi, out=diff)
        diff -= diff.mean()
        grad_h = poisson_apply_raw(diff, grid)
        grad_h /= -tau
        grad_h += beta
        grad_h += grad_forward_adjoint(y, grid)
        grad_h *= t
        u_hat, shift = _project_box_mass(
            np.subtract(u, grad_h, out=arg), mean_target, shift
        )
        np.multiply(u_hat, 2.0, out=ext)
        ext -= u
        y_hat = grad_forward(ext, grid)
        for a in range(grid.d):
            y_hat[a] *= sigma
            y_hat[a] += y[a]
        _clip_dual(y_hat, p.c0, mag, factor)

        if iters % _CHECK_EVERY == 0 or iters == cfg.pd_max_iters:
            du = u - u_hat
            dy = [y[a] - y_hat[a] for a in range(grid.d)]
            p_res = np.linalg.norm(du / t - grad_forward_adjoint(dy, grid))
            p_res += lip * np.linalg.norm(du)
            gdu = grad_forward(du, grid)
            d_res = np.sqrt(sum(
                float(np.sum((dy[a] / sigma - gdu[a]) ** 2))
                for a in range(grid.d)
            ))
            unorm = max(1.0, float(np.linalg.norm(u_hat)))
            ynorm = max(1.0, np.sqrt(sum(
                float(np.sum(y_hat[a] ** 2)) for a in range(grid.d)
            )))
            residual = max(t * p_res / unorm, sigma * d_res / ynorm)
            if residual <= cfg.pd_tol:
                converged = True
                u = u_hat
                break
        for x, x_hat in zip([u] + y, [u_hat] + y_hat):
            np.subtract(x_hat, x, out=x)
            x *= _RELAX - 1.0
            x += x_hat

    if not converged:
        u = u_hat

    out = PhaseField(grid, u, m0=chi_prev.m0)
    info = SolveInfo(iters=iters, converged=converged, residual=float(residual),
                     end=(u_hat, y_hat, shift))
    return out, info


def mass_threshold(u):
    """Binary field matching the mass target by rank selection.

    Cells are taken in decreasing value order; ties are broken by value
    and then by lexicographic cell index, so the output is deterministic.
    """
    grid = u.domain
    vals = u.values
    if float(vals.max() - vals.min()) <= 1e-12:
        raise ValueError("no interface to threshold")
    vol = grid.cell_volume
    k = int(round(u.m0 / vol))
    k = min(max(k, 0), vals.size)
    flat = vals.ravel(order="C")
    order = np.argsort(-flat, kind="stable")
    out = np.zeros(flat.size)
    out[order[:k]] = 1.0
    return PhaseField(grid, out.reshape(grid.shape), m0=k * vol, binary=True)


def movement_penalty(u, anchor, tau):
    """Squared dual-metric distance to the anchor divided by 2 tau."""
    diff = project_mean_zero(
        ScalarField(u.domain, u.values - anchor.values)
    )
    return hminus_norm_sq(diff) / (2.0 * tau)


def _objective(u, anchor, tau, p):
    return energy(u, p).total + movement_penalty(u, anchor, tau)


def _select_binary(cand, anchor, tau, p):
    """Keep the thresholded candidate only if it beats staying put.

    The threshold ranks cells by relaxed value alone and can emit a
    rearrangement of tied staircase cells that costs movement penalty
    while saving no energy. Comparing the two feasible binary
    competitors keeps the step guarantee (energy plus penalty never
    above the previous energy) unconditional instead of empirical.
    """
    obj_cand = _objective(cand, anchor, tau, p)
    if not anchor.binary:
        return cand, obj_cand
    obj_anchor = energy(anchor, p).total
    if obj_cand < obj_anchor:
        return cand, obj_cand
    return anchor, obj_anchor


def _step(chi_anchor, tau, p, cfg, start=None):
    """Relaxed solve at penalty time tau, mass threshold, binary selection.

    Returns (chi_next, binary objective, relaxed minimizer, SolveInfo).
    """
    relaxed, info = _solve_relaxed(chi_anchor, tau, p, cfg, start)
    chi_next, obj_binary = _select_binary(
        mass_threshold(relaxed), chi_anchor, tau, p
    )
    return chi_next, obj_binary, relaxed, info


def mm_step(chi_prev, p, cfg, start=None):
    """One implicit step: _step at tau = h.

    The binary output is the better of the thresholded candidate and
    chi_prev itself, measured by the full movement-penalized objective;
    see _select_binary. The relaxation gap is the binary objective minus
    the relaxed one. `start`, if given, is the `end` of an earlier solve on
    chi_prev, from which the PD iteration begins instead of cold.
    """
    chi_next, obj_binary, relaxed, info = _step(chi_prev, cfg.h, p, cfg, start)
    obj_relaxed = _objective(relaxed, chi_prev, cfg.h, p)
    return StepResult(
        chi_next=chi_next,
        objective=obj_relaxed,
        relaxation_gap=obj_binary - obj_relaxed,
        pd_iters=info.iters,
        converged=info.converged,
    )


def de_giorgi_interpolant(chi_anchor, tau, p, cfg, start=None):
    """State after a partial step of length tau in (0, h]: _step at tau.

    Called with the same `start` (see mm_step), the tau = h sample
    reproduces the mm_step output bit for bit. The returned field carries
    the solver record in its `pd_info` attribute (iterations, convergence
    flag, final relative residual, and the end state that warm starts the
    next tau); a kept anchor comes back as a fresh copy.
    """
    if tau > cfg.h:
        raise ValueError("interpolation time tau must not exceed the step h")
    out, _obj, _relaxed, info = _step(chi_anchor, tau, p, cfg, start)
    if out is chi_anchor:
        out = PhaseField(out.domain, out.values, m0=out.m0, binary=True)
    out.pd_info = info
    return out


def _require_converged(converged, iters, n, tau, cfg):
    if not converged:
        raise ValueError(
            "step %d: PD solve at tau = %.6g stopped at %d of pd_max_iters = %d "
            "iterations without reaching pd_tol = %.3g"
            % (n, tau, iters, cfg.pd_max_iters, cfg.pd_tol)
        )


def run_trajectory(chi0, p, cfg, n_steps):
    """Iterate mm_step, optionally sampling interpolants inside each step.

    With interpolant_samples = S the sampled penalty times are tau = j h/S
    for j = 1..S; the tau = h sample coincides with the step output and is
    recorded there, so only the S-1 interior states are stored as
    (time, field) snapshots. The solves of one step run in increasing tau,
    as a continuation: tau = h/S starts cold, and every later one, the step
    at tau = h last, starts from the end state of the one before. Stored
    snapshots keep their solver record without that end state.

    When a step reproduces its anchor exactly the map has reached a fixed
    point, and determinism makes every later step a verbatim repeat; the
    remaining records are replicated without re-solving. A step or an
    interpolant whose solve hits the iteration cap raises ValueError naming
    the step, tau, the iterations against pd_max_iters, and pd_tol.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    traj = Trajectory(chi0=chi0)
    chi = chi0
    n = 0
    while n < n_steps:
        snaps = []
        start = None
        S = cfg.interpolant_samples
        for j in range(1, S):
            tau_j = cfg.h * j / S
            snap = de_giorgi_interpolant(chi, tau_j, p, cfg, start=start)
            info = snap.pd_info
            _require_converged(info.converged, info.iters, n + 1, tau_j, cfg)
            start = info.end
            snap.pd_info = replace(info, end=None)
            snaps.append((tau_j, snap))
        res = mm_step(chi, p, cfg, start=start)
        _require_converged(res.converged, res.pd_iters, n + 1, cfg.h, cfg)
        fixed = res.chi_next is chi or np.array_equal(
            res.chi_next.values, chi.values
        )
        repeats = (n_steps - n) if fixed else 1
        for _ in range(repeats):
            for tau_j, snap in snaps:
                traj.interpolant_snapshots.append((n * cfg.h + tau_j, snap))
            traj.steps.append(res)
            n += 1
        chi = res.chi_next
    return traj
