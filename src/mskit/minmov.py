"""Implicit time stepping for the mass-preserving capillary flow.

One step minimizes the interface energy plus a movement penalty, the
squared dual-metric distance to the previous state divided by twice the
step size, over relaxed densities u in [0,1] with the prescribed mass.
The inner problem is convex; a primal-dual splitting (gradient on the
smooth nonlocal penalty, proximal handling of the total-variation term,
projection onto the box-and-mass set) solves it to a relative residual,
and a mass-rank threshold maps the minimizer back to an indicator field.
The projection is a continuous quadratic knapsack, solved by Newton
steps from the previous iteration's shift (Kiwiel 2008): up to four
evaluations, then a bisection only if they have not landed. Each PD
iteration pays for 1.66 (ripening step and interpolants) to 2.28 (stiff
cap) clipped sums on the benchmark steps and, in practice, no bisection;
the bracket [-max v, 1 - min v] is computed only when the first sum
misses, which a third of the ripening projections skip.
The over-relaxation (factor 1.5) is written x_hat + 0.5 (x_hat - x): a
cell clipped to 0 then halves exactly to 0 instead of cycling at +-1 ulp
of the smallest subnormal, where every operation on u runs slowly.

A solve allocates its workspace once. The primal u and the dual y, one
component per axis, are stacked in one (d + 1, *shape) array and the
iterate (u_hat, y_hat) in another, so the over-relaxation, the residual's
differences and the dual update each act on whole stacks; the step
constants are folded into the scale of the pass that needs them (-t/tau
on the Poisson apply, t on the adjoint stencil, sigma on the gradient,
t beta once per solve). The source of the Poisson apply is u - chi with
its mean removed. The apply drops the zero mode, so the mean changes no
exact value; it is a denormal guard: without it, at stiff h, subnormals
reach the cosine transform and the stiff cap's iterations cost about a
fifth more (full 64^2 solve, 6370 iterations).

One private body, _step, runs solve, threshold and binary selection at a
penalty time tau. mm_step is its tau = h face and returns the step record;
de_giorgi_interpolant is its tau in (0, h] face and returns the variational
interpolant that the dissipation ledger samples between consecutive states,
so the tau = h sample, started from the same point, reproduces the step
output bit for bit. run_trajectory iterates the steps and raises when a
solve hits its iteration cap. Within one step it solves the sampled
tau = h/S, ..., h in increasing order, keeping each interior sample as a
(tau, field) snapshot. The solves run as a continuation: the first starts
cold, and each later one, the step itself last, starts from the previous
solve's final primal-dual pair and projection shift. The PD iteration
converges from any starting pair (Chambolle & Pock 2011), so the warm
start changes the cost of a solve, not the problem it solves.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import (
    ScalarField,
    _top_cells,
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
        if not 0.0 < self.h < np.inf:
            raise ValueError("time step h must be positive and finite")
        if self.pd_max_iters < 100:
            raise ValueError("pd_max_iters must be at least 100")
        if not (0.0 < self.pd_tol <= 1e-3):
            raise ValueError("pd_tol must lie in (0, 1e-3]")
        if self.interpolant_samples < 0:
            raise ValueError("interpolant_samples must be nonnegative")


@dataclass(frozen=True)
class SolveInfo:
    """Inner-solver bookkeeping of one relaxed solve."""

    iters: int
    converged: bool
    residual: float


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


def _project_box_mass(v, mean_target, shift, out=None, work=None):
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
    bracket, the bracket is bisected until an evaluation lands or no double
    lies strictly inside it, and the last evaluation is returned. Within a
    PD solve the warm shift is close and four evaluations land every call
    of the program; the bisection, at 35 to 70 evaluations, is the
    fallback for arbitrary input.

    The first evaluation is at `shift` itself, and the bracket is computed
    only when it misses. Outside the bracket every cell clips to the same
    bound, so for 0 < mean_target < 1 that evaluation cannot land there;
    it is then repeated at the nearest bracket end, where the four Newton
    evaluations start. The result is the same as clamping `shift` into
    the bracket first.

    `out` receives u and `work` is a (float, bool) pair of scratch arrays,
    all of v's shape; each is allocated when not given. Returns (u, s).
    """
    n = v.size
    target = mean_target * n
    # rounding floor of the clipped sum: evaluations within it have landed
    tol = _MEAN_TOL * n
    u = np.empty_like(v) if out is None else out
    w, mask = (np.empty_like(v), np.empty(v.shape, bool)) if work is None else work

    def clipped_sum(s):
        # np.clip and u.sum() by their ufuncs, without the Python wrappers
        np.add(v, s, out=w)
        np.maximum(w, 0.0, out=u)
        np.minimum(u, 1.0, out=u)
        return float(np.add.reduce(u, axis=None)) - target

    s = shift
    r = clipped_sum(s)
    if abs(r) <= tol:
        return u, s
    lo = -float(np.maximum.reduce(v, axis=None))
    hi = 1.0 - float(np.minimum.reduce(v, axis=None))
    if not lo <= s <= hi:
        s = min(max(s, lo), hi)
        r = clipped_sum(s)
    # four evaluations in all, from the first at the clamped shift
    for evals in range(1, 5):
        if abs(r) <= tol:
            return u, s
        # slope: free cells on the root's side, an int so that s stays a Python float
        if r < 0.0:
            lo = s
            slope = int(np.count_nonzero(np.greater_equal(w, 0.0, out=mask))
                        - np.count_nonzero(np.greater_equal(w, 1.0, out=mask)))
        else:
            hi = s
            slope = int(np.count_nonzero(np.greater(w, 0.0, out=mask))
                        - np.count_nonzero(np.greater(w, 1.0, out=mask)))
        if evals == 4 or slope == 0 or not lo < s - r / slope < hi:
            break
        s -= r / slope
        r = clipped_sum(s)
    # bisection until an evaluation lands or no double lies inside the bracket
    while abs(r) > tol and lo < 0.5 * (lo + hi) < hi:
        s = 0.5 * (lo + hi)
        r = clipped_sum(s)
        lo, hi = (s, hi) if r < 0.0 else (lo, s)
    return u, s


def _dual_init(chi, grid, c0):
    """Deterministic warm start: the total-variation subgradient of chi."""
    gs = grad_forward(chi, grid)
    mag = np.sqrt(sum(g * g for g in gs))
    safe = np.where(mag > 0.0, mag, 1.0)
    return c0 * gs / safe


def _clip_dual(y, c0, sq, mag):
    """Scale each dual vector longer than c0 back to length c0, in place.

    y is the stacked (d, *shape) dual; sq has its shape and mag the grid
    shape, both scratch. The factor c0 / max(|y|, c0) is exactly 1 where
    |y| <= c0.
    """
    np.multiply(y, y, out=sq)
    np.add(sq[0], sq[1], out=mag)
    for s in sq[2:]:
        mag += s
    np.sqrt(mag, out=mag)
    np.maximum(mag, c0, out=mag)
    np.divide(c0, mag, out=mag)
    for comp in y:
        comp *= mag


def _solve_relaxed(chi_prev, tau, p, cfg, start=None):
    """Primal-dual iteration for the relaxed movement-penalized problem.

    Returns (relaxed minimizer at penalty time tau, SolveInfo, end), end
    being the final (u_hat, y_hat, shift). Without `start` the iteration
    begins cold, at u = chi_prev with the dual at the total-variation
    subgradient of chi_prev; with it, at the end of an earlier solve on the
    same anchor (copied, not modified).
    Works in objective-density units (energies divided by the domain
    volume) so the step sizes are resolution-independent scalars. The
    nonlocal penalty enters through its gradient, one inverse-Laplacian
    apply per iteration, which is exact in the cosine basis.

    The iteration runs in a workspace allocated once per solve (module
    docstring). The over-relaxation x + r (x_hat - x) is evaluated as
    x_hat + (r - 1) (x_hat - x). Where the projection clips u_hat to 0 the
    first form multiplies u by 1 - r = -1/2 with rounding, and at the
    smallest subnormal that rounding keeps u flipping between +1 and -1 ulp
    for the rest of the solve, so every operation reading u takes the slow
    subnormal path; the second form halves u exactly and reaches 0.
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
    penalty_scale = -t / tau
    t_beta = t * beta

    stack = (grid.d + 1,) + grid.shape
    x = np.empty(stack)
    if start is None:
        x[0] = chi
        x[1:] = _dual_init(chi, grid, p.c0)
        shift = 0.0
    else:
        x[0] = start[0]
        x[1:] = start[1]
        shift = start[2]
    x_hat = np.empty(stack)
    dx = np.empty(stack)  # x - x_hat, for the residual
    u, y = x[0], x[1:]
    u_hat, y_hat = x_hat[0], x_hat[1:]
    sq = np.empty(y.shape)
    diff = np.empty(grid.shape)  # u - chi, mean removed
    arg = np.empty(grid.shape)  # primal argument of the projection
    adj = np.empty(grid.shape)  # adjoint stencil of the dual
    ext = np.empty(grid.shape)  # extrapolated primal 2 u_hat - u
    mag = np.empty(grid.shape)
    work = (np.empty(grid.shape), np.empty(grid.shape, bool))

    iters = 0
    converged = False
    residual = np.inf
    for iters in range(1, cfg.pd_max_iters + 1):
        np.subtract(u, chi, out=diff)
        # denormal guard (module docstring): the apply drops the zero mode
        diff -= diff.mean()
        poisson_apply_raw(diff, grid, out=arg)
        arg *= penalty_scale
        arg += t_beta
        arg += grad_forward_adjoint(y, grid, out=adj, scale=t)
        np.subtract(u, arg, out=arg)
        shift = _project_box_mass(arg, mean_target, shift, out=u_hat,
                                  work=work)[1]
        np.multiply(u_hat, 2.0, out=ext)
        ext -= u
        grad_forward(ext, grid, out=y_hat, scale=sigma)
        y_hat += y
        _clip_dual(y_hat, p.c0, sq, mag)

        if iters % _CHECK_EVERY == 0 or iters == cfg.pd_max_iters:
            # t times the primal residual du/t - K^T dy and sigma times the
            # dual residual dy/sigma - K du, on du = u - u_hat, dy = y - y_hat
            np.subtract(x, x_hat, out=dx)
            du, dy = dx[0], dx[1:]
            np.subtract(du, grad_forward_adjoint(dy, grid, out=adj, scale=t),
                         out=arg)
            dy -= grad_forward(du, grid, out=sq, scale=sigma)
            p_res = np.linalg.norm(arg) + t * lip * np.linalg.norm(du)
            unorm = max(1.0, float(np.linalg.norm(u_hat)))
            ynorm = max(1.0, float(np.linalg.norm(y_hat)))
            residual = max(p_res / unorm, float(np.linalg.norm(dy)) / ynorm)
            if residual <= cfg.pd_tol:
                converged = True
                break
        np.subtract(x_hat, x, out=x)
        x *= _RELAX - 1.0
        x += x_hat

    out = PhaseField(grid, u_hat, m0=chi_prev.m0)
    info = SolveInfo(iters=iters, converged=converged, residual=float(residual))
    return out, info, (u_hat, y_hat, shift)


def mass_threshold(u):
    """Binary field matching the mass target: the k cells of largest value.

    The cells are picked by `fields._top_cells`, ties by raster index, so
    the output is deterministic.
    """
    grid = u.domain
    vals = u.values
    if float(vals.max() - vals.min()) <= 1e-12:
        raise ValueError("no interface to threshold")
    vol = grid.cell_volume
    k = min(max(int(round(u.m0 / vol)), 0), vals.size)
    return PhaseField(grid, _top_cells(vals, k), m0=k * vol)


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
    while saving no energy. The anchor is a `make_initial` or
    `mass_threshold` output, so comparing the two feasible binary
    competitors keeps the step guarantee (energy plus penalty never
    above the previous energy) unconditional instead of empirical.
    """
    obj_cand = _objective(cand, anchor, tau, p)
    obj_anchor = energy(anchor, p).total
    if obj_cand < obj_anchor:
        return cand, obj_cand
    return anchor, obj_anchor


def _step(chi_anchor, tau, p, cfg, start=None):
    """Relaxed solve at penalty time tau, mass threshold, binary selection.

    Returns (chi_next, binary objective, relaxed minimizer, SolveInfo, end).
    """
    relaxed, info, end = _solve_relaxed(chi_anchor, tau, p, cfg, start)
    chi_next, obj_binary = _select_binary(
        mass_threshold(relaxed), chi_anchor, tau, p
    )
    return chi_next, obj_binary, relaxed, info, end


def mm_step(chi_prev, p, cfg, start=None):
    """One implicit step: _step at tau = h.

    The binary output is the better of the thresholded candidate and
    chi_prev itself, measured by the full movement-penalized objective;
    see _select_binary. The relaxation gap is the binary objective minus
    the relaxed one. `start`, if given, is the end of an earlier solve on
    chi_prev, from which the PD iteration begins instead of cold.
    """
    chi_next, obj_binary, relaxed, info, _end = _step(chi_prev, cfg.h, p, cfg, start)
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

    Returns (field, end), where end (see _solve_relaxed) starts the next tau.
    Called with the same `start` (see mm_step), the tau = h field
    reproduces the mm_step output bit for bit. It carries the solver record
    (iterations, convergence flag, final relative residual) in its
    `pd_info` attribute; a kept anchor comes back as a fresh copy.
    """
    if tau > cfg.h:
        raise ValueError("interpolation time tau must not exceed the step h")
    out, _obj, _relaxed, info, end = _step(chi_anchor, tau, p, cfg, start)
    if out is chi_anchor:
        out = PhaseField(out.domain, out.values, m0=out.m0)
    out.pd_info = info
    return out, end


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
    recorded there, so only the S-1 interior states are stored, each as a
    (tau, field) snapshot, step after step: step n's samples are the n-th
    block of S-1. The solves of one step run in increasing tau,
    as a continuation: tau = h/S starts cold, and every later one, the step
    at tau = h last, starts from the end state of the one before.

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
            snap, start = de_giorgi_interpolant(chi, tau_j, p, cfg, start=start)
            info = snap.pd_info
            _require_converged(info.converged, info.iters, n + 1, tau_j, cfg)
            snaps.append((tau_j, snap))
        res = mm_step(chi, p, cfg, start=start)
        _require_converged(res.converged, res.pd_iters, n + 1, cfg.h, cfg)
        fixed = res.chi_next is chi or np.array_equal(
            res.chi_next.values, chi.values
        )
        repeats = (n_steps - n) if fixed else 1
        for _ in range(repeats):
            traj.interpolant_snapshots.extend(snaps)
            traj.steps.append(res)
            n += 1
        chi = res.chi_next
    return traj
