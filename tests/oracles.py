"""Independent reference computations shared by the test suite.

The dense Neumann solver below never touches scipy.fft: the cosine basis is
synthesized entry by entry with np.cos, assembled into a full matrix with
kron, and the linear system goes through LAPACK. It exercises none of the
code paths of the fast solver except the grid layout conventions.

pair_velocity evaluates the interface velocity pairing through the direct
mirrored divergence, the reference for `energy.velocity_pairing_field`.

d_centered is the per-axis centered stencil that pads only the axis it
differences, mirroring the boundary value and negating it for the odd
(wall-tangential normal component) rule; `fields.grad_centered`,
`fields.div_mirror` and `fields.jacobian`, which pad whole components once
by `fields._ghost_pad`, must reproduce it bit for bit. d_centered_adjoint
and div_adjoint are the hand-derived transposes of the stencil with even
ghosts; they check its boundary rows.

poisson_apply_ref, grad_forward_ref and grad_forward_adjoint_ref are the
plain, allocating forms of the solver kernels (a masked spectral divide
between scipy's cosine transforms, np.diff, one zero-initialised
accumulator per axis). The buffered stencils in `fields` must reproduce
them bit for bit; its Poisson apply, which transforms by per-axis matrix
products, matches to rounding.

solve_relaxed_ref is the primal-dual iteration of `minmov._solve_relaxed`
as it stood before the loop was fused into one workspace: a list of dual
components, the step constants applied one pass at a time, the dual clip
by a masked division and a residual check that allocates. It runs on the
reference kernels above, and on project_box_mass_ref, the box-and-mass
projection that clamps the warm shift into the bracket before its first
evaluation; newton_phase_ref is its part before any bisection. The fused
loop must repeat its iterates to rounding and its iteration counts
exactly.

tangential_fields_2d_ref is the 2-D test-field basis as it was built
before one tapered-field rule served every dimension: the sine envelopes,
the mixing fields, then a dilation and a rotation written out by hand,
each with its own wall taper. It returns the sampled components of each
of the 8 fields, which `energy.default_tangential_fields` must repeat bit
for bit.

pullback_ref is the full-grid pullback: every sub-lattice point of every
cell goes through every flow map, one grid of points per offset, and
`fields.cell_average` sums what the moved points read. `flows._pullback`
interpolates only its interface band and must return the same averages
bit for bit, and raise wherever this raises.

supersampled is the original shape rasteriser: it evaluates an indicator
once on the whole fine lattice of n^d points per cell, placed from the cell
corners, and averages each cell's block. `fields.cell_average` places the
same points from the cell centres, one offset at a time.
"""

import numpy as np
from scipy.fft import dctn, idctn

from mskit import minmov
from mskit.energy import PhaseField, wall_weight
from mskit.fields import _neumann_symbol, cell_average, div_mirror
from mskit.flows import _InterpScratch, _interp_vector, _lookup


def dct2_synthesis_matrix(n):
    """Orthonormal cell-centered cosine basis, columns indexed by frequency."""
    i = np.arange(n).reshape(-1, 1)
    k = np.arange(n).reshape(1, -1)
    C = np.cos(np.pi * k * (i + 0.5) / n)
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return C * scale.reshape(1, -1)


def dense_neumann_matrix(grid):
    """Dense matrix of the spectral Neumann Laplacian, C-order cell raveling."""
    Q = np.array([[1.0]])
    for a in range(grid.d):
        Q = np.kron(Q, dct2_synthesis_matrix(grid.dims[a]))
    sym = np.zeros(grid.shape)
    for a in range(grid.d):
        kk = np.arange(grid.dims[a], dtype=np.float64)
        lam = (np.pi * kk / grid.lengths[a]) ** 2
        shape = [1] * grid.d
        shape[a] = grid.dims[a]
        sym = sym + lam.reshape(shape)
    lam_flat = -sym.ravel(order="C")
    return Q @ (lam_flat.reshape(-1, 1) * Q.T)


def dense_neumann_solve(grid, f_values):
    """Solve the dense system for a mean-zero right-hand side."""
    n = f_values.size
    M = dense_neumann_matrix(grid)
    # shift by the rank-one averaging matrix to remove the constant kernel;
    # for mean-zero data the shifted solve returns the mean-zero solution
    M_aug = M - np.ones((n, n)) / n
    u = np.linalg.solve(M_aug, f_values.ravel(order="C"))
    return u.reshape(grid.shape, order="C")


def random_mean_zero(grid, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    return v - v.mean()


def pair_velocity(chi, B, u):
    """-integral of chi times div(u B), via the direct mirrored divergence.

    This is the distributional action of the interface velocity on a test
    potential; with a wall-tangential B the wall flux vanishes and the value
    matches the pairing-field quadrature up to stencil error.
    """
    grid = chi.domain
    flux = [u.values * c for c in B.components]
    div = div_mirror(flux, grid, tangential=B.tangential)
    return -float(np.sum(chi.values * div)) * grid.cell_volume


def d_centered(values, axis, grid, odd=False):
    """Centered difference along one axis with reflected ghost cells.

    The ghost cells mirror the boundary value (zero normal derivative);
    odd=True negates them (zero face value).
    """
    h = grid.spacing[axis]
    padded = np.pad(values, [(1, 1) if a == axis else (0, 0) for a in range(grid.d)],
                    mode="edge")
    if odd:
        first = [slice(None)] * grid.d
        last = [slice(None)] * grid.d
        first[axis] = slice(0, 1)
        last[axis] = slice(-1, None)
        padded[tuple(first)] *= -1.0
        padded[tuple(last)] *= -1.0
    up = [slice(None)] * grid.d
    lo = [slice(None)] * grid.d
    up[axis] = slice(2, None)
    lo[axis] = slice(0, -2)
    return (padded[tuple(up)] - padded[tuple(lo)]) / (2.0 * h)


def d_centered_adjoint(values, axis, grid):
    """Exact transpose of d_centered with even ghosts."""
    h = grid.spacing[axis]
    n = grid.dims[axis]

    def sl(lo, hi):
        s = [slice(None)] * grid.d
        s[axis] = slice(lo, hi)
        return tuple(s)

    out = np.zeros(grid.shape)
    # interior columns of the transpose: (p_{j-1} - p_{j+1}) / 2h
    out[sl(1, n)] += values[sl(0, n - 1)]
    out[sl(0, n - 1)] -= values[sl(1, n)]
    # boundary rows of d_centered fold the mirrored ghost back onto the
    # first and last slice, which shows up as a diagonal correction here.
    out[sl(0, 1)] -= values[sl(0, 1)]
    out[sl(n - 1, n)] += values[sl(n - 1, n)]
    return out / (2.0 * h)


def div_adjoint(components, grid):
    """Divergence as the negative transpose of grad_centered."""
    out = np.zeros(grid.shape)
    for a in range(grid.d):
        out -= d_centered_adjoint(components[a], a, grid)
    return out


def poisson_apply_ref(values, grid):
    """Inverse Laplacian by a masked divide on the cosine coefficients."""
    sym = _neumann_symbol(grid)
    coeffs = dctn(values, type=2, norm="ortho")
    out = np.zeros_like(coeffs)
    nz = sym != 0.0
    out[nz] = coeffs[nz] / sym[nz]
    return idctn(out, type=2, norm="ortho")


def grad_forward_ref(values, grid):
    """Forward differences per axis via np.diff, zero on the last slice."""
    out = []
    for a in range(grid.d):
        h = grid.spacing[a]
        g = np.zeros_like(values)
        src = np.diff(values, axis=a) / h
        sl = [slice(None)] * grid.d
        sl[a] = slice(0, grid.dims[a] - 1)
        g[tuple(sl)] = src
        out.append(g)
    return out


def grad_forward_adjoint_ref(ps, grid):
    """Transpose of grad_forward_ref, one accumulator per axis."""
    out = np.zeros(grid.shape)
    for a in range(grid.d):
        h = grid.spacing[a]
        p = ps[a]
        n = grid.dims[a]

        def sl(lo, hi):
            s = [slice(None)] * grid.d
            s[a] = slice(lo, hi)
            return tuple(s)

        acc = np.zeros(grid.shape)
        acc[sl(1, n)] += p[sl(0, n - 1)]
        acc[sl(0, n - 1)] -= p[sl(0, n - 1)]
        out += acc / h
    return out


def newton_phase_ref(v, mean_target, shift):
    """The Newton evaluations of the box-and-mass projection, at most four.

    They start from the warm shift clamped into the bracket
    [-max v, 1 - min v] and step with the one-sided slope towards the
    root. Returns (landed, u, s, lo, hi): whether the last evaluation
    landed, its u = clip(v + s) and s, and the bracket left after it.
    """
    target = mean_target * v.size
    tol = minmov._MEAN_TOL * v.size
    lo, hi = -float(v.max()), 1.0 - float(v.min())
    s = min(max(shift, lo), hi)
    for evals in range(1, 5):
        w = v + s
        u = np.clip(w, 0.0, 1.0)
        r = float(u.sum()) - target
        if abs(r) <= tol:
            return True, u, s, lo, hi
        if r < 0.0:
            lo = s
            slope = np.count_nonzero((w >= 0.0) & (w < 1.0))
        else:
            hi = s
            slope = np.count_nonzero((w > 0.0) & (w <= 1.0))
        if evals == 4 or slope == 0 or not lo < s - r / slope < hi:
            break
        s -= r / slope
    return False, u, s, lo, hi


def project_box_mass_ref(v, mean_target, shift):
    """Box-and-mass projection, the warm shift clamped into the bracket first.

    The Newton phase, then bisection of its bracket until an evaluation
    lands or the bracket ends are adjacent doubles.
    """
    landed, u, s, lo, hi = newton_phase_ref(v, mean_target, shift)
    target = mean_target * v.size
    tol = minmov._MEAN_TOL * v.size
    while not landed:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        s = mid
        u = np.clip(v + s, 0.0, 1.0)
        r = float(u.sum()) - target
        landed = abs(r) <= tol
        if r < 0.0:
            lo = s
        else:
            hi = s
    return u, s


def _clip_dual_ref(ys, c0, mag, factor):
    np.multiply(ys[0], ys[0], out=mag)
    for y in ys[1:]:
        mag += np.multiply(y, y, out=factor)
    np.sqrt(mag, out=mag)
    factor.fill(1.0)
    np.divide(c0, mag, out=factor, where=mag > c0)
    for y in ys:
        y *= factor
    return ys


def solve_relaxed_ref(chi_prev, tau, p, cfg, start=None):
    """The unfused primal-dual loop; returns (relaxed field, SolveInfo, end)."""
    grid = chi_prev.domain
    chi = chi_prev.values
    mean_target = chi_prev.m0 / grid.volume

    beta = p.cos_alpha * p.c0 * wall_weight(grid)
    lip = (max(grid.lengths) / np.pi) ** 2 / tau
    knorm_sq = sum(4.0 / h ** 2 for h in grid.spacing)
    sigma = minmov._DUAL_SCALE * p.c0 / np.sqrt(knorm_sq)
    slack = min((2.0 - minmov._RELAX) / minmov._RELAX, 1.0)
    t = 1.0 / (0.5 * lip / slack * 1.02 + 1.02 * sigma * knorm_sq)

    if start is None:
        u = chi.copy()
        gs = grad_forward_ref(chi, grid)
        mag = np.sqrt(sum(g * g for g in gs))
        safe = np.where(mag > 0.0, mag, 1.0)
        y = [p.c0 * g / safe for g in gs]
        shift = 0.0
    else:
        u = start[0].copy()
        y = [a.copy() for a in start[1]]
        shift = start[2]
    u_hat, y_hat = u, y
    diff = np.empty(grid.shape)
    arg = np.empty(grid.shape)
    ext = np.empty(grid.shape)
    mag = np.empty(grid.shape)
    factor = np.empty(grid.shape)

    iters = 0
    converged = False
    residual = np.inf
    for iters in range(1, cfg.pd_max_iters + 1):
        np.subtract(u, chi, out=diff)
        diff -= diff.mean()
        grad_h = poisson_apply_ref(diff, grid)
        grad_h /= -tau
        grad_h += beta
        grad_h += grad_forward_adjoint_ref(y, grid)
        grad_h *= t
        u_hat, shift = project_box_mass_ref(
            np.subtract(u, grad_h, out=arg), mean_target, shift
        )
        np.multiply(u_hat, 2.0, out=ext)
        ext -= u
        y_hat = grad_forward_ref(ext, grid)
        for a in range(grid.d):
            y_hat[a] *= sigma
            y_hat[a] += y[a]
        _clip_dual_ref(y_hat, p.c0, mag, factor)

        if iters % minmov._CHECK_EVERY == 0 or iters == cfg.pd_max_iters:
            du = u - u_hat
            dy = [y[a] - y_hat[a] for a in range(grid.d)]
            p_res = np.linalg.norm(du / t - grad_forward_adjoint_ref(dy, grid))
            p_res += lip * np.linalg.norm(du)
            gdu = grad_forward_ref(du, grid)
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
            x *= minmov._RELAX - 1.0
            x += x_hat

    if not converged:
        u = u_hat

    out = PhaseField(grid, u, m0=chi_prev.m0)
    info = minmov.SolveInfo(iters=iters, converged=converged,
                            residual=float(residual))
    return out, info, (u_hat, y_hat, shift)


def pullback_ref(chi, maps):
    """Cell averages of chi composed with the maps, every point evaluated."""
    grid = chi.domain
    scratch = _InterpScratch(grid.d, grid.shape)

    def sample(*pts):
        for disp in maps:
            off = _interp_vector(disp, grid, pts, scratch)
            pts = [pts[a] + off[a] for a in range(grid.d)]
        return _lookup(chi.values, grid, pts)

    return cell_average(grid, sample)


def supersampled(grid, indicator, n=4):
    offs = (np.arange(n) + 0.5) / n
    axes = []
    for a in range(grid.d):
        dx = grid.lengths[a] / grid.dims[a]
        base = np.arange(grid.dims[a])[:, None] * dx
        axes.append((base + offs[None, :] * dx).ravel())
    meshes = np.meshgrid(*axes, indexing="ij")
    fine = indicator(*meshes).astype(float)
    shape = []
    for a in range(grid.d):
        shape.extend([grid.dims[a], n])
    fine = fine.reshape(shape)
    return fine.mean(axis=tuple(range(1, 2 * grid.d, 2)))


def tangential_fields_2d_ref(grid):
    """Components of the 8 fields of the 2-D test-field basis, per field."""
    L = grid.lengths
    X, Y = grid.meshes()
    margin = 4.0 * max(grid.spacing)

    def sample(fx, fy):
        return tuple(np.asarray(f(X, Y), dtype=np.float64) + np.zeros(grid.shape)
                     for f in (fx, fy))

    def taper_profile(x, length):
        t = np.clip(np.minimum(x, length - x) / margin, 0.0, 1.0)
        return 0.5 - 0.5 * np.cos(np.pi * t)

    def zero(x, y):
        return np.zeros_like(x)

    cx, cy = 0.5 * L[0], 0.5 * L[1]
    return [
        sample(lambda x, y: np.sin(np.pi * x / L[0]), zero),
        sample(lambda x, y: np.sin(2 * np.pi * x / L[0]), zero),
        sample(zero, lambda x, y: np.sin(np.pi * y / L[1])),
        sample(zero, lambda x, y: np.sin(2 * np.pi * y / L[1])),
        sample(lambda x, y: np.sin(np.pi * x / L[0]) * np.cos(np.pi * y / L[1]),
               zero),
        sample(zero,
               lambda x, y: np.sin(np.pi * y / L[1]) * np.cos(np.pi * x / L[0])),
        sample(lambda x, y: (np.ones_like(x) * taper_profile(x, L[0])
                             * taper_profile(y, L[1])) * (x - cx),
               lambda x, y: (np.ones_like(x) * taper_profile(x, L[0])
                             * taper_profile(y, L[1])) * (y - cy)),
        sample(lambda x, y: -(taper_profile(x, L[0]) * taper_profile(y, L[1]))
               * (y - cy),
               lambda x, y: (taper_profile(x, L[0]) * taper_profile(y, L[1]))
               * (x - cx)),
    ]
