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
"""

import numpy as np
from scipy.fft import dctn, idctn

from mskit.fields import _neumann_symbol, div_mirror


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
