"""Cell-centered fields on a rectangular box and the spectral Neumann calculus.

The box Omega = (0, L_1) x ... x (0, L_d) is discretized into cells whose
centers sit at ((i + 1/2) h_1, ...). Array axis 0 is the x axis. Scalar
fields are expanded in the cosine basis that diagonalizes the Laplacian with
zero-flux walls; axis derivatives of that basis land exactly in the matching
sine basis. Working with the continuum symbol -(pi k / L)^2 in that basis
makes the Poisson solve, the H1 inner product of potentials and the duality
between source and potential exact up to roundoff, which the verification
layers rely on.

The cosine transform is a dense matrix product per axis, with one cached
orthonormal DCT-II matrix for each axis of a grid. That is O(n) work per
value and axis against an FFT's O(log n), paid in one BLAS call per axis
instead of an FFT's per-call set-up. On one core a Poisson apply (transform
and inverse) takes 0.4 to 0.6 times scipy.fft's time at 32^2 and 64^2 and
0.3 times at 16^3 and 32^3; it stops paying above that, at 1.3 times
scipy.fft's time at 128^2 and 2.5 times at 256^2. The shipped scenarios,
checks and benchmark solve on 128^2 at most, where the cheaper stencils
and projection of an iteration make up the difference.

Real-space difference operators (forward with its exact adjoint, and
centered with reflected ghosts) are kept separate from the spectral
calculus: they serve the total-variation energy and the varifold
diagnostics, where staircase fields make spectral differentiation useless.

Wall reflection is one rule, applied by `_ghost_pad` for the centered
stencils here and for the flow maps in `flows`: every component gets one
ghost layer on every side that mirrors its boundary cell, and a
wall-tangential field (zero normal component on the faces) also negates
each component in the ghost layers across the faces normal to its own
axis. The negation multiplies the ghost view in place, because numpy 2.4's
`negative` ufunc, given a single-column view of some small arrays as its
`out` (seen on 8 x 8), writes the negated first row into it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

MEAN_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class GridDomain:
    """Uniform cell-centered grid on a d-dimensional box."""

    dims: tuple
    lengths: tuple

    @property
    def d(self):
        return len(self.dims)

    @property
    def shape(self):
        return self.dims

    @property
    def spacing(self):
        return tuple(L / n for L, n in zip(self.lengths, self.dims))

    @property
    def cell_volume(self):
        vol = 1.0
        for h in self.spacing:
            vol *= h
        return vol

    @property
    def volume(self):
        v = 1.0
        for L in self.lengths:
            v *= L
        return v

    def face_area(self, axis):
        """Measure of one cell face orthogonal to `axis`."""
        return self.cell_volume / self.spacing[axis]

    def cell_centers(self, axis):
        n = self.dims[axis]
        h = self.spacing[axis]
        return (np.arange(n) + 0.5) * h

    def meshes(self):
        """Coordinate arrays of shape `dims`, one per axis."""
        axes = [self.cell_centers(a) for a in range(self.d)]
        return np.meshgrid(*axes, indexing="ij")


def make_grid(d, dims, lengths):
    if d not in (2, 3):
        raise ValueError("unsupported dimension d=%r (only 2 and 3)" % (d,))
    dims = tuple(int(n) for n in dims)
    lengths = tuple(float(L) for L in lengths)
    if len(dims) != d or len(lengths) != d:
        raise ValueError(
            "expected %d entries, got dims=%r lengths=%r" % (d, dims, lengths)
        )
    for a, n in enumerate(dims):
        if n < 8:
            raise ValueError("axis %d has %d cells, need at least 8" % (a, n))
    for a, L in enumerate(lengths):
        if not (L > 0) or not np.isfinite(L):
            raise ValueError("axis %d has non-positive extent %r" % (a, L))
    return GridDomain(dims, lengths)


class ScalarField:
    """One float64 value per cell."""

    def __init__(self, domain, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != domain.shape:
            raise ValueError(
                "value shape %r does not match grid %r" % (values.shape, domain.shape)
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite entries")
        self.domain = domain
        self.values = values

    def integral(self):
        return float(self.values.sum()) * self.domain.cell_volume


class MeanZeroField(ScalarField):
    """Scalar field whose mean vanishes (the zero-average function spaces).

    Used both for Poisson sources and for the potentials they generate.
    """

    def __init__(self, domain, values):
        super().__init__(domain, values)
        scale = max(1.0, float(np.max(np.abs(self.values))) if self.values.size else 1.0)
        if abs(self.values.mean()) > MEAN_ZERO_RTOL * scale:
            raise ValueError(
                "field mean %.3e is not zero at the required tolerance"
                % self.values.mean()
            )


class VectorField:
    """d scalar components on a common grid.

    `tangential` declares that the represented continuum field has zero
    normal component on every box face. Cell-centered samples cannot witness
    a face value, so the flag is set either explicitly by a trusted
    constructor or by probing an analytic definition on the faces (see
    `vector_from_callables`).
    """

    def __init__(self, domain, components, tangential=False):
        comps = []
        for c in components:
            arr = np.asarray(c, dtype=np.float64)
            if arr.shape != domain.shape:
                raise ValueError("component shape %r does not match grid" % (arr.shape,))
            if not np.all(np.isfinite(arr)):
                raise ValueError("vector field contains non-finite entries")
            comps.append(arr)
        if len(comps) != domain.d:
            raise ValueError("expected %d components, got %d" % (domain.d, len(comps)))
        self.domain = domain
        self.components = tuple(comps)
        self.tangential = bool(tangential)

    def max_norm(self):
        sq = sum(c * c for c in self.components)
        return float(np.sqrt(sq.max()))


def require_same_grid(a, b):
    if a.domain != b.domain:
        raise ValueError("domain mismatch between fields")


def project_mean_zero(f):
    """Subtract the mean. Idempotent; constants map to zero."""
    return MeanZeroField(f.domain, f.values - f.values.mean())


def _face_probe_points(grid, axis, side, per_axis=7):
    """Points spread over one box face, for probing analytic definitions."""
    coords = []
    for a in range(grid.d):
        if a == axis:
            coords.append(np.array([0.0 if side == 0 else grid.lengths[a]]))
        else:
            coords.append(np.linspace(0.0, grid.lengths[a], per_axis))
    return np.meshgrid(*coords, indexing="ij")


def vector_from_callables(grid, fns, tangential=None):
    """Sample analytic component functions fns[a](*meshes) at cell centers.

    When `tangential` is None the functions themselves are probed on each
    face: the normal component must vanish there (within 1e-10 of the field
    scale) for the flag to be set.
    """
    meshes = grid.meshes()
    comps = [np.asarray(fn(*meshes), dtype=np.float64) + np.zeros(grid.shape) for fn in fns]
    if tangential is None:
        scale = max(1.0, max(float(np.max(np.abs(c))) for c in comps))
        tangential = True
        for a in range(grid.d):
            for side in (0, 1):
                pts = _face_probe_points(grid, a, side)
                vals = np.asarray(fns[a](*pts), dtype=np.float64)
                if np.max(np.abs(vals)) > 1e-10 * scale:
                    tangential = False
    return VectorField(grid, comps, tangential=tangential)


# ---------------------------------------------------------------------------
# Spectral Neumann calculus
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _neumann_symbol(grid):
    """Eigenvalues -(sum_a (pi k_a / L_a)^2) on the cosine basis, shape dims."""
    sym = np.zeros(grid.shape)
    for a in range(grid.d):
        k = np.arange(grid.dims[a], dtype=np.float64)
        lam = (np.pi * k / grid.lengths[a]) ** 2
        shape = [1] * grid.d
        shape[a] = grid.dims[a]
        sym = sym + lam.reshape(shape)
    return -sym


@lru_cache(maxsize=32)
def _cosine_plan(grid):
    """Per axis: the orthonormal DCT-II matrix and the (rows, n, columns) view.

    Row k of an axis matrix samples sqrt(2/n) cos(pi k (i + 1/2) / n) at the
    cell index i (row 0 is the constant sqrt(1/n)); the phase k (2i + 1) is
    reduced modulo 4n in integers first, so every cosine argument stays in
    [0, 2 pi) and the entries are accurate to rounding at any n.
    """
    plan = []
    for a, n in enumerate(grid.dims):
        k = np.arange(n).reshape(-1, 1)
        i = np.arange(n).reshape(1, -1)
        mat = np.cos(np.pi * ((k * (2 * i + 1)) % (4 * n)) / (2.0 * n))
        mat *= np.sqrt(2.0 / n)
        mat[0] = np.sqrt(1.0 / n)
        mat.flags.writeable = False
        plan.append((mat, (-1, n, int(np.prod(grid.dims[a + 1:])))))
    return tuple(plan)


def _cosine(values, grid, inverse=False):
    """Orthonormal DCT-II coefficients of `values`, or its inverse.

    One matrix product per axis: the last axis multiplies the rows of a
    (cells, n) view from the right, every other axis is a batched product
    over contiguous (n, columns) blocks. In 2-D that is C0 @ v @ C1.T
    forward and C0.T @ c @ C1 back.
    """
    out = values
    last = grid.d - 1
    for a, (mat, blocks) in enumerate(_cosine_plan(grid)):
        if inverse:
            mat = mat.T
        if a == last:
            out = out.reshape(blocks[:2]) @ mat.T
        else:
            out = np.matmul(mat, out.reshape(blocks))
    return out.reshape(grid.shape)


@lru_cache(maxsize=32)
def _poisson_divisor(grid):
    """The Neumann symbol with its zero mode (the only zero) set to 1."""
    div = _neumann_symbol(grid).copy()
    div[(0,) * grid.d] = 1.0
    div.flags.writeable = False
    return div


def poisson_apply_raw(values, grid):
    """Array-level inverse Laplacian (zero-flux walls, zero mode dropped)."""
    coeffs = _cosine(values, grid)
    coeffs /= _poisson_divisor(grid)
    coeffs[(0,) * grid.d] = 0.0
    return _cosine(coeffs, grid, inverse=True)


def neumann_solve(F):
    """Potential u with Laplacian u = F and zero-flux walls, mean zero.

    The source must have zero mean (a compatible right-hand side); the
    output mean is re-projected to absorb roundoff drift.
    """
    scale = max(1.0, float(np.max(np.abs(F.values))))
    if abs(F.values.mean()) > 1e-10 * scale:
        raise ValueError("incompatible source: mean %.3e is not zero" % F.values.mean())
    grid = F.domain
    u = poisson_apply_raw(F.values, grid)
    u = u - u.mean()
    return MeanZeroField(grid, u)


def h1_inner(u, v):
    """Dirichlet inner product of two mean-zero potentials.

    Computed in the cosine basis, where each axis derivative is an exact
    multiplication by pi k / L; together with the cell quadrature this is the
    integral of grad u . grad v without stencil error.
    """
    require_same_grid(u, v)
    grid = u.domain
    sym = _neumann_symbol(grid)
    cu = _cosine(u.values, grid)
    cv = _cosine(v.values, grid)
    return float(np.sum((-sym) * cu * cv)) * grid.cell_volume


def hminus_inner(F, G):
    """Inner product of two sources in the dual (negative-order) metric.

    Equal to h1_inner of their potentials; evaluated directly on the
    spectral symbol so no intermediate solve is needed.
    """
    require_same_grid(F, G)
    grid = F.domain
    sym = _neumann_symbol(grid)
    cF = _cosine(F.values, grid)
    cG = _cosine(G.values, grid)
    nz = sym != 0.0
    return float(np.sum(cF[nz] * cG[nz] / (-sym[nz]))) * grid.cell_volume


def hminus_norm_sq(F):
    return hminus_inner(F, F)


# ---------------------------------------------------------------------------
# Real-space difference operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _stencil_plan(grid):
    """Per axis, the spacing and index tuples of the forward stencil and its
    adjoint, built once per grid.

    Forward entries are (h, head, tail, last) and adjoint entries
    (h, first, lower, inner, last, second_last): the slices 0..n-2, 1..n-1,
    n-1, 0, 0..n-3, 1..n-2 and n-2 along the axis, whole along the others.
    """

    def sl(axis, lo, hi):
        s = [slice(None)] * grid.d
        s[axis] = slice(lo, hi)
        return tuple(s)

    forward, adjoint = [], []
    for a, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        forward.append((h, sl(a, 0, n - 1), sl(a, 1, n), sl(a, n - 1, n)))
        adjoint.append((h, sl(a, 0, 1), sl(a, 0, n - 2), sl(a, 1, n - 1),
                        sl(a, n - 1, n), sl(a, n - 2, n - 1)))
    return tuple(forward), tuple(adjoint)


def grad_forward(values, grid):
    """Forward differences per axis, zero on the last slice of each axis.

    This is the gradient operator of the discrete total variation; its exact
    negative adjoint is `grad_forward_adjoint`.
    """
    out = []
    for h, head, tail, last in _stencil_plan(grid)[0]:
        g = np.empty(values.shape)
        np.subtract(values[tail], values[head], out=g[head])
        g[head] /= h
        g[last] = 0.0
        out.append(g)
    return out


def grad_forward_adjoint(ps, grid):
    """Exact transpose of grad_forward: sum_cells (grad u)_a p_a = sum u * out.

    Row i of the forward difference along an axis writes +1/h at i+1 and
    -1/h at i, for i = 0 .. n-2, so the transpose is -p_0 on the first
    slice, p_{i-1} - p_i inside and p_{n-2} on the last slice, over h.
    """
    out = np.empty(grid.shape)
    scratch = np.empty(grid.shape)
    plan = _stencil_plan(grid)[1]
    for a, (h, first, lower, inner, last, second_last) in enumerate(plan):
        p = ps[a]
        acc = out if a == 0 else scratch
        # negate by copy: the `negative` ufunc miscomputes into some
        # single-column views (module docstring)
        acc[first] = -p[first]
        np.subtract(p[lower], p[inner], out=acc[inner])
        acc[last] = p[second_last]
        acc /= h
        if acc is not out:
            out += acc
    return out


def tv_forward(values, grid):
    """Isotropic discrete total variation (cell quadrature)."""
    gs = grad_forward(values, grid)
    mag = np.sqrt(sum(g * g for g in gs))
    return float(mag.sum()) * grid.cell_volume


def _ghost_pad(components, tangential):
    """Components padded by one ghost layer on every side.

    The ghosts follow the wall reflection rule of the module docstring,
    with the odd sign only when `tangential` is set.
    """
    padded = []
    for a, comp in enumerate(components):
        out = np.pad(comp, 1, mode="edge")
        if tangential:
            for face in (0, -1):
                ghost = [slice(None)] * out.ndim
                ghost[a] = face
                out[tuple(ghost)] *= -1.0
        padded.append(out)
    return tuple(padded)


def _centered(padded, axis, grid):
    """Centered difference along one axis of a `_ghost_pad` output, per cell."""
    up = [slice(1, -1)] * grid.d
    lo = [slice(1, -1)] * grid.d
    up[axis] = slice(2, None)
    lo[axis] = slice(0, -2)
    return (padded[tuple(up)] - padded[tuple(lo)]) / (2.0 * grid.spacing[axis])


def grad_centered(values, grid):
    """Centered gradient with even ghosts (zero normal derivative)."""
    (padded,) = _ghost_pad((values,), tangential=False)
    return [_centered(padded, a, grid) for a in range(grid.d)]


def div_mirror(components, grid, tangential=False):
    """Direct centered divergence with reflected ghosts.

    With tangential=True the normal component uses the odd reflection, so a
    wall-tangential field keeps zero flux through the faces.
    """
    out = np.zeros(grid.shape)
    for a, padded in enumerate(_ghost_pad(components, tangential)):
        out += _centered(padded, a, grid)
    return out


def jacobian(vec, grid):
    """All partials J[b][a] = d(component b)/d(axis a), centered stencils.

    Each component is padded once, by the rule of `vec.tangential`, so on
    a wall-tangential field only a component's derivative along its own
    axis sees the odd ghost.
    """
    return [
        [_centered(padded, a, grid) for a in range(grid.d)]
        for padded in _ghost_pad(vec.components, vec.tangential)
    ]


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

def _bump_taps(eps, h):
    w = int(np.floor(eps / h))
    offsets = np.arange(-w, w + 1)
    t = offsets * h / eps
    taps = np.zeros(offsets.size)
    inside = np.abs(t) < 1.0
    taps[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    s = taps.sum()
    if s <= 0.0:
        return np.array([1.0])
    return taps / s


def mollify(values, grid, eps):
    """Smooth by a tensor-product compact bump of radius eps.

    Walls are handled by symmetric reflection, which keeps the operator
    self-adjoint on the cell values and preserves the total sum exactly.
    """
    if eps < max(grid.spacing):
        raise ValueError("under-resolved mollification: eps below grid spacing")
    out = np.array(values, dtype=np.float64)
    for a in range(grid.d):
        taps = _bump_taps(eps, grid.spacing[a])
        if taps.size > 1:
            out = ndimage.correlate1d(out, taps, axis=a, mode="reflect")
    return out
