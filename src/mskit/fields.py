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
orthonormal DCT-II matrix and its contiguous transpose for each axis of a
grid. That is O(n) work per value and axis against an FFT's O(log n), paid
in one BLAS call per axis instead of an FFT's per-call set-up. Every
product writes into a buffer: `_bind_poisson` fetches the matrices and the
inverse symbol, allocates the buffers and binds the products and the
symbol multiply to them and to the source and output arrays (`_bound`).
The primal-dual solve in `minmov` binds one Poisson apply per solve and
runs it every iteration. On one core a bound Poisson apply (transform and
inverse) takes 0.28 and 0.52 times scipy.fft's time at 32^2 and 64^2 (10
and 40 microseconds) and 0.25 and 0.42 times at 16^3 and 32^3; it stops
paying above that, at 1.4 times scipy.fft's time at 128^2 and 1.9 times
at 256^2. The shipped scenarios, checks and benchmark solve on 128^2 at
most, where the cheaper stencils and projection of an iteration make up
the difference.

Real-space difference operators (forward with its exact adjoint, and
centered with reflected ghosts) are kept separate from the spectral
calculus: they serve the total-variation energy and the varifold
diagnostics, where staircase fields make spectral differentiation useless.
The forward stencil and its adjoint are bound the same way, from
`_stencil_plan` (per axis the spacing, the flat stride and the boundary
slices), by `_bind_grad_forward` and `_bind_grad_adjoint`. The public
kernels `poisson_apply_raw`, `grad_forward` and `grad_forward_adjoint` run
their binder once into a new array, the stencils dividing by h exactly;
the in-place, scaled forms are the binders, which the solve runs.

Wall reflection is one rule, applied by `_ghost_pad` for the centered
stencils here and for the flow maps in `flows`: every component gets one
ghost layer on every side that mirrors its boundary cell, and a
wall-tangential field (zero normal component on the faces) also negates
each component in the ghost layers across the faces normal to its own
axis. The negation multiplies the ghost view in place, because numpy 2.4's
`negative` ufunc, given a single-column view of some small arrays as its
`out` (seen on 8 x 8), writes the negated first row into it.

Cell averages are one rule too: `cell_average` takes the mean of a sampled
function over the 4^d centred sub-lattice of each cell, summing the samples
in the order of `_sublattice_shifts`, which states the offsets once. It
rasterises the initial shapes in `scenarios`; `flows` pulls fields back
through flow maps on the same sub-lattice, in the same order.

`mollify` correlates one axis at a time with symmetric walls, in numpy
alone. It keeps the order of scipy.ndimage's symmetric-filter loop (centre
tap first, then the mirrored pairs from the outermost inwards), so it
returns `correlate1d(..., mode="reflect")` bit for bit; summing the pairs
innermost first moves results by an ulp.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MEAN_ZERO_RTOL = 1e-12
_SUBLATTICE = 4
_FACE_PROBES = 7  # probe points per axis on a box face


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


def make_grid(dims, lengths):
    dims = tuple(int(n) for n in dims)
    lengths = tuple(float(L) for L in lengths)
    if len(dims) not in (2, 3):
        raise ValueError("unsupported dimension d=%d (only 2 and 3)" % len(dims))
    if len(lengths) != len(dims):
        raise ValueError("dims=%r and lengths=%r disagree" % (dims, lengths))
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


def _sublattice_shifts(grid):
    """Displacements of a cell's sub-lattice points from its centre, in order.

    Per axis the offsets are (k + 1/2) / _SUBLATTICE - 1/2 cell widths, so
    no point lies farther than 1/2 - 1/(2 _SUBLATTICE) of a cell from its
    centre. The list runs over the offset tuples in itertools.product order,
    which is the order every cell average sums its samples in.
    """
    offs = (np.arange(_SUBLATTICE) + 0.5) / _SUBLATTICE - 0.5
    return [
        tuple(shift[a] * grid.spacing[a] for a in range(grid.d))
        for shift in itertools.product(offs, repeat=grid.d)
    ]


def cell_average(grid, sample):
    """Per cell, the mean of sample(*points) over its centred sub-lattice.

    sample gets one grid-shaped array per axis, once per entry of
    `_sublattice_shifts`, and the samples are summed in that order.
    """
    centers = grid.meshes()
    shifts = _sublattice_shifts(grid)
    acc = np.zeros(grid.shape)
    for shift in shifts:
        acc += sample(*[centers[a] + shift[a] for a in range(grid.d)])
    return acc / len(shifts)


def _top_cells(values, k):
    """Indicator of the k cells of largest value, ties by raster index."""
    out = np.zeros(values.size)
    out[np.argsort(-values.ravel(), kind="stable")[:k]] = 1.0
    return out.reshape(values.shape)


def require_same_grid(a, b):
    if a.domain != b.domain:
        raise ValueError("domain mismatch between fields")


def project_mean_zero(f):
    """Subtract the mean. Idempotent; constants map to zero."""
    return MeanZeroField(f.domain, f.values - f.values.mean())


def _face_probe_points(grid, axis, side):
    """Points spread over one box face, for probing analytic definitions."""
    coords = []
    for a in range(grid.d):
        if a == axis:
            coords.append(np.array([0.0 if side == 0 else grid.lengths[a]]))
        else:
            coords.append(np.linspace(0.0, grid.lengths[a], _FACE_PROBES))
    return np.meshgrid(*coords, indexing="ij")


def vector_from_callables(grid, fns):
    """Sample analytic component functions fns[a](*meshes) at cell centers.

    The functions themselves are probed on each face: the field is
    wall-tangential when every normal component vanishes there, within
    1e-10 of the field scale.
    """
    meshes = grid.meshes()
    comps = [np.asarray(fn(*meshes), dtype=np.float64) + np.zeros(grid.shape) for fn in fns]
    scale = max(1.0, max(float(np.max(np.abs(c))) for c in comps))
    tangential = all(
        np.max(np.abs(np.asarray(fns[a](*_face_probe_points(grid, a, side)),
                                 dtype=np.float64))) <= 1e-10 * scale
        for a in range(grid.d) for side in (0, 1)
    )
    return VectorField(grid, comps, tangential=tangential)


# ---------------------------------------------------------------------------
# Spectral Neumann calculus
# ---------------------------------------------------------------------------

def _bound(calls, result):
    """A kernel bound to its arrays: a function of no arguments that runs
    `calls`, (function, arguments) pairs, in order and returns `result`.

    The binders below (`_bind_poisson`, `_bind_grad_forward`,
    `_bind_grad_adjoint`) build the calls from views of the arrays they
    are given, so a kernel bound once recomputes its output from what its
    input arrays hold each time it runs, as long as every input is
    C-contiguous (a reshape of any other array is a copy, taken when the
    kernel is bound). A primal-dual solve binds each kernel once and runs
    it every iteration; the public kernels bind and run once per call.
    """
    def run():
        for fn, args in calls:
            fn(*args)
        return result

    return run


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
    """Per axis: the orthonormal DCT-II matrix C, its transpose as a
    contiguous copy, and the shape that exposes the axis to one product.

    Row k of C samples sqrt(2/n) cos(pi k (i + 1/2) / n) at the cell index i
    (row 0 is the constant sqrt(1/n)); the phase k (2i + 1) is reduced
    modulo 4n in integers first, so every cosine argument stays in
    [0, 2 pi) and the entries are accurate to rounding at any n. Keeping
    both C and its transpose contiguous means no product multiplies a
    transposed view, which BLAS runs about 1.5 times slower at 64^2.

    The shape is (n, columns) on the leading axis, a plain matrix for a
    product from the left; (blocks, n, columns) on a middle axis, a batch
    of such products; and (rows, n) on the last axis, for a product from
    the right.
    """
    plan = []
    last = grid.d - 1
    for a, n in enumerate(grid.dims):
        k = np.arange(n).reshape(-1, 1)
        i = np.arange(n).reshape(1, -1)
        mat = np.cos(np.pi * ((k * (2 * i + 1)) % (4 * n)) / (2.0 * n))
        mat *= np.sqrt(2.0 / n)
        mat[0] = np.sqrt(1.0 / n)
        mat_t = np.ascontiguousarray(mat.T)
        mat.flags.writeable = False
        mat_t.flags.writeable = False
        columns = int(np.prod(grid.dims[a + 1:]))
        if a == 0:
            view = (n, columns)
        elif a < last:
            view = (-1, n, columns)
        else:
            view = (-1, n)
        plan.append((mat, mat_t, view))
    return tuple(plan)


def _transform_calls(values, plan, out, work, inverse=False):
    """The orthonormal DCT-II of `values`, or its inverse, into `out`, as
    np.matmul calls bound to these arrays (see `_bound`).

    One matrix product per axis: every axis but the last multiplies from
    the left, into work[0] on the leading axis and work[1] on the middle
    one; the last multiplies from the right, into `out`. In 2-D that is
    C0 @ v @ C1.T forward and C0.T @ c @ C1 back. `plan` is `_cosine_plan`
    of the grid, `work` a (2, *shape) array and `out` a C-contiguous array
    of the grid shape that is neither half of `work`.
    """
    calls = []
    res = values
    last = len(plan) - 1
    for a, (mat, mat_t, view) in enumerate(plan):
        if a == last:
            args = (res.reshape(view), mat if inverse else mat_t, out.reshape(view))
        else:
            dest = work[a]
            args = (mat_t if inverse else mat, res.reshape(view), dest.reshape(view))
            res = dest
        calls.append((np.matmul, args))
    return calls


def _cosine(values, grid):
    """The orthonormal DCT-II of `values`, run once into a new array."""
    out = np.empty(grid.shape)
    work = np.empty((2,) + grid.shape)
    calls = _transform_calls(values, _cosine_plan(grid), out, work)
    return _bound(calls, out)()


@lru_cache(maxsize=32)
def _inverse_symbol(grid):
    """1 / the Neumann symbol, with 0 on its zero mode (the only zero)."""
    sym = _neumann_symbol(grid)
    inv = np.zeros(grid.shape)
    np.divide(1.0, sym, out=inv, where=sym != 0.0)
    inv.flags.writeable = False
    return inv


def _bind_poisson(values, grid, out):
    """The inverse Laplacian of `values` into `out`, bound by `_bound`.

    The division by the symbol is one multiply by its inverse, whose zero
    mode is 0. A (3, *shape) work array of its own holds the transforms'
    intermediates (the first two slices) and the coefficients (the third).
    """
    cosine, inv = _cosine_plan(grid), _inverse_symbol(grid)
    work = np.empty((3,) + grid.shape)
    coeffs = work[2]
    calls = (_transform_calls(values, cosine, coeffs, work)
             + [(np.multiply, (coeffs, inv, coeffs))]
             + _transform_calls(coeffs, cosine, out, work, inverse=True))
    return _bound(calls, out)


def poisson_apply_raw(values, grid):
    """Array-level inverse Laplacian (zero-flux walls, zero mode dropped).

    `_bind_poisson`, run once into a new array.
    """
    return _bind_poisson(values, grid, np.empty(grid.shape))()


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


def h1_norm_sq(u):
    """Squared Dirichlet norm of a mean-zero potential.

    Computed in the cosine basis, where each axis derivative is an exact
    multiplication by pi k / L; together with the cell quadrature this is the
    integral of |grad u|^2 without stencil error.
    """
    grid = u.domain
    sym = _neumann_symbol(grid)
    cu = _cosine(u.values, grid)
    return float(np.sum((-sym) * cu * cu)) * grid.cell_volume


def hminus_norm_sq(F):
    """Squared dual (negative-order) norm of a mean-zero source.

    Equal to h1_norm_sq of its potential; evaluated directly on the
    spectral symbol so no intermediate solve is needed.
    """
    grid = F.domain
    sym = _neumann_symbol(grid)
    nz = sym != 0.0
    cF = _cosine(F.values, grid)[nz]
    return float(np.sum(cF * cF / (-sym[nz]))) * grid.cell_volume


# ---------------------------------------------------------------------------
# Real-space difference operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _stencil_plan(grid):
    """Per axis, the spacing, the flat stride and the index tuples of the
    first, second-last and last slices, built once per grid.

    The stride is the distance in a raveled C-ordered array between a cell
    and its successor along the axis.
    """

    def sl(axis, lo, hi):
        s = [slice(None)] * grid.d
        s[axis] = slice(lo, hi)
        return tuple(s)

    return tuple(
        (h, int(np.prod(grid.dims[a + 1:])), sl(a, 0, 1), sl(a, n - 2, n - 1),
         sl(a, n - 1, n))
        for a, (n, h) in enumerate(zip(grid.dims, grid.spacing))
    )


def _scale_call(diffs, h, scale):
    """The call that divides `diffs` in place by the spacing h (scale None:
    the public kernels), or multiplies it by scale / h (the stencils that
    `minmov._solve_relaxed` binds, which fold a PD step size in)."""
    if scale is None:
        return np.divide, (diffs, h, diffs)
    return np.multiply, (diffs, scale / h, diffs)


def _bind_grad_forward(values, grid, out, scale):
    """Forward differences of `values` into the (d, *shape) `out`, bound
    by `_bound`; see grad_forward for the arithmetic.
    """
    flat = values.reshape(-1)
    calls = []
    for g, (h, stride, _first, _second_last, last) in zip(out, _stencil_plan(grid)):
        calls += [
            (np.subtract, (flat[stride:], flat[:-stride], g.reshape(-1)[:-stride])),
            (np.copyto, (g[last], 0.0)),
            _scale_call(g, h, scale),
        ]
    return _bound(calls, out)


def _bind_grad_adjoint(ps, grid, out, scale):
    """grad_forward_adjoint of `ps` into `out`, bound by `_bound`.

    A scratch array of its own holds the axes after the first before they
    are added to `out`. The first slice is negated by a multiply: the
    `negative` ufunc miscomputes into some single-column views (module
    docstring).
    """
    calls = []
    scratch = np.empty(grid.shape)
    plan = _stencil_plan(grid)
    for a, (p, (h, stride, first, second_last, last)) in enumerate(zip(ps, plan)):
        acc = out if a == 0 else scratch
        flat = p.reshape(-1)
        calls += [
            (np.subtract, (flat[:-stride], flat[stride:], acc.reshape(-1)[stride:])),
            (np.multiply, (p[first], -1.0, acc[first])),
            (np.copyto, (acc[last], p[second_last])),
            _scale_call(acc, h, scale),
        ]
        if acc is not out:
            calls.append((np.add, (out, acc, out)))
    return _bound(calls, out)


def grad_forward(values, grid):
    """Forward differences per axis, zero on the last slice of each axis.

    This is the gradient operator of the discrete total variation; its exact
    negative adjoint is `grad_forward_adjoint`. Returns the components
    stacked in a new (d, *shape) array. Each axis is one subtraction over
    the raveled arrays, shifted by the axis stride; the differences that
    wrap from one row into the next all land on the last slice, which is
    zeroed after. Each axis is then divided by its spacing, which is
    np.diff over h bit for bit.
    """
    return _bind_grad_forward(values, grid, np.empty((grid.d,) + grid.shape), None)()


def grad_forward_adjoint(ps, grid):
    """Exact transpose of grad_forward: sum_cells (grad u)_a p_a = sum u * out.

    Row i of the forward difference along an axis writes +1/h at i+1 and
    -1/h at i, for i = 0 .. n-2, so the transpose is -p_0 on the first
    slice, p_{i-1} - p_i inside and p_{n-2} on the last slice, over h.
    `ps` holds one component per axis, as a list or stacked. The inside is
    one subtraction over the raveled arrays per axis, and the first and
    last slices are then overwritten.
    """
    return _bind_grad_adjoint(ps, grid, np.empty(grid.shape), None)()


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


def div_mirror(components, grid, tangential):
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
    # mollify keeps eps >= h, so w >= 1 and the centre tap e^-1 is positive
    w = int(np.floor(eps / h))
    offsets = np.arange(-w, w + 1)
    t = offsets * h / eps
    taps = np.zeros(offsets.size)
    inside = np.abs(t) < 1.0
    taps[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return taps / taps.sum()


def _correlate_symmetric(values, taps, axis):
    """Correlate one axis with symmetric taps, walls reflected symmetrically.

    The arithmetic is scipy.ndimage's for a symmetric filter
    (`NI_Correlate1D`): the centre tap times the cell, then the mirrored
    pair sums times their tap, from the outermost pair inwards. This order
    makes `mollify` bit for bit `correlate1d(..., mode="reflect")`.
    """
    w = taps.size // 2
    n = values.shape[axis]
    pad = [(0, 0)] * values.ndim
    pad[axis] = (w, w)
    padded = np.pad(values, pad, mode="symmetric")

    def shifted(j):
        index = [slice(None)] * values.ndim
        index[axis] = slice(w + j, w + j + n)
        return padded[tuple(index)]

    acc = shifted(0) * taps[w]
    for j in range(w, 0, -1):
        acc += (shifted(-j) + shifted(j)) * taps[w - j]
    return acc


def mollify(values, grid, eps):
    """Smooth by a tensor-product compact bump of radius eps.

    Walls are handled by symmetric reflection, which keeps the operator
    self-adjoint on the cell values and preserves the total sum exactly.
    """
    if eps < max(grid.spacing):
        raise ValueError("under-resolved mollification: eps below grid spacing")
    out = np.array(values, dtype=np.float64)
    for a in range(grid.d):
        out = _correlate_symmetric(out, _bump_taps(eps, grid.spacing[a]), a)
    return out
