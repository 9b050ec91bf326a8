"""Capillary energy of a phase indicator in a box, and its interface measures.

The energy is c0 times the discrete perimeter of the phase plus a wall term:
cos(alpha) * c0 times the wetted wall area, with alpha the contact angle the
interface makes with the container. Interface geometry for diagnostics comes
from a mollified slice: smooth the indicator, take the centered gradient,
and read off a density, a unit inner normal, and per-face wall traces.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    div_mirror,
    grad_centered,
    grad_forward,
    jacobian,
    mollify,
    require_same_grid,
    tv_forward,
    vector_from_callables,
)

NORMAL_FLOOR = 1e-8
PHASE_MASS_RTOL = 1e-8


@dataclass(frozen=True)
class EnergyParams:
    c0: float
    alpha: float

    def __post_init__(self):
        if self.c0 <= 0:
            raise ValueError("surface tension c0 must be positive")
        if not (0.0 < self.alpha <= np.pi / 2):
            raise ValueError("contact angle must lie in (0, pi/2]")

    @property
    def cos_alpha(self):
        return math.cos(self.alpha)


class PhaseField(ScalarField):
    """Indicator-like field with a recorded target mass.

    Relaxed fields take values in [0,1]; with binary=True the values are
    exactly 0 or 1. The integral must match the stored mass target.
    """

    def __init__(self, domain, values, m0=None, binary=None):
        values = np.asarray(values, dtype=np.float64)
        if values.size and (values.min() < -1e-12 or values.max() > 1.0 + 1e-12):
            raise ValueError(
                "phase values outside [0,1]: range [%.3e, %.3e]"
                % (values.min(), values.max())
            )
        values = np.clip(values, 0.0, 1.0)
        super().__init__(domain, values)
        if binary is None:
            binary = bool(np.all((values == 0.0) | (values == 1.0)))
        elif binary and not np.all((values == 0.0) | (values == 1.0)):
            raise ValueError("binary flag set on a non-binary field")
        self.binary = bool(binary)
        mass = self.integral()
        if m0 is None:
            m0 = mass
        if abs(mass - m0) > PHASE_MASS_RTOL * domain.volume:
            raise ValueError(
                "mass %.12g does not match target %.12g" % (mass, m0)
            )
        self.m0 = float(m0)


@dataclass(frozen=True)
class EnergyBreakdown:
    bulk: float
    boundary: float

    @property
    def total(self):
        return self.bulk + self.boundary


def _face_slices(grid):
    """(axis, side, index tuple) for the 2d boundary cell slices."""
    out = []
    for a in range(grid.d):
        lo = [slice(None)] * grid.d
        hi = [slice(None)] * grid.d
        lo[a] = 0
        hi[a] = grid.dims[a] - 1
        out.append((a, 0, tuple(lo)))
        out.append((a, 1, tuple(hi)))
    return out


def boundary_trace_integral(values, grid):
    """Sum of face-adjacent cell values times face measure, over all walls."""
    total = 0.0
    for a, _side, idx in _face_slices(grid):
        total += float(values[idx].sum()) * grid.face_area(a)
    return total


def wall_weight(grid):
    """Per-cell density whose cell quadrature reproduces the wall trace sum."""
    w = np.zeros(grid.shape)
    for a, _side, idx in _face_slices(grid):
        w[idx] += 1.0 / grid.spacing[a]
    return w


def energy(chi, p):
    """Perimeter part plus wall part; convex in the relaxed values."""
    bulk = p.c0 * tv_forward(chi.values, chi.domain)
    boundary = p.cos_alpha * p.c0 * boundary_trace_integral(chi.values, chi.domain)
    return EnergyBreakdown(bulk, boundary)


class VarifoldSlice:
    """Mollified interface measure of a phase field.

    density is |grad of the smoothed indicator|, the normal points into the
    phase, and boundary_density carries the sharp wall trace per face.
    """

    def __init__(self, domain, epsilon, density, normal, boundary_density):
        self.domain = domain
        self.epsilon = float(epsilon)
        self.density = density
        self.normal = normal
        self.boundary_density = boundary_density


def mollification_width(grid):
    """Smoothing width of the audits' interface measures: four coarsest spacings."""
    return 4.0 * max(grid.spacing)


def interface_measure(chi, epsilon):
    grid = chi.domain
    smoothed = mollify(chi.values, grid, epsilon)
    grads = grad_centered(smoothed, grid)
    dens = np.sqrt(sum(g * g for g in grads))
    comps = []
    mask = dens > NORMAL_FLOOR
    for g in grads:
        c = np.zeros_like(g)
        c[mask] = g[mask] / dens[mask]
        comps.append(c)
    boundary = {}
    for a, side, idx in _face_slices(grid):
        boundary[(a, side)] = np.array(chi.values[idx])
    return VarifoldSlice(
        grid,
        epsilon,
        ScalarField(grid, dens),
        VectorField(grid, comps, tangential=False),
        boundary,
    )


def first_variation(slc, B, p):
    """Derivative of the slice energy under the inner variation B.

    Bulk part integrates (Id - n (x) n) : grad B against the density; the
    wall part integrates the in-face divergence of B against the trace.
    Requires a wall-tangential field.
    """
    if not B.tangential:
        raise ValueError("first variation needs a wall-tangential field")
    grid = slc.domain
    require_same_grid(slc.density, B)
    J = jacobian(B, grid)
    div = sum(J[a][a] for a in range(grid.d))
    n = slc.normal.components
    nJn = np.zeros(grid.shape)
    for b in range(grid.d):
        for a in range(grid.d):
            nJn += n[a] * n[b] * J[b][a]
    bulk = p.c0 * float(np.sum((div - nJn) * slc.density.values)) * grid.cell_volume

    boundary = 0.0
    for a, side, idx in _face_slices(grid):
        tang_div = np.zeros(grid.shape)
        for b in range(grid.d):
            if b != a:
                tang_div += J[b][b]
        trace = slc.boundary_density[(a, side)]
        boundary += float(np.sum(tang_div[idx] * trace)) * grid.face_area(a)
    boundary *= p.cos_alpha * p.c0
    return bulk + boundary


def velocity_pairing_field(chi, B):
    """The distribution B . grad(chi) as a cell field.

    Pointwise product of B with the centered staircase gradient; by the
    exact adjointness of the centered operators, its cell quadrature against
    any u equals the adjoint-divergence form of -integral chi div(u B).
    """
    grads = grad_centered(chi.values, chi.domain)
    out = np.zeros(chi.domain.shape)
    for a in range(chi.domain.d):
        out += B.components[a] * grads[a]
    return out


def constraint_integral(chi, B):
    """integral of chi times div B, the volume-preservation functional."""
    grid = chi.domain
    div = div_mirror(list(B.components), grid, tangential=B.tangential)
    return float(np.sum(chi.values * div)) * grid.cell_volume


# ---------------------------------------------------------------------------
# default test-field dictionaries
# ---------------------------------------------------------------------------

def _taper_profile(x, L, margin):
    """Smooth 0->1->0 profile that is exactly 1 away from the walls."""
    t = np.clip(np.minimum(x, L - x) / margin, 0.0, 1.0)
    return 0.5 - 0.5 * np.cos(np.pi * t)


def tapered_dilation(grid, center, margin=None):
    """Dilation about `center`, smoothly switched off near the walls."""
    if margin is None:
        margin = 4.0 * max(grid.spacing)

    def comp(a):
        def fn(*meshes):
            taper = np.ones_like(meshes[0])
            for b in range(grid.d):
                taper = taper * _taper_profile(meshes[b], grid.lengths[b], margin)
            return taper * (meshes[a] - center[a])
        return fn

    return vector_from_callables(grid, [comp(a) for a in range(grid.d)])


def default_tangential_fields(grid, count=8):
    """Smooth wall-tangential fields used by the residual audits.

    Built from per-axis sine envelopes so each component vanishes on its own
    wall by construction, plus one tapered dilation and (in 2d) a tapered
    rotation.
    """
    fields = []
    L = grid.lengths

    def sin1(a):
        return lambda *m: np.sin(np.pi * m[a] / L[a])

    def sin2(a):
        return lambda *m: np.sin(2 * np.pi * m[a] / L[a])

    def zero():
        return lambda *m: np.zeros_like(m[0])

    for a in range(grid.d):
        comps = [zero() for _ in range(grid.d)]
        comps[a] = sin1(a)
        fields.append(vector_from_callables(grid, comps))
        comps = [zero() for _ in range(grid.d)]
        comps[a] = sin2(a)
        fields.append(vector_from_callables(grid, comps))

    # modulated fields mixing the axes
    for a in range(grid.d):
        b = (a + 1) % grid.d
        comps = [zero() for _ in range(grid.d)]
        axis_a, axis_b = a, b

        def fn(*m, _a=axis_a, _b=axis_b):
            return np.sin(np.pi * m[_a] / L[_a]) * np.cos(np.pi * m[_b] / L[_b])

        comps[a] = fn
        fields.append(vector_from_callables(grid, comps))

    center = tuple(0.5 * x for x in L)
    fields.append(tapered_dilation(grid, center))

    if grid.d == 2:
        margin = 4.0 * max(grid.spacing)

        def rot_x(x, y):
            t = (_taper_profile(x, L[0], margin)
                 * _taper_profile(y, L[1], margin))
            return -t * (y - center[1])

        def rot_y(x, y):
            t = (_taper_profile(x, L[0], margin)
                 * _taper_profile(y, L[1], margin))
            return t * (x - center[0])

        fields.append(vector_from_callables(grid, [rot_x, rot_y]))
    return fields[:count] if count is not None else fields


def default_wall_normal_fields(grid, p):
    """Three fields whose outward wall flux equals cos(alpha) on every face.

    The first is a cosine profile; the other two add the first two
    tangential fields to it.
    """
    ca = p.cos_alpha
    L = grid.lengths

    def base(a):
        return lambda *m: -ca * np.cos(np.pi * m[a] / L[a])

    base_comps = [base(a) for a in range(grid.d)]
    out = [vector_from_callables(grid, base_comps, tangential=False)]
    for eta in default_tangential_fields(grid, count=2):
        comps = [b + e for b, e in zip(out[0].components, eta.components)]
        out.append(VectorField(grid, comps, tangential=False))
    return out


# ---------------------------------------------------------------------------
# compatibility audit
# ---------------------------------------------------------------------------

@dataclass
class CompatibilityReport:
    ok: bool
    comp_identity_residual: float
    wall_identity_residual: float


def _block_ranges(n, blocks):
    edges = np.linspace(0, n, blocks + 1).astype(int)
    return [(edges[i], edges[i + 1]) for i in range(blocks)]


def compatibility_check(chi, slc, p):
    """Audit the slice against the sharp-interface measures of chi.

    Checks the blockwise domination of the sharp perimeter by the slice
    mass (up to a calibrated mollification slack) and evaluates the two
    identity residuals pairing the oriented slice with the staircase
    gradient, for six tangential and three wall-flux test fields
    respectively. The partition has four blocks per axis.
    """
    grid = chi.domain
    vol = grid.cell_volume
    dens = slc.density.values
    sharp = grad_forward(chi.values, grid)
    sharp_mag = np.sqrt(sum(g * g for g in sharp))
    blocks = 4

    ranges = [_block_ranges(grid.dims[a], blocks) for a in range(grid.d)]
    # per block, the sharp mass is collected on an epsilon-eroded window so
    # that interface mass the mollifier smeared across a partition line is
    # never charged to the wrong side; the relative slack covers the
    # staircase anisotropy of the sharp perimeter, whose worst (diagonal)
    # blocks run ~40% hot. A global comparison with full windows catches
    # uniform mass deficits that the erosion could hide.
    halo = int(np.ceil(slc.epsilon / min(grid.spacing))) + 1
    slack = 0.45
    sharp_total = p.c0 * float(sharp_mag.sum()) * vol
    slice_total = p.c0 * float(dens.sum()) * vol
    ok = not sharp_total > slice_total + slack * sharp_total
    for idx in itertools.product(*[range(blocks)] * grid.d):
        ero = tuple(
            slice(min(ranges[a][idx[a]][0] + halo, ranges[a][idx[a]][1]),
                  max(ranges[a][idx[a]][1] - halo, ranges[a][idx[a]][0]))
            for a in range(grid.d)
        )
        sl = tuple(slice(*ranges[a][idx[a]]) for a in range(grid.d))
        tv_mass = p.c0 * float(sharp_mag[ero].sum()) * vol
        slice_mass = p.c0 * float(dens[sl].sum()) * vol
        ok = ok and not tv_mass > slice_mass + slack * tv_mass

    grads_sharp = grad_centered(chi.values, grid)
    n = slc.normal.components

    def oriented_residual(field):
        lhs = sum(n[a] * field.components[a] for a in range(grid.d)) * dens
        rhs = sum(grads_sharp[a] * field.components[a] for a in range(grid.d))
        raw = p.c0 * abs(float(np.sum(lhs - rhs))) * vol
        scale = 1.0 + field.max_norm() + _c1_seminorm(field, grid)
        return raw / scale

    res_eta = max(
        oriented_residual(f) for f in default_tangential_fields(grid, count=6)
    )
    res_xi = max(
        oriented_residual(f) for f in default_wall_normal_fields(grid, p)
    )
    return CompatibilityReport(ok, res_eta, res_xi)


def _c1_seminorm(field, grid):
    J = jacobian(field, grid)
    m = 0.0
    for row in J:
        for arr in row:
            m = max(m, float(np.max(np.abs(arr))))
    return m
