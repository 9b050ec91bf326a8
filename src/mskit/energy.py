"""Capillary energy of a phase indicator in a box, and its interface measures.

The energy is c0 times the discrete perimeter of the phase plus a wall term:
cos(alpha) * c0 times the wetted wall area, with alpha the contact angle the
interface makes with the container. Interface geometry for diagnostics comes
from a mollified slice: smooth the indicator, take the centered gradient,
and read off a density and a unit inner normal. The wall trace is the
phase's own face cells, read where it is needed.

The weak curvature-potential relation pairs `first_variation`, the energy's
derivative under an inner variation B, with `constraint_integral`, the
integral of chi div B, on the one basis of wall-tangential test fields,
`default_tangential_fields`. `compatibility_check` pairs the slice with the
staircase gradient on that basis and on three fields of wall flux cos(alpha).
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
        if not 0.0 < self.c0 < math.inf:
            raise ValueError("surface tension c0 must be positive and finite")
        if not (0.0 < self.alpha <= np.pi / 2):
            raise ValueError(
                "contact angle alpha must lie in (0, pi/2], got %g" % self.alpha
            )

    @property
    def cos_alpha(self):
        return math.cos(self.alpha)


class PhaseField(ScalarField):
    """Indicator-like field with a recorded target mass.

    Values lie in [0,1]: exactly 0 or 1 for an indicator, anything between
    for a relaxed field. The integral must match the stored mass target.
    """

    def __init__(self, domain, values, m0=None):
        values = np.asarray(values, dtype=np.float64)
        if values.size and (values.min() < -1e-12 or values.max() > 1.0 + 1e-12):
            raise ValueError(
                "phase values outside [0,1]: range [%.3e, %.3e]"
                % (values.min(), values.max())
            )
        values = np.clip(values, 0.0, 1.0)
        super().__init__(domain, values)
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

    density is |grad of the smoothed indicator| and the normal points into
    the phase. The slice has no wall part: the sharp wall trace is the
    phase's face cells, which `first_variation` reads from the phase.
    """

    def __init__(self, epsilon, density, normal):
        self.epsilon = float(epsilon)
        self.density = density
        self.normal = normal


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
    return VarifoldSlice(
        epsilon,
        ScalarField(grid, dens),
        VectorField(grid, comps, tangential=False),
    )


def first_variation(chi, slc, B, p):
    """Derivative of the energy of chi's slice under the inner variation B.

    Bulk part integrates (Id - n (x) n) : grad B against the slice density;
    the wall part integrates the in-face divergence of B against the wall
    trace, chi's cells on each face. Requires a wall-tangential field.
    """
    if not B.tangential:
        raise ValueError("first variation needs a wall-tangential field")
    grid = chi.domain
    require_same_grid(chi, B)
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
    for a, _side, idx in _face_slices(grid):
        tang_div = sum(J[b][b] for b in range(grid.d) if b != a)
        boundary += float(np.sum(tang_div[idx] * chi.values[idx])) * grid.face_area(a)
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
    """integral of chi times div B, the volume-preservation functional.

    For B = f times a field, it is the audits' pairing of the weight f with
    the interface velocity of that field.
    """
    grid = chi.domain
    div = div_mirror(list(B.components), grid, tangential=B.tangential)
    return float(np.sum(chi.values * div)) * grid.cell_volume


# ---------------------------------------------------------------------------
# default test-field dictionaries
# ---------------------------------------------------------------------------

def _zero(*m):
    return np.zeros_like(m[0])


def _tapered_fields(grid):
    """A dilation about the box centre and a rotation in each coordinate
    plane, switched off smoothly within a mollification width of the walls."""
    L = grid.lengths
    center = tuple(0.5 * x for x in L)
    margin = mollification_width(grid)

    def radial(a):
        def fn(*m):
            # a smooth 0 -> 1 profile per axis, exactly 1 past the margin
            taper = np.ones_like(m[0])
            for x, length in zip(m, L):
                t = np.clip(np.minimum(x, length - x) / margin, 0.0, 1.0)
                taper = taper * (0.5 - 0.5 * np.cos(np.pi * t))
            return taper * (m[a] - center[a])
        return fn

    out = [vector_from_callables(grid, [radial(a) for a in range(grid.d)])]
    for a, b in itertools.combinations(range(grid.d), 2):
        comps = [_zero] * grid.d
        comps[a] = lambda *m, _b=radial(b): -_b(*m)
        comps[b] = radial(a)
        out.append(vector_from_callables(grid, comps))
    return out


def default_tangential_fields(grid):
    """The one wall-tangential test-field basis of the residual audits.

    Two sine envelopes per axis, so each component vanishes on its own
    wall by construction, one field per axis mixing it with the next, then
    a tapered dilation and a tapered rotation in every coordinate plane:
    8 fields in 2-D, 13 in 3-D. The audits take the worst residual over
    all of them.
    """
    L = grid.lengths

    def along(a, fn):
        comps = [_zero] * grid.d
        comps[a] = fn
        return vector_from_callables(grid, comps)

    fields = []
    for a in range(grid.d):
        for k in (1, 2):
            fields.append(along(a, lambda *m, a=a, k=k: np.sin(k * np.pi * m[a] / L[a])))
    for a in range(grid.d):
        b = (a + 1) % grid.d
        fields.append(along(a, lambda *m, a=a, b=b: (
            np.sin(np.pi * m[a] / L[a]) * np.cos(np.pi * m[b] / L[b]))))
    return fields + _tapered_fields(grid)


# ---------------------------------------------------------------------------
# compatibility audit
# ---------------------------------------------------------------------------

@dataclass
class CompatibilityReport:
    ok: bool
    comp_identity_residual: float
    wall_identity_residual: float


def _wall_flux_fields(grid, p, basis):
    """Three fields whose outward wall flux is cos(alpha) on every face.

    A cosine profile per axis, and that profile plus each of the first two
    fields of the tangential `basis`.
    """
    L = grid.lengths
    wall = vector_from_callables(grid, [
        lambda *m, a=a: -p.cos_alpha * np.cos(np.pi * m[a] / L[a])
        for a in range(grid.d)
    ])
    return [wall] + [
        VectorField(grid, [c + e for c, e in zip(wall.components, eta.components)])
        for eta in basis[:2]
    ]


def _block_ranges(n, blocks):
    edges = np.linspace(0, n, blocks + 1).astype(int)
    return [(edges[i], edges[i + 1]) for i in range(blocks)]


def compatibility_check(chi, slc, p):
    """Audit the slice against the sharp-interface measures of chi.

    Checks the blockwise domination of the sharp perimeter by the slice
    mass (up to a calibrated mollification slack) and evaluates the two
    identity residuals pairing the oriented slice with the staircase
    gradient: the worst over the whole `default_tangential_fields` basis,
    and the worst over three wall-flux fields, a cosine profile whose
    outward flux is cos(alpha) on every face and that profile plus each of
    the first two basis fields. The partition has four blocks per axis.
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

    n = slc.normal.components

    def oriented_residual(field):
        lhs = sum(n[a] * field.components[a] for a in range(grid.d)) * dens
        rhs = velocity_pairing_field(chi, field)
        return p.c0 * abs(float(np.sum(lhs - rhs))) * vol / field_scale(field)

    basis = default_tangential_fields(grid)
    res_eta = max(oriented_residual(f) for f in basis)
    res_xi = max(oriented_residual(f) for f in _wall_flux_fields(grid, p, basis))
    return CompatibilityReport(ok, res_eta, res_xi)


def field_scale(B):
    """1 + sup|B| + sup|grad B|, the normaliser of the audits' residuals."""
    J = jacobian(B, B.domain)
    return 1.0 + B.max_norm() + max(float(np.max(np.abs(g))) for row in J for g in row)
