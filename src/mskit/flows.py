"""Mass-preserving test flows and their velocity difference quotient.

A wall-tangential velocity field with vanishing volume pairing generates
a one-parameter family of box-preserving deformations. This module
integrates those deformations, pulls indicator fields back through them,
and measures the dual-metric distance between the difference quotient
(deformed - chi)/s and the pairing field B . grad(chi) it converges to.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import MeanZeroField, VectorField, hminus_norm_sq
from .energy import (
    PhaseField,
    constraint_integral,
    interface_measure,  # noqa: F401  (perfbench/tracing.py wraps it here)
    mollification_width,
    velocity_pairing_field,
)
from .diagnostics import construct_xi

_INVERSE_MAX_ITERS = 50
_MASS_BISECT_STEPS = 80
_SUPERSAMPLE = 4
_CFL_FRACTION = 0.1
_MASS_TOL_FRACTION = 1e-9
_MEMBER_TOL = 1e-8

DEFAULT_S_FRACTIONS = (0.08, 0.04, 0.02, 0.01)


def _interp_vector(components, grid, pts):
    """Multilinear interpolation of a vector field at points.

    pts is a list of per-axis coordinate arrays (any common shape). Each
    component reflects oddly across the faces it is normal to and evenly
    across the others, so the interpolant vanishes on its own walls. The
    cell stencil is computed once and shared by all components.
    """
    d = grid.d
    h = grid.spacing
    frac, flat, signs = [], [], []
    for b in range(d):
        n = grid.dims[b]
        stride = math.prod(grid.dims[b + 1:])
        t = pts[b] / h[b] - 0.5
        base = np.floor(t)
        f = t - base
        frac.append((1.0 - f, f))
        i = base.astype(np.int64)
        beyond = i.size > 0 and (i.min() < -n or i.max() + 1 >= 2 * n)
        offsets, flips = [], []
        for j in (i, i + 1):
            # fold into the box by face reflection: np.mod first only when
            # some index lies beyond one fold, then mirror the low face and
            # the high face; every folded index flips the odd sign
            if beyond:
                j = np.mod(j, 2 * n)
            idx = np.where(j < 0, -1 - j, j)
            idx = np.minimum(idx, 2 * n - 1 - idx)
            flips.append(np.where(idx != j, -1.0, 1.0))
            offsets.append(idx * stride)
        flat.append(offsets)
        signs.append(flips)
    out = [np.zeros(np.shape(pts[0])) for _ in range(d)]
    for corner in range(2 ** d):
        bits = [(corner >> b) & 1 for b in range(d)]
        w = 1.0
        offset = 0
        for b in range(d):
            w = w * frac[b][bits[b]]
            offset = offset + flat[b][bits[b]]
        for a in range(d):
            sign = signs[a][bits[a]]
            out[a] += w * sign * np.take(components[a], offset)
    return out


def _cell_center_mesh(grid):
    axes = [grid.cell_centers(a) for a in range(grid.d)]
    return [m.copy() for m in np.meshgrid(*axes, indexing="ij")]


def _flow_displacement(B, grid, s):
    """Forward displacement of the flow of B over pseudo-time s.

    Classical four-stage one-step integration; the substep count keeps
    each move below a tenth of a cell.
    """
    start = _cell_center_mesh(grid)
    X = [c.copy() for c in start]
    speed = B.max_norm()
    n_sub = max(1, int(np.ceil(abs(s) * speed / (_CFL_FRACTION * min(grid.spacing)))))
    dt = s / n_sub
    comps = B.components
    for _ in range(n_sub):
        k1 = _interp_vector(comps, grid, X)
        k2 = _interp_vector(comps, grid, [x + 0.5 * dt * k for x, k in zip(X, k1)])
        k3 = _interp_vector(comps, grid, [x + 0.5 * dt * k for x, k in zip(X, k2)])
        k4 = _interp_vector(comps, grid, [x + dt * k for x, k in zip(X, k3)])
        for a in range(grid.d):
            X[a] += dt / 6.0 * (k1[a] + 2 * k2[a] + 2 * k3[a] + k4[a])
    return VectorField(
        grid, [X[a] - start[a] for a in range(grid.d)], tangential=True
    )


def _inverse_displacement(disp, grid):
    """Displacement of the inverse map by fixed-point iteration.

    Raises ValueError if the iteration cap is reached before the update
    falls below the tolerance.
    """
    centers = _cell_center_mesh(grid)
    dinv = [np.zeros(grid.shape) for _ in range(grid.d)]
    tol = 1e-8 * min(grid.spacing)
    for _ in range(_INVERSE_MAX_ITERS):
        pts = [centers[a] + dinv[a] for a in range(grid.d)]
        fwd = _interp_vector(disp.components, grid, pts)
        delta = max(
            float(np.max(np.abs(-fwd[a] - dinv[a]))) for a in range(grid.d)
        )
        dinv = [-fwd[a] for a in range(grid.d)]
        if delta <= tol:
            return VectorField(grid, dinv, tangential=True)
    raise ValueError(
        "inverse flow map did not converge in %d iterations: "
        "delta %.3e vs tol %.3e" % (_INVERSE_MAX_ITERS, delta, tol)
    )


@dataclass(frozen=True)
class FlowMap:
    """A box-preserving deformation x -> x + displacement(x)."""

    domain: object
    s: float
    displacement: VectorField
    inverse_displacement: VectorField

    def forward_points(self, pts):
        grid = self.domain
        off = _interp_vector(self.displacement.components, grid, pts)
        return [pts[a] + off[a] for a in range(grid.d)]

    def inverse_points(self, pts):
        """Invert x -> x + displacement(x) at the given points.

        The gridded inverse displacement warm-starts a few fixed-point
        refinements against the forward displacement, which removes the
        interpolation bias of the gridded field.
        """
        grid = self.domain
        off = _interp_vector(self.inverse_displacement.components, grid, pts)
        out = [pts[a] + off[a] for a in range(grid.d)]
        for _ in range(3):
            fwd = _interp_vector(self.displacement.components, grid, out)
            out = [pts[a] - fwd[a] for a in range(grid.d)]
        return out


def _identity_map(grid):
    zero = VectorField(
        grid, [np.zeros(grid.shape) for _ in range(grid.d)], tangential=True
    )
    return FlowMap(domain=grid, s=0.0, displacement=zero, inverse_displacement=zero)


def _build_map(B, grid, s):
    if s == 0.0:
        return _identity_map(grid)
    disp = _flow_displacement(B, grid, s)
    return FlowMap(
        domain=grid,
        s=s,
        displacement=disp,
        inverse_displacement=_inverse_displacement(disp, grid),
    )


def _lookup(values, grid, pts):
    idx = tuple(
        np.clip(
            np.floor(pts[a] / grid.spacing[a]).astype(np.int64),
            0,
            grid.dims[a] - 1,
        )
        for a in range(grid.d)
    )
    return values[idx]


def _pullback(chi, maps):
    """Cell averages of chi composed with the inverse maps, in order.

    Each cell is supersampled on a regular sub-lattice; the warped sample
    points read the piecewise-constant chi directly, so the averages stay
    in [0,1] and the mass error is a resampling error only.
    """
    grid = chi.domain
    centers = _cell_center_mesh(grid)
    offs = (np.arange(_SUPERSAMPLE) + 0.5) / _SUPERSAMPLE - 0.5
    acc = np.zeros(grid.shape)
    for shift in itertools.product(offs, repeat=grid.d):
        pts = [
            centers[a] + shift[a] * grid.spacing[a] for a in range(grid.d)
        ]
        for fmap in maps:
            pts = fmap.inverse_points(pts)
        acc += _lookup(chi.values, grid, pts)
    return acc / _SUPERSAMPLE ** grid.d


def _require_member(chi, B):
    if not B.tangential:
        raise ValueError("flow needs a wall-tangential field")
    ci = constraint_integral(chi, B)
    if abs(ci) > _MEMBER_TOL * (1.0 + B.max_norm()):
        raise ValueError(
            "field is not volume preserving for this phase: %.3e" % ci
        )


def project_to_S_chi(B_raw, chi, xi):
    """Remove the volume-changing part of a tangential field.

    Subtracts the multiple of xi whose pairing matches that of B_raw, so
    the corrected field has vanishing volume pairing while staying
    wall tangential.
    """
    if not B_raw.tangential:
        raise ValueError("flow needs a wall-tangential field")
    denom = constraint_integral(chi, xi)
    if abs(denom) < 1e-10 * (1.0 + xi.max_norm()):
        raise ValueError("degenerate multiplier normalizer")
    factor = constraint_integral(chi, B_raw) / denom
    comps = [
        B_raw.components[a] - factor * xi.components[a]
        for a in range(chi.domain.d)
    ]
    return VectorField(chi.domain, comps, tangential=True)


def flow_deform(chi, B, s):
    """Deform chi by the flow of B over parameter s.

    Returns the flow map and the deformed field (cell averages in [0,1]).
    The map is composed with a flow along the volume pairing direction,
    its parameter found by bisection, so the deformed mass matches m0 to a
    fixed fraction of the domain volume; if the bisection ends short of
    that tolerance, ValueError is raised.
    """
    grid = chi.domain
    _require_member(chi, B)
    if s == 0.0:
        fmap = _identity_map(grid)
        return fmap, PhaseField(grid, chi.values.copy(), binary=chi.binary)

    fmap = _build_map(B, grid, s)
    vals = _pullback(chi, [fmap])
    mass_tol = _MASS_TOL_FRACTION * grid.volume
    drift = float(vals.mean()) * grid.volume - chi.m0
    if abs(drift) <= mass_tol:
        return fmap, PhaseField(grid, vals, binary=False)

    xi = construct_xi(chi, mollification_width(grid))

    def mass_at(sigma):
        cmap = _build_map(xi, grid, sigma)
        v = _pullback(chi, [cmap, fmap])
        return float(v.mean()) * grid.volume, v, cmap

    # the pairing of xi is positive, so mass grows along its flow
    width = max(abs(drift) / max(abs(constraint_integral(chi, xi)), 1e-12),
                min(grid.spacing))
    lo, hi = (-2.0 * width, 0.0) if drift > 0 else (0.0, 2.0 * width)
    m_lo, v_lo, map_lo = mass_at(lo)
    m_hi, v_hi, map_hi = mass_at(hi)
    grow = 0
    while not (min(m_lo, m_hi) <= chi.m0 <= max(m_lo, m_hi)):
        lo, hi = 2.0 * lo - width, 2.0 * hi + width
        m_lo, v_lo, map_lo = mass_at(lo)
        m_hi, v_hi, map_hi = mass_at(hi)
        grow += 1
        if grow > 40:
            raise ValueError("mass correction failed to bracket the target")
    best = (v_lo, map_lo) if abs(m_lo - chi.m0) < abs(m_hi - chi.m0) else (v_hi, map_hi)
    for _ in range(_MASS_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        m_mid, v_mid, map_mid = mass_at(mid)
        if abs(m_mid - chi.m0) < abs(best[0].mean() * grid.volume - chi.m0):
            best = (v_mid, map_mid)
        if abs(m_mid - chi.m0) <= mass_tol:
            break
        if (m_mid - chi.m0) * (m_lo - chi.m0) > 0:
            lo, m_lo = mid, m_mid
        else:
            hi, m_hi = mid, m_mid
    vals, cmap = best
    drift = float(vals.mean()) * grid.volume - chi.m0
    if abs(drift) > mass_tol:
        raise ValueError(
            "mass correction did not converge in %d bisection steps: "
            "drift %.3e vs mass_tol %.3e" % (_MASS_BISECT_STEPS, drift, mass_tol)
        )

    centers = _cell_center_mesh(grid)
    fwd = cmap.forward_points(fmap.forward_points(centers))
    inv = fmap.inverse_points(cmap.inverse_points(centers))
    total = FlowMap(
        domain=grid,
        s=s,
        displacement=VectorField(
            grid, [fwd[a] - centers[a] for a in range(grid.d)], tangential=True
        ),
        inverse_displacement=VectorField(
            grid, [inv[a] - centers[a] for a in range(grid.d)], tangential=True
        ),
    )
    return total, PhaseField(grid, vals, binary=False)


@dataclass(frozen=True)
class VelocityReport:
    s_values: tuple
    r_values: tuple
    monotone: bool


def velocity_convergence_check(chi, B):
    """Dual-norm distance between flow quotients and the pairing field.

    r(s) is the H^-1 norm of (deformed - chi)/s + B . grad(chi), over s
    the DEFAULT_S_FRACTIONS of the longest box side; the report records
    whether it decreases along the sweep.
    """
    grid = chi.domain
    s_values = tuple(f * max(grid.lengths) for f in DEFAULT_S_FRACTIONS)
    g = velocity_pairing_field(chi, B)
    rs = []
    for s in s_values:
        _fmap, deformed = flow_deform(chi, B, s)
        v = (deformed.values - chi.values) / s + g
        v = v - v.mean()
        rs.append(float(np.sqrt(hminus_norm_sq(MeanZeroField(grid, v)))))
    monotone = all(b <= a + 1e-12 for a, b in zip(rs, rs[1:]))
    return VelocityReport(
        s_values=s_values, r_values=tuple(rs), monotone=monotone
    )
