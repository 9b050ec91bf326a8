"""Mass-preserving test flows and their velocity difference quotient.

A wall-tangential velocity field with vanishing volume pairing generates
a one-parameter family of box-preserving deformations. This module
pulls indicator fields back through them and measures the dual-metric
distance between the difference quotient (deformed - chi)/s and the
pairing field B . grad(chi) it converges to. The flow of B over -s
inverts its flow over s, so a map is stored as that reverse-flow
displacement, ghost-padded by the tangential wall reflection of
`fields`, and applied by one interpolation. That interpolation reads
points at most half a cell beyond a face, as far as the ghost layer
reaches, which is enough: wall-tangential flows, integrated in sub-cell
steps, keep their points inside the box.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fields import MeanZeroField, VectorField, _ghost_pad, cell_average, hminus_norm_sq
from .energy import (
    PhaseField,
    constraint_integral,
    interface_measure,  # noqa: F401  (perfbench/tracing.py wraps it here)
    mollification_width,
    velocity_pairing_field,
)
from .diagnostics import construct_xi

_MASS_BISECT_STEPS = 80
_CFL_FRACTION = 0.1
_MASS_TOL_FRACTION = 1e-9
_MEMBER_TOL = 1e-8

DEFAULT_S_FRACTIONS = (0.08, 0.04, 0.02, 0.01)


class _InterpScratch:
    """Work arrays of `_interp_vector` for points of one shape.

    Per axis the two linear weights and the two flat ghost-grid offsets,
    then the corner weight, the corner offset and the gathered values.
    `_flow_displacement` and `_pullback` make one per call and pass it to
    every interpolation they run, so those write into the same memory
    instead of allocating and freeing their temporaries each time.
    """

    def __init__(self, d, shape):
        self.t = np.empty(shape)
        self.base = np.empty(shape)
        self.index = np.empty(shape, dtype=np.int64)
        self.frac = [(np.empty(shape), np.empty(shape)) for _ in range(d)]
        self.flat = [
            (np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int64))
            for _ in range(d)
        ]
        self.weight = np.empty(shape)
        self.offset = np.empty(shape, dtype=np.int64)
        self.gather = np.empty(shape)


def _interp_vector(components, grid, pts, scratch):
    """Multilinear interpolation of a vector field at points.

    pts is a list of per-axis coordinate arrays (any common shape). The
    components are padded by `fields._ghost_pad` with the tangential rule,
    once per field however often it is interpolated, so each component
    reflects oddly across the faces it is normal to and evenly across the
    others, and the interpolant vanishes on its own walls. The cell
    stencil is computed once and shared by all components.
    The ghost layer reaches half a cell beyond each face, and a point
    farther out raises ValueError. No flow gets there: B is wall
    tangential, so its flow keeps the box, and an RK4 substep moves a
    point less than a tenth of a cell.
    The work arrays come from `scratch`, an `_InterpScratch` of the
    points' shape; the returned components are new arrays on every call.
    """
    d = grid.d
    h = grid.spacing
    shape = np.shape(pts[0])
    t, base, i = scratch.t, scratch.base, scratch.index
    for b in range(d):
        n = grid.dims[b]
        stride = math.prod(m + 2 for m in grid.dims[b + 1:])
        np.divide(pts[b], h[b], out=t)
        np.subtract(t, 0.5, out=t)
        np.floor(t, out=base)
        lower, upper = scratch.frac[b]
        np.subtract(t, base, out=upper)
        np.subtract(1.0, upper, out=lower)
        np.copyto(i, base, casting="unsafe")
        if i.size and (i.min() < -1 or i.max() > n - 1):
            outside = max(-0.5 - t.min(), t.max() + 0.5 - n)
            raise ValueError(
                "interpolation point %.3g cells outside the box on axis %d; "
                "the ghost layer reaches half a cell" % (outside, b)
            )
        lo, hi = scratch.flat[b]
        np.add(i, 1, out=lo)
        lo *= stride
        np.add(i, 2, out=hi)
        hi *= stride
    w, offset, gather = scratch.weight, scratch.offset, scratch.gather
    out = [np.zeros(shape) for _ in range(d)]
    for corner in range(2 ** d):
        bits = [(corner >> b) & 1 for b in range(d)]
        np.copyto(w, scratch.frac[0][bits[0]])
        np.copyto(offset, scratch.flat[0][bits[0]])
        for b in range(1, d):
            w *= scratch.frac[b][bits[b]]
            offset += scratch.flat[b][bits[b]]
        for a in range(d):
            # the offsets were range-checked above; "clip" gathers straight
            # into `gather`, where the default mode would buffer a copy
            np.take(components[a], offset, out=gather, mode="clip")
            gather *= w
            out[a] += gather
    return out


def _flow_displacement(B, grid, s):
    """Displacement components of the flow of B over pseudo-time s.

    Classical four-stage one-step integration from the cell centres; the
    substep count keeps each move below a tenth of a cell.
    """
    start = grid.meshes()
    X = [c.copy() for c in start]
    speed = B.max_norm()
    n_sub = max(1, int(np.ceil(abs(s) * speed / (_CFL_FRACTION * min(grid.spacing)))))
    dt = s / n_sub
    comps = _ghost_pad(B.components, tangential=True)
    scratch = _InterpScratch(grid.d, grid.shape)
    for _ in range(n_sub):
        k1 = _interp_vector(comps, grid, X, scratch)
        k2 = _interp_vector(comps, grid, [x + 0.5 * dt * k for x, k in zip(X, k1)], scratch)
        k3 = _interp_vector(comps, grid, [x + 0.5 * dt * k for x, k in zip(X, k2)], scratch)
        k4 = _interp_vector(comps, grid, [x + dt * k for x, k in zip(X, k3)], scratch)
        for a in range(grid.d):
            X[a] += dt / 6.0 * (k1[a] + 2 * k2[a] + 2 * k3[a] + k4[a])
    return [X[a] - start[a] for a in range(grid.d)]


def _build_map(B, grid, s):
    """The map that pulls a field back through the flow of B over s.

    It is the inverse of that flow, the flow of B over -s, stored as its
    displacement of the cell centres, which is wall tangential like B and
    padded by that rule for `_interp_vector`.
    """
    return _ghost_pad(_flow_displacement(B, grid, -s), tangential=True)


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
    """Cell averages of chi composed with the maps of `_build_map`, in order.

    `fields.cell_average` samples each cell on its sub-lattice. A map moves
    the sample points by one interpolation of its displacement; the warped
    points read the piecewise-constant chi directly, so the averages stay
    in [0,1] and the mass error is a resampling error only.
    """
    grid = chi.domain
    scratch = _InterpScratch(grid.d, grid.shape)

    def sample(*pts):
        for disp in maps:
            off = _interp_vector(disp, grid, pts, scratch)
            pts = [pts[a] + off[a] for a in range(grid.d)]
        return _lookup(chi.values, grid, pts)

    return cell_average(grid, sample)


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

    Returns (maps, deformed): the maps of `_build_map` the pullback
    applied, in order, and the deformed field (cell averages in [0,1]).
    Each map is a ghost-padded reverse-flow displacement. maps is (fmap,)
    when the flow of B keeps the mass, s = 0 included (there fmap is zero
    and a binary chi comes back unchanged), and (cmap, fmap) after a mass
    correction: cmap is built from the flow of xi (the volume pairing
    direction) over a parameter sigma chosen so the deformed mass matches
    m0 to a fixed fraction of the domain volume.
    The search starts at the linearised parameter -drift / <chi, xi>
    (sigma = 0 is the plain deformation, already pulled back), doubles it
    while the mass stays short of the target, then bisects the bracket.
    Every evaluation counts against one step cap; ValueError is raised if
    the cap is reached short of the tolerance, or if bracketing would need
    sigma * |xi|_inf beyond the box diameter.
    """
    grid = chi.domain
    _require_member(chi, B)
    fmap = _build_map(B, grid, s)
    vals = _pullback(chi, (fmap,))
    mass_tol = _MASS_TOL_FRACTION * grid.volume
    drift = float(vals.mean()) * grid.volume - chi.m0
    if abs(drift) <= mass_tol:
        return (fmap,), PhaseField(grid, vals)

    xi = construct_xi(chi, mollification_width(grid))
    diameter = math.sqrt(sum(L * L for L in grid.lengths))
    speed = xi.max_norm()
    # the pairing of xi is positive, so mass grows along its flow; `short`
    # is the parameter whose miss has the sign of drift (sigma = 0 first),
    # `over` the first found on the other side of the target
    sigma = -drift / max(abs(constraint_integral(chi, xi)), 1e-12)
    short, over = 0.0, None
    best = drift
    for _ in range(_MASS_BISECT_STEPS):
        if abs(sigma) * speed > diameter:
            raise ValueError("mass correction failed to bracket the target")
        cmap = _build_map(xi, grid, sigma)
        vals = _pullback(chi, (cmap, fmap))
        miss = float(vals.mean()) * grid.volume - chi.m0
        if abs(miss) <= mass_tol:
            break
        best = min(best, miss, key=abs)
        if miss * drift > 0:
            short = sigma
        else:
            over = sigma
        sigma = 2.0 * sigma if over is None else 0.5 * (short + over)
    else:
        raise ValueError(
            "mass correction did not converge in %d bisection steps: "
            "drift %.3e vs mass_tol %.3e" % (_MASS_BISECT_STEPS, best, mass_tol)
        )

    return (cmap, fmap), PhaseField(grid, vals)


@dataclass(frozen=True)
class VelocityReport:
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
        _maps, deformed = flow_deform(chi, B, s)
        v = (deformed.values - chi.values) / s + g
        v = v - v.mean()
        rs.append(float(np.sqrt(hminus_norm_sq(MeanZeroField(grid, v)))))
    monotone = all(b <= a + 1e-12 for a, b in zip(rs, rs[1:]))
    return VelocityReport(r_values=tuple(rs), monotone=monotone)
