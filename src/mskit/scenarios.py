"""Scenarios: their specs, initial fields and shape measurements.

Every kind but the stripe is a union of balls. Shapes are rasterized by
`fields.cell_average` and thresholded to binary fields, so repeated
construction is bit-identical. The measurement helpers read a run's
states: how far cells moved from the initial interface, and the mass of
the smaller of two components. The runs and the verdicts built on them
live in `checks`.

Both measurements are exact rules on integer cell indices. Components are
face-connected and numbered in raster order of their first cell, as
scipy.ndimage.label numbers them. A displacement is the square root of the
least integer squared index distance to an interface cell, as scipy's
exact distance transform measures it.
"""

from dataclasses import dataclass, fields

import numpy as np

from .energy import EnergyParams, PhaseField
from .fields import _top_cells, cell_average, make_grid
from .minmov import StepConfig

# the geometry fields each kind reads; a spec that sets any other one away
# from its default is refused, so a misplaced key cannot be silently ignored
_READS = {
    "ball": ("centers", "radii"),
    "two_balls": ("centers", "radii"),
    "stripe": ("x_cut",),
    "boundary_cap": ("centers", "radii", "angle"),
    "random_blobs": ("seed", "blob_count", "blob_radius_range"),
}
KINDS = tuple(_READS)
_GEOMETRY = frozenset(name for names in _READS.values() for name in names)


@dataclass(frozen=True)
class ScenarioSpec:
    """Geometry, grid, energy, and stepping for one named run; its shape fits."""

    name: str
    kind: str
    dims: tuple
    lengths: tuple
    params: EnergyParams
    step: StepConfig
    n_steps: int
    centers: tuple = ()
    radii: tuple = ()
    angle: float = None
    x_cut: float = None
    seed: int = None
    blob_count: int = 4
    blob_radius_range: tuple = (0.08, 0.12)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown scenario kind: %r" % (self.kind,))
        for f in fields(self):
            if (f.name in _GEOMETRY and f.name not in _READS[self.kind]
                    and getattr(self, f.name) != f.default):
                raise ValueError("%s does not read %s" % (self.kind, f.name))
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.kind in ("ball", "two_balls") and len(self.centers) != len(self.radii):
            raise ValueError("need one radius per center")
        if self.kind == "ball" and len(self.radii) != 1:
            raise ValueError("ball takes exactly one center and radius")
        if self.kind == "two_balls" and len(self.radii) != 2:
            raise ValueError("two_balls takes exactly two centers and radii")
        if self.kind in ("ball", "two_balls") and any(
                len(c) != len(self.dims) for c in self.centers):
            raise ValueError("%s centers need %d coordinates" % (self.kind, len(self.dims)))
        if self.kind == "boundary_cap" and (len(self.centers) > 1 or any(
                x != 0 for c in self.centers for x in c[1:])):
            raise ValueError("boundary_cap takes one center on the wall, (x, 0)")
        if self.kind == "stripe" and self.x_cut is None:
            raise ValueError("stripe needs x_cut")
        if self.kind == "boundary_cap" and (self.angle is None or not self.radii):
            raise ValueError("boundary_cap needs angle and radius")
        if self.kind == "boundary_cap" and not (0.0 < self.angle <= np.pi / 2):
            raise ValueError("cap angle outside (0, pi/2]")
        if self.kind == "random_blobs" and self.seed is None:
            raise ValueError("random_blobs needs a seed")
        _shape(self)


def _blob_layout(spec):
    """Deterministic center/radius draws with wall and pair clearances."""
    rng = np.random.default_rng(spec.seed)
    r_lo, r_hi = spec.blob_radius_range
    placed = []
    attempts = 0
    while len(placed) < spec.blob_count:
        attempts += 1
        if attempts > 10000:
            raise ValueError("shape out of bounds: could not place blobs")
        r = float(rng.uniform(r_lo, r_hi))
        c = [
            float(rng.uniform(r + 0.05, L - r - 0.05))
            for L in spec.lengths
        ]
        ok = True
        for (c2, r2) in placed:
            gap = np.sqrt(sum((a - b) ** 2 for a, b in zip(c, c2)))
            if gap < r + r2 + 0.05:
                ok = False
                break
        if ok:
            placed.append((c, r))
    return placed


def _balls(spec, clear):
    """Checked (center, radius) list of a kind whose phase is a union of balls.

    Every kind needs one ball or more, all of positive radius (blob radii
    from 0 < lo <= hi). The cap is the ball of radius R centred R cos(angle)
    below the bottom wall, so it meets the wall at interior angle `angle`.
    In 3-D its centre sits mid-box along the third axis: a spherical cap.
    """
    if spec.kind == "random_blobs":
        r_lo, r_hi = spec.blob_radius_range
        if not 0.0 < r_lo <= r_hi:
            raise ValueError("shape out of bounds: blob radii need 0 < lo <= hi")
        balls = _blob_layout(spec)
    elif spec.kind == "boundary_cap":
        R, angle = spec.radii[0], spec.angle
        xc = spec.centers[0][0] if spec.centers else 0.5 * spec.lengths[0]
        centre = (xc, -R * np.cos(angle)) + tuple(0.5 * L for L in spec.lengths[2:])
        half_w = R * np.sin(angle)
        # the cap rises R (1 - cos(angle)) and spans 2 R sin(angle) of the
        # wall along every axis but y
        if R * (1.0 - np.cos(angle)) + clear > spec.lengths[1] or any(
                c - half_w < clear or c + half_w > L - clear
                for a, (c, L) in enumerate(zip(centre, spec.lengths)) if a != 1):
            raise ValueError("shape out of bounds: boundary_cap")
        balls = [(centre, R)]
    else:
        balls = list(zip(spec.centers, spec.radii))
        for c, R in balls:
            for a, L in enumerate(spec.lengths):
                if c[a] - R - clear < 0.0 or c[a] + R + clear > L:
                    raise ValueError("shape out of bounds: %s" % spec.kind)
        if len(balls) == 2:
            (c1, R1), (c2, R2) = balls
            if np.sqrt(sum((a - b) ** 2 for a, b in zip(c1, c2))) < R1 + R2 + clear:
                raise ValueError("shape out of bounds: balls overlap")
    # the fit tests above read a negative radius as a smaller shape
    if not balls or not all(R > 0.0 for _c, R in balls):
        raise ValueError("shape out of bounds: %s needs balls of positive radius"
                         % spec.kind)
    return balls


def _shape(spec):
    """The checked grid and inside-predicate of a spec's phase.

    `ScenarioSpec` calls it when built, so a spec whose grid is invalid or
    whose shape does not fit is never made.
    """
    grid = make_grid(spec.dims, spec.lengths)
    clear = 2.0 * max(grid.spacing)

    if spec.kind == "stripe":
        if not (clear < spec.x_cut < spec.lengths[0] - clear):
            raise ValueError("shape out of bounds: stripe cut")

        def inside(*m):
            return m[0] < spec.x_cut

    else:
        balls = _balls(spec, clear)

        def inside(*m):
            hit = np.zeros(m[0].shape, dtype=bool)
            for c, r in balls:
                hit |= sum((mi - ci) ** 2 for mi, ci in zip(m, c)) <= r * r
            return hit

    return grid, inside


def make_initial(spec):
    """Binary phase field for the scenario's analytic geometry.

    The spec's geometry was checked when it was built; only the raster's
    post-condition is left, a phase neither empty nor full.
    """
    grid, inside = _shape(spec)
    # threshold at the fraction quantile that reproduces the covered mass,
    # so the binary mass tracks the analytic one to about half a cell
    frac = cell_average(grid, inside)
    k = int(round(float(frac.sum())))
    if not (0 < k < frac.size):
        raise ValueError("shape out of bounds: empty or full phase")
    return PhaseField(grid, _top_cells(frac, k))


def _edge(inside):
    """Cells of `inside` with a face neighbour outside it or off the grid."""
    padded = np.pad(inside, 1)  # a False border: wall cells of the phase are edge
    eroded = inside.copy()
    for axis, n in enumerate(inside.shape):
        for step in (-1, 1):
            index = [slice(1, -1)] * inside.ndim
            index[axis] = slice(1 + step, n + 1 + step)
            eroded &= padded[tuple(index)]
    return inside & ~eroded


def interface_displacement_cells(chi0, chi1):
    """Largest distance, in cells, from a changed cell to the initial interface.

    The interface is the set of cells of the initial phase with a face
    neighbour outside it or on a wall. A distance is the square root of the
    least integer squared index distance to one of its cells. The initial
    phase must not be empty: then there is no interface to measure from.
    """
    inside = chi0.values > 0.5
    if not np.any(inside):
        raise ValueError("empty initial phase: no interface to measure from")
    changed = np.argwhere(chi1.values != chi0.values)
    if not changed.size:
        return 0.0
    edge = np.argwhere(_edge(inside))
    rows = max(1, 2 ** 18 // len(edge))  # changed cells per block of distances
    farthest = 0  # the largest squared distance to the nearest edge cell
    for k in range(0, len(changed), rows):
        sq = 0
        for a in range(inside.ndim):
            diff = changed[k:k + rows, a, None] - edge[None, :, a]
            sq = sq + diff * diff
        farthest = max(farthest, int(sq.min(axis=1).max()))
    return float(np.sqrt(farthest))


def _label(mask):
    """Face-connected components of a boolean array and their count.

    Every cell of the mask starts with its flat index; neighbour minima and
    a jump to the label's own label repeat until nothing changes, which
    leaves each component its least index. Components are numbered 1, 2, ...
    in raster order of that first cell, 0 outside the mask.
    """
    size = mask.size
    index = np.arange(size).reshape(mask.shape)
    lab = np.where(mask, index, size)
    while True:
        prev = lab.copy()
        for axis in range(mask.ndim):
            lo = (slice(None),) * axis + (slice(0, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            np.minimum(lab[lo], lab[hi], out=lab[lo], where=mask[lo])
            np.minimum(lab[hi], lab[lo], out=lab[hi], where=mask[hi])
        lab = np.append(lab.ravel(), size)[lab]
        if np.array_equal(lab, prev):
            break
    first = (lab == index).ravel()
    rank = np.append(np.cumsum(first), 0)  # rank[size] = 0 labels the outside
    return rank[lab], int(np.count_nonzero(first))


def component_masses(states):
    """Mass of the initially smaller component along the run.

    Components are labeled by face adjacency and matched between steps by
    maximal overlap with the previous footprint; a vanished overlap marks
    extinction and ends the series.
    """
    first = states[0]
    lab, nl = _label(first.values > 0.5)
    if nl < 2:
        raise ValueError("need at least two components to track")
    sizes = np.bincount(lab.ravel(), minlength=nl + 1)[1:]
    small = int(np.argmin(sizes)) + 1
    mask = lab == small
    vol = first.domain.cell_volume
    masses = [float(mask.sum()) * vol]
    for state in states[1:]:
        lab, nl = _label(state.values > 0.5)
        if nl == 0:
            masses.append(0.0)
            break
        overlaps = np.bincount(lab[mask], minlength=nl + 1)[1:]
        best = int(np.argmax(overlaps)) + 1
        if overlaps[best - 1] == 0:
            masses.append(0.0)
            break
        mask = lab == best
        masses.append(float(mask.sum()) * vol)
    return masses


def default_scenarios(n=128):
    """The shipped scenario set on an n-by-n unit square, for n >= 17.

    Below 17 cells the larger two_balls ball comes within two cells of
    the wall at x = 0, and building its spec raises "shape out of bounds:
    two_balls".

    `boundary_cap` and `random_blobs` ship at h = 1e-7, where no step moves
    a cell: they are stationary fixtures, not checks of motion. The cap's
    `angle` is its interior angle at the wall; the coded energy is at
    equilibrium at an interior angle of pi - alpha, not at alpha.
    """
    p90 = EnergyParams(1.0, np.pi / 2)
    dims = (n, n)
    lengths = (1.0, 1.0)
    return (
        ScenarioSpec(
            name="ball",
            kind="ball",
            dims=dims,
            lengths=lengths,
            params=p90,
            step=StepConfig(h=1e-4, interpolant_samples=8),
            n_steps=5,
            centers=((0.5, 0.5),),
            radii=(0.25,),
        ),
        ScenarioSpec(
            name="stripe",
            kind="stripe",
            dims=dims,
            lengths=lengths,
            params=p90,
            step=StepConfig(h=1e-4),
            n_steps=5,
            x_cut=0.5,
        ),
        ScenarioSpec(
            name="two_balls",
            kind="two_balls",
            dims=dims,
            lengths=lengths,
            params=p90,
            step=StepConfig(h=5e-4, interpolant_samples=4),
            n_steps=3,
            centers=((0.30, 0.50), (0.72, 0.50)),
            radii=(0.18, 0.10),
        ),
        ScenarioSpec(
            name="boundary_cap",
            kind="boundary_cap",
            dims=dims,
            lengths=lengths,
            params=EnergyParams(1.0, np.pi / 3),
            step=StepConfig(h=1e-7),
            n_steps=5,
            centers=((0.5, 0.0),),
            radii=(0.25,),
            angle=np.pi / 3,
        ),
        ScenarioSpec(
            name="random_blobs",
            kind="random_blobs",
            dims=dims,
            lengths=lengths,
            params=p90,
            step=StepConfig(h=1e-7),
            n_steps=3,
            seed=2026,
        ),
    )
