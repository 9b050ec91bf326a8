"""Scenario construction, shape measurements and runs."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings, strategies as st

from dataclasses import replace

from mskit import scenarios
from mskit.checks import _run
from mskit.energy import EnergyParams, PhaseField
from mskit.fields import make_grid
from mskit.minmov import StepConfig
from mskit.scenarios import (
    ScenarioSpec,
    component_masses,
    default_scenarios,
    interface_displacement_cells,
    make_initial,
)

from oracles import supersampled

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

P90 = EnergyParams(1.0, np.pi / 2)


def spec_ball(n=128, center=(0.5, 0.5), radius=0.25, h=1e-4, samples=0,
              n_steps=0, params=P90):
    return ScenarioSpec(
        name="ball",
        kind="ball",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=params,
        step=StepConfig(h=h, interpolant_samples=samples),
        n_steps=n_steps,
        centers=(center,),
        radii=(radius,),
    )


def spec_stripe(n=128, x_cut=0.5, h=1e-4, n_steps=0):
    return ScenarioSpec(
        name="stripe",
        kind="stripe",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=P90,
        step=StepConfig(h=h),
        n_steps=n_steps,
        x_cut=x_cut,
    )


def spec_cap(n=128, angle=np.pi / 3, radius=0.25, h=1e-4, n_steps=0):
    return ScenarioSpec(
        name="boundary_cap",
        kind="boundary_cap",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=EnergyParams(1.0, angle),
        step=StepConfig(h=h),
        n_steps=n_steps,
        centers=((0.5, 0.0),),
        radii=(radius,),
        angle=angle,
    )


@st.composite
def drawn_specs(draw):
    """Keyword arguments of a ball, two_balls, stripe or cap on 16^2 to 48^2.

    Centres, cuts and radii are drawn over most of the box, so many of the
    specs do not fit; the radii start at 0, so some fit but cover no cell.
    """
    n = draw(st.integers(16, 48))
    kind = draw(st.sampled_from(("ball", "two_balls", "stripe", "boundary_cap")))
    unit = st.floats(0.05, 0.95)
    radius = st.floats(0.0, 0.25)
    if kind == "stripe":
        geometry = dict(x_cut=draw(unit))
    elif kind == "boundary_cap":
        geometry = dict(centers=((draw(unit), 0.0),), radii=(draw(radius),),
                        angle=draw(st.floats(0.0, np.pi / 2, exclude_min=True)))
    else:
        count = 1 if kind == "ball" else 2
        geometry = dict(centers=tuple((draw(unit), draw(unit)) for _ in range(count)),
                        radii=tuple(draw(radius) for _ in range(count)))
    return dict(name=kind, kind=kind, dims=(n, n), lengths=(1.0, 1.0), params=P90,
                step=StepConfig(h=1e-4), n_steps=0, **geometry)


class TestSpecValidation:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(drawn_specs())
    def test_built_spec_rasterises(self, kwargs):
        # every geometry check runs when the spec is built, so a spec that
        # exists fails to rasterise only by covering no cell or every cell
        try:
            spec = ScenarioSpec(**kwargs)
        except ValueError:
            return
        try:
            chi = make_initial(spec)
        except ValueError as exc:
            assert "empty or full phase" in str(exc)
        else:
            assert 0.0 < chi.integral() < chi.domain.volume

    def test_shipped_and_benchmark_specs_build(self):
        for n in (32, 48, 64, 128):
            default_scenarios(n)
        for make in workloads.SPECS.values():
            for seed in range(10):
                make(seed)
        # 16^2 leaves the larger of the shipped two balls no clearance
        with pytest.raises(ValueError, match="out of bounds: two_balls"):
            default_scenarios(16)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(
                name="x", kind="torus", dims=(32, 32), lengths=(1.0, 1.0),
                params=P90, step=StepConfig(h=1e-4), n_steps=0,
            )

    def test_negative_steps(self):
        with pytest.raises(ValueError, match="nonnegative"):
            spec_ball(n_steps=-1)

    def test_dims_lengths_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            ScenarioSpec(
                name="x", kind="stripe", dims=(32, 32), lengths=(1.0,),
                params=P90, step=StepConfig(h=1e-4), n_steps=0, x_cut=0.5,
            )

    def test_ball_arity(self):
        with pytest.raises(ValueError, match="exactly one"):
            ScenarioSpec(
                name="x", kind="ball", dims=(32, 32), lengths=(1.0, 1.0),
                params=P90, step=StepConfig(h=1e-4), n_steps=0,
                centers=((0.3, 0.5), (0.7, 0.5)), radii=(0.1, 0.1),
            )

    def test_two_balls_arity(self):
        with pytest.raises(ValueError, match="exactly two"):
            ScenarioSpec(
                name="x", kind="two_balls", dims=(32, 32), lengths=(1.0, 1.0),
                params=P90, step=StepConfig(h=1e-4), n_steps=0,
                centers=((0.5, 0.5),), radii=(0.2,),
            )

    def test_stripe_needs_cut(self):
        with pytest.raises(ValueError, match="x_cut"):
            ScenarioSpec(
                name="x", kind="stripe", dims=(32, 32), lengths=(1.0, 1.0),
                params=P90, step=StepConfig(h=1e-4), n_steps=0,
            )

    def test_cap_needs_angle(self):
        with pytest.raises(ValueError, match="angle"):
            ScenarioSpec(
                name="x", kind="boundary_cap", dims=(32, 32),
                lengths=(1.0, 1.0), params=P90, step=StepConfig(h=1e-4),
                n_steps=0, radii=(0.25,),
            )

    def test_blobs_need_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(
                name="x", kind="random_blobs", dims=(32, 32),
                lengths=(1.0, 1.0), params=P90, step=StepConfig(h=1e-4),
                n_steps=0,
            )

    @pytest.mark.parametrize("kind, dims, centers", [
        ("ball", (32, 32), ((0.5, 0.5, 9.0),)),
        ("ball", (16, 16, 16), ((0.5, 0.5),)),
        ("two_balls", (32, 32), ((0.3, 0.5), (0.7, 0.5, 0.5))),
    ])
    def test_center_coordinates_match_dims(self, kind, dims, centers):
        base = {s.kind: s for s in default_scenarios(32)}[kind]
        with pytest.raises(ValueError, match="centers need %d coordinates" % len(dims)):
            replace(base, dims=dims, lengths=(1.0,) * len(dims), centers=centers)

    @pytest.mark.parametrize("centers", [
        ((0.5, 0.3),),
        ((0.5, 0.0, 0.2),),
        ((0.4, 0.0), (0.6, 0.0)),
    ])
    def test_cap_center_on_the_wall(self, centers):
        base = {s.kind: s for s in default_scenarios(32)}["boundary_cap"]
        with pytest.raises(ValueError, match="one center on the wall"):
            replace(base, centers=centers)

    UNREAD = [
        ("ball", "x_cut", 0.5),
        ("ball", "angle", 1.0),
        ("ball", "seed", 3),
        ("ball", "blob_count", 7),
        ("two_balls", "angle", 1.0),
        ("stripe", "centers", ((0.5, 0.5),)),
        ("stripe", "radii", (0.2,)),
        ("boundary_cap", "x_cut", 0.5),
        ("boundary_cap", "seed", 3),
        ("random_blobs", "centers", ((0.5, 0.5),)),
        ("random_blobs", "radii", (0.2,)),
        ("random_blobs", "angle", 1.0),
    ]

    @pytest.mark.parametrize("kind, field, value", UNREAD,
                             ids=["%s-%s" % row[:2] for row in UNREAD])
    def test_unread_field_rejected(self, kind, field, value):
        base = {s.kind: s for s in default_scenarios(32)}[kind]
        with pytest.raises(ValueError, match="%s does not read %s" % (kind, field)):
            replace(base, **{field: value})


class TestMakeInitial:
    def test_ball_mass(self):
        chi = make_initial(spec_ball(128))
        grid = chi.domain
        assert np.isin(chi.values, (0.0, 1.0)).all()
        assert abs(chi.integral() - np.pi / 16) <= grid.cell_volume

    def test_stripe_mass(self):
        chi = make_initial(spec_stripe(128))
        grid = chi.domain
        column = grid.lengths[1] * grid.spacing[0]
        assert abs(chi.integral() - 0.5) <= column

    def test_half_cap_mass(self):
        spec = spec_cap(128, angle=np.pi / 2, radius=0.25)
        chi = make_initial(spec)
        target = 0.5 * np.pi * 0.25 ** 2
        assert abs(chi.integral() - target) <= 1e-3

    def test_ball_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            make_initial(spec_ball(64, center=(0.9, 0.5), radius=0.2))

    def test_two_balls_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            ScenarioSpec(
                name="x", kind="two_balls", dims=(64, 64), lengths=(1.0, 1.0),
                params=P90, step=StepConfig(h=1e-4), n_steps=0,
                centers=((0.4, 0.5), (0.6, 0.5)), radii=(0.15, 0.15),
            )

    def test_stripe_cut_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            make_initial(spec_stripe(64, x_cut=0.01))

    def test_cap_too_wide(self):
        with pytest.raises(ValueError, match="out of bounds"):
            make_initial(spec_cap(64, angle=np.pi / 2, radius=0.49))

    def test_cap_too_tall(self):
        # fits along the wall, but would rise 0.8 in a box 0.5 high
        with pytest.raises(ValueError, match="out of bounds: boundary_cap"):
            ScenarioSpec(
                name="x", kind="boundary_cap", dims=(64, 16), lengths=(2.0, 0.5),
                params=P90, step=StepConfig(h=1e-4), n_steps=0,
                centers=((1.0, 0.0),), radii=(0.8,), angle=np.pi / 2,
            )

    def test_cap_3d_is_spherical(self):
        # centred mid-box along z, the cap wets a disc of the bottom wall,
        # not a band from one z wall to the other. Its covered fractions
        # are mirror-symmetric in z, but the mass threshold breaks ties by
        # raster index, and here it cuts through a tie of mirrored cells:
        # (10, 2, 10) is taken and (10, 2, 13) is not
        spec = replace(spec_cap(), dims=(24, 24, 24), lengths=(1.0, 1.0, 1.0))
        chi = make_initial(spec).values
        assert np.count_nonzero(chi != chi[:, :, ::-1]) <= 2
        h = 1.0 / 24
        z = (np.nonzero(chi[:, 0, :])[1] + 0.5) * h  # wetted cells of y = 0
        assert z.size
        assert np.max(np.abs(z - 0.5)) <= 0.25 * np.sin(np.pi / 3) + h

    def test_cap_3d_too_wide_along_z(self):
        with pytest.raises(ValueError, match="out of bounds: boundary_cap"):
            replace(spec_cap(), dims=(64, 16, 16), lengths=(2.0, 1.0, 0.5),
                    centers=((1.0, 0.0),))

    def test_blobs_unplaceable(self):
        with pytest.raises(ValueError, match="could not place"):
            ScenarioSpec(
                name="x", kind="random_blobs", dims=(64, 64), lengths=(1.0, 1.0),
                params=P90, step=StepConfig(h=1e-4), n_steps=0, seed=7,
                blob_count=60,
            )

    def test_deterministic_rebuild(self):
        spec = spec_ball(64)
        a = make_initial(spec)
        b = make_initial(spec)
        assert np.array_equal(a.values, b.values)

    def test_blobs_seed_deterministic(self):
        base = ScenarioSpec(
            name="x", kind="random_blobs", dims=(64, 64), lengths=(1.0, 1.0),
            params=P90, step=StepConfig(h=1e-4), n_steps=0, seed=2026,
        )
        a = make_initial(base)
        b = make_initial(base)
        assert np.array_equal(a.values, b.values)
        other = replace(base, seed=2027)
        c = make_initial(other)
        assert not np.array_equal(a.values, c.values)

    def test_blobs_mass_positive(self):
        chi = make_initial(
            ScenarioSpec(
                name="x", kind="random_blobs", dims=(64, 64),
                lengths=(1.0, 1.0), params=P90, step=StepConfig(h=1e-4),
                n_steps=0, seed=2026,
            )
        )
        assert 0.0 < chi.integral() < chi.domain.volume


@st.composite
def random_phases(draw):
    """A grid and a nonempty binary phase: scattered cells or a few blobs."""
    d = draw(st.sampled_from((2, 3)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dims = tuple(int(n) for n in rng.integers(8, 41 if d == 2 else 21, d))
    grid = make_grid(dims, (1.0,) * d)
    if draw(st.booleans()):
        values = rng.random(dims) < draw(st.floats(0.05, 0.9))
    else:
        meshes = grid.meshes()
        values = np.zeros(dims, dtype=bool)
        for _ in range(draw(st.integers(1, 4))):
            c = rng.uniform(0.0, 1.0, d)
            r = rng.uniform(0.05, 0.4)
            values |= sum((m - ci) ** 2 for m, ci in zip(meshes, c)) <= r * r
    values.flat[rng.integers(values.size)] = True
    return grid, PhaseField(grid, values.astype(float))


class TestGeometryHelpers:
    def test_zero_displacement(self):
        chi = make_initial(spec_ball(64))
        assert interface_displacement_cells(chi, chi) == 0.0

    def test_shifted_disk_displacement(self):
        a = make_initial(spec_ball(64, center=(0.5, 0.5)))
        b = make_initial(spec_ball(64, center=(0.5 + 2.0 / 64, 0.5)))
        d = interface_displacement_cells(a, b)
        assert 1.0 <= d <= 3.0

    def test_empty_initial_phase_rejected(self):
        # with no interface there is nothing to measure from: scipy's
        # distance transform, given no zero, measured from a point off the
        # grid (10.63 cells on this 8^2 grid)
        grid = make_grid((8, 8), (1.0, 1.0))
        empty = PhaseField(grid, np.zeros(grid.dims))
        diagonal = PhaseField(grid, np.eye(8))
        with pytest.raises(ValueError, match="empty initial phase"):
            interface_displacement_cells(empty, diagonal)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_phases(), st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
    def test_displacement_matches_scipy(self, case, flip, seed):
        # scipy's face erosion and exact distance transform are the oracle
        grid, chi0 = case
        changed = np.random.default_rng(seed).random(grid.dims) < flip
        chi1 = PhaseField(grid, np.where(changed, 1.0 - chi0.values, chi0.values))
        inside = chi0.values > 0.5
        dist = ndi.distance_transform_edt(~(inside & ~ndi.binary_erosion(inside)))
        ref = float(dist[changed].max()) if changed.any() else 0.0
        assert interface_displacement_cells(chi0, chi1) == ref

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_phases())
    def test_labels_match_scipy(self, case):
        _grid, chi = case
        mask = chi.values > 0.5
        lab, count = scenarios._label(mask)
        ref, ref_count = ndi.label(mask)
        assert count == ref_count
        assert np.array_equal(lab, ref)

    def test_component_masses_need_two(self):
        chi = make_initial(spec_ball(64))
        with pytest.raises(ValueError, match="two components"):
            component_masses([chi])

    def test_component_masses_track_shrinkage(self):
        grid = make_grid((64, 64), (1.0, 1.0))
        xs, ys = grid.meshes()

        def pair(r_small):
            big = (xs - 0.3) ** 2 + (ys - 0.5) ** 2 <= 0.18 ** 2
            small = (xs - 0.72) ** 2 + (ys - 0.5) ** 2 <= r_small ** 2
            return PhaseField(grid, (big | small).astype(float))

        states = [pair(0.10), pair(0.08), pair(0.06), pair(0.0)]
        masses = component_masses(states)
        assert len(masses) == 4
        assert all(b < a for a, b in zip(masses, masses[1:-1]))
        assert masses[-1] == 0.0

    def test_extinction_truncates(self):
        grid = make_grid((64, 64), (1.0, 1.0))
        xs, ys = grid.meshes()
        big = (xs - 0.3) ** 2 + (ys - 0.5) ** 2 <= 0.18 ** 2
        small = (xs - 0.72) ** 2 + (ys - 0.5) ** 2 <= 0.1 ** 2
        both = PhaseField(grid, (big | small).astype(float))
        only = PhaseField(grid, big.astype(float))
        masses = component_masses([both, only, only])
        assert masses[1] == 0.0
        assert len(masses) == 2


class TestDefaultScenarios:
    def test_roster(self):
        specs = default_scenarios()
        names = [s.name for s in specs]
        assert names == [
            "ball", "stripe", "two_balls", "boundary_cap", "random_blobs",
        ]
        assert all(s.dims == (128, 128) for s in specs)

    def test_all_buildable(self):
        for spec in default_scenarios(64):
            chi = make_initial(spec)
            assert np.isin(chi.values, (0.0, 1.0)).all()
            assert 0.0 < chi.integral() < chi.domain.volume

    def test_regrid(self):
        specs = default_scenarios(48)
        assert all(s.dims == (48, 48) for s in specs)

    # sha256 of the float64 cell values of `make_initial` on each shipped
    # kind; at 56 the cap's covered fractions sum to exactly 120.5 cells, a
    # half-cell tie that the plain sum rounds to 120
    SHAPE_SHA256 = {
        (32, "ball"): "bfd2cc360252953a2144148b4d1e4609bf7de5ace772a1265f0d46decd77360e",
        (32, "stripe"): "c21d47b594bca1c624ecb96da99146d0ced71049ef9931ea4edcf0b7d12eea6b",
        (32, "two_balls"): "bdf585c3d142573df2299529d7eec94ba02104d106e6b2b436c45c64fd172868",
        (32, "boundary_cap"): "8f9eadb7995eec120f29ed46e6a4d27d290ff34fd67e3068a6f978f03ecb25ff",
        (32, "random_blobs"): "6b7c9ef82b29e067298c5fea5ce6d7f6beabbcba96acf70242daa3698251aeea",
        (56, "ball"): "5c5537e6fbb8ad124200af967552e798c1d59e471beb6bf8b231d3154f485a1a",
        (56, "stripe"): "8aca6f361e6db4350823fa6d19d23b38bc976b78c059b479c75d374b66b7de4f",
        (56, "two_balls"): "6e29dba4cc101a715aac9bb5e3746bdbffd231d0a11a1b965378497830422fd6",
        (56, "boundary_cap"): "a8022f29994cc015d86f9c5b96db1ec91186b7ad7ffb782c88cafe835d5be1e8",
        (56, "random_blobs"): "c4575b0b5b26bb31572cfbcae33a312c349b4b9d8e07e7f0c526b752f9536b3d",
    }

    # every shipped shape that fits its grid (16^2 has no room for
    # two_balls, so `default_scenarios(16)` refuses to build), and the
    # benchmark's seeded caps
    SPECS = [(n, replace(s, dims=(n, n))) for n in (16, 24, 32, 56, 64, 128, 256)
             for s in default_scenarios(32) if (n, s.kind) != (16, "two_balls")]
    SPECS += [(64, workloads.cap_spec(seed)) for seed in range(24)]

    @pytest.mark.parametrize("n, spec", SPECS, ids=[
        "%d-%s-%d" % (n, s.kind, i) for i, (n, s) in enumerate(SPECS)])
    def test_cell_average_matches_supersampled(self, n, spec, monkeypatch):
        # the shape's own predicate, as make_initial hands it over
        calls = []
        cell_average = scenarios.cell_average

        def spy(grid, sample):
            calls.append((grid, sample))
            return cell_average(grid, sample)

        monkeypatch.setattr(scenarios, "cell_average", spy)
        make_initial(spec)
        (grid, inside), = calls
        assert np.array_equal(cell_average(grid, inside), supersampled(grid, inside))

    @pytest.mark.parametrize("n, kind", sorted(SHAPE_SHA256))
    def test_shapes_pinned(self, n, kind):
        spec = next(s for s in default_scenarios(n) if s.kind == kind)
        values = np.ascontiguousarray(make_initial(spec).values, dtype="<f8")
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        assert digest == self.SHAPE_SHA256[n, kind]


def consistency_record(suite_records, scenario, key):
    by_name = {c.name: c for c in suite_records[0]["consistency"]}
    return by_name["consistency.%s.%s" % (scenario, key)]


class TestConsistencySuite:
    """The records of the session's one run of `mskit check consistency`."""

    def test_all_pass(self, suite_records):
        records = suite_records[0]["consistency"]
        assert records
        for c in records:
            assert c.ok, "%s failed: %s" % (c.name, c.detail)

    def test_ball_is_stationary(self, suite_records):
        # the stationary verdict is a displacement of at most 3 cells
        assert consistency_record(suite_records, "ball", "stationary").ok

    def test_stripe_stays_planar(self, suite_records):
        # the planar verdict is a planarity of at most 2 cells
        assert consistency_record(suite_records, "stripe", "planar").ok

    def test_two_balls_ostwald(self, suite_records):
        # over the suite's two steps the verdict needs both to lose mass,
        # so the small ball's mass after step 1 is below its initial mass
        assert consistency_record(suite_records, "two_balls", "ostwald").ok

    def test_masses_and_margins(self, suite_records):
        for scenario in ("ball", "stripe", "two_balls"):
            assert consistency_record(suite_records, scenario, "mass").ok
            assert consistency_record(suite_records, scenario, "margin").ok


class TestRunScenario:
    def test_zero_steps(self):
        traj, ledger = _run(spec_ball(48, n_steps=0))
        assert traj.n_steps == 0
        assert len(ledger.records) == 1
        assert ledger.records[0].dissipation_margin == 0.0
