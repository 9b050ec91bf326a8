import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mskit import minmov as mv
from mskit.energy import EnergyParams, PhaseField, energy
from mskit.fields import ScalarField, hminus_norm_sq, make_grid, project_mean_zero
from mskit.minmov import (
    StepConfig,
    de_giorgi_interpolant,
    mass_threshold,
    mm_step,
    movement_penalty,
    run_trajectory,
)
from mskit.scenarios import ScenarioSpec, interface_displacement_cells, make_initial

import oracles
from shapes import binary_disk, stripe

hyp = settings(max_examples=20, deadline=None, derandomize=True)

P = EnergyParams(c0=1.0, alpha=np.pi / 2)


def grid2(n=32):
    return make_grid((n, n), (1.0, 1.0))


def quick_cfg(grid, **kw):
    kw.setdefault("h", grid.spacing[0] ** 2)
    kw.setdefault("pd_tol", 1e-5)
    return StepConfig(**kw)


def objective(u, anchor, tau, p=P):
    return energy(u, p).total + movement_penalty(u, anchor, tau)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestStepConfig:
    def test_defaults_valid(self):
        cfg = StepConfig(h=1e-4)
        assert cfg.interpolant_samples == 0

    def test_nonpositive_h(self):
        with pytest.raises(ValueError, match="h must be positive"):
            StepConfig(h=0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_non_finite_h(self, h):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            StepConfig(h=h)

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="at least 100"):
            StepConfig(h=1e-4, pd_max_iters=50)

    def test_tolerance_range(self):
        with pytest.raises(ValueError, match="pd_tol"):
            StepConfig(h=1e-4, pd_tol=1e-2)
        with pytest.raises(ValueError, match="pd_tol"):
            StepConfig(h=1e-4, pd_tol=0.0)

    def test_negative_samples(self):
        with pytest.raises(ValueError, match="interpolant_samples"):
            StepConfig(h=1e-4, interpolant_samples=-1)


# ---------------------------------------------------------------------------
# box-and-mass projection
# ---------------------------------------------------------------------------

def reference_shift_interval(v, frac):
    """Every root of the clipped sum, by sorting all 2N breakpoints.

    f(s) = sum(clip(v + s, 0, 1)) - N frac is linear between consecutive
    breakpoints -v_i and 1 - v_i, so evaluating it exactly at each of them
    and interpolating on the piece that crosses zero gives the roots. They
    form an interval [a, b], which is wider than a point only where f is
    flat at zero.
    """
    v = np.asarray(v, dtype=float).ravel()
    target = frac * v.size
    bps = np.unique(np.concatenate((-v, 1.0 - v)))
    f = np.array([math.fsum(np.clip(v + b, 0.0, 1.0)) - target for b in bps])
    k = int(np.searchsorted(f, 0.0))
    if f[k] == 0.0:
        a = bps[k]
    else:
        a = bps[k - 1] - f[k - 1] * (bps[k] - bps[k - 1]) / (f[k] - f[k - 1])
    j = int(np.searchsorted(f, 0.0, side="right"))
    b = bps[j - 1] if f[j - 1] == 0.0 else a
    return a, b


def count_bisections(monkeypatch):
    """Wrap the projection to log the calls its Newton phase does not land.

    A call the oracle's Newton phase lands must return the same (u, s)
    bit for bit. Returns the log of the other calls' warm shifts.
    """
    calls = []
    project = mv._project_box_mass

    def checked(v, mean_target, shift, out=None, work=None):
        landed, u_ref, s_ref, _lo, _hi = oracles.newton_phase_ref(
            v, mean_target, shift)
        u, s = project(v, mean_target, shift, out=out, work=work)
        if landed:
            assert s == s_ref
            np.testing.assert_array_equal(u, u_ref)
        else:
            calls.append(shift)
        return u, s

    monkeypatch.setattr(mv, "_project_box_mass", checked)
    return calls


@st.composite
def projection_inputs(draw, wheres=("inside", "outside", "far")):
    """Inputs (v, frac, warm shift) of the box-and-mass projection.

    `wheres` picks where the warm shift sits against the root's bracket.
    """
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(("spread", "binary_noise", "all_equal")))
    if kind == "spread":
        v = np.asarray(draw(st.lists(st.floats(-2.0, 3.0), min_size=n, max_size=n)))
    elif kind == "binary_noise":
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        noise = draw(st.lists(st.floats(-1e-9, 1e-9), min_size=n, max_size=n))
        v = np.asarray(bits, dtype=float) + np.asarray(noise)
    else:
        v = np.full(n, draw(st.floats(-2.0, 3.0)))
    frac = draw(st.floats(0.05, 0.95))
    lo, hi = -float(v.max()), 1.0 - float(v.min())
    where = draw(st.sampled_from(wheres))
    if where == "inside":
        shift = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    elif where == "outside":
        gap = draw(st.floats(0.0, 0.5))
        shift = draw(st.sampled_from((lo - gap, hi + gap)))
    else:
        shift = draw(st.sampled_from((-1e6, 1e6)))
    return v, frac, shift


class TestProjection:
    @given(
        st.lists(st.floats(-2.0, 3.0), min_size=4, max_size=24),
        st.floats(0.05, 0.95),
    )
    @hyp
    def test_feasible_and_closest(self, vals, frac):
        v = np.asarray(vals)
        u, _ = mv._project_box_mass(v, frac, 0.0)
        assert u.min() >= 0.0 and u.max() <= 1.0
        assert abs(float(u.mean()) - frac) <= 1e-9
        # no feasible competitor sits closer to v than the projection
        rng = np.random.default_rng(7)
        for _ in range(4):
            w, _ = mv._project_box_mass(rng.uniform(-1.0, 2.0, v.size), frac, 0.0)
            assert np.sum((u - v) ** 2) <= np.sum((w - v) ** 2) + 1e-8

    @given(projection_inputs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_sorted_reference(self, inputs):
        v, frac, shift = inputs
        a, b = reference_shift_interval(v, frac)
        u, s = mv._project_box_mass(v, frac, shift)
        assert a - 1e-12 <= s <= b + 1e-12
        assert abs(float(u.mean()) - frac) <= 1e-12
        np.testing.assert_array_equal(u, np.clip(v + s, 0.0, 1.0))

    def test_far_shift_falls_back_to_bisection(self):
        # a warm shift far outside the bracket restarts Newton at a bracket
        # end, where the four evaluations often fail to land: the bisection
        # must run there and still find the reference root
        bisected = []

        @given(projection_inputs(wheres=("far",)))
        @settings(max_examples=50, deadline=None, derandomize=True)
        def check(inputs):
            v, frac, shift = inputs
            a, b = reference_shift_interval(v, frac)
            u, s = mv._project_box_mass(v, frac, shift)
            assert a - 1e-12 <= s <= b + 1e-12
            np.testing.assert_array_equal(u, np.clip(v + s, 0.0, 1.0))
            bisected.append(not oracles.newton_phase_ref(v, frac, shift)[0])

        check()
        assert any(bisected)

    def test_bisection_stops_without_a_double_left(self):
        # the root s = 629.555 is not reachable to the landing tolerance: one
        # ulp of s moves the clipped sum by 1.1e-13 against a tolerance of
        # 1e-14, so the bisection ends on adjacent doubles around it
        v = np.array([0.5] * 9 + [-628.9])
        frac = 0.9655
        assert not oracles.newton_phase_ref(v, frac, 0.0)[0]
        a, b = reference_shift_interval(v, frac)
        u, s = mv._project_box_mass(v, frac, 0.0)
        assert a - 1e-12 <= s <= b + 1e-12
        assert abs(float(u.mean()) - frac) <= 1e-12
        np.testing.assert_array_equal(u, np.clip(v + s, 0.0, 1.0))
        assert np.nextafter(s, -np.inf) <= a and b <= np.nextafter(s, np.inf)

    @given(projection_inputs(wheres=("outside", "far")))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_outside_shift_matches_eager_clamp(self, inputs):
        # the first evaluation runs at the warm shift itself; outside the
        # bracket the result must equal clamping the shift in first
        v, frac, shift = inputs
        work = (np.empty_like(v), np.empty(v.shape, bool))
        u, s = mv._project_box_mass(v, frac, shift, out=np.empty_like(v), work=work)
        u_ref, s_ref = oracles.project_box_mass_ref(v, frac, shift)
        assert s == s_ref
        np.testing.assert_array_equal(u, u_ref)

    def test_warm_start_at_root_is_kept(self):
        v = np.linspace(-0.4, 1.3, 50)
        u, s = mv._project_box_mass(v, 0.37, 0.0)
        u2, s2 = mv._project_box_mass(v, 0.37, s)
        assert s2 == s
        np.testing.assert_array_equal(u2, u)

    def test_already_feasible_fixed(self):
        v = np.array([0.25, 0.75, 0.5, 0.5])
        u, s = mv._project_box_mass(v, 0.5, 0.3)
        assert np.allclose(u, v, atol=1e-9)
        assert abs(s) <= 1e-12


# ---------------------------------------------------------------------------
# mass threshold
# ---------------------------------------------------------------------------

class TestMassThreshold:
    def test_decreasing_ramp_gives_left_half(self):
        g = grid2(32)
        X = g.meshes()[0]
        u = PhaseField(g, 1.0 - X, m0=0.5)
        out = mass_threshold(u)
        np.testing.assert_array_equal(out.values, (X < 0.5).astype(float))

    def test_binary_input_unchanged(self):
        g = grid2(32)
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        out = mass_threshold(chi)
        np.testing.assert_array_equal(out.values, chi.values)

    def test_constant_rejected(self):
        g = grid2(16)
        u = PhaseField(g, np.full(g.shape, 0.4), m0=0.4)
        with pytest.raises(ValueError, match="no interface"):
            mass_threshold(u)

    def test_mass_match_random(self):
        g = grid2(24)
        rng = np.random.default_rng(11)
        u = PhaseField(g, rng.uniform(0.0, 1.0, g.shape))
        out = mass_threshold(u)
        assert abs(out.values.mean() * g.volume - u.m0) <= g.cell_volume

    def test_tie_break_prefers_low_index(self):
        g = grid2(16)
        vals = np.zeros(g.shape)
        vals[0, 1] = 0.9
        vals[0, 2] = 0.9
        for ij in ((5, 5), (2, 7), (9, 0)):
            vals[ij] = 0.5
        u = PhaseField(g, vals)
        out = mass_threshold(u)
        assert out.values[0, 1] == 1.0 and out.values[0, 2] == 1.0
        assert out.values[2, 7] == 1.0
        assert out.values[5, 5] == 0.0 and out.values[9, 0] == 0.0


# ---------------------------------------------------------------------------
# relaxed inner solve
# ---------------------------------------------------------------------------

class TestSolveRelaxed:
    def test_nonpositive_tau(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        with pytest.raises(ValueError, match="tau must be positive"):
            mv._solve_relaxed(chi, 0.0, P, quick_cfg(g))

    def test_output_box_mass_and_info(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        u, info, _end = mv._solve_relaxed(chi, cfg.h, P, cfg)
        assert u.values.min() >= 0.0 and u.values.max() <= 1.0
        assert abs(u.values.mean() * g.volume - chi.m0) <= 1e-10
        assert info.converged
        assert info.residual <= cfg.pd_tol

    def test_beats_anchor_competitor(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        u, _info, _end = mv._solve_relaxed(chi, cfg.h, P, cfg)
        assert objective(u, chi, cfg.h) <= objective(chi, chi, cfg.h) + 1e-8

    def test_small_tau_returns_to_anchor(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = StepConfig(h=1e-3, pd_tol=1e-5)
        diffs = []
        for k in range(0, 6, 2):
            u, _info, _end = mv._solve_relaxed(chi, cfg.h / 2 ** k, P, cfg)
            diffs.append(float(np.linalg.norm(u.values - chi.values)))
        assert diffs[-1] <= diffs[0] + 1e-12
        assert diffs[-1] <= 0.5 * diffs[0] + 1e-6

    def test_disk_stable_at_small_tau(self):
        g = grid2(16)
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        u, _info, _end = mv._solve_relaxed(chi, 4e-6, P, cfg)
        l1 = float(np.sum(np.abs(u.values - chi.values))) * g.cell_volume
        assert l1 <= 3.0 * g.cell_volume


# ---------------------------------------------------------------------------
# the implicit step
# ---------------------------------------------------------------------------

class TestMMStep:
    def test_descent_guarantee(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        res = mm_step(chi, P, cfg)
        comp = objective(res.chi_next, chi, cfg.h)
        assert comp <= energy(chi, P).total + 1e-12

    def test_output_binary_mass_conserved(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        res = mm_step(chi, P, cfg)
        assert np.isin(res.chi_next.values, (0.0, 1.0)).all()
        assert abs(res.chi_next.m0 - chi.m0) <= g.cell_volume

    def test_stationary_disk_moves_little(self):
        g = grid2(48)
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        res = mm_step(chi, P, cfg)
        # changed cells must hug the old interface
        assert interface_displacement_cells(chi, res.chi_next) <= 2.0

    def test_gap_not_below_solver_floor(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        res = mm_step(chi, P, cfg)
        floor = cfg.pd_tol * (1.0 + abs(res.objective))
        assert res.relaxation_gap >= -floor
        assert res.converged

    def test_interpolant_at_h_matches_step(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        res = mm_step(chi, P, cfg)
        snap, _end = de_giorgi_interpolant(chi, cfg.h, P, cfg)
        np.testing.assert_array_equal(snap.values, res.chi_next.values)
        # the same holds for a warm start, given to both
        _half, start = de_giorgi_interpolant(chi, cfg.h / 2, P, cfg)
        res = mm_step(chi, P, cfg, start=start)
        snap, _end = de_giorgi_interpolant(chi, cfg.h, P, cfg, start=start)
        assert snap.pd_info.iters == res.pd_iters
        np.testing.assert_array_equal(snap.values, res.chi_next.values)


# Steps recorded with the bisection projection that the breakpoint solver
# replaced: an exact projection must repeat the PD iteration count exactly
# and the relaxed objective to solver tolerance.
REGRESSION_STEPS = {
    "two_balls": (
        dict(kind="two_balls", params=P, step=StepConfig(h=5e-4),
             centers=((0.30, 0.50), (0.72, 0.50)), radii=(0.18, 0.10)),
        2260, 0.9519355700404475,
    ),
    "stiff_cap": (
        dict(kind="boundary_cap", params=EnergyParams(1.0, np.pi / 3),
             step=StepConfig(h=1e-7), centers=((0.5, 0.0),), radii=(0.3,),
             angle=0.3 * np.pi),
        8170, 0.8763692979900808,
    ),
}


# Per-tau PD iterations (tau = h/4, h/2, 3h/4, h) of the REGRESSION_STEPS
# two_balls with interpolant_samples = 4: every tau solved cold by itself,
# and run_trajectory's continuation, which starts each solve after the first
# from the end state of the one before.
CONTINUATION_ITERS = {
    "cold": (1440, 1500, 1680, 2260),
    "continued": (1440, 1070, 1390, 1900),
}


@pytest.mark.parametrize("name", sorted(REGRESSION_STEPS))
def test_step_matches_recorded_solve(name, monkeypatch):
    kw, iters, objective = REGRESSION_STEPS[name]
    spec = ScenarioSpec(name=name, dims=(32, 32), lengths=(1.0, 1.0),
                        n_steps=1, **kw)
    bisections = count_bisections(monkeypatch)
    res = mm_step(make_initial(spec), spec.params, spec.step)
    # the warm-started Newton evaluations land every projection of these
    # solves; the bisection is only the fallback
    assert bisections == []
    assert res.converged
    assert res.pd_iters == iters
    assert abs(res.objective - objective) <= spec.step.pd_tol * max(1.0, objective)


def test_continuation_matches_cold_solves():
    kw, _iters, _objective = REGRESSION_STEPS["two_balls"]
    kw = dict(kw, step=replace(kw["step"], interpolant_samples=4))
    spec = ScenarioSpec(name="two_balls", dims=(32, 32), lengths=(1.0, 1.0),
                        n_steps=1, **kw)
    chi, p, cfg = make_initial(spec), spec.params, spec.step
    cold_snaps = [de_giorgi_interpolant(chi, cfg.h * j / 4, p, cfg)[0]
                  for j in (1, 2, 3)]
    cold = mm_step(chi, p, cfg)
    traj = run_trajectory(chi, p, cfg, 1)
    snaps = [snap for _t, snap in traj.interpolant_snapshots]
    (step,) = traj.steps

    cold_iters = tuple(s.pd_info.iters for s in cold_snaps) + (cold.pd_iters,)
    iters = tuple(s.pd_info.iters for s in snaps) + (step.pd_iters,)
    assert cold_iters == CONTINUATION_ITERS["cold"]
    assert iters == CONTINUATION_ITERS["continued"]
    assert sum(iters) < sum(cold_iters)

    np.testing.assert_array_equal(step.chi_next.values, cold.chi_next.values)
    for snap, cold_snap in zip(snaps, cold_snaps):
        np.testing.assert_array_equal(snap.values, cold_snap.values)
    assert step.objective <= cold.objective + cfg.pd_tol * max(
        1.0, abs(cold.objective)
    )
    # stored snapshots keep the solver counts, not the primal-dual arrays
    assert [f.name for f in fields(mv.SolveInfo)] == ["iters", "converged", "residual"]


def test_pd_iterate_leaves_subnormal_range(monkeypatch):
    """No cell of the extrapolated primal 2 u_hat - u stays subnormal long.

    A cell the projection clips to 0 must halve to 0 within about 53
    iterations rather than cycle at +-1 ulp of the smallest subnormal,
    where every operation that reads it takes the slow path.
    """
    kw, iters, _objective = REGRESSION_STEPS["stiff_cap"]
    spec = ScenarioSpec(name="stiff_cap", dims=(32, 32), lengths=(1.0, 1.0),
                        n_steps=1, **kw)
    poisson, grad = mv.poisson_apply_raw, mv.grad_forward
    state = {"fresh": False, "seen": 0, "longest": 0,
             "run": np.zeros(spec.dims, dtype=int)}

    def poisson_once_per_iteration(values, grid, **kw):
        state["fresh"] = True
        return poisson(values, grid, **kw)

    def grad_tracking_subnormals(values, grid, **kw):
        # the first forward gradient after the Poisson apply is the one of
        # 2 u_hat - u; the warm start and the residual check come elsewhere
        if state["fresh"]:
            state["fresh"] = False
            state["seen"] += 1
            sub = (values != 0.0) & (np.abs(values) < np.finfo(float).tiny)
            state["run"] = np.where(sub, state["run"] + 1, 0)
            state["longest"] = max(state["longest"], int(state["run"].max()))
        return grad(values, grid, **kw)

    monkeypatch.setattr(mv, "poisson_apply_raw", poisson_once_per_iteration)
    monkeypatch.setattr(mv, "grad_forward", grad_tracking_subnormals)
    res = mm_step(make_initial(spec), spec.params, spec.step)
    assert res.pd_iters == iters
    assert state["seen"] == iters
    assert state["longest"] <= 60


def loop_input(name):
    """(chi, tau, params, start) of one fused-against-reference loop case.

    stiff_cap is the subnormal path with the wall term on; two_balls starts
    from the end of an h/2 solve; the 3-D boxes have equal and unequal
    spacings.
    """
    if name in REGRESSION_STEPS:
        kw, _iters, _objective = REGRESSION_STEPS[name]
        spec = ScenarioSpec(name=name, dims=(32, 32), lengths=(1.0, 1.0),
                            n_steps=1, **kw)
        chi, p, h = make_initial(spec), spec.params, spec.step.h
    else:
        lengths = {"box_1_1_2": (1.0, 1.0, 2.0), "box_1_1_1": (1.0, 1.0, 1.0)}[name]
        g = make_grid((8, 8, 16), lengths)
        chi = binary_disk(g, (0.5, 0.5, lengths[2] / 2), 0.3)
        p, h = EnergyParams(1.0, np.pi / 3), 1e-3
    start = None
    if name == "two_balls":
        _u, info, start = mv._solve_relaxed(chi, h / 2, p, StepConfig(h=h))
        assert info.converged
    return chi, h, p, start


def assert_same_solve(chi, tau, p, cfg, start):
    out, info, end = mv._solve_relaxed(chi, tau, p, cfg, start)
    ref, ref_info, ref_end = oracles.solve_relaxed_ref(chi, tau, p, cfg, start)
    assert (info.iters, info.converged) == (ref_info.iters, ref_info.converged)
    (u_hat, y_hat, shift), (u_ref, y_ref, shift_ref) = end, ref_end
    for got, want in ((u_hat, u_ref), (y_hat, np.asarray(y_ref)),
                      (out.values, ref.values), (shift, shift_ref)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", ["stiff_cap", "two_balls", "box_1_1_2", "box_1_1_1"])
def test_fused_loop_repeats_reference_iterates(name):
    # pd_tol far below reach: both loops run all 300 iterations
    chi, tau, p, start = loop_input(name)
    assert_same_solve(chi, tau, p, StepConfig(h=tau, pd_max_iters=300,
                                              pd_tol=1e-12), start)


def test_fused_loop_converges_with_reference():
    chi, tau, p, start = loop_input("two_balls")
    assert_same_solve(chi, tau, p, StepConfig(h=tau), start)


# ---------------------------------------------------------------------------
# variational interpolants
# ---------------------------------------------------------------------------

class TestInterpolant:
    def test_tau_bounds(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        with pytest.raises(ValueError, match="tau must be positive"):
            de_giorgi_interpolant(chi, 0.0, P, cfg)
        with pytest.raises(ValueError, match="must not exceed"):
            de_giorgi_interpolant(chi, 2 * cfg.h, P, cfg)

    def test_tiny_tau_is_anchor(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        snap, _end = de_giorgi_interpolant(chi, 1e-3 * cfg.h, P, cfg)
        np.testing.assert_array_equal(snap.values, chi.values)

    def test_binary_samples_never_raise_energy(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        E0 = energy(chi, P).total
        for j in (1, 2, 4, 8):
            snap, _end = de_giorgi_interpolant(chi, cfg.h * j / 8.0, P, cfg)
            assert energy(snap, P).total <= E0 + 1e-12

    def test_binary_sample_sequences_monotone(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        E0 = energy(chi, P).total
        dists, values = [], []
        for j in range(1, 9):
            tau = cfg.h * j / 8.0
            snap, _end = de_giorgi_interpolant(chi, tau, P, cfg)
            diff = project_mean_zero(ScalarField(g, snap.values - chi.values))
            d2 = hminus_norm_sq(diff)
            dists.append(np.sqrt(d2))
            values.append(energy(snap, P).total + d2 / (2.0 * tau))
        scale = 1.0 + abs(E0)
        for a, b in zip(dists, dists[1:]):
            assert b >= a - 1e-9 * scale
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9 * scale

    def test_relaxed_sample_sequences_monotone(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g)
        dists, values = [], []
        for j in range(1, 9):
            tau = cfg.h * j / 8.0
            u, _info, _end = mv._solve_relaxed(chi, tau, P, cfg)
            diff = project_mean_zero(ScalarField(g, u.values - chi.values))
            d2 = hminus_norm_sq(diff)
            dists.append(np.sqrt(d2))
            values.append(energy(u, P).total + d2 / (2.0 * tau))
        # slack reflects the inner solver tolerance, not an exact identity
        scale = 1e-3 * (1.0 + abs(values[0]))
        for a, b in zip(dists, dists[1:]):
            assert b >= a - scale
        for a, b in zip(values, values[1:]):
            assert b <= a + scale


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

class TestTrajectory:
    def test_zero_steps(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        traj = run_trajectory(chi, P, quick_cfg(g), 0)
        assert traj.n_steps == 0
        assert traj.states() == [chi]

    def test_negative_steps(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        with pytest.raises(ValueError, match="nonnegative"):
            run_trajectory(chi, P, quick_cfg(g), -1)

    def test_energy_nonincreasing_mass_constant(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        traj = run_trajectory(chi, P, quick_cfg(g), 6)
        energies = [energy(s, P).total for s in traj.states()]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12
        for s in traj.states():
            assert abs(s.values.mean() * g.volume - chi.m0) <= g.cell_volume

    def test_fixed_point_replicates(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        traj = run_trajectory(chi, P, quick_cfg(g), 12)
        assert traj.n_steps == 12
        tail = traj.states()[-6:]
        for s in tail[1:]:
            np.testing.assert_array_equal(s.values, tail[0].values)

    def test_nonconverged_step_aborts(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g, pd_max_iters=100, pd_tol=1e-12)
        with pytest.raises(
            ValueError,
            match=r"step 1: PD solve at tau = 0\.000976562 stopped at 100 of "
            r"pd_max_iters = 100 iterations without reaching pd_tol = 1e-12",
        ):
            run_trajectory(chi, P, cfg, 5)

    def test_nonconverged_interpolant_aborts(self):
        # 16x16 disk: the step solve takes 770 iterations cold, the tau = h/4
        # interpolant 1630; that interpolant is solved first, so a cap of
        # 1000 stops it before any other solve
        g = grid2(16)
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g, pd_max_iters=1000, interpolant_samples=4)
        assert mm_step(chi, P, cfg).converged
        with pytest.raises(
            ValueError,
            match=r"step 1: PD solve at tau = 0\.000976562 stopped at 1000 of "
            r"pd_max_iters = 1000 iterations",
        ):
            run_trajectory(chi, P, cfg, 2)

    def test_snapshot_times(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g, interpolant_samples=4)
        traj = run_trajectory(chi, P, cfg, 2)
        # each snapshot carries the penalty time it was solved at, so step
        # 2's block repeats step 1's taus bit for bit
        taus = [tau for tau, _ in traj.interpolant_snapshots]
        assert taus == [cfg.h * j / 4 for j in (1, 2, 3)] * 2

    def test_single_sample_stores_nothing(self):
        g = grid2()
        chi = binary_disk(g, (0.5, 0.5), 0.3)
        cfg = quick_cfg(g, interpolant_samples=1)
        traj = run_trajectory(chi, P, cfg, 2)
        assert traj.interpolant_snapshots == []

    def test_deterministic_rerun(self):
        g = grid2()
        chi = binary_disk(g, (0.45, 0.55), 0.27)
        cfg = quick_cfg(g, interpolant_samples=2)
        t1 = run_trajectory(chi, P, cfg, 3)
        t2 = run_trajectory(chi, P, cfg, 3)
        for a, b in zip(t1.states(), t2.states()):
            np.testing.assert_array_equal(a.values, b.values)
        for (ta, sa), (tb, sb) in zip(
            t1.interpolant_snapshots, t2.interpolant_snapshots
        ):
            assert ta == tb
            np.testing.assert_array_equal(sa.values, sb.values)


# ---------------------------------------------------------------------------
# movement penalty
# ---------------------------------------------------------------------------

def test_movement_penalty_matches_direct_norm():
    g = grid2()
    a = binary_disk(g, (0.5, 0.5), 0.3)
    b = binary_disk(g, (0.52, 0.5), 0.3)
    diff = project_mean_zero(ScalarField(g, b.values - a.values))
    tau = 1e-4
    assert movement_penalty(b, a, tau) == pytest.approx(
        hminus_norm_sq(diff) / (2 * tau), rel=1e-12
    )


def test_stripe_is_lazy_fixed_point():
    g = grid2(48)
    chi = stripe(g, 0.5)
    cfg = quick_cfg(g)
    res = mm_step(chi, P, cfg)
    np.testing.assert_array_equal(res.chi_next.values, chi.values)
