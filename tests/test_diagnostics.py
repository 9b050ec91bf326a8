from dataclasses import replace

import numpy as np
import pytest

from mskit.checks import MARGIN_FLOOR_FRACTION, _run
from mskit.diagnostics import (
    Ledger,
    StepRecord,
    construct_xi,
    dissipation_ledger,
    gibbs_thomson_residual,
    lagrange_multiplier,
    potential_w,
)
from mskit.energy import (
    EnergyParams,
    PhaseField,
    default_tangential_fields,
    energy,
    first_variation,
    interface_measure,
    mollification_width,
)
from mskit.fields import (
    MeanZeroField,
    VectorField,
    h1_norm_sq,
    hminus_norm_sq,
    make_grid,
)
from mskit.minmov import StepConfig, run_trajectory
from mskit.scenarios import ScenarioSpec, default_scenarios, make_initial

import shapes

P90 = EnergyParams(1.0, np.pi / 2)


def grid2(n=64):
    return make_grid((n, n), (1.0, 1.0))


def two_balls(grid, c1=(0.30, 0.50), r1=0.18, c2=(0.72, 0.50), r2=0.10):
    def inside(x, y):
        return ((x - c1[0]) ** 2 + (y - c1[1]) ** 2 <= r1 * r1) | (
            (x - c2[0]) ** 2 + (y - c2[1]) ** 2 <= r2 * r2
        )

    return PhaseField(grid, (shapes.supersampled(grid, inside) >= 0.5).astype(float))


@pytest.fixture(scope="module")
def disk128():
    g = grid2(128)
    chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
    slc = interface_measure(chi, 4.0 / 128)
    xi = construct_xi(chi, 4.0 / 128)
    return chi, slc, xi


@pytest.fixture(scope="module")
def annihilation48():
    """One accepted coarsening step of a small-plus-large pair."""
    g = grid2(48)
    chi = two_balls(g)
    cfg = StepConfig(h=5e-4, pd_max_iters=40000, pd_tol=1e-5,
                     interpolant_samples=4)
    return run_trajectory(chi, P90, cfg, 2), cfg


class TestPotentialW:
    def test_cosine_mode_oracle(self):
        # a pure cosine source inverts mode by mode: the potential of
        # A cos(pi x) is -A cos(pi x)/pi^2 in the spectral basis
        g = grid2()
        X, _ = g.meshes()
        A, tau = 0.3, 0.01
        anchor = PhaseField(g, np.full(g.dims, 0.5))
        bar = PhaseField(g, 0.5 + tau * A * np.cos(np.pi * X))
        w = potential_w(bar, anchor, tau)
        exact = -A * np.cos(np.pi * X) / np.pi**2
        assert np.max(np.abs(w.values - exact)) <= 1e-12

    def test_dirichlet_energy_matches_dual_norm(self):
        g = grid2(32)
        rng = np.random.default_rng(7)
        anchor = PhaseField(g, np.full(g.dims, 0.5))
        for _ in range(3):
            bump = rng.normal(size=g.dims)
            bump = 0.05 * (bump - bump.mean()) / np.max(np.abs(bump))
            bar = PhaseField(g, 0.5 + bump)
            w = potential_w(bar, anchor, 0.02)
            src = (bar.values - anchor.values) / 0.02
            dual = hminus_norm_sq(MeanZeroField(g, src - src.mean()))
            assert h1_norm_sq(w) == pytest.approx(dual, rel=1e-12, abs=1e-14)

    def test_mass_mismatch_rejected(self):
        g = grid2(16)
        anchor = PhaseField(g, np.full(g.dims, 0.5))
        bar = PhaseField(g, np.full(g.dims, 0.6))
        with pytest.raises(ValueError, match="masses differ"):
            potential_w(bar, anchor, 0.01)

    def test_bad_tau(self):
        g = grid2(16)
        anchor = PhaseField(g, np.full(g.dims, 0.5))
        with pytest.raises(ValueError, match="tau"):
            potential_w(anchor, anchor, 0.0)

    def test_domain_mismatch(self):
        anchor = PhaseField(grid2(16), np.full((16, 16), 0.5))
        bar = PhaseField(grid2(32), np.full((32, 32), 0.5))
        with pytest.raises(ValueError, match="domain mismatch"):
            potential_w(bar, anchor, 0.01)


class TestMetricSlopes:
    def test_potential_slope_is_half_dirichlet(self):
        # the metric slope of a step is half the Dirichlet energy of its
        # potential; for w = cos(pi x) that is pi^2 / 4 on the unit square
        g = grid2(32)
        X, _ = g.meshes()
        w = MeanZeroField(g, np.cos(np.pi * X) - float(np.cos(np.pi * X).mean()))
        assert 0.5 * h1_norm_sq(w) == pytest.approx(np.pi ** 2 / 4, rel=1e-12)


class TestConstructXi:
    def test_stripe_normalizer_positive(self):
        g = grid2()
        chi = shapes.stripe(g)
        xi = construct_xi(chi, 4.0 / 64)
        assert xi.tangential
        from mskit.energy import constraint_integral

        assert constraint_integral(chi, xi) > 0.0

    def test_normalizer_stable_under_eps_halving(self):
        from mskit.energy import constraint_integral

        g = grid2()
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.3)
        a = constraint_integral(chi, construct_xi(chi, 4.0 / 64))
        b = constraint_integral(chi, construct_xi(chi, 2.0 / 64))
        assert abs(a - b) <= 0.2 * max(a, b)

    def test_constant_phase_rejected(self):
        g = grid2(16)
        chi = PhaseField(g, np.full(g.dims, 0.5))
        with pytest.raises(ValueError, match="degenerate"):
            construct_xi(chi, 4.0 / 16)

    def test_full_box_rejected(self):
        g = grid2(16)
        chi = PhaseField(g, np.ones(g.dims))
        with pytest.raises(ValueError, match="subvolume"):
            construct_xi(chi, 4.0 / 16)


class TestMultiplier:
    def test_disk_multiplier_matches_curvature(self, disk128):
        chi, slc, xi = disk128
        zw = MeanZeroField(chi.domain, np.zeros(chi.domain.shape))
        lam = lagrange_multiplier(chi, slc, zw, xi, P90)
        assert 3.6 <= lam <= 4.4  # 1/R for R = 0.25

    def test_stripe_multiplier_vanishes(self):
        g = grid2(128)
        chi = shapes.stripe(g)
        slc = interface_measure(chi, 4.0 / 128)
        xi = construct_xi(chi, 4.0 / 128)
        zw = MeanZeroField(g, np.zeros(g.shape))
        lam = lagrange_multiplier(chi, slc, zw, xi, P90)
        assert abs(lam) <= 0.05

    def test_degenerate_normalizer(self, disk128):
        chi, slc, _xi = disk128
        rot = default_tangential_fields(chi.domain)[7]
        zw = MeanZeroField(chi.domain, np.zeros(chi.domain.shape))
        with pytest.raises(ValueError, match="degenerate"):
            lagrange_multiplier(chi, slc, zw, rot, P90)

    def test_regression_bound(self, disk128):
        # |lambda| <= C (1 + TV)(slice mass + |grad w|_2) with C pinned
        # from this suite's own states
        chi, slc, xi = disk128
        zw = MeanZeroField(chi.domain, np.zeros(chi.domain.shape))
        lam = lagrange_multiplier(chi, slc, zw, xi, P90)
        tv = energy(chi, P90).bulk / P90.c0
        mass = (
            float(np.sum(slc.density.values)) * chi.domain.cell_volume
        )
        assert abs(lam) <= 2.0 * (1.0 + tv) * (mass + 0.0)


class TestGibbsThomson:
    def test_flat_interface_machine_zero(self):
        g = grid2(128)
        chi = shapes.stripe(g)
        slc = interface_measure(chi, 4.0 / 128)
        xi = construct_xi(chi, 4.0 / 128)
        zw = MeanZeroField(g, np.zeros(g.shape))
        lam = lagrange_multiplier(chi, slc, zw, xi, P90)
        basis = default_tangential_fields(g)[:6]
        assert gibbs_thomson_residual(chi, slc, zw, lam, P90, basis) <= 1e-12

    def test_mismatched_potential_blows_up(self):
        g = grid2()
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        slc = interface_measure(chi, 4.0 / 64)
        xi = construct_xi(chi, 4.0 / 64)
        zw = MeanZeroField(g, np.zeros(g.shape))
        lam = lagrange_multiplier(chi, slc, zw, xi, P90)
        basis = default_tangential_fields(g)[:6]
        matched = gibbs_thomson_residual(chi, slc, zw, lam, P90, basis)
        X, Y = g.meshes()
        wbad = MeanZeroField(g, 2.0 * np.cos(3 * np.pi * X) * np.cos(2 * np.pi * Y))
        bad = gibbs_thomson_residual(chi, slc, wbad, lam, P90, basis)
        assert bad > 10.0 * matched

    def test_residual_contracts_under_refinement(self, disk128):
        g64 = grid2()
        chi64 = shapes.binary_disk(g64, (0.5, 0.5), 0.25)
        slc64 = interface_measure(chi64, 4.0 / 64)
        xi64 = construct_xi(chi64, 4.0 / 64)
        zw64 = MeanZeroField(g64, np.zeros(g64.shape))
        lam64 = lagrange_multiplier(chi64, slc64, zw64, xi64, P90)
        gt64 = gibbs_thomson_residual(
            chi64, slc64, zw64, lam64, P90, default_tangential_fields(g64)[:6]
        )
        chi, slc, xi = disk128
        zw = MeanZeroField(chi.domain, np.zeros(chi.domain.shape))
        lam = lagrange_multiplier(chi, slc, zw, xi, P90)
        gt128 = gibbs_thomson_residual(
            chi, slc, zw, lam, P90, default_tangential_fields(chi.domain)[:6]
        )
        assert gt64 / gt128 >= 1.3

    def test_basis_must_be_tangential(self, disk128):
        chi, slc, _xi = disk128
        g = chi.domain
        zw = MeanZeroField(g, np.zeros(g.shape))
        raw = VectorField(g, (np.ones(g.dims), np.zeros(g.dims)), tangential=False)
        with pytest.raises(ValueError, match="tangential"):
            gibbs_thomson_residual(chi, slc, zw, 0.0, P90, [raw])


class TestSharedDefect:
    @pytest.mark.parametrize("kind, row", [
        ("ball", 0), ("two_balls", 0), ("two_balls", 1),
    ])
    def test_multiplier_closes_the_xi_defect(self, kind, row):
        # the shipped 48^2 shapes at rest, and the moving row 1 of the
        # `mskit check ledger` run: lambda is the ledger's, and w + lambda
        # leaves no Gibbs-Thomson defect along xi
        spec = next(s for s in default_scenarios(48) if s.kind == kind)
        traj, led = _run(replace(spec, n_steps=2 if kind == "two_balls" else 0))
        states = traj.states()
        chi, anchor = states[row], states[max(row - 1, 0)]
        eps = mollification_width(chi.domain)
        slc = interface_measure(chi, eps)
        xi = construct_xi(chi, eps)
        w = potential_w(chi, anchor, spec.step.h)
        lam = lagrange_multiplier(chi, slc, w, xi, spec.params)
        assert lam == led.records[row].lambda_
        res = gibbs_thomson_residual(chi, slc, w, lam, spec.params, [xi])
        assert res <= 1e-12 * abs(first_variation(chi, slc, xi, spec.params))


class TestLedgerTypes:
    def row(self, **kw):
        base = dict(
            n=0, t=0.0, E_bulk=1.0, E_boundary=0.0, E_total=1.0,
            vel_sq=0.0, slope_sq=0.0, lambda_=0.0, gt_residual=0.0,
            relaxation_gap=0.0, dissipation_margin=0.0, mass=0.5,
        )
        base.update(kw)
        return StepRecord(**base)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match="negative total energy"):
            self.row(E_total=-1.0)

    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError, match="negative squared norm"):
            self.row(vel_sq=-1.0)

    def test_unordered_times_rejected(self):
        rows = (self.row(t=1.0), self.row(n=1, t=0.5))
        with pytest.raises(ValueError, match="time-ordered"):
            Ledger(records=rows)

    def test_worst_margin_and_mass_drift(self):
        # the drift is measured from the first row, not between neighbours
        led = Ledger(records=(
            self.row(mass=0.5),
            self.row(n=1, t=0.1, dissipation_margin=-2e-3, mass=0.5 + 3e-4),
            self.row(n=2, t=0.2, dissipation_margin=1e-3, mass=0.5 - 5e-4),
        ))
        assert led.worst_margin == -2e-3
        assert led.mass_drift == abs((0.5 - 5e-4) - 0.5)


class TestDissipationLedger:
    def test_zero_step_trajectory(self):
        g = grid2(32)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.3)
        cfg = StepConfig(h=1e-4)
        traj = run_trajectory(chi, P90, cfg, 0)
        led = dissipation_ledger(traj, P90, cfg)
        assert len(led.records) == 1
        r = led.records[0]
        assert r.dissipation_margin == 0.0
        assert r.vel_sq == 0.0 and r.slope_sq == 0.0
        assert led.E0 == pytest.approx(energy(chi, P90).total)

    def test_stationary_margins_exactly_zero(self):
        g = grid2(32)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.3)
        cfg = StepConfig(h=1e-6, interpolant_samples=4)
        traj = run_trajectory(chi, P90, cfg, 3)
        led = dissipation_ledger(traj, P90, cfg)
        assert len(led.records) == 4
        for r in led.records:
            assert r.dissipation_margin == 0.0
            assert r.vel_sq == 0.0
            assert r.slope_sq == 0.0

    def test_replicated_steps_book_equal_rows(self):
        # the shipped 32^2 ball keeps its anchor, so its three steps replay
        # one fixed point and every step row must book the same numbers
        ball = next(s for s in default_scenarios(32) if s.kind == "ball")
        _traj, led = _run(replace(ball, n_steps=3))
        rows = [(r.slope_sq, r.vel_sq) for r in led.records[1:]]
        assert rows == [rows[0]] * 3

    @pytest.mark.parametrize("kind, n", [("ball", 48), ("ball", 96), ("stripe", 48)])
    def test_row0_residual_is_the_stationary_one(self, kind, n):
        # row 0 is the state with itself as anchor: a zero potential, and
        # the Gibbs-Thomson residual over the whole basis, bit for bit; the
        # stripe's worst field lies past the first six, the ball's does not
        spec = replace(next(s for s in default_scenarios(n) if s.kind == kind),
                       n_steps=0)
        _traj, led = _run(spec)
        chi = make_initial(spec)
        g = chi.domain
        eps = mollification_width(g)
        slc = interface_measure(chi, eps)
        zw = MeanZeroField(g, np.zeros(g.shape))
        lam = lagrange_multiplier(chi, slc, zw, construct_xi(chi, eps), spec.params)
        gt = gibbs_thomson_residual(chi, slc, zw, lam, spec.params,
                                    default_tangential_fields(g))
        row = led.records[0]
        assert (row.lambda_, row.gt_residual) == (lam, gt)
        assert (row.vel_sq, row.slope_sq, row.dissipation_margin) == (0.0, 0.0, 0.0)

    def test_snapshot_count_must_match_samples(self):
        g = grid2(32)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.3)
        cfg = StepConfig(h=1e-6, interpolant_samples=4)
        traj = run_trajectory(chi, P90, cfg, 2)
        with pytest.raises(ValueError, match="6 interpolant snapshots for 2 "
                                             "steps of 3 samples"):
            dissipation_ledger(traj, P90, replace(cfg, interpolant_samples=3))

    def test_coarsening_ledger_certifies_dissipation(self, annihilation48):
        traj, cfg = annihilation48
        led = dissipation_ledger(traj, P90, cfg)
        E0 = led.E0
        for r in led.records:
            assert r.dissipation_margin >= -1e-6 * E0
        totals = [r.E_total for r in led.records]
        assert totals[1] < totals[0]  # the coarsening step releases energy
        masses = [r.mass for r in led.records]
        for m in masses[1:]:
            assert m == pytest.approx(masses[0], abs=1e-10)

    def test_moving_row_slope_uses_snapshots(self, annihilation48):
        # all interior samples reject, so the trapezoid ends in a single
        # triangle: slope_sq = vel_sq / (2 S)
        traj, cfg = annihilation48
        led = dissipation_ledger(traj, P90, cfg)
        row = led.records[1]
        assert row.vel_sq > 0.0
        S = cfg.interpolant_samples
        assert row.slope_sq == pytest.approx(row.vel_sq / (2 * S), rel=1e-12)

    def test_gap_column_matches_step_results(self, annihilation48):
        traj, cfg = annihilation48
        led = dissipation_ledger(traj, P90, cfg)
        for rec, step in zip(led.records[1:], traj.steps):
            assert rec.relaxation_gap == step.relaxation_gap

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the shipped two_balls pair at 64x64 moved one cell "
        "in +x breaks the margin floor of `mskit check ledger` (worst "
        "margin about -6.4e-2 against -2.1e-6)"
    ))
    def test_shifted_two_balls_margin_above_floor(self):
        dx = 1.0 / 64
        spec = ScenarioSpec(
            name="two_balls", kind="two_balls", dims=(64, 64),
            lengths=(1.0, 1.0), params=P90,
            step=StepConfig(h=5e-4, interpolant_samples=4), n_steps=1,
            centers=((0.30 + dx, 0.50), (0.72 + dx, 0.50)),
            radii=(0.18, 0.10),
        )
        _traj, led = _run(spec)
        assert led.worst_margin >= -MARGIN_FLOOR_FRACTION * led.E0

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the shipped ball at 32x32 keeps its anchor at every "
        "step, but the interpolants at tau = 4h/8, 5h/8 and 6h/8 move two "
        "cells each and are replicated into step 2, so the ledger books "
        "slope no energy drop pays for (margins 0, -6.83e-3, -1.366e-2 "
        "against -1.84e-6)"
    ))
    def test_shipped_ball_32_margin_above_floor(self):
        ball = next(s for s in default_scenarios(32) if s.kind == "ball")
        _traj, led = _run(replace(ball, n_steps=2))
        assert led.worst_margin >= -MARGIN_FLOOR_FRACTION * led.E0
