"""Interface-measure energy along the recorded states of a trajectory.

Each step is represented by its last partial-step sample when the run
stored any for that step, else by the step output at the step end; each
state is sliced at a fixed physical mollification width.
"""

import numpy as np
import pytest

from mskit.energy import (
    EnergyParams,
    boundary_trace_integral,
    compatibility_check,
    energy,
    interface_measure,
)
from mskit.minmov import StepConfig, run_trajectory
from mskit.scenarios import ScenarioSpec, make_initial

P90 = EnergyParams(1.0, np.pi / 2)
EPS_PHYS = 4.0 / 64


def ball_spec(n, h=1e-4, samples=0, n_steps=3):
    return ScenarioSpec(
        name="ball",
        kind="ball",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=P90,
        step=StepConfig(h=h, interpolant_samples=samples),
        n_steps=n_steps,
        centers=((0.5, 0.5),),
        radii=(0.25,),
    )


def two_balls_spec(n=48, h=5e-4, samples=4, n_steps=2):
    return ScenarioSpec(
        name="two_balls",
        kind="two_balls",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=P90,
        step=StepConfig(h=h, interpolant_samples=samples),
        n_steps=n_steps,
        centers=((0.30, 0.50), (0.72, 0.50)),
        radii=(0.18, 0.10),
    )


def recorded_states(traj, cfg):
    """(time, state) pairs: the start, then one entry per step of length h.

    Step n's snapshots are the n-th block of S - 1 (tau, field) pairs; its
    entry is the last of them, at time (n - 1) h + tau.
    """
    h, per_step = cfg.h, max(cfg.interpolant_samples - 1, 0)
    out = [(0.0, traj.chi0)]
    for n, step in enumerate(traj.steps, start=1):
        if per_step:
            tau, snap = traj.interpolant_snapshots[n * per_step - 1]
            out.append(((n - 1) * h + tau, snap))
        else:
            out.append((n * h, step.chi_next))
    return out


def slice_series(traj, p, cfg):
    """Recorded times, interface slices and slice energies of a run."""
    times, slices, totals = [], [], []
    for t, state in recorded_states(traj, cfg):
        slc = interface_measure(state, EPS_PHYS)
        times.append(t)
        slices.append(slc)
        totals.append(p.c0 * slc.density.integral() + p.cos_alpha * p.c0
                      * boundary_trace_integral(state.values, state.domain))
    return tuple(times), tuple(slices), tuple(totals)


@pytest.fixture(scope="module")
def still_traj():
    spec = ball_spec(64, n_steps=3)
    chi0 = make_initial(spec)
    return spec, run_trajectory(chi0, spec.params, spec.step, spec.n_steps)


@pytest.fixture(scope="module")
def still_series(still_traj):
    spec, traj = still_traj
    return slice_series(traj, spec.params, spec.step)


@pytest.fixture(scope="module")
def ostwald_traj():
    spec = two_balls_spec()
    chi0 = make_initial(spec)
    return spec, run_trajectory(chi0, spec.params, spec.step, spec.n_steps)


class TestBuildTrack:
    def test_single_state(self):
        spec = ball_spec(64, n_steps=0)
        chi0 = make_initial(spec)
        traj = run_trajectory(chi0, spec.params, spec.step, 0)
        assert traj.steps == [] and traj.interpolant_snapshots == []
        times, _slices, _totals = slice_series(traj, spec.params, spec.step)
        assert times == (0.0,)

    def test_one_slice_per_step(self, still_traj, still_series):
        spec, traj = still_traj
        times, _slices, _totals = still_series
        assert traj.n_steps == spec.n_steps
        assert times == tuple(n * spec.step.h for n in range(traj.n_steps + 1))

    def test_stationary_energy_constant(self, still_series):
        _times, _slices, tot = still_series
        ref = tot[0]
        assert all(abs(v - ref) <= 0.01 * ref for v in tot)

    def test_slice_energy_matches_field_energy(self, still_traj, still_series):
        # the sharp energy is an anisotropic (per-axis) total variation, so
        # for curved interfaces it exceeds the mollified isotropic slice
        # mass by up to 4/pi; the ratio must sit in that band
        spec, traj = still_traj
        _times, _slices, totals = still_series
        for (t, state), tot in zip(recorded_states(traj, spec.step), totals):
            direct = energy(state, spec.params).total
            assert 0.75 * direct <= tot <= 1.02 * direct

    def test_compatibility_on_every_slice(self, still_traj, still_series):
        spec, traj = still_traj
        _times, slices, _totals = still_series
        for (t, state), slc in zip(recorded_states(traj, spec.step), slices):
            assert compatibility_check(state, slc, spec.params).ok

    def test_interpolant_samples_recorded_in_place(self, ostwald_traj):
        spec, traj = ostwald_traj
        states = recorded_states(traj, spec.step)
        h = spec.step.h
        S = spec.step.interpolant_samples
        # with interior snapshots stored, each step is represented by its
        # last partial-step sample rather than the step endpoint
        assert states[1][0] == pytest.approx((S - 1) * h / S)
        assert states[2][0] == pytest.approx(h + (S - 1) * h / S)

    def test_ostwald_energy_nonincreasing(self, ostwald_traj):
        spec, traj = ostwald_traj
        _times, _slices, tot = slice_series(traj, spec.params, spec.step)
        slack = 1e-6 * (1.0 + abs(tot[0]))
        assert all(b <= a + slack for a, b in zip(tot, tot[1:]))
        assert tot[-1] < tot[0]
