"""Seeded inputs, one operation and its correctness checks per workload.

Every workload runs on a 64x64 unit square, and `mskit` only ever sees the
generated `ScenarioSpec`s and fields. The solver workloads take exactly
one step, so their work does not depend on whether `run_trajectory` would
replicate a fixed point.

Only `cap_stiff` draws its geometry from the seed. The work of the other
two follows their input chaotically, so a seeded draw would set their
timing instead of the code (see README.md); they use fixed shipped inputs.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from mskit import diagnostics, energy, fields, flows, minmov, scenarios

N = 64
DEFAULT_SEED = 0
NAMES = ("ripening_degiorgi", "cap_stiff", "flow_verify")

# Step objectives of the inputs at DEFAULT_SEED, recorded at the commit that
# added the benchmark. A solver change must reproduce them to solver
# tolerance.
REFERENCE_OBJECTIVES = {
    "ripening_degiorgi": 0.9501986029981784,
    "cap_stiff": 1.051078064155239,
}

# `mskit check flows` fails this check at the commit that added the
# benchmark: r(s) rises as s shrinks. It is counted in `failed` like any
# other check, but does not by itself mark the run incorrect.
KNOWN_DEFECTS = frozenset({"flows.quotient_monotone"})

# tolerance `mskit check flows` allows on a deformed state's mass
FLOW_MASS_TOL_FRACTION = 1e-8
# floor of the dissipation margin, as in `mskit check ledger`
MARGIN_TOL_FRACTION = 1e-6


@dataclass(frozen=True)
class Inputs:
    name: str
    spec: scenarios.ScenarioSpec
    chi0: object
    B_raw: object = None


def ripening_spec(seed, n=N):
    """The shipped `two_balls` geometry, for every seed.

    The step sits at a pinning threshold: moving both balls by one cell
    changes its PD iterations by up to 26%, pins the small ball, or breaks
    the ledger margin check.
    """
    return scenarios.ScenarioSpec(
        name="ripening_degiorgi",
        kind="two_balls",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=energy.EnergyParams(1.0, np.pi / 2),
        step=minmov.StepConfig(h=5e-4, interpolant_samples=4),
        n_steps=1,
        centers=((0.30, 0.50), (0.72, 0.50)),
        radii=(0.18, 0.10),
    )


def cap_spec(seed, n=N):
    """Wall cap started away from its contact angle pi/3, with a stiff h."""
    rng = np.random.default_rng([int(seed), NAMES.index("cap_stiff")])
    return scenarios.ScenarioSpec(
        name="cap_stiff",
        kind="boundary_cap",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=energy.EnergyParams(1.0, np.pi / 3),
        step=minmov.StepConfig(h=1e-7),
        n_steps=1,
        centers=((float(rng.uniform(0.45, 0.55)), 0.0),),
        radii=(float(rng.uniform(0.22, 0.28)),),
        angle=float(rng.uniform(np.pi / 4, np.pi / 2)),
    )


def flow_spec(seed, n=N):
    """The ball of `mskit check flows`, for every seed.

    The mass correction in `flow_deform` bisects until the resampled mass
    hits its target exactly, so its cost jumps with the input: 23 to 72
    pullbacks per operation over nearby balls and fields.
    """
    return scenarios.ScenarioSpec(
        name="flow_verify",
        kind="ball",
        dims=(n, n),
        lengths=(1.0, 1.0),
        params=energy.EnergyParams(1.0, np.pi / 2),
        step=minmov.StepConfig(h=1e-4),
        n_steps=0,
        centers=((0.5, 0.5),),
        radii=(0.25,),
    )


def flow_field(grid):
    """The wall-tangential rotation field of `mskit check flows`."""
    return fields.vector_from_callables(grid, (
        lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
        lambda x, y: -np.sin(np.pi * y) * np.cos(np.pi * x),
    ))


SPECS = {
    "ripening_degiorgi": ripening_spec,
    "cap_stiff": cap_spec,
    "flow_verify": flow_spec,
}


def make_inputs(name, seed, n=N):
    spec = SPECS[name](seed, n)
    chi0 = scenarios.make_initial(spec)
    B_raw = flow_field(chi0.domain) if name == "flow_verify" else None
    return Inputs(name, spec, chi0, B_raw)


def first_kernel_call(inputs):
    """Fill the DCT plan and symbol caches the way the first solve would."""
    v = inputs.chi0.values
    fields.poisson_apply_raw(v - v.mean(), inputs.chi0.domain)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def solve_op(inputs):
    spec = inputs.spec
    traj = minmov.run_trajectory(inputs.chi0, spec.params, spec.step, spec.n_steps)
    ledger = diagnostics.dissipation_ledger(traj, spec.params, spec.step)
    return {"traj": traj, "ledger": ledger}


@contextmanager
def _keep_outputs(module, attr, sink):
    """Record what `module.attr` returns while the block runs."""
    fn = getattr(module, attr)

    def keep(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, keep)
    try:
        yield sink
    finally:
        setattr(module, attr, fn)


def flow_op(inputs):
    chi, p = inputs.chi0, inputs.spec.params
    grid = chi.domain
    eps = 4.0 * max(grid.spacing)
    xi = diagnostics.construct_xi(chi, eps)
    B = flows.project_to_S_chi(inputs.B_raw, chi, xi)
    with _keep_outputs(flows, "flow_deform", []) as deformed:
        velocity = flows.velocity_convergence_check(chi, B)
    slc = energy.interface_measure(chi, eps)
    compat = energy.compatibility_check(chi, slc, p)
    w = diagnostics.potential_w(chi, chi, 1.0)
    lam = diagnostics.lagrange_multiplier(chi, slc, w, xi, p)
    basis = energy.default_tangential_fields(grid)
    gt = diagnostics.gibbs_thomson_residual(chi, slc, w, lam, p, basis)
    return {
        "deformed": [out[1] for out in deformed],
        "velocity": velocity,
        "compat": compat,
        "lambda": lam,
        "gt_residual": gt,
    }


OPS = {
    "ripening_degiorgi": solve_op,
    "cap_stiff": solve_op,
    "flow_verify": flow_op,
}


# ---------------------------------------------------------------------------
# checks: each returns (name, ok, detail) triples, all of them counted
# ---------------------------------------------------------------------------

def solve_checks(inputs, out):
    traj, ledger = out["traj"], out["ledger"]
    cfg = inputs.spec.step
    grid = inputs.chi0.domain
    snaps = [snap for _t, snap in traj.interpolant_snapshots]
    rows = ledger.records
    E0 = ledger.E0

    ok_conv = all(s.converged for s in traj.steps) and all(
        snap.pd_info.converged for snap in snaps
    )
    masses = [r.mass for r in rows]
    drift = max(abs(m - masses[0]) for m in masses)
    energies = [r.E_total for r in rows]
    worst = min(r.dissipation_margin for r in rows)
    objectives = [s.objective for s in traj.steps]
    anchors = energies[:len(traj.steps)]
    gaps = [s.relaxation_gap for s in traj.steps]

    checks = [
        ("minmov.converged", ok_conv,
         "iters %s" % ([s.pd_iters for s in traj.steps]
                       + [snap.pd_info.iters for snap in snaps],)),
        ("ledger.mass", drift <= grid.cell_volume, "drift %.3e" % drift),
        ("ledger.energy_nonincreasing",
         all(b <= a + 1e-12 for a, b in zip(energies, energies[1:])),
         "E %s" % (energies,)),
        ("ledger.margin", worst >= -MARGIN_TOL_FRACTION * E0,
         "worst %.3e vs floor %.3e" % (worst, -MARGIN_TOL_FRACTION * E0)),
        ("minmov.objective_below_anchor",
         all(o <= e for o, e in zip(objectives, anchors)),
         "objective %s vs anchor energy %s" % (objectives, anchors)),
        ("minmov.relaxation_gap", all(g >= -cfg.pd_tol for g in gaps),
         "gaps %s" % (gaps,)),
    ]
    ref = REFERENCE_OBJECTIVES.get(inputs.name)
    if ref is not None and inputs.spec == SPECS[inputs.name](DEFAULT_SEED):
        obj = objectives[0]
        checks.append((
            "minmov.reference_objective",
            abs(obj - ref) <= cfg.pd_tol * max(1.0, abs(ref)),
            "%.12g vs %.12g" % (obj, ref),
        ))
    return checks


def flow_checks(inputs, out):
    chi = inputs.chi0
    grid = chi.domain
    m0 = chi.integral()
    tol = FLOW_MASS_TOL_FRACTION * grid.volume
    checks = []
    for k, moved in enumerate(out["deformed"]):
        drift = abs(moved.integral() - m0)
        checks.append(("flows.mass_%d" % k, drift <= tol, "drift %.3e" % drift))
    if len(out["deformed"]) != 4:
        checks.append(("flows.deform_count", False,
                       "%d flow_deform calls" % len(out["deformed"])))
    comp = out["compat"]
    checks.append(("energy.compatibility", comp.ok,
                   "identity residuals %.3e / %.3e"
                   % (comp.comp_identity_residual, comp.wall_identity_residual)))
    vel = out["velocity"]
    checks.append(("flows.quotient_monotone", vel.monotone,
                   "r(s) = %s" % (tuple(round(r, 6) for r in vel.r_values),)))
    return checks


CHECKS = {
    "ripening_degiorgi": solve_checks,
    "cap_stiff": solve_checks,
    "flow_verify": flow_checks,
}


def solver_counts(inputs, out):
    """Exact per-operation solver counters, read from the returned records."""
    traj = out.get("traj")
    steps = traj.steps if traj is not None else []
    snaps = (
        [snap for _t, snap in traj.interpolant_snapshots] if traj is not None else []
    )
    chi0 = inputs.chi0.values
    moved = [int(np.sum(s.chi_next.values != chi0)) for s in steps]
    moved += [int(np.sum(snap.values != chi0)) for snap in snaps]
    return {
        "minmov.step_iters": sum(s.pd_iters for s in steps),
        "minmov.interp_iters": sum(snap.pd_info.iters for snap in snaps),
        "minmov.solves": len(moved),
        "minmov.unconverged": sum(not s.converged for s in steps)
        + sum(not snap.pd_info.converged for snap in snaps),
        "minmov.moved_cells": sum(moved),
        "minmov.kept_anchor": sum(m == 0 for m in moved),
        "minmov.moved_ratio": (
            sum(m > 0 for m in moved) / len(moved) if moved else 0.0
        ),
    }
