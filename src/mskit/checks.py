"""The `mskit check` suites, as records.

Each suite is one function of the output directory that returns a list of
`Check` records, one per named assertion, in print order; `CHECKS` maps
suite names to those functions. A new suite is one function plus one
`CHECKS` row. The audit numbers come from `diagnostics.dissipation_ledger`
and its `Ledger`: the worst margin, the mass drift and the stationary
Gibbs-Thomson residual of row 0. The bounds put on them, the
dissipation-margin floor and the one-cell mass tolerance, live here.
"""

import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .diagnostics import construct_xi, dissipation_ledger
from .energy import compatibility_check, interface_measure, mollification_width
from .fields import (
    ScalarField,
    h1_norm_sq,
    hminus_norm_sq,
    make_grid,
    neumann_solve,
    project_mean_zero,
    vector_from_callables,
)
from .flows import flow_deform, project_to_S_chi, velocity_convergence_check
from .io import write_ledger
from .minmov import run_trajectory
from .scenarios import (
    component_masses,
    default_scenarios,
    interface_displacement_cells,
    make_initial,
)

# floor of the dissipation margin, as a fraction of the initial energy
MARGIN_FLOOR_FRACTION = 1e-6
# file `check ledger` writes into the output directory
LEDGER_CSV = "ledger_two_balls.csv"


@dataclass(frozen=True)
class Check:
    """One named verdict; the detail, if any, is printed after the name."""

    name: str
    ok: bool
    detail: str = ""


def _shipped(n):
    """The shipped scenarios on an n-by-n grid, by name."""
    return {s.name: s for s in default_scenarios(n)}


def _mini_set():
    shipped = _shipped(64)
    ball = replace(shipped["ball"], n_steps=2,
                   step=replace(shipped["ball"].step, interpolant_samples=0))
    stripe = replace(shipped["stripe"], n_steps=2)
    two_balls = replace(_shipped(48)["two_balls"], n_steps=2)
    return (ball, stripe, two_balls)


@lru_cache(maxsize=None)
def _run(spec):
    """A scenario's trajectory and dissipation ledger, once per spec.

    The ledger suite and the two_balls run of the consistency suite use
    the same spec, so they share one run.
    """
    traj = run_trajectory(make_initial(spec), spec.params, spec.step, spec.n_steps)
    return traj, dissipation_ledger(traj, spec.params, spec.step)


def check_poisson(out_dir):
    grid = make_grid((128, 128), (1.0, 1.0))
    xs, _ = grid.meshes()

    # cosine eigenfunction of the weak Neumann Laplacian
    src = ScalarField(grid, np.cos(np.pi * xs))
    u = neumann_solve(project_mean_zero(src))
    exact = -np.cos(np.pi * xs) / np.pi ** 2
    err = float(np.max(np.abs(u.values - exact)))
    eigen = Check("poisson.eigenfunction", err <= 1e-12, "max err %.3e" % err)

    # analytic dual norm of cos(pi x) on the unit square
    val = hminus_norm_sq(project_mean_zero(src))
    target = 1.0 / (2.0 * np.pi ** 2)
    dual = Check(
        "poisson.dual_norm_analytic",
        abs(val - target) <= 1e-4,
        "%.8f vs %.8f" % (val, target),
    )

    # Dirichlet energy of the potential equals the dual norm of the source
    rng = np.random.default_rng(7)
    bump = ScalarField(grid, rng.standard_normal(grid.shape))
    bump = project_mean_zero(bump)
    w = neumann_solve(bump)
    lhs = h1_norm_sq(w)
    rhs = hminus_norm_sq(bump)
    duality = Check(
        "poisson.duality_identity",
        abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs)),
        "|%.12e - %.12e|" % (lhs, rhs),
    )
    return [eigen, dual, duality]


def check_ledger(out_dir):
    spec = replace(_shipped(48)["two_balls"], n_steps=2)
    traj, ledger = _run(spec)
    worst, floor = ledger.worst_margin, -MARGIN_FLOOR_FRACTION * ledger.E0
    energies = [r.E_total for r in ledger.records]
    mono = all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    drift = ledger.mass_drift
    write_ledger(ledger, os.path.join(out_dir, LEDGER_CSV))
    return [
        Check("ledger.margin", worst >= floor,
              "worst margin %.3e vs floor %.3e" % (worst, floor)),
        Check("ledger.energy_nonincreasing", mono),
        Check("ledger.mass", drift <= traj.chi0.domain.cell_volume,
              "drift %.3e" % drift),
    ]


def check_flows(out_dir):
    chi = make_initial(_shipped(64)["ball"])
    grid = chi.domain
    xi = construct_xi(chi, mollification_width(grid))
    B = vector_from_callables(
        grid,
        (lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
         lambda x, y: -np.sin(np.pi * y) * np.cos(np.pi * x)),
    )
    Bp = project_to_S_chi(B, chi, xi)
    worst = 0.0
    for s in (0.01, -0.01, 0.02, -0.02):
        _, moved = flow_deform(chi, Bp, s)
        worst = max(worst, abs(moved.integral() - chi.integral()))
    rep = velocity_convergence_check(chi, Bp)
    return [
        Check("flows.mass_preservation", worst <= 1e-8 * grid.volume,
              "worst drift %.3e" % worst),
        Check("flows.quotient_monotone", rep.monotone,
              "r(s) = %s" % (rep.r_values,)),
    ]


def _stripe_planarity(state):
    rows = state.values.sum(axis=0)
    return float(rows.max() - rows.min())


def _classical_verdicts(spec, states):
    """The kind-specific classical behaviour of one run, by check key.

    The kinds the consistency suite runs (ball, stripe and two_balls) have
    a rule here; any other kind raises ValueError, so a run of it cannot
    pass on mass and margin alone. The relaxing cap has no rule yet: it
    and a contact-angle measure with a bounded error come with the suite
    run that first includes a cap.
    """
    if spec.kind == "ball":
        disp = max(interface_displacement_cells(states[0], s) for s in states)
        return {"stationary": disp <= 3.0}
    if spec.kind == "stripe":
        planar = max(_stripe_planarity(s) for s in states)
        return {"planar": planar <= 2.0}
    if spec.kind == "two_balls":
        masses = component_masses(states)
        downs = sum(1 for a, b in zip(masses, masses[1:]) if b < a)
        steps = len(masses) - 1
        return {"ostwald": steps > 0 and downs >= 0.8 * steps}
    raise ValueError("no classical rule for kind %r" % spec.kind)


def check_consistency(out_dir):
    """Mass, margin and classical behaviour of ball, stripe and two_balls runs.

    The classical rules by kind: stationary shapes stay put, flat
    interfaces stay flat, and the smaller of two balls loses mass.
    """
    records = []
    for spec in _mini_set():
        traj, ledger = _run(spec)
        states = traj.states()
        verdicts = {
            "mass": ledger.mass_drift <= states[0].domain.cell_volume,
            "margin": ledger.worst_margin >= -MARGIN_FLOOR_FRACTION * ledger.E0,
        }
        verdicts.update(_classical_verdicts(spec, states))
        records.extend(
            Check("consistency.%s.%s" % (spec.name, key), ok)
            for key, ok in verdicts.items()
        )
    return records


def check_compat(out_dir):
    """First-variation identities at 64², and the Gibbs-Thomson contraction.

    The contraction reads row 0 of the ledger of a zero-step run of the
    shipped ball at 48² and 96²: the stationary residual over the whole
    `default_tangential_fields` basis, which must shrink by 1.3.
    """
    records = []
    for name, n in (("ball", 64), ("stripe", 64)):
        spec = _shipped(n)[name]
        chi = make_initial(spec)
        slc = interface_measure(chi, mollification_width(chi.domain))
        rep = compatibility_check(chi, slc, spec.params)
        records.append(Check(
            "compat.%s" % name,
            rep.ok,
            "identity residuals %.3e / %.3e"
            % (rep.comp_identity_residual, rep.wall_identity_residual),
        ))

    residuals = [
        _run(replace(_shipped(n)["ball"], n_steps=0))[1].records[0].gt_residual
        for n in (48, 96)
    ]
    ratio = residuals[0] / residuals[1]
    records.append(Check(
        "compat.gt_contraction",
        ratio >= 1.3,
        "residuals %.3e -> %.3e (ratio %.2f)"
        % (residuals[0], residuals[1], ratio),
    ))
    return records


CHECKS = {
    "poisson": check_poisson,
    "ledger": check_ledger,
    "flows": check_flows,
    "consistency": check_consistency,
    "compat": check_compat,
}
