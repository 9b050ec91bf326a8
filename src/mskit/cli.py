"""Command-line surface: run scenarios, check invariant suites, report."""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .diagnostics import (
    Ledger,
    construct_xi,
    dissipation_ledger,
    gibbs_thomson_residual,
    lagrange_multiplier,
    potential_w,
)
from .energy import (
    compatibility_check,
    default_tangential_fields,
    energy,
    interface_measure,
)
from .fields import (
    ScalarField,
    h1_inner,
    hminus_norm_sq,
    make_grid,
    neumann_solve,
    project_mean_zero,
)
from .flows import flow_deform, project_to_S_chi, velocity_convergence_check
from .io import (
    echo_config,
    load_config,
    read_ledger,
    render_snapshot,
    write_ledger,
    dump_field,
)
from .minmov import run_trajectory
from .scenarios import (
    consistency_suite,
    default_scenarios,
    make_initial,
    run_scenario,
)


class _Checks:
    """Collects named assertions and prints one PASS/FAIL line each."""

    def __init__(self):
        self.failed = 0

    def check(self, name, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        if not ok:
            self.failed += 1
        line = "%s %s" % (tag, name)
        if detail:
            line += ": %s" % detail
        print(line)

    @property
    def exit_code(self):
        return 0 if self.failed == 0 else 1


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


def check_poisson(out_dir):
    c = _Checks()
    grid = make_grid(2, (128, 128), (1.0, 1.0))
    xs, _ = grid.meshes()

    # cosine eigenfunction of the weak Neumann Laplacian
    src = ScalarField(grid, np.cos(np.pi * xs))
    u = neumann_solve(project_mean_zero(src))
    exact = -np.cos(np.pi * xs) / np.pi ** 2
    err = float(np.max(np.abs(u.values - exact)))
    c.check("poisson.eigenfunction", err <= 1e-12, "max err %.3e" % err)

    # analytic dual norm of cos(pi x) on the unit square
    val = hminus_norm_sq(project_mean_zero(src))
    target = 1.0 / (2.0 * np.pi ** 2)
    c.check(
        "poisson.dual_norm_analytic",
        abs(val - target) <= 1e-4,
        "%.8f vs %.8f" % (val, target),
    )

    # Dirichlet energy of the potential equals the dual norm of the source
    rng = np.random.default_rng(7)
    bump = ScalarField(grid, rng.standard_normal(grid.shape))
    bump = project_mean_zero(bump)
    w = neumann_solve(bump)
    lhs = h1_inner(w, w)
    rhs = hminus_norm_sq(bump)
    c.check(
        "poisson.duality_identity",
        abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs)),
        "|%.12e - %.12e|" % (lhs, rhs),
    )
    return c


def check_ledger(out_dir):
    c = _Checks()
    spec = replace(_shipped(48)["two_balls"], n_steps=2)
    traj, ledger = run_scenario(spec)
    E0 = ledger.E0
    worst = min(r.dissipation_margin for r in ledger.records)
    c.check(
        "ledger.margin",
        worst >= -1e-6 * E0,
        "worst margin %.3e vs floor %.3e" % (worst, -1e-6 * E0),
    )
    energies = [r.E_total for r in ledger.records]
    mono = all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    c.check("ledger.energy_nonincreasing", mono)
    masses = [r.mass for r in ledger.records]
    drift = max(abs(m - masses[0]) for m in masses)
    vol = traj.chi0.domain.cell_volume
    c.check("ledger.mass", drift <= vol, "drift %.3e" % drift)
    path = os.path.join(out_dir, "ledger_two_balls.csv")
    write_ledger(ledger, path)
    print("wrote %s" % path)
    return c


def check_flows(out_dir):
    c = _Checks()
    chi = make_initial(_shipped(64)["ball"])
    grid = chi.domain
    eps = 4.0 * max(grid.spacing)
    xi = construct_xi(chi, eps)
    from .fields import vector_from_callables

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
    c.check(
        "flows.mass_preservation",
        worst <= 1e-8 * grid.volume,
        "worst drift %.3e" % worst,
    )
    rep = velocity_convergence_check(chi, Bp)
    c.check(
        "flows.quotient_monotone",
        rep.monotone,
        "r(s) = %s" % (rep.r_values,),
    )
    return c


def check_consistency(out_dir):
    c = _Checks()
    report = consistency_suite(_mini_set())
    for res in report.results:
        for key, ok in res.checks.items():
            c.check("consistency.%s.%s" % (res.name, key), ok)
    return c


def check_compat(out_dir):
    c = _Checks()
    for name, n in (("ball", 64), ("stripe", 64)):
        spec = _shipped(n)[name]
        chi = make_initial(spec)
        eps = 4.0 * max(chi.domain.spacing)
        slc = interface_measure(chi, eps)
        rep = compatibility_check(chi, slc, spec.params)
        c.check(
            "compat.%s" % name,
            rep.ok,
            "identity residuals %.3e / %.3e"
            % (rep.comp_identity_residual, rep.wall_identity_residual),
        )

    # curvature relation residual contracts under refinement
    residuals = []
    for n in (48, 96):
        spec = _shipped(n)["ball"]
        chi = make_initial(spec)
        grid = chi.domain
        eps = 4.0 * max(grid.spacing)
        slc = interface_measure(chi, eps)
        xi = construct_xi(chi, eps)
        w = potential_w(chi, chi, 1.0)
        lam = lagrange_multiplier(chi, slc, w, xi, spec.params)
        basis = default_tangential_fields(grid)
        residuals.append(
            gibbs_thomson_residual(chi, slc, w, lam, spec.params, basis)
        )
    ratio = residuals[0] / residuals[1]
    c.check(
        "compat.gt_contraction",
        ratio >= 1.3,
        "residuals %.3e -> %.3e (ratio %.2f)"
        % (residuals[0], residuals[1], ratio),
    )
    return c


CHECKS = {
    "poisson": check_poisson,
    "ledger": check_ledger,
    "flows": check_flows,
    "consistency": check_consistency,
    "compat": check_compat,
}


def cmd_run(args):
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.stride is not None:
        cfg = replace(cfg, stride=args.stride)
    os.makedirs(cfg.out_dir, exist_ok=True)

    spec = cfg.scenario
    chi0 = make_initial(spec)
    traj = run_trajectory(chi0, spec.params, spec.step, spec.n_steps)
    final = traj.states()[-1]
    dump_field(chi0, os.path.join(cfg.out_dir, "initial.msfld"))
    dump_field(final, os.path.join(cfg.out_dir, "final.msfld"))
    if cfg.snapshots:
        render_snapshot(chi0, os.path.join(cfg.out_dir, "initial.pgm"))
        render_snapshot(final, os.path.join(cfg.out_dir, "final.pgm"))
    if cfg.ledger:
        ledger = dissipation_ledger(traj, spec.params, spec.step)
        records = ledger.records
        if cfg.stride > 1:
            last = len(records) - 1
            records = tuple(
                r for i, r in enumerate(records)
                if i % cfg.stride == 0 or i == last
            )
            ledger = Ledger(records=records, E0=ledger.E0)
        path = os.path.join(cfg.out_dir, "ledger.csv")
        write_ledger(ledger, path)
        print("wrote %s (%d rows)" % (path, len(records)))
    print(
        "ran %s: %d steps, final energy %.8f"
        % (spec.name, traj.n_steps, energy(final, spec.params).total)
    )
    return 0


def cmd_check(args):
    out_dir = args.out or "out"
    os.makedirs(out_dir, exist_ok=True)
    c = CHECKS[args.suite](out_dir)
    print("suite %s: %s" % (args.suite, "ok" if c.exit_code == 0 else
                            "%d failure(s)" % c.failed))
    return c.exit_code


def cmd_report(args):
    ledger = read_ledger(args.ledger)
    rs = ledger.records
    drop = rs[0].E_total - rs[-1].E_total
    worst = min(r.dissipation_margin for r in rs)
    drift = max(abs(r.mass - rs[0].mass) for r in rs)
    print("records:       %d (t = %.6g .. %.6g)" % (len(rs), rs[0].t, rs[-1].t))
    print("energy:        %.8f -> %.8f (drop %.3e)" %
          (rs[0].E_total, rs[-1].E_total, drop))
    print("worst margin:  %.6e" % worst)
    print("mass drift:    %.6e" % drift)
    print("max gt resid:  %.6e" % max(r.gt_residual for r in rs))
    return 0


def cmd_info(args):
    cfg = load_config(args.config)
    sys.stdout.write(echo_config(cfg))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mskit",
        description="Minimizing-movements interface flow: run and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--stride", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=sorted(CHECKS))
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("report", help="summarize a ledger CSV")
    p_rep.add_argument("ledger")
    p_rep.set_defaults(func=cmd_report)

    p_info = sub.add_parser("info", help="echo a parsed config")
    p_info.add_argument("--config", required=True)
    p_info.set_defaults(func=cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
