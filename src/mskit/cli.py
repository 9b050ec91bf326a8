"""Command-line surface: `run`, `check`, `report` and `info`.

`run` simulates a configured scenario and writes its fields, snapshots
and ledger; `check` prints the records of one suite from `checks.CHECKS`,
one PASS or FAIL line each, and exits 1 if any failed; `report`
summarises a ledger CSV; `info` echoes a parsed config. A ValueError or
OSError (a bad config or ledger, a capped solve) prints `error: ...` and
exits 2.
"""

import argparse
import os
import sys
from dataclasses import replace

from .checks import CHECKS, LEDGER_CSV
from .diagnostics import Ledger, dissipation_ledger
from .energy import energy
from .io import (
    dump_field,
    echo_config,
    load_config,
    read_ledger,
    render_snapshot,
    write_ledger,
)
from .minmov import run_trajectory
from .scenarios import make_initial


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
            ledger = Ledger(records=records)
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
    records = CHECKS[args.suite](out_dir)
    for c in records:
        line = "%s %s" % ("PASS" if c.ok else "FAIL", c.name)
        if c.detail:
            line += ": %s" % c.detail
        print(line)
    if args.suite == "ledger":
        print("wrote %s" % os.path.join(out_dir, LEDGER_CSV))
    failed = sum(not c.ok for c in records)
    print("suite %s: %s" % (args.suite, "ok" if failed == 0 else
                            "%d failure(s)" % failed))
    return 0 if failed == 0 else 1


def cmd_report(args):
    ledger = read_ledger(args.ledger)
    rs = ledger.records
    drop = rs[0].E_total - rs[-1].E_total
    print("records:       %d (t = %.6g .. %.6g)" % (len(rs), rs[0].t, rs[-1].t))
    print("energy:        %.8f -> %.8f (drop %.3e)" %
          (rs[0].E_total, rs[-1].E_total, drop))
    print("worst margin:  %.6e" % ledger.worst_margin)
    print("mass drift:    %.6e" % ledger.mass_drift)
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
