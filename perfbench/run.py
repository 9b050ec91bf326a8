"""Benchmark for `mskit`: one seeded workload per run, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. --seconds defaults to `run_seconds` in
BENCHMARK.json; a run repeats its operation at least twice and stops before
one would end past --seconds. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates plain and traced operations and prints
the per-layer metrics. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, where
attempted and failed count correctness checks.
"""

import bootstrap  # pins threads before numpy loads

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads
from tracing import Tracer, summarize

SETUP_PROBES = 5
# a run takes at least this many operations, so wall_s is never one sample
MIN_OPS = 2
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span names it is computed from)
KERNELS = ("poisson_apply_raw", "grad_forward", "grad_forward_adjoint")
SOLVES = ("minmov.mm_step", "minmov.de_giorgi_interpolant")
PER_LAYER = tuple(
    [("fields.%s.%s" % (k, part), unit, ("fields." + k,))
     for k in KERNELS for part, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("minmov.step_iters", "count", ()),
        ("minmov.interp_iters", "count", ()),
        ("minmov.self_s", "s", SOLVES),
        ("minmov.iter_us", "us", SOLVES),
        ("minmov.solves", "count", ()),
        ("minmov.unconverged", "count", ()),
        ("minmov.mass_threshold.self_s", "s", ("minmov.mass_threshold",)),
        ("minmov.energy.self_s", "s", ("minmov.energy",)),
        ("minmov.moved_cells", "count", ()),
        ("minmov.kept_anchor", "count", ()),
        ("minmov.moved_ratio", "ratio", ()),
        ("flows.flow_deform.calls", "count", ("flows.flow_deform",)),
        ("flows.flow_deform.self_s", "s", ("flows.flow_deform",)),
        ("flows.velocity_convergence_check.s", "s",
         ("flows.velocity_convergence_check",)),
        ("energy.interface_measure.s", "s", ("energy.interface_measure",)),
        ("energy.compatibility_check.s", "s", ("energy.compatibility_check",)),
        ("diagnostics.dissipation_ledger.s", "s",
         ("diagnostics.dissipation_ledger",)),
        ("diagnostics.construct_xi.s", "s", ("diagnostics.construct_xi",)),
        ("diagnostics.gibbs_thomson_residual.s", "s",
         ("diagnostics.gibbs_thomson_residual",)),
        ("scenarios.make_initial.s", "s", ("scenarios.make_initial",)),
        ("trace.wall_s", "s", ()),
        ("trace.overhead_s", "s", ()),
        ("trace.absent", "count", ()),
    ]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bootstrap.run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def probe_setup(name, seed):
    """Cold set-up seconds from fresh processes, run one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, PROBE, name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def layer_metrics(table, counts, wall):
    """Per-layer values of one traced operation."""
    def get(span, key):
        return table.get(span, {}).get(key, 0.0)

    m = dict(counts)
    for name, _unit, spans in PER_LAYER:
        span, _, key = name.rpartition(".")
        if spans == (span,):
            m[name] = get(span, key)
    iters = counts["minmov.step_iters"] + counts["minmov.interp_iters"]
    solve_s = sum(get(s, "s") for s in SOLVES)
    m["minmov.self_s"] = sum(get(s, "self_s") for s in SOLVES)
    m["minmov.iter_us"] = 1e6 * solve_s / iters if iters else 0.0
    m["trace.wall_s"] = wall
    return m


def absent_metrics(absent_spans):
    gone = set(absent_spans)
    return [name for name, _unit, spans in PER_LAYER if gone.intersection(spans)]


def run(args):
    name = args.workload
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.op = 0
        tracer.install()
    inputs = workloads.make_inputs(name, args.seed)
    workloads.first_kernel_call(inputs)
    if tracer:
        tracer.uninstall()

    op_fn = workloads.OPS[name]
    check_fn = workloads.CHECKS[name]
    plain, traced = [], []
    attempted = failed = 0
    failures = {}
    unexpected = False
    t0 = time.perf_counter()
    k = 0
    # a traced run alternates plain and traced operations
    per_round = 2 if tracer else 1
    while True:
        k += 1
        use_trace = tracer is not None and k % 2 == 0
        if use_trace:
            tracer.op = k
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op_fn(inputs)
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            if use_trace:
                tracer.uninstall()
        rec = {"op": k, "wall": w1 - w0, "cpu": c1 - c0,
               "counts": workloads.solver_counts(inputs, out)}
        (traced if use_trace else plain).append(rec)
        for check, ok, detail in check_fn(inputs, out):
            attempted += 1
            if not ok:
                failed += 1
                failures.setdefault(check, [0, detail])[0] += 1
                unexpected = unexpected or check not in workloads.KNOWN_DEFECTS
        elapsed = time.perf_counter() - t0
        # stop before a round that would end past the measuring window
        if (k >= MIN_OPS and k % per_round == 0
                and elapsed * (k + per_round) / k > args.seconds):
            break

    print("workload %s seed %d: %d plain and %d traced operations in %.1f s"
          % (name, args.seed, len(plain), len(traced), elapsed))
    for check, (count, detail) in sorted(failures.items()):
        known = " (known defect)" if check in workloads.KNOWN_DEFECTS else ""
        print("FAIL %s x%d%s: %s" % (check, count, known, detail))
    print("fail_frac %.4f ratio (%d of %d checks)"
          % (failed / attempted, failed, attempted))

    metrics = {}
    if tracer is None:
        setup = probe_setup(name, args.seed)
        values = {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print("wall_s and cpu_s over %d operations; setup_s over %d cold processes"
              % (len(plain), len(setup)))
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": values[metric], "unit": unit}
    else:
        tables = summarize(tracer.spans)
        rows = [
            layer_metrics(tables.get(r["op"], {}), r["counts"], r["wall"])
            for r in traced
        ]
        values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        # inputs are made once, during set-up (operation 0)
        values["scenarios.make_initial.s"] = (
            tables.get(0, {}).get("scenarios.make_initial", {}).get("s", 0.0)
        )
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            r["wall"] for r in plain
        )
        values["trace.absent"] = len(tracer.absent)
        absent = absent_metrics(tracer.absent)
        if absent:
            print("absent (public name missing, reported as null): %s"
                  % ", ".join(absent))
        for metric in absent:
            values[metric] = None
        for metric, unit, _spans in PER_LAYER:
            metrics[metric] = {"value": values[metric], "unit": unit}

    for metric, m in metrics.items():
        value = "null" if m["value"] is None else "%.6g" % m["value"]
        print("%s %s %s" % (metric, value, m["unit"]))
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    result = run(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
