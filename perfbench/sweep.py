"""Run the benchmark on seeds 1 to 10 and summarise each metric.

    python3 perfbench/sweep.py [--out perfbench/baseline.json]

Runs are sequential, one process at a time, each measuring `run_seconds`
from BENCHMARK.json. For every workload and end-to-end metric it prints the
median, the quartiles and the spread (interquartile distance over the
median, as `statistics.quantiles(n=4)` gives the quartiles), then makes one
traced run per workload at the default seed. With --out it writes the
values and the machine to a JSON file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import bootstrap
import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEEDS = list(range(1, 11))


def run_once(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (name, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def machine():
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seconds = bootstrap.run_seconds()

    report = {"machine": machine(), "seconds": seconds, "seeds": SEEDS,
              "default_seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.NAMES:
        results = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "correct": [r["correct"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        for metric in results[0]["metrics"]:
            entry["end_to_end"][metric] = summary(
                [r["metrics"][metric]["value"] for r in results]
            )
            s = entry["end_to_end"][metric]
            print("%-18s %-12s median %10.5g  spread %.4f"
                  % (name, metric, s["median"], s["spread"]), flush=True)
        traced = run_once(name, workloads.DEFAULT_SEED, seconds, 1)
        entry["per_layer"] = {
            metric: m["value"] for metric, m in traced["metrics"].items()
        }
        report["workloads"][name] = entry

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
