"""Import before numpy: one thread per library, and the checkout's `src`.

The benchmark always measures the `mskit` sources next to it; without
them it stops with a nonzero exit code instead of finding another copy.
"""

import json
import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "mskit", "__init__.py")):
    raise SystemExit("perfbench: no mskit sources under %s" % SRC)
if sys.path[:1] != [SRC]:
    sys.path.insert(0, SRC)


def run_seconds():
    """Seconds one run measures, as `BENCHMARK.json` at the root sets them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]
