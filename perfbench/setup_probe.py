"""Time one cold set-up: imports, input generation and the first kernel call.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds on its last line. `run.py` starts it several times, one
process after another, and reports the median as setup_s.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402,F401
import workloads  # noqa: E402

inputs = workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
workloads.first_kernel_call(inputs)
print(time.perf_counter() - T_START)
