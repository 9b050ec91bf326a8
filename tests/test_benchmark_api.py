"""The `mskit` API the benchmark reads still runs and passes its checks.

Each workload of `perfbench/workloads.py` runs once on a small 24x24
input; any failed check outside the benchmark's own list of known defects
fails the test.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_and_checks_pass(name):
    inputs = workloads.make_inputs(name, 0, n=24)
    out = workloads.OPS[name](inputs)
    checks = workloads.CHECKS[name](inputs, out)
    assert checks
    failed = [
        (check, detail)
        for check, ok, detail in checks
        if not ok and check not in workloads.KNOWN_DEFECTS
    ]
    assert not failed, failed
