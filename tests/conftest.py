"""Fixtures shared across test modules."""

import pytest

from mskit.checks import CHECKS


@pytest.fixture(scope="session")
def suite_records(tmp_path_factory):
    """Each suite's records, every suite run once, and the output directory."""
    out = tmp_path_factory.mktemp("checks")
    return {suite: run(str(out)) for suite, run in CHECKS.items()}, out


@pytest.fixture(scope="session")
def check_records(suite_records):
    by_suite, _ = suite_records
    return {c.name: c for records in by_suite.values() for c in records}
