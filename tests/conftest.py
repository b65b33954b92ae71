"""The default campaigns, run once per test session.

The acceptance gate grades them and the golden check reads their repeat-0
rows, so a Tier-1 run pays for each default campaign once. Each fixture
gives (rows, seconds the campaign took).
"""

import time

import pytest

from cvfbm import run_table1, run_table2


def _timed(run):
    t0 = time.perf_counter()
    rows = run()
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def paired_campaign():
    return _timed(run_table1)


@pytest.fixture(scope="session")
def comparison_campaign():
    return _timed(run_table2)
