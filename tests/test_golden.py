"""The repeat-0 rows of the default campaigns against their stored results.

tests/golden/{table1,table2}.csv hold the results.csv of table1 and table2
cut to one repeat (tests/golden/regenerate.py writes them). A repeat's seeds
do not depend on how many repeats run, so the rows of the default campaigns
(the session fixtures in conftest.py) whose seeds appear in a file are that
file's rows. Each golden row must be found, its keys must match exactly, and
rmse and snr_db to a relative 1e-9, which leaves room for the last printed
digit that a BLAS build or thread count can move in the thin-plate rows.
"""

import csv
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
CAMPAIGNS = {"table1": "paired_campaign", "table2": "comparison_campaign"}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden_results(name, request):
    with open(GOLDEN / f"{name}.csv", newline="") as f:
        golden = list(csv.DictReader(f))
    seeds = {int(want["seed"]) for want in golden}
    all_rows, _ = request.getfixturevalue(CAMPAIGNS[name])
    rows = [row for row in all_rows if row.seed in seeds]
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert (row.method, row.h, row.n_sub, row.seed, row.iterations) == (
            want["method"],
            float(want["h"]),
            int(want["n_sub"]),
            int(want["seed"]),
            int(want["iterations"]),
        )
        assert row.rmse == pytest.approx(float(want["rmse"]), rel=1e-9, abs=0)
        assert row.snr_db == pytest.approx(float(want["snr_db"]), rel=1e-9, abs=0)
