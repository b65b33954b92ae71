"""The one-repeat default campaigns against their stored results.

tests/golden/{table1,table2}.csv hold the results.csv of table1 and table2
cut to one repeat (tests/golden/regenerate.py writes them). The keys of each
row must match exactly, and rmse and snr_db to a relative 1e-9, which leaves
room for the last printed digit that a BLAS build or thread count can move in
the thin-plate rows.
"""

import csv
import runpy
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
# the campaigns as the script that writes the files runs them
CAMPAIGNS = runpy.run_path(str(GOLDEN / "regenerate.py"))["CAMPAIGNS"]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden_results(name):
    with open(GOLDEN / f"{name}.csv", newline="") as f:
        golden = list(csv.DictReader(f))
    rows = CAMPAIGNS[name]()
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
