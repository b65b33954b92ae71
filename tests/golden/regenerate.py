"""Rewrite the golden results that tests/test_golden.py checks against.

Each CSV is the results.csv of a default campaign cut to one repeat:
table1.csv from run_table1(table1_spec(repeats=1)) and table2.csv from
run_table2(table2_spec(repeats=1)), wall times left empty. Rerun it only
when a change moves those numbers on purpose, and record the old and new
values with the change. From the repo root:

    PYTHONPATH=src python tests/golden/regenerate.py [OUT_DIR]

OUT_DIR defaults to this script's directory.
"""

import sys
from pathlib import Path

from cvfbm.harness import run_table1, run_table2, table1_spec, table2_spec, write_results_csv

CAMPAIGNS = {
    "table1": lambda: run_table1(table1_spec(repeats=1)),
    "table2": lambda: run_table2(table2_spec(repeats=1)),
}


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, run in CAMPAIGNS.items():
        write_results_csv(out_dir / f"{name}.csv", run())


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent)
