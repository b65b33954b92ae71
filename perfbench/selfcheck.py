"""Fast self-check of the benchmark on tiny specs (about half a minute).

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, it asserts that the run is correct,
that it emits exactly the metrics BENCHMARK.json names with their units, that
per-layer counts repeat between traced passes, and that the traced counts
bear out each workload's design (which layers run and which stay idle).
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

# (workload, metric, expectation) the tiny traced runs must satisfy
DESIGN = (
    ("compare", "cs.tv_denoise.calls", "positive"),
    ("compare", "baselines.tp.flops", "positive"),
    ("compare", "harness.store.puts", "zero"),
    ("paired", "cs.tv_denoise.calls", "zero"),
    ("paired", "baselines.tp.flops", "zero"),
    ("paired", "cs.tv_eq.iterations", "positive"),
    ("store", "cs.tv.calls", "zero"),
    ("store", "baselines.tp.flops", "zero"),
    ("store", "harness.store.puts", "positive"),
    ("store", "fileio.bytes_written", "positive"),
)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads match workloads.py")
    check(all(w["why"] == WORKLOADS[w["name"]].why for w in bench["workloads"]), "workload reasons match")
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check({n: u for n, (u, _) in run.END_TO_END.items()} == wanted[0], "end_to_end metrics match run.py")
    check({n: u for n, (u, _) in run.PER_LAYER.items()} == wanted[1], "per_layer metrics match run.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run.execute(name, seed=11, seconds=0, trace=bool(trace), tiny=True, probes=1)
            label = f"{name} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{label}: correct ({record['warnings']})")
            check(result["attempted"] >= 1, f"{label}: attempted")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == wanted[trace], f"{label}: metric names and units {sorted(set(got) ^ set(wanted[trace]))}")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), f"{label}: numbers")
            check(set(record["machine"]) >= {"nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                                             "git_commit", "store_fs"}, f"{label}: machine record")
            if trace:
                check(record["counts_repeat"], f"{label}: counts repeat")
                values = {n: m["value"] for n, m in result["metrics"].items()}
                for wl, metric, expect in DESIGN:
                    if wl == name:
                        ok = values[metric] > 0 if expect == "positive" else values[metric] == 0
                        check(ok, f"{label}: {metric} should be {expect}, is {values[metric]}")
            else:
                check(all(m["value"] != 0 for m in result["metrics"].values()), f"{label}: end-to-end metrics nonzero")
            print(f"ok {label}: {len(result['metrics'])} metrics, {result['attempted']} cells")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
