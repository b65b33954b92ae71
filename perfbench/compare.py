"""Sets of benchmark runs, and parent-vs-change verdicts over them.

    # one set: ten seeds of one workload in one checkout
    python3 perfbench/compare.py runs --workload paired --seeds 1-10 --out a.jsonl
    # alternating pairs: parent and change run on the same seed, and which
    # side runs first alternates from pair to pair
    python3 perfbench/compare.py pairs --parent ../parent --change . --workload compare \\
        --pairs 10 --out pairs.jsonl
    # medians, quartiles, spreads and verdicts
    python3 perfbench/compare.py report pairs.jsonl

Each line of a .jsonl file is one run: its side label, pair index, seed, the
run's RECORD and its result line. The verdict rule, per workload and
end-to-end metric, with the bound from BENCHMARK.json:

* improved: the change wins at least 9 of every 10 pairs (ties count for
  neither) and its median is better than the parent's by more than the
  parent's own interquartile distance;
* unresolved: the parent's spread (interquartile distance over median) is
  wider than the bound, unless every change run reads worse than every parent
  run (then: regressed);
* regressed: the change's median is worse than the parent's by more than the
  bound;
* unchanged: otherwise.

Runs whose machine records differ (other than the commit) are flagged in the
report; the verdicts are still printed but marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from machine import differences  # noqa: E402

RUN_TIMEOUT_S = 900  # the contract's limit for a first run in a fresh checkout
WIN_SHARE = 0.9


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the benchmark of the checkout at root once; returns its result and record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(line[7:]) for line in lines if line.startswith("RECORD ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(f"run failed ({root}, {workload}, seed {seed}): {proc.stderr.strip()[-800:]}\n")
    return {"exit": proc.returncode, "wall_s": wall, "result": result, "record": record}


def _write(fh, line: dict) -> None:
    fh.write(json.dumps(line, sort_keys=True) + "\n")
    fh.flush()


def cmd_runs(args) -> int:
    with open(args.out, "a") as fh:
        for seed in _seeds(args.seeds):
            run = run_once(Path(args.root), args.workload, seed, args.seconds, args.trace)
            _write(fh, dict(run, side=args.label, pair=None, workload=args.workload, seed=seed, trace=args.trace))
            print(f"{args.label} {args.workload} seed={seed} exit={run['exit']} wall={run['wall_s']:.1f}s", flush=True)
    return 0


def cmd_pairs(args) -> int:
    sides = [("parent", Path(args.parent)), ("change", Path(args.change))]
    with open(args.out, "a") as fh:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for label, root in order:
                run = run_once(root, args.workload, seed, args.seconds, args.trace)
                _write(fh, dict(run, side=label, pair=i, workload=args.workload, seed=seed, trace=args.trace))
                print(f"pair {i} {label} seed={seed} exit={run['exit']} wall={run['wall_s']:.1f}s", flush=True)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    """Verdict for one metric; also returns the share of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    q1, p_med, q3 = _quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if pairs and share >= WIN_SHARE and gain > q3 - q1:
        return "improved", share
    worse_by = -gain / abs(p_med) if p_med else 0.0
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    if spread > bound:
        all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
        return ("regressed" if all_worse else "unresolved"), share
    return ("regressed" if worse_by > bound else "unchanged"), share


def _load(paths) -> list[dict]:
    runs = []
    for path in paths:
        with open(path) as fh:
            runs.extend(json.loads(line) for line in fh if line.strip())
    return runs


def cmd_report(args) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    spec.update({m["name"]: dict(m, bound=None) for m in bench["per_layer"]})
    runs = [r for r in _load(args.files) if r.get("result")]
    for workload in sorted({r["workload"] for r in runs}):
        for trace in sorted({r["trace"] for r in runs if r["workload"] == workload}):
            group = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            sides = list(dict.fromkeys(r["side"] for r in group))
            print(f"\n== {workload} (trace {trace}): " + ", ".join(
                f"{s} n={sum(1 for r in group if r['side'] == s)}" for s in sides))
            machines = [r["record"]["machine"] for r in group if r.get("record")]
            diffs = sorted({d for m in machines[1:] for d in differences(machines[0], m)})
            for d in diffs:
                print(f"   MACHINE RECORDS DIFFER: {d}")
            failed = {s: sum(r["result"]["failed"] for r in group if r["side"] == s) for s in sides}
            attempted = {s: sum(r["result"]["attempted"] for r in group if r["side"] == s) for s in sides}
            for s in sides:
                print(f"   {s}: failed_frac {failed[s] / max(attempted[s], 1):.6g} ({failed[s]}/{attempted[s]} cells)")
            _report_metrics(group, sides, spec, flag=" [machines differ]" if diffs else "")
    return 0


def _report_metrics(group, sides, spec, flag) -> None:
    names = list(dict.fromkeys(n for r in group for n in r["result"]["metrics"]))
    by_side = {s: [r for r in group if r["side"] == s] for s in sides}
    for name in names:
        unit = group[0]["result"]["metrics"][name]["unit"]
        meta = spec.get(name, {"better": "lower", "bound": None})
        cols = []
        vals = {}
        for s in sides:
            vals[s] = [r["result"]["metrics"][name]["value"] for r in by_side[s] if name in r["result"]["metrics"]]
            q1, med, q3 = _quartiles(vals[s])
            spread = (q3 - q1) / abs(med) if med else 0.0
            cols.append(f"{s} {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        line = f"   {name:28s} {unit:8s} " + " | ".join(cols)
        bound = meta.get("bound")
        if bound is not None and len(sides) == 1:
            q1, med, q3 = _quartiles(vals[sides[0]])
            spread = (q3 - q1) / abs(med) if med else 0.0
            status = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            line += f"  (bound {bound}: {status})"
        if bound is not None and len(sides) >= 2:
            base, new = sides[0], sides[1]
            pairs = _pairs(by_side[base], by_side[new], name)
            v, share = verdict(vals[base], vals[new], pairs, meta["better"], bound)
            line += f"  -> {new} vs {base}: {v}, won {share:.0%} of {len(pairs)} pairs (bound {bound}){flag}"
        print(line)


def _pairs(base_runs, new_runs, name) -> list[tuple[float, float]]:
    """Match runs by pair index, or by seed when the sets were run separately."""
    def key(r):
        return ("pair", r["pair"]) if r.get("pair") is not None else ("seed", r["seed"])

    base = {key(r): r["result"]["metrics"][name]["value"] for r in base_runs if name in r["result"]["metrics"]}
    return [(base[key(r)], r["result"]["metrics"][name]["value"])
            for r in new_runs if key(r) in base and name in r["result"]["metrics"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", required=True)
        p.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", required=True, help="JSONL file to append runs to")

    p = sub.add_parser("runs", help="one set of runs over several seeds")
    common(p)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--root", default=".", help="checkout whose benchmark to run")
    p.add_argument("--label", default="runs")
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("pairs", help="alternating parent/change pairs on shared seeds")
    common(p)
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("report", help="medians, quartiles, spreads and verdicts")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
