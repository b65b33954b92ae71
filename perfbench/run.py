"""Campaign benchmark for cvfbm: one workload at one seed, measured for a set time.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
Workloads are defined in workloads.py and described in README.md.

--trace 0 times whole campaigns with no spans: it reports cells_per_s (median
over passes), setup_s (median over fresh interpreters that import the package
and run one warm-up cell), peak_rss_mb and snr_db_mean. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of spans.py plus
trace_overhead. Every pass is checked: finite output of the right shape, the
store audit, and a per-cell results digest equal to the first pass's.

Output: summary lines, a ``RECORD {...}`` line with the machine, seed, spec and
per-pass figures, and last a JSON line with correct, attempted, failed and
metrics. Spans go to .perfbench-out/ at the checkout root.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from machine import cap_threads  # noqa: E402  (thread caps precede numpy)

cap_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from machine import machine_record  # noqa: E402
from spans import COUNT_METRICS, LAYER_METRICS, Tracer, instrumented, layer_metrics, tp_by_count  # noqa: E402
from workloads import WORKLOADS, make_spec, recheck_spec, run_pass, run_warm, warm_spec  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 4  # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "cells_per_s": ("cells/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "snr_db_mean": ("dB", "higher"),
}
PER_LAYER = dict(LAYER_METRICS, trace_overhead=("ratio", "higher"))

MODULES = ("harness", "cs", "sampling", "grid", "baselines", "synthesis", "metrics", "fileio", "cli")


def load_program() -> dict:
    """Import cvfbm from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import importlib

        mods = {name: importlib.import_module(f"cvfbm.{name}") for name in MODULES}
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cvfbm from {src}: {exc}")
    origin = Path(mods["harness"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: cvfbm came from {origin}, not from {src}")
    return mods


def probe_setup(workload: str, seed: int, tiny: bool, work: Path) -> float:
    """Seconds from spawning a fresh interpreter to the end of its warm-up cell.

    The child prints time.monotonic() when the cell ends; on Linux that clock
    is shared by all processes, so the difference spans both of them.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work)] + (["--tiny"] if tiny else [])
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-800:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Checker:
    """Counts failed cells: a failed pass fails all its cells, and a cell whose
    digest differs from the first digest seen for it fails."""

    def __init__(self):
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, p, recheck: bool = False) -> int:
        """Count p's failed cells; a recheck's cells must repeat cells already seen."""
        self.attempted += p.attempted
        if p.error is not None:
            self.failed += p.attempted
            self.errors.append(p.error)
            return p.attempted
        good = 0
        for key, digest in p.cells.items():
            if recheck and key not in self.reference:
                continue
            if self.reference.setdefault(key, digest) == digest:
                good += 1
        bad = p.attempted - good
        if bad:
            self.errors.append(f"{bad} of {p.attempted} cells failed the output or digest check")
        self.failed += bad
        return bad


def _checked_pass(mods, wl, spec, work, index, tracer, checker, recheck=False):
    violations: list[str] = []
    with instrumented(mods, tracer, violations):
        p = run_pass(mods, wl, spec, work, index)
    if violations and p.error is None:
        p.error = "; ".join(violations[:5])
    p.failed = checker.add(p, recheck)
    return p


def _snr(passes) -> tuple[float, dict]:
    """Mean SNR of the first good pass: over all reconstructions, and per method."""
    first = next((p for p in passes if p.error is None), None)
    if first is None:
        return 0.0, {}
    overall = statistics.fmean(v for vals in first.snr.values() for v in vals)
    return overall, {m: statistics.fmean(v) for m, v in first.snr.items()}


def timed_run(mods, wl, spec, work, seconds, checker) -> tuple[dict, list]:
    """Whole campaigns until the time is up; one pass longer than that is enough.

    The digest check needs each cell computed twice: a run of one pass
    recomputes one of its cells on its own afterwards, untimed.
    """
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        passes.append(_checked_pass(mods, wl, spec, work, len(passes), None, checker))
    rates = [(p.attempted - p.failed) / p.wall_s for p in passes]
    if len(passes) == 1:
        _checked_pass(mods, wl, recheck_spec(mods["harness"], spec), work, 1, None, checker, recheck=True)
    return {"cells_per_s": rates}, passes


def traced_run(mods, wl, spec, work, seconds, checker) -> tuple[dict, list, list]:
    """Alternate untraced and traced passes; per-layer numbers come from the traced ones."""
    plain, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        plain.append(_checked_pass(mods, wl, spec, work, 2 * len(traced), None, checker))
        tracer = Tracer()
        traced.append(_checked_pass(mods, wl, spec, work, 2 * len(traced) + 1, tracer, checker))
        traced[-1].traced = True
        tracers.append(tracer)
    layers = [layer_metrics(t, p.blobs_written, p.bytes_written) for t, p in zip(tracers, traced)]
    rate = lambda ps: statistics.median((p.attempted - p.failed) / p.wall_s for p in ps)  # noqa: E731
    samples = {name: [lm[name] for lm in layers] for name in LAYER_METRICS}
    samples["trace_overhead"] = [rate(traced) / rate(plain) if rate(plain) else 0.0]
    return samples, plain + traced, tracers


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record)."""
    mods = load_program()
    wl = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        machine = machine_record(ROOT, work)
        h, cs = mods["harness"], mods["cs"]
        spec = make_spec(h, cs, workload, seed, tiny)
        setup = [] if trace else [probe_setup(workload, seed, tiny, work / "probe") for _ in range(probes)]
        warm_error = run_warm(mods, wl, warm_spec(h, cs, workload, seed, tiny), work)
        checker = Checker()
        tracers: list = []
        if trace:
            samples, passes, tracers = traced_run(mods, wl, spec, work, seconds, checker)
            units = PER_LAYER
        else:
            samples, passes = timed_run(mods, wl, spec, work, seconds, checker)
            samples["setup_s"] = setup
            samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6]
            samples["snr_db_mean"] = [_snr(passes)[0]]
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, stats = {}, {}
    for name, (unit, _) in units.items():
        vals = samples[name]
        if trace and name in COUNT_METRICS:
            value = vals[0]  # counts must repeat exactly; checked below
        else:
            value = statistics.median(vals)
        q1, _, q3 = _quartiles(vals)
        metrics[name] = {"value": value, "unit": unit}
        stats[name] = {"median": value, "q1": q1, "q3": q3, "n": len(vals), "unit": unit}
    warnings = ([warm_error] if warm_error else []) + checker.errors
    if trace:
        repeat = all(len(set(samples[n])) == 1 for n in COUNT_METRICS)
        if not repeat:
            warnings.append("per-layer counts differ between traced passes")
        missing = sorted({m for t in tracers for m in t.missing})
        if missing:
            warnings.append(f"not traced (name not found): {', '.join(missing)}")
        for i, t in enumerate(tracers):
            t.dump(OUT_DIR / f"spans-{workload}-seed{seed}-pass{i}.csv")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "machine": machine,
        "spec": json.loads(mods["harness"].spec_to_json(spec)),
        "passes": [{"wall_s": p.wall_s, "cells": p.attempted, "failed": p.failed, "traced": p.traced,
                    "iterations": p.iterations} for p in passes],
        "stats": stats,
        "failed_frac": checker.failed / checker.attempted,
        "snr_db_mean_by_method": _snr(passes)[1],
        "warnings": warnings,
    }
    if trace:
        record["counts_repeat"] = repeat
        record["tp_by_n"] = tp_by_count(tracers[0])
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return result, record


def summary(result: dict, record: dict) -> list[str]:
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={len(record['passes'])} cells={result['attempted']}"
    ]
    for name, s in record["stats"].items():
        lines.append(
            f"  {name:28s} {s['median']:.6g} {s['unit']}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        )
    lines.append(f"  {'failed_frac':28s} {record['failed_frac']:.6g} ratio  ({result['failed']}/{result['attempted']} cells)")
    for method, snr in record["snr_db_mean_by_method"].items():
        lines.append(f"  {'snr_db_mean.' + method:28s} {snr:.6g} dB")
    for w in record["warnings"]:
        lines.append(f"  warning: {w.strip()[-400:]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes (seconds, not minutes)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        mods = load_program()
        args.work_dir.mkdir(parents=True, exist_ok=True)
        h, cs = mods["harness"], mods["cs"]
        error = run_warm(mods, WORKLOADS[args.workload], warm_spec(h, cs, args.workload, args.seed, args.tiny),
                         args.work_dir)
        print(time.monotonic())
        if error:
            print(error[-800:], file=sys.stderr)
        return 0

    result, record = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print("\n".join(summary(result, record)))
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
