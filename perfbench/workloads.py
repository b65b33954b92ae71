"""The benchmark's workloads: which campaign each runs, at what size, and why.

Every workload is a closed loop: one caller runs one campaign at a time in
this process, with ``jobs`` at the library default. The workload seed is the
campaign's ``base_seed``; the program sees only the generated spec.

A pass runs the whole campaign once and returns what the correctness checks
need: one digest per cell (hurst value, sample count, repeat), the SNR of
every reconstruction, and for the store workload the blobs and bytes it wrote.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runner: str  # harness function: run_table1 (paired noise) or run_table2
    via_cli: bool  # run as `cvfbm bench table2 --spec ... --out-dir ...`


WORKLOADS = {
    "compare": Workload(
        "compare",
        "table2 shape: box, tp and cs-twist on 100x100 fields; cs and tp solves do the work",
        "run_table2",
        False,
    ),
    "paired": Workload(
        "paired",
        "table1 shape: cs-tv on 64x64 fields; many small FFTs, no tv_denoise, tp or store",
        "run_table1",
        False,
    ),
    "store": Workload(
        "store",
        "cvfbm bench with box only and an out-dir; synthesis, store, audit, CSVs and cli do the work",
        "run_table2",
        True,
    ),
}


def make_spec(h, cs, name: str, seed: int, tiny: bool = False):
    """The campaign spec a workload runs at a seed (tiny: seconds-long self-check)."""
    if name == "compare":
        if tiny:
            return h.table2_spec(
                grid=(32, 32),
                hurst_values=(0.5, 0.8),
                sample_counts=(60, 120, 240),
                repeats=1,
                base_seed=seed,
                twist=cs.TwistConfig(max_iters=20),
            )
        # all three table2 counts and a low and a high Hurst value: TwIST's
        # iteration count swings with both, and with the field, so two
        # repeats halve the seed-to-seed swing of a run's work
        return h.table2_spec(hurst_values=(0.5, 0.8), repeats=2, base_seed=seed)
    if name == "paired":
        if tiny:
            return h.table1_spec(
                grid=(16, 16), repeats=1, base_seed=seed, equality=cs.EqualitySolverConfig(max_iters=50)
            )
        # every cell runs to the 600-iteration cap, so the work is the same at
        # every seed; six noise realizations steady the mean SNR
        return h.table1_spec(repeats=6, base_seed=seed)
    if name == "store":
        if tiny:
            return h.table2_spec(
                grid=(32, 32),
                hurst_values=(0.5, 0.8),
                sample_counts=(60, 120, 240),
                methods=("box",),
                repeats=2,
                base_seed=seed,
            )
        # six hurst values share each repeat's masks, so mask blobs dedup
        return h.table2_spec(methods=("box",), repeats=10, base_seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def warm_spec(h, cs, name: str, seed: int, tiny: bool = False):
    """One cell on the workload's grid with solver iterations capped.

    It loads the same code paths, FFT sizes and BLAS as the timed campaign
    at a fraction of a cell's cost.
    """
    spec = make_spec(h, cs, name, seed, tiny)
    return h.ExperimentSpec(
        grid=spec.grid,
        hurst_values=spec.hurst_values[:1],
        methods=spec.methods,
        repeats=1,
        base_seed=spec.base_seed,
        sample_counts=spec.counts[:1],
        target_rms=spec.target_rms,
        synthesis=spec.synthesis,
        boxcar=spec.boxcar,
        thin_plate=spec.thin_plate,
        twist=cs.TwistConfig(max_iters=1, tv_inner_iters=spec.twist.tv_inner_iters),
        equality=cs.EqualitySolverConfig(max_iters=1),
    )


def recheck_spec(h, spec):
    """A one-cell spec that recomputes a cell of ``spec`` exactly.

    The harness derives a cell's field from (base seed, hurst index, repeat)
    and its mask as a prefix of the repeat's permutation, so the first hurst
    value's cell at any sample count comes out bit-identical on its own.
    """
    return dataclasses.replace(
        spec,
        hurst_values=spec.hurst_values[:1],
        sample_counts=(spec.counts[len(spec.counts) // 2],),
        subsampling_factors=None,
        repeats=1,
    )


def cell_count(spec) -> int:
    return len(spec.hurst_values) * len(spec.counts) * spec.repeats


@dataclass
class Pass:
    wall_s: float
    attempted: int
    cells: dict = field(default_factory=dict)  # cell key -> digest, checked cells only
    snr: dict = field(default_factory=dict)  # method -> [snr_db, ...]
    iterations: int = 0  # solver iterations over all rows: the seed-dependent work
    error: str | None = None
    failed: int = 0  # set by the run's checker
    traced: bool = False
    blobs_written: int = 0
    bytes_written: int = 0

    @property
    def cells_per_s(self) -> float:
        return self.attempted / self.wall_s


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _cells_from_rows(rows, methods) -> tuple[dict, dict]:
    """Group result rows into cells and keep cells whose rows are complete and finite."""
    groups: dict = {}
    snr: dict = {}
    for r in rows:
        groups.setdefault((r.h, r.n_sub, r.seed), []).append(r)
        snr.setdefault(r.method, []).append(float(r.snr_db))
    cells = {}
    for key, group in groups.items():
        if sorted(r.method for r in group) != sorted(methods):
            continue
        if not all(math.isfinite(r.rmse) and math.isfinite(r.snr_db) for r in group):
            continue
        cells[repr(key)] = _digest(
            f"{r.method},{r.h!r},{r.n_sub},{r.seed},{r.rmse!r},{r.snr_db!r},{r.iterations}" for r in group
        )
    return cells, snr


def _cells_from_out_dir(out: Path, methods) -> tuple[dict, dict, int]:
    """Cells from results.csv and manifest.json; every referenced blob must exist."""
    lines = (out / "results.csv").read_text().splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))} if lines else {}
    if not {"method", "h", "n_sub", "seed", "rmse", "snr_db"} <= set(col):
        raise ValueError(f"unexpected results.csv header {lines[:1]}")
    manifest = json.loads((out / "manifest.json").read_text())
    blobs = {p.name for p in (out / "store").iterdir()}
    groups: dict = {}
    snr: dict = {}
    iterations = 0
    for line in lines[1:]:
        f = line.split(",")
        key = (f[col["h"]], f[col["n_sub"]], f[col["seed"]])
        groups.setdefault(key, {"rows": [], "entries": []})["rows"].append(line)
        snr.setdefault(f[col["method"]], []).append(float(f[col["snr_db"]]))
        iterations += int(f[col["iterations"]] or 0) if "iterations" in col else 0
    for e in manifest:
        key = (f"{e['h']:g}", str(e["n_sub"]), str(e["seed"]))
        groups.setdefault(key, {"rows": [], "entries": []})["entries"].append(e)
    cells = {}
    for key, g in groups.items():
        rows = [line.split(",") for line in g["rows"]]
        if sorted(r[col["method"]] for r in rows) != sorted(methods) or len(g["entries"]) != len(methods):
            continue
        if not all(math.isfinite(float(r[col["rmse"]])) and math.isfinite(float(r[col["snr_db"]])) for r in rows):
            continue
        if not all({e["truth"], e["mask"], e["recon"]} <= blobs for e in g["entries"]):
            continue
        cells[repr(key)] = _digest(g["rows"] + [json.dumps(e, sort_keys=True) for e in g["entries"]])
    return cells, snr, iterations


def run_pass(mods, wl: Workload, spec, work_dir: Path, index: int) -> Pass:
    """Run the campaign once and check its output; only the campaign is timed."""
    h, cli = mods["harness"], mods["cli"]
    attempted = cell_count(spec)
    if not wl.via_cli:
        t0 = time.perf_counter()
        try:
            rows = getattr(h, wl.runner)(spec)
        except Exception:  # a failed campaign fails all its cells; the run goes on
            return Pass(time.perf_counter() - t0, attempted, error=traceback.format_exc(limit=-2))
        wall = time.perf_counter() - t0
        cells, snr = _cells_from_rows(rows, spec.methods)
        return Pass(wall, attempted, cells, snr, iterations=sum(int(r.iterations) for r in rows))

    spec_path = work_dir / "spec.json"
    spec_path.write_text(h.spec_to_json(spec) + "\n")
    out = work_dir / f"out-{index}"
    argv = ["bench", "table2", "--spec", str(spec_path), "--out-dir", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except (Exception, SystemExit):  # argparse exits; record it as a failed pass
        code = -1
        stderr.write(traceback.format_exc(limit=-2))
    wall = time.perf_counter() - t0
    try:
        if code != 0:
            return Pass(wall, attempted, error=f"cli exit {code}: {stderr.getvalue().strip()}")
        try:
            cells, snr, iterations = _cells_from_out_dir(out, spec.methods)
        except (OSError, ValueError, KeyError) as exc:
            return Pass(wall, attempted, error=f"unreadable output: {exc!r}")
        files = [p for p in out.rglob("*") if p.is_file()]
        return Pass(
            wall,
            attempted,
            cells,
            snr,
            iterations,
            blobs_written=sum(1 for p in files if p.parent.name == "store"),
            bytes_written=sum(p.stat().st_size for p in files),
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_warm(mods, wl: Workload, spec, work_dir: Path) -> str | None:
    """One warm-up cell; returns why it failed, or None.

    A failure does not stop the run: the timed passes then fail their cells
    too, and the result says so.
    """
    p = run_pass(mods, wl, spec, work_dir, index=-1)
    if p.error is not None or len(p.cells) != p.attempted:
        return f"warm-up cell failed: {p.error or 'output check failed'}"
    return None
