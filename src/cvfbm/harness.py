"""Benchmark campaigns: declarative specs, seeded cells, persistent results.

A campaign is a grid of cells (hurst value, sample count, repeat). Every cell
derives its random streams from the campaign base seed through
:func:`derive_seed`, so any cell can be recomputed in isolation and repeated
runs are bit-identical. Within a repeat, all sample counts share one
permutation (smaller masks are prefixes of larger ones) and, with
``paired_noise``, all hurst values share one noise realization, so
comparisons across those axes are paired rather than independent. A run
with an out-dir writes there all it made, spec.json included.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .baselines import (
    BoxcarConfig,
    ThinPlateConfig,
    boxcar_reconstruct,
    clear_system_memo,
    thin_plate_reconstruct,
)
from .cs import (
    EqualitySolverConfig,
    TwistConfig,
    bp_reconstruct,
    tv_equality_reconstruct,
    twist_reconstruct,
)
from .fileio import field_from_bytes, field_to_bytes, mask_to_bytes
from .grid import check, check_fields, field_types
from .metrics import rmse as rmse_metric, snr_db as snr_metric
from .sampling import mask_from_draw, subsample
from .synthesis import normalize_dynamic_range, synthesize_cvfbm

__all__ = [
    "SynthesisOptions",
    "ExperimentSpec",
    "ResultRow",
    "table1_spec",
    "table2_spec",
    "derive_seed",
    "run_table1",
    "run_table2",
    "spec_from_json",
    "spec_to_json",
    "mean_table",
    "write_results_csv",
    "write_mean_csv",
]

# method name -> (the ExperimentSpec field that holds its config, solve). Every
# solve is (samples, cfg, periodic) -> (field, info), where periodic says the
# samples come from a periodic field; only cs-twist uses it so far. A solve
# names its solver at call time, so a solver replaced on this module
# (perfbench wraps them for its spans and output checks) is the one that runs.
REGISTRY = {
    "box": ("boxcar", lambda s, cfg, periodic: (boxcar_reconstruct(s, cfg), {})),
    "tp": ("thin_plate", lambda s, cfg, periodic: (thin_plate_reconstruct(s, cfg), {})),
    "cs-twist": ("twist", lambda s, cfg, periodic: twist_reconstruct(s, cfg, periodic=periodic)),
    "cs-tv": ("equality", lambda s, cfg, periodic: tv_equality_reconstruct(s, cfg)),
    "cs-bp": ("equality", lambda s, cfg, periodic: bp_reconstruct(s, cfg)),
}
METHODS = tuple(REGISTRY)

# spawn-key prefixes for the independent random streams of a campaign
_FIELD_STREAM = 1
_MASK_STREAM = 2
_AUDIT_STREAM = 3


def derive_seed(base_seed: int, *key: int) -> int:
    """Mix a base seed and an index tuple into one 64-bit child seed."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SynthesisOptions:
    periodic: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ExperimentSpec:
    grid: tuple[int, int]
    hurst_values: tuple[float, ...]
    methods: tuple[str, ...]
    repeats: int
    base_seed: int = 0
    sample_counts: tuple[int, ...] | None = None
    subsampling_factors: tuple[int, ...] | None = None
    target_rms: float | None = None
    paired_noise: bool = False  # one noise field per repeat, shared by every hurst value
    synthesis: SynthesisOptions = SynthesisOptions()
    boxcar: BoxcarConfig = BoxcarConfig()
    thin_plate: ThinPlateConfig = ThinPlateConfig()
    twist: TwistConfig = TwistConfig()
    equality: EqualitySolverConfig = EqualitySolverConfig()

    def __post_init__(self):
        check_fields(self)
        rows, cols = self.grid
        if rows < 2 or cols < 2:
            raise ValueError("grid too small")
        if not self.hurst_values:
            raise ValueError("hurst_values must be nonempty")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {METHODS})")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if (self.sample_counts is None) == (self.subsampling_factors is None):
            raise ValueError("give exactly one of sample_counts or subsampling_factors")
        if not (self.sample_counts or self.subsampling_factors):
            raise ValueError("sample_counts or subsampling_factors must be nonempty")
        if self.subsampling_factors is not None and min(self.subsampling_factors) < 1:
            raise ValueError("subsampling factors must be at least 1")
        for h in self.hurst_values:
            if not 0.0 < h < 1.0:
                raise ValueError(f"hurst_values must lie in (0, 1), got {h}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        given = "sample_counts" if self.sample_counts is not None else "subsampling_factors"
        total = rows * cols
        if not all(1 <= n <= total for n in self.counts):
            raise ValueError(f"{given} gives a sample count out of range [1, {total}]: {self.counts}")
        for name, values in (("hurst_values", self.hurst_values), ("methods", self.methods)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        if len(set(self.counts)) < len(self.counts):
            raise ValueError(f"{given} must give distinct sample counts, got {self.counts}")
        if self.target_rms is not None and not (np.isfinite(self.target_rms) and self.target_rms > 0):
            raise ValueError("target_rms must be positive and finite")

    @property
    def counts(self) -> tuple[int, ...]:
        total = self.grid[0] * self.grid[1]
        if self.sample_counts is not None:
            return self.sample_counts
        return tuple(total // f for f in self.subsampling_factors)


@dataclass(frozen=True)
class ResultRow:
    method: str
    h: float
    n_sub: int
    seed: int
    rmse: float
    snr_db: float
    wall_time_s: float
    iterations: int


def table1_spec(**overrides) -> ExperimentSpec:
    """Subsampled 64x64 fields reconstructed by equality-constrained TV.

    Fields use the doubled-grid synthesis (free boundary); the noise
    realization is shared across hurst values within a repeat (paired_noise).
    """
    base = dict(
        grid=(64, 64),
        hurst_values=(0.4, 0.6, 0.8),
        subsampling_factors=(2, 4),
        methods=("cs-tv",),
        repeats=10,
        base_seed=0,
        paired_noise=True,
        synthesis=SynthesisOptions(periodic=False),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def table2_spec(**overrides) -> ExperimentSpec:
    """100x100 fields at three sample counts, three reconstruction methods."""
    base = dict(
        grid=(100, 100),
        hurst_values=(0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        sample_counts=(500, 1000, 2000),
        methods=("box", "tp", "cs-twist"),
        repeats=5,
        base_seed=0,
        target_rms=0.05,
        synthesis=SynthesisOptions(periodic=True),
        boxcar=BoxcarConfig(window=11, range_adjust="affine"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# JSON round trip with unknown-key rejection

# the dataclass-valued spec fields, each with its config class
SECTIONS = {f.name: type(f.default) for f in fields(ExperimentSpec) if is_dataclass(f.default)}


def _section_from_json(section: str, cls, sub):
    if not isinstance(sub, dict):
        raise ValueError(f"{section} must be a JSON object")
    by_key = {name: (attr, tp) for attr, tp, name in field_types(cls)}
    bad = set(sub) - set(by_key)
    if bad:
        raise ValueError(f"unknown {section} keys: {sorted(bad)}")
    kwargs = {}
    for key, value in sub.items():
        attr, tp = by_key[key]
        kwargs[attr] = check(value, tp, f"{section}.{key}")
    return cls(**kwargs)


def spec_from_json(text: str) -> ExperimentSpec:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("experiment spec must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")

    hints = {attr: tp for attr, tp, _ in field_types(ExperimentSpec)}
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in SECTIONS:
            kwargs[key] = check(value, hints[key], key)
        elif value is not None:
            kwargs[key] = _section_from_json(key, SECTIONS[key], value)
    if not kwargs:
        raise ValueError("experiment spec is empty")
    missing = [f.name for f in fields(ExperimentSpec) if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise ValueError(f"missing spec keys: {missing}")
    return ExperimentSpec(**kwargs)


def spec_to_json(spec: ExperimentSpec) -> str:
    d = asdict(spec)
    for key in ("sample_counts", "subsampling_factors"):
        if d[key] is None:
            del d[key]
    for section, cls in SECTIONS.items():
        d[section] = {name: d[section][attr] for attr, _, name in field_types(cls)}
    return json.dumps(d, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# cell execution

def _cell_truth(spec: ExperimentSpec, h_idx: int, rep: int) -> tuple[np.ndarray, int]:
    """Synthesize (and optionally normalize) the truth field for one cell."""
    key = (rep,) if spec.paired_noise else (h_idx, rep)
    seed = derive_seed(spec.base_seed, _FIELD_STREAM, *key)
    rows, cols = spec.grid
    field = synthesize_cvfbm(spec.hurst_values[h_idx], rows, cols, seed, periodic=spec.synthesis.periodic)
    if spec.target_rms is not None:
        field = normalize_dynamic_range(field, spec.target_rms)
    return field, seed


def _repeat_masks(spec: ExperimentSpec, rep: int) -> list[np.ndarray]:
    """One mask per sample count: sorted prefixes of the repeat's permutation,
    so masks nest across counts."""
    rows, cols = spec.grid
    rng = np.random.default_rng(derive_seed(spec.base_seed, _MASK_STREAM, rep))
    perm = rng.permutation(rows * cols)
    return [mask_from_draw(rows, cols, n, lambda n: perm[:n]) for n in spec.counts]


def _task_groups(spec: ExperimentSpec) -> list[tuple[tuple[str, ...], range]]:
    """The (methods, hs) of each task that a repeat runs on each of its masks.

    Thin-plate fits on one mask share a factor, so tp runs every h of a mask
    as one task; the other methods keep nothing across fits and run as one
    task per (mask, h).
    """
    hs = range(len(spec.hurst_values))
    others = tuple(m for m in spec.methods if m != "tp")
    groups = [(others, hs[i : i + 1]) for i in hs] if others else []
    if "tp" in spec.methods:
        groups.append((("tp",), hs))
    return groups


def _run_cells(spec: ExperimentSpec, methods: tuple, nsub_idx: int, mask, hs: range, truths, seeds, keep: bool):
    """One task: the cells of one mask, for each h of hs (whose truths and
    seeds are given), by each of methods: ((h_idx, nsub_idx, method), recon,
    row), with recon None unless ``keep`` (a pool task then returns no field)."""
    cells = []
    for h_idx, truth, seed in zip(hs, truths, seeds):
        samples = subsample(truth, mask)
        for method in methods:
            section, solve = REGISTRY[method]
            t0 = time.perf_counter()
            recon, info = solve(samples, getattr(spec, section), spec.synthesis.periodic)
            wall = time.perf_counter() - t0
            row = ResultRow(
                method=method,
                h=spec.hurst_values[h_idx],
                n_sub=spec.counts[nsub_idx],
                seed=seed,
                rmse=rmse_metric(truth, recon),
                snr_db=snr_metric(truth, recon),
                wall_time_s=wall,
                iterations=info.get("iterations", 0),
            )
            cells.append(((h_idx, nsub_idx, method), recon if keep else None, row))
    return cells


def _run_repeat(
    spec: ExperimentSpec, rep: int, pool, store, truths: np.ndarray, recons: np.ndarray | None
) -> tuple[list, list]:
    """Run one repeat's cells: (result rows, manifest entries).

    The repeat's truths (one per h) and masks (one per count) are built once.
    Each mask runs one task per group of _task_groups, in the pool or
    serially (see _run_cells). Truths are copied into the
    campaign's ``truths`` buffer, which every repeat overwrites. With a store,
    reconstructions are copied into its ``recons`` buffer likewise (without
    one, nothing reads them, recons is None and the tasks drop them), and
    every truth, mask and reconstruction is stored before return.
    """
    hs = range(len(spec.hurst_values))
    seeds = []
    for h_idx in hs:
        truths[h_idx], seed = _cell_truth(spec, h_idx, rep)
        seeds.append(seed)
    masks = _repeat_masks(spec, rep)
    keep = store is not None
    tasks = [
        (spec, methods, nsub_idx, mask, g, truths[g.start : g.stop], seeds[g.start : g.stop], keep)
        for nsub_idx, mask in enumerate(masks)
        for methods, g in _task_groups(spec)
    ]
    args = zip(*tasks)  # map takes one iterable per argument
    done = (pool.map if pool is not None else map)(_run_cells, *args)
    rows, made = [], []
    for cells in done:
        for key, recon, row in cells:
            if recons is not None:
                recons[len(rows)] = recon
            rows.append(row)
            made.append(key)
    if store is None:
        return rows, []
    # each distinct truth and mask is encoded, hashed and stored once
    truth_names = [store.put_field(truth) for truth in truths]
    mask_names = [store.put_mask(mask) for mask in masks]
    manifest = [
        {
            "method": method,
            "h": row.h,
            "n_sub": row.n_sub,
            "repeat": rep,
            "seed": row.seed,
            "truth": truth_names[h_idx],
            "mask": mask_names[nsub_idx],
            "recon": store.put_field(recon),
            "rmse": row.rmse,
        }
        for (h_idx, nsub_idx, method), row, recon in zip(made, rows, recons)
    ]
    return rows, manifest


def _run_campaign(spec: ExperimentSpec, out_dir=None, jobs: int = 1, timings: bool = False):
    # the campaign runs one repeat at a time and keeps only result rows and
    # manifest entries across repeats, so its peak holds one repeat's fields
    # whatever the number of repeats. Under --jobs one pool serves every
    # repeat, with no more workers than a repeat has tasks (serial for one).
    # manifest.json (then audited), the CSVs and spec.json are written only
    # once every repeat has run; the blobs of earlier repeats survive a failure.
    # Each repeat's fields go into the same two buffers: fields freed at every
    # repeat's end would be trimmed from the heap and faulted back in by the
    # next, at a cost that shifts with the heap's layout from run to run. Only
    # the store reads reconstructions, so without one they are not kept
    jobs = check(jobs, int, "jobs")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    store = _ArtifactStore(out_dir) if out_dir is not None else None
    rows, manifest = [], []
    nh = len(spec.hurst_values)
    truths = np.empty((nh, *spec.grid), dtype=np.complex128)
    recons = None
    if store is not None:
        recons = np.empty((nh * len(spec.counts) * len(spec.methods), *spec.grid), dtype=np.complex128)
    workers = min(jobs, len(spec.counts) * len(_task_groups(spec)))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        try:
            for rep in range(spec.repeats):
                rep_rows, entries = _run_repeat(spec, rep, pool, store, truths, recons)
                rows += rep_rows
                manifest += entries
        finally:
            clear_system_memo()  # the campaign's last factor is of no use after it

    order = {m: i for i, m in enumerate(METHODS)}
    rows.sort(key=lambda r: (order[r.method], r.h, r.n_sub, r.seed))
    if store is not None:
        manifest.sort(key=lambda e: (order[e["method"]], e["h"], e["n_sub"], e["repeat"]))
        store.write_manifest(manifest)
        _audit_rows(spec, manifest, store)
        write_results_csv(store.root / "results.csv", rows, include_timings=timings)
        write_mean_csv(store.root / "mean_rmse.csv", rows, value="rmse")
        write_mean_csv(store.root / "mean_snr_db.csv", rows, value="snr_db")
        (store.root / "spec.json").write_text(spec_to_json(spec) + "\n")
    return rows


_AUDIT_CHECKS = 10  # manifest rows the audit recomputes


def _audit_rows(spec: ExperimentSpec, manifest: list, store: "_ArtifactStore"):
    """Recompute the stored rmse of random rows from the persisted artifacts."""
    if not manifest:
        return
    rng = np.random.default_rng(derive_seed(spec.base_seed, _AUDIT_STREAM))
    picks = rng.choice(len(manifest), size=min(_AUDIT_CHECKS, len(manifest)), replace=False)
    for i in picks:
        entry = manifest[int(i)]
        truth = store.get_field(entry["truth"])
        recon = store.get_field(entry["recon"])
        again = rmse_metric(truth, recon)
        if not np.isclose(again, entry["rmse"], rtol=1e-12, atol=0):
            raise RuntimeError(
                f"persisted artifacts disagree with recorded rmse for {entry['method']} "
                f"h={entry['h']} n_sub={entry['n_sub']} repeat={entry['repeat']}"
            )


def run_table1(
    spec: ExperimentSpec | None = None, out_dir=None, jobs: int = 1, timings: bool = False
) -> list[ResultRow]:
    """Run ``spec``, or :func:`table1_spec` if none is given. With ``out_dir``,
    write there the store, manifest.json, results.csv (wall times only with
    ``timings``), both mean CSVs and spec.json."""
    spec = spec if spec is not None else table1_spec()
    return _run_campaign(spec, out_dir=out_dir, jobs=jobs, timings=timings)


def run_table2(
    spec: ExperimentSpec | None = None, out_dir=None, jobs: int = 1, timings: bool = False
) -> list[ResultRow]:
    """Run ``spec``, or :func:`table2_spec` if none is given; as :func:`run_table1`."""
    spec = spec if spec is not None else table2_spec()
    return _run_campaign(spec, out_dir=out_dir, jobs=jobs, timings=timings)


def mean_table(rows: list[ResultRow]) -> dict:
    """Per-cell means: {(method, h, n_sub): {"rmse": .., "snr_db": .., "n": ..}}."""
    acc: dict = {}
    for r in rows:
        acc.setdefault((r.method, r.h, r.n_sub), []).append(r)
    return {
        key: {
            "rmse": float(np.mean([r.rmse for r in group])),
            "snr_db": float(np.mean([r.snr_db for r in group])),
            "n": len(group),
        }
        for key, group in acc.items()
    }


def write_results_csv(path, rows: list[ResultRow], include_timings: bool = False) -> None:
    """One row per reconstruction. wall_time_s stays empty unless requested,
    keeping repeated campaign runs byte-identical."""
    lines = ["method,h,n_sub,seed,rmse,snr_db,wall_time_s,iterations"]
    for r in rows:
        wall = f"{r.wall_time_s:.3f}" if include_timings else ""
        lines.append(
            f"{r.method},{r.h!r},{r.n_sub},{r.seed},{r.rmse:.10e},{r.snr_db:.10e},{wall},{r.iterations}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_mean_csv(path, rows: list[ResultRow], value: str = "rmse") -> None:
    """Mean grid: one row per hurst value (descending), methods x counts columns."""
    means = mean_table(rows)
    hs = sorted({r.h for r in rows}, reverse=True)
    counts = sorted({r.n_sub for r in rows})
    methods = [m for m in METHODS if any(r.method == m for r in rows)]
    header = ["h"] + [f"{m}_n{n}" for n in counts for m in methods]
    lines = [",".join(header)]
    for h in hs:
        cells = []
        for n in counts:
            for m in methods:
                cell = means.get((m, h, n))
                cells.append(f"{cell[value]:.6e}" if cell else "")
        lines.append(",".join([repr(h)] + cells))
    Path(path).write_text("\n".join(lines) + "\n")


class _ArtifactStore:
    """Content-addressed blobs under <out_dir>/store, plus a manifest."""

    def __init__(self, out_dir):
        self.root = Path(out_dir)
        self.store = self.root / "store"
        self.store.mkdir(parents=True, exist_ok=True)

    def _put(self, blob: bytes, ext: str) -> str:
        key = hashlib.sha256(blob).hexdigest()[:20]
        path = self.store / f"{key}{ext}"
        if not path.exists():
            path.write_bytes(blob)
        return key + ext

    def put_field(self, field) -> str:
        return self._put(field_to_bytes(field), ".cvf")

    def put_mask(self, mask) -> str:
        return self._put(mask_to_bytes(mask), ".csv")

    def get_field(self, name: str):
        return field_from_bytes((self.store / name).read_bytes())

    def write_manifest(self, manifest: list) -> None:
        text = json.dumps(manifest, indent=2, sort_keys=True)
        (self.root / "manifest.json").write_text(text + "\n")

