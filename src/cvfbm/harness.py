"""Benchmark campaigns: declarative specs, seeded cells, persistent results.

A campaign is a grid of cells (hurst value, sample count, repeat). Every cell
derives its random streams from the campaign base seed through
:func:`derive_seed`, so any cell can be recomputed in isolation and repeated
runs are bit-identical. Within a repeat, all sample counts share one
permutation (smaller masks are prefixes of larger ones) and, in the paired
campaign, all hurst values share the same noise realization, so comparisons
across those axes are paired rather than independent.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .baselines import BoxcarConfig, ThinPlateConfig, boxcar_reconstruct, thin_plate_reconstruct
from .cs import (
    EqualitySolverConfig,
    TwistConfig,
    bp_reconstruct,
    tv_equality_reconstruct,
    twist_reconstruct,
)
from .fileio import field_to_bytes, write_pgm
from .grid import SampleSet, as_field, dft2
from .metrics import radial_bins, rmse as rmse_metric, snr_db as snr_metric
from .sampling import subsample
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
    "mean_table",
    "write_results_csv",
    "emit_figure_data",
]

# method name -> (the ExperimentSpec field that holds its config, solve). A
# solve is (samples, cfg, *, periodic, allow_large) -> (field, info). It names
# its solver at call time, so a solver replaced on this module (perfbench
# wraps them for its spans and output checks) is the one that runs.
REGISTRY = {
    "box": ("boxcar", lambda s, cfg, **_: (boxcar_reconstruct(s, cfg), {})),
    "tp": ("thin_plate", lambda s, cfg, **_: (thin_plate_reconstruct(s, cfg), {})),
    "cs-twist": (
        "twist",
        lambda s, cfg, periodic, **_: twist_reconstruct(s, cfg, periodic=periodic),
    ),
    "cs-tv": ("equality", lambda s, cfg, **_: tv_equality_reconstruct(s, cfg)),
    "cs-bp": (
        "equality",
        lambda s, cfg, allow_large, **_: bp_reconstruct(s, cfg, allow_large=allow_large),
    ),
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
    envelope: str = "amplitude"
    periodic: bool = True

    def __post_init__(self):
        if self.envelope not in ("amplitude", "power"):
            raise ValueError(f"unknown envelope {self.envelope!r}")


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
    synthesis: SynthesisOptions = SynthesisOptions()
    boxcar: BoxcarConfig = BoxcarConfig()
    thin_plate: ThinPlateConfig = ThinPlateConfig()
    twist: TwistConfig = TwistConfig()
    equality: EqualitySolverConfig = EqualitySolverConfig()

    def __post_init__(self):
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
        if self.target_rms is not None and self.target_rms <= 0:
            raise ValueError("target_rms must be positive")

    @property
    def counts(self) -> tuple[int, ...]:
        total = self.grid[0] * self.grid[1]
        if self.sample_counts is not None:
            return tuple(int(n) for n in self.sample_counts)
        return tuple(total // int(f) for f in self.subsampling_factors)


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
    realization is shared across hurst values within a repeat.
    """
    base = dict(
        grid=(64, 64),
        hurst_values=(0.4, 0.6, 0.8),
        subsampling_factors=(2, 4),
        methods=("cs-tv",),
        repeats=10,
        base_seed=0,
        synthesis=SynthesisOptions(envelope="amplitude", periodic=False),
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
        synthesis=SynthesisOptions(envelope="amplitude", periodic=True),
        boxcar=BoxcarConfig(window=11, range_adjust="affine"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# JSON round trip with unknown-key rejection

# the dataclass-valued spec fields, each with its config class
SECTIONS = {f.name: type(f.default) for f in fields(ExperimentSpec) if is_dataclass(f.default)}


def _json_key(name: str) -> str:
    return "lambda" if name == "lam" else name


def spec_from_json(text: str) -> ExperimentSpec:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("experiment spec must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")

    kwargs: dict = {}
    if "grid" in raw:
        kwargs["grid"] = tuple(int(v) for v in raw["grid"])
    if "hurst_values" in raw:
        kwargs["hurst_values"] = tuple(float(v) for v in raw["hurst_values"])
    if "sample_counts" in raw:
        kwargs["sample_counts"] = tuple(int(v) for v in raw["sample_counts"])
    if "subsampling_factors" in raw:
        kwargs["subsampling_factors"] = tuple(int(v) for v in raw["subsampling_factors"])
    if "methods" in raw:
        kwargs["methods"] = tuple(str(m) for m in raw["methods"])
    for key in ("repeats", "base_seed"):
        if key in raw:
            kwargs[key] = int(raw[key])
    if "target_rms" in raw:
        kwargs["target_rms"] = None if raw["target_rms"] is None else float(raw["target_rms"])
    for section, cls in SECTIONS.items():
        sub = raw.get(section)
        if sub is None:
            continue
        if not isinstance(sub, dict):
            raise ValueError(f"{section} must be a JSON object")
        bad = set(sub) - {_json_key(f.name) for f in fields(cls)}
        if bad:
            raise ValueError(f"unknown {section} keys: {sorted(bad)}")
        sub = dict(sub)
        if "lambda" in sub:
            lam = sub.pop("lambda")
            sub["lam"] = None if lam in (None, "auto") else float(lam)
        kwargs[section] = cls(**sub)
    if not kwargs:
        raise ValueError("experiment spec is empty")
    return ExperimentSpec(**kwargs)


def spec_to_json(spec: ExperimentSpec) -> str:
    d = asdict(spec)
    for key in ("sample_counts", "subsampling_factors"):
        if d[key] is None:
            del d[key]
    for section in SECTIONS:
        d[section] = {_json_key(k): v for k, v in d[section].items()}
    return json.dumps(d, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# cell execution

def _cell_truth(spec: ExperimentSpec, policy: str, h_idx: int, rep: int) -> tuple[np.ndarray, int]:
    """Synthesize (and optionally normalize) the truth field for one cell."""
    if policy == "paired":
        seed = derive_seed(spec.base_seed, _FIELD_STREAM, rep)
    else:
        seed = derive_seed(spec.base_seed, _FIELD_STREAM, h_idx, rep)
    rows, cols = spec.grid
    field = synthesize_cvfbm(
        spec.hurst_values[h_idx],
        rows,
        cols,
        seed,
        envelope=spec.synthesis.envelope,
        periodic=spec.synthesis.periodic,
    )
    if spec.target_rms is not None:
        field = normalize_dynamic_range(field, spec.target_rms)
    return field, seed


def _cell_mask(spec: ExperimentSpec, nsub_idx: int, rep: int) -> np.ndarray:
    """Sorted prefix of the repeat's permutation: masks nest across counts."""
    rows, cols = spec.grid
    rng = np.random.default_rng(derive_seed(spec.base_seed, _MASK_STREAM, rep))
    perm = rng.permutation(rows * cols)
    n = spec.counts[nsub_idx]
    if not 1 <= n <= rows * cols:
        raise ValueError(f"sample count {n} out of range for grid {spec.grid}")
    flat = np.sort(perm[:n])
    return np.stack(np.unravel_index(flat, (rows, cols)), axis=1).astype(np.int64)


def _reconstruct(method: str, samples: SampleSet, spec: ExperimentSpec):
    section, solve = REGISTRY[method]
    cfg = getattr(spec, section)
    field, info = solve(samples, cfg, periodic=spec.synthesis.periodic, allow_large=True)
    return field, info.get("iterations", 0)


def _run_cell(spec: ExperimentSpec, policy: str, h_idx: int, nsub_idx: int, rep: int) -> dict:
    truth, seed = _cell_truth(spec, policy, h_idx, rep)
    mask = _cell_mask(spec, nsub_idx, rep)
    samples = subsample(truth, mask)
    out = {"truth": truth, "mask": mask, "seed": seed, "methods": []}
    for method in spec.methods:
        t0 = time.perf_counter()
        recon, iterations = _reconstruct(method, samples, spec)
        wall = time.perf_counter() - t0
        row = ResultRow(
            method=method,
            h=spec.hurst_values[h_idx],
            n_sub=spec.counts[nsub_idx],
            seed=seed,
            rmse=rmse_metric(truth, recon),
            snr_db=snr_metric(truth, recon),
            wall_time_s=wall,
            iterations=iterations,
        )
        out["methods"].append((method, recon, row))
    return out


def _cell_star(args):
    return _run_cell(*args)


def _run_campaign(spec: ExperimentSpec, policy: str, out_dir=None, jobs: int = 1):
    items = [
        (h_idx, nsub_idx, rep)
        for h_idx in range(len(spec.hurst_values))
        for nsub_idx in range(len(spec.counts))
        for rep in range(spec.repeats)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_cell_star, [(spec, policy) + it for it in items], chunksize=1))
    else:
        cells = [_run_cell(spec, policy, *it) for it in items]

    rows: list[ResultRow] = []
    store = _ArtifactStore(out_dir) if out_dir is not None else None
    manifest = []
    for (h_idx, nsub_idx, rep), cell in zip(items, cells):
        for method, recon, row in cell["methods"]:
            rows.append(row)
            if store is not None:
                entry = {
                    "method": method,
                    "h": spec.hurst_values[h_idx],
                    "n_sub": spec.counts[nsub_idx],
                    "repeat": rep,
                    "seed": cell["seed"],
                    "truth": store.put_field(cell["truth"]),
                    "mask": store.put_mask(cell["mask"]),
                    "recon": store.put_field(recon),
                    "rmse": row.rmse,
                }
                manifest.append(entry)

    order = {m: i for i, m in enumerate(METHODS)}
    rows.sort(key=lambda r: (order[r.method], r.h, r.n_sub, r.seed))
    if store is not None:
        manifest.sort(key=lambda e: (order[e["method"]], e["h"], e["n_sub"], e["repeat"]))
        store.write_manifest(manifest)
        _audit_rows(spec, manifest, store)
    return rows


def _audit_rows(spec: ExperimentSpec, manifest: list, store: "_ArtifactStore", n_checks: int = 10):
    """Recompute the stored rmse of random rows from the persisted artifacts."""
    if not manifest:
        return
    rng = np.random.default_rng(derive_seed(spec.base_seed, _AUDIT_STREAM))
    picks = rng.choice(len(manifest), size=min(n_checks, len(manifest)), replace=False)
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


def run_table1(spec: ExperimentSpec | None = None, out_dir=None, jobs: int = 1) -> list[ResultRow]:
    """Paired-noise campaign over (hurst, subsampling factor) cells."""
    spec = spec if spec is not None else table1_spec()
    return _run_campaign(spec, "paired", out_dir=out_dir, jobs=jobs)


def run_table2(spec: ExperimentSpec | None = None, out_dir=None, jobs: int = 1) -> list[ResultRow]:
    """Method-comparison campaign over (hurst, sample count) cells."""
    spec = spec if spec is not None else table2_spec()
    return _run_campaign(spec, "independent", out_dir=out_dir, jobs=jobs)


def mean_table(rows: list[ResultRow]) -> dict:
    """Per-cell means: {(method, h, n_sub): {"rmse": .., "snr_db": .., "n": ..}}."""
    acc: dict = {}
    for r in rows:
        acc.setdefault((r.method, r.h, r.n_sub), []).append(r)
    return {
        key: {
            "rmse": float(np.mean([r.rmse for r in group])),
            "snr_db": float(np.mean([r.snr_db for r in group])),
            "rmse_std": float(np.std([r.rmse for r in group])),
            "snr_db_std": float(np.std([r.snr_db for r in group])),
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
            f"{r.method},{r.h:g},{r.n_sub},{r.seed},{r.rmse:.10e},{r.snr_db:.10e},{wall},{r.iterations}"
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
        lines.append(",".join([f"{h:g}"] + cells))
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
        pos = np.asarray(mask, dtype=np.int64).reshape(-1, 2)
        text = "".join(f"{r},{c}\n" for r, c in pos)
        return self._put(text.encode(), ".csv")

    def get_field(self, name: str):
        from .fileio import field_from_bytes

        return field_from_bytes((self.store / name).read_bytes())

    def write_manifest(self, manifest: list) -> None:
        (self.root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# figure data

def radial_magnitude_profile(field) -> tuple[np.ndarray, np.ndarray]:
    """Mean |spectrum| per exact radial frequency, up to min(rows, cols)/2."""
    f = as_field(field)
    r2, means = radial_bins(np.abs(dft2(f)), min(f.shape) / 2.0)
    return np.sqrt(r2.astype(float)), means


TRACE_START = 101
TRACE_STOP = 200  # inclusive


def emit_figure_data(kind: str, out_prefix, field=None, traces: dict | None = None) -> list:
    """Write plot-ready files; returns the created paths.

    kinds: "field-images" (re/im PGM pair of ``field``), "spectrum"
    (radius, mean |spectrum| CSV of ``field``), "trace" (values of each field
    in ``traces`` at flattened indices 101..200; a "truth" entry is listed
    first when present).
    """
    out_prefix = Path(out_prefix)
    if kind == "field-images":
        f = as_field(field)
        paths = [out_prefix.with_suffix(".re.pgm"), out_prefix.with_suffix(".im.pgm")]
        write_pgm(paths[0], f.real)
        write_pgm(paths[1], f.imag)
        return paths
    if kind == "spectrum":
        radii, means = radial_magnitude_profile(field)
        path = out_prefix.with_suffix(".csv")
        lines = ["omega,mean_magnitude"] + [
            f"{r:.10g},{m:.10e}" for r, m in zip(radii, means)
        ]
        path.write_text("\n".join(lines) + "\n")
        return [path]
    if kind == "trace":
        if not traces:
            raise ValueError("trace needs at least one named field")
        names = sorted(traces, key=lambda n: (n != "truth", n))
        flats = {n: as_field(traces[n]).ravel() for n in names}
        size = len(next(iter(flats.values())))
        if any(len(v) != size for v in flats.values()):
            raise ValueError("trace fields differ in size")
        if size <= TRACE_STOP:
            raise ValueError(f"trace needs more than {TRACE_STOP} grid cells")
        header = ["index"] + [f"{n}_{part}" for n in names for part in ("re", "im")]
        lines = [",".join(header)]
        for i in range(TRACE_START, TRACE_STOP + 1):
            vals = []
            for n in names:
                v = flats[n][i]
                vals += [f"{v.real:.10e}", f"{v.imag:.10e}"]
            lines.append(",".join([str(i)] + vals))
        path = out_prefix.with_suffix(".csv")
        path.write_text("\n".join(lines) + "\n")
        return [path]
    raise ValueError(f"unknown figure kind {kind!r}")
