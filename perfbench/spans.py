"""Spans around the public functions each cvfbm module exposes to its callers.

The benchmark does not edit the program. It replaces, for the length of a
``with`` block, the names a module imports from another module (for example
``harness.twist_reconstruct`` or ``cs.tv_denoise``) with a wrapper that
records a span and calls the original. Every original is put back when the
block exits. Spans stay in memory; the run writes them out when it ends.

A span's self time is its duration minus the durations of its direct child
spans. The campaign runs in one thread, so spans nest and children never
overlap, and the self times of all spans add up to the outermost span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Collects spans as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, attrs=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0) - child[i] for i, (_, t0, t1, _, _) in enumerate(self.spans)]

    def totals(self) -> dict:
        """{name: [calls, total seconds, self seconds]}."""
        out: dict = {}
        for (name, t0, t1, _, _), own in zip(self.spans, self._self_times()):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += own
        return out

    def children_self(self, parent_name: str) -> list[tuple[dict, dict]]:
        """Per span named parent_name: (its attrs, {descendant name: self s})."""
        selfs = self._self_times()
        groups: dict[int, tuple[dict, dict]] = {}
        for i, span in enumerate(self.spans):
            if span[0] == parent_name:
                groups[i] = (span[4] or {}, {parent_name: selfs[i]})
        for i, span in enumerate(self.spans):
            p = span[3]
            while p >= 0 and p not in groups:
                p = self.spans[p][3]
            if p >= 0 and i != p:
                per = groups[p][1]
                per[span[0]] = per.get(span[0], 0.0) + selfs[i]
        return list(groups.values())

    def dump(self, path) -> None:
        """Write spans as CSV: index,name,start_s,end_s,parent."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")


def _fft_attrs(args, kwargs, out):
    return {"px": int(out.size)}


def _tp_attrs(args, kwargs, out):
    samples = args[0]
    n = len(samples)
    grid = samples.rows * samples.cols
    return {"n": n, "flops": n**3 / 3.0 + grid * n}


def _twist_attrs(args, kwargs, out):
    info = out[1]
    return {"iterations": int(info["iterations"]), "converged": bool(info.get("converged", False))}


def _tv_eq_attrs(args, kwargs, out):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    iters = int(out[1]["iterations"])
    cap = getattr(cfg, "max_iters", None)
    return {"iterations": iters, "capped": cap is not None and iters >= cap}


def instrument_plan(mods) -> list[tuple]:
    """(owner, attribute, span name, attrs) for every traced entry point.

    ``mods`` maps module names (harness, cs, sampling, baselines, synthesis,
    metrics, fileio, cli) to the imported modules. grid is traced where the
    other modules call it. psf is left out: no campaign calls it.
    """
    h, cs, smp = mods["harness"], mods["cs"], mods["sampling"]
    bl, syn, met = mods["baselines"], mods["synthesis"], mods["metrics"]
    fio, cli = mods["fileio"], mods["cli"]
    store = getattr(h, "_ArtifactStore", None)
    op = getattr(smp, "MeasurementOperator", None)
    plan = [
        (cli, "main", "cli", None),
        (cli, "run_table1", "harness.campaign", None),
        (cli, "run_table2", "harness.campaign", None),
        (h, "run_table1", "harness.campaign", None),
        (h, "run_table2", "harness.campaign", None),
        (cli, "spec_from_json", "harness.spec", None),
        (cli, "spec_to_json", "harness.spec", None),
        (cli, "mean_table", "harness.spec", None),
        (cli, "write_results_csv", "harness.csv", None),
        (cli, "write_mean_csv", "harness.csv", None),
        (h, "_audit_rows", "harness.audit", None),
        (store, "get_field", "harness.audit", None),
        (store, "put_field", "harness.store.put", None),
        (store, "put_mask", "harness.store.put", None),
        (store, "write_manifest", "harness.store", None),
        (h, "synthesize_cvfbm", "synthesis", None),
        (h, "normalize_dynamic_range", "synthesis.normalize", None),
        (h, "subsample", "sampling.subsample", None),
        (h, "boxcar_reconstruct", "baselines.box", None),
        (h, "thin_plate_reconstruct", "baselines.tp", _tp_attrs),
        (bl, "thin_plate_coefficients", "baselines.tp.solve", None),
        (bl, "default_smoothing_p", "baselines.tp.default_p", None),
        (h, "twist_reconstruct", "cs.twist", _twist_attrs),
        (h, "tv_equality_reconstruct", "cs.tv_eq", _tv_eq_attrs),
        (h, "bp_reconstruct", "cs.bp", None),
        (cs, "tv_denoise", "cs.tv_denoise", None),
        (cs, "tv", "cs.tv", None),
        (cs, "mirror_extend_samples", "grid.mirror", None),
        (cs, "take_quadrant", "grid.mirror", None),
        (syn, "take_quadrant", "grid.mirror", None),
        (op, "forward", "sampling.op", None),
        (op, "adjoint", "sampling.op", None),
        (h, "rmse_metric", "metrics", None),
        (h, "snr_metric", "metrics", None),
        (h, "field_to_bytes", "fileio.encode", None),
        (fio, "field_from_bytes", "fileio.decode", None),
    ]
    for mod, fn in ((cs, "dft2"), (cs, "idft2"), (smp, "dft2"), (smp, "idft2"),
                    (syn, "dft2"), (syn, "idft2"), (met, "dft2"), (h, "dft2")):
        plan.append((mod, fn, "grid.fft", _fft_attrs))
    return plan


RECONSTRUCTORS = (
    "boxcar_reconstruct",
    "thin_plate_reconstruct",
    "twist_reconstruct",
    "tv_equality_reconstruct",
    "bp_reconstruct",
)


def _checked(name: str, fn, violations: list):
    """Record reconstructions that are non-finite or of the wrong shape."""

    def check(*args, **kwargs):
        out = fn(*args, **kwargs)
        samples = args[0]
        field = out[0] if isinstance(out, tuple) else out  # (field, info) from solvers
        shape = (samples.rows, samples.cols)
        if getattr(field, "shape", None) != shape:
            violations.append(f"{name}: shape {getattr(field, 'shape', None)} != {shape}")
        elif not np.isfinite(field).all():
            violations.append(f"{name}: non-finite output")
        return out

    check.__wrapped__ = fn
    return check


@contextmanager
def instrumented(mods, tracer: Tracer | None, violations: list):
    """Install output checks always and spans when a tracer is given."""
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        if tracer is not None:
            for owner, attr, name, attrs in instrument_plan(mods):
                if owner is None or not hasattr(owner, attr):
                    tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                replace(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))
        h = mods["harness"]
        for attr in RECONSTRUCTORS:
            if hasattr(h, attr):
                replace(h, attr, _checked(attr, getattr(h, attr), violations))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics: name -> (unit, better). Times are self times in seconds.
LAYER_METRICS = {
    "cs.tv_denoise.calls": ("count", "lower"),
    "cs.tv_denoise.self_s": ("s", "lower"),
    "cs.tv.calls": ("count", "lower"),
    "cs.tv.self_s": ("s", "lower"),
    "cs.twist.s": ("s", "lower"),
    "cs.twist.iterations": ("count", "lower"),
    "cs.twist.s_per_iter": ("s", "lower"),
    "cs.twist.converged_frac": ("ratio", "higher"),
    "cs.twist.tv_denoise_share": ("ratio", "lower"),
    "cs.tv_eq.s": ("s", "lower"),
    "cs.tv_eq.iterations": ("count", "lower"),
    "cs.tv_eq.capped_frac": ("ratio", "lower"),
    "grid.fft.calls": ("count", "lower"),
    "grid.fft.self_s": ("s", "lower"),
    "grid.fft.px": ("px", "lower"),
    "grid.mirror.s": ("s", "lower"),
    "sampling.op.calls": ("count", "lower"),
    "sampling.op.self_s": ("s", "lower"),
    "sampling.subsample.s": ("s", "lower"),
    "baselines.tp.s": ("s", "lower"),
    "baselines.tp.default_p_s": ("s", "lower"),
    "baselines.tp.solve_s": ("s", "lower"),
    "baselines.tp.eval_s": ("s", "lower"),
    "baselines.tp.flops": ("flop", "lower"),
    "baselines.box.s": ("s", "lower"),
    "synthesis.calls": ("count", "lower"),
    "synthesis.s": ("s", "lower"),
    "metrics.s": ("s", "lower"),
    "fileio.encode.s": ("s", "lower"),
    "fileio.decode.s": ("s", "lower"),
    "fileio.bytes_written": ("B", "lower"),
    "harness.store.puts": ("count", "lower"),
    "harness.store.blobs_written": ("count", "lower"),
    "harness.store.dedup_ratio": ("ratio", "lower"),
    "harness.store.s": ("s", "lower"),
    "harness.audit.s": ("s", "lower"),
    "harness.csv.s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}

# Metrics that are counts: they must repeat exactly between traced passes.
COUNT_METRICS = tuple(n for n, (unit, _) in LAYER_METRICS.items() if unit in ("count", "px", "flop", "B"))


def layer_metrics(tracer: Tracer, blobs_written: int, bytes_written: int) -> dict:
    """Derive the per-layer metrics of one traced pass from its spans."""
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

    def attr_sum(name, key):
        return sum((s[4] or {}).get(key, 0) for s in tracer.spans if s[0] == name)

    def frac(num, den):
        return num / den if den else 0.0

    twist_iters = attr_sum("cs.twist", "iterations")
    puts = calls("harness.store.put")
    return {
        "cs.tv_denoise.calls": calls("cs.tv_denoise"),
        "cs.tv_denoise.self_s": self_s("cs.tv_denoise"),
        "cs.tv.calls": calls("cs.tv"),
        "cs.tv.self_s": self_s("cs.tv"),
        "cs.twist.s": self_s("cs.twist"),
        "cs.twist.iterations": twist_iters,
        "cs.twist.s_per_iter": frac(total("cs.twist"), twist_iters),
        "cs.twist.converged_frac": frac(attr_sum("cs.twist", "converged"), calls("cs.twist")),
        "cs.twist.tv_denoise_share": frac(total("cs.tv_denoise"), total("cs.twist")),
        "cs.tv_eq.s": self_s("cs.tv_eq"),
        "cs.tv_eq.iterations": attr_sum("cs.tv_eq", "iterations"),
        "cs.tv_eq.capped_frac": frac(attr_sum("cs.tv_eq", "capped"), calls("cs.tv_eq")),
        "grid.fft.calls": calls("grid.fft"),
        "grid.fft.self_s": self_s("grid.fft"),
        "grid.fft.px": attr_sum("grid.fft", "px"),
        "grid.mirror.s": self_s("grid.mirror"),
        "sampling.op.calls": calls("sampling.op"),
        "sampling.op.self_s": self_s("sampling.op"),
        "sampling.subsample.s": self_s("sampling.subsample"),
        "baselines.tp.s": self_s("baselines.tp", "baselines.tp.solve", "baselines.tp.default_p"),
        "baselines.tp.default_p_s": self_s("baselines.tp.default_p"),
        "baselines.tp.solve_s": self_s("baselines.tp.solve"),
        "baselines.tp.eval_s": self_s("baselines.tp"),
        "baselines.tp.flops": attr_sum("baselines.tp", "flops"),
        "baselines.box.s": self_s("baselines.box"),
        "synthesis.calls": calls("synthesis"),
        "synthesis.s": self_s("synthesis", "synthesis.normalize"),
        "metrics.s": self_s("metrics"),
        "fileio.encode.s": self_s("fileio.encode"),
        "fileio.decode.s": self_s("fileio.decode"),
        "fileio.bytes_written": bytes_written,
        "harness.store.puts": puts,
        "harness.store.blobs_written": blobs_written,
        "harness.store.dedup_ratio": frac(blobs_written, puts),
        "harness.store.s": self_s("harness.store.put", "harness.store"),
        "harness.audit.s": self_s("harness.audit"),
        "harness.csv.s": self_s("harness.csv"),
        "harness.self_s": self_s("harness.campaign", "harness.spec"),
        "cli.self_s": self_s("cli"),
    }


def tp_by_count(tracer: Tracer) -> dict:
    """Thin-plate self times split by sample count: {n: {solve_s, eval_s, default_p_s}}."""
    out: dict = {}
    for attrs, per in tracer.children_self("baselines.tp"):
        row = out.setdefault(str(attrs.get("n")), {"calls": 0, "solve_s": 0.0, "eval_s": 0.0, "default_p_s": 0.0})
        row["calls"] += 1
        row["solve_s"] += per.get("baselines.tp.solve", 0.0)
        row["eval_s"] += per.get("baselines.tp", 0.0)
        row["default_p_s"] += per.get("baselines.tp.default_p", 0.0)
    return out
