"""Command-line front end.

Subcommands cover the full loop: synthesize a field, subsample it,
reconstruct from the samples, score the reconstruction, run the benchmark
campaigns, and inspect compressibility or PSF shapes. A step writes only
what a later one reads (eval, profile and star write no file) and prints a
one-line JSON summary. Usage errors exit with status 2 (argparse);
numerical and I/O failures exit with status 1 and a one-line JSON error on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .cs import compressibility_diagnostics
from .fileio import read_cvf1, read_samples_csv, write_cvf1, write_samples_csv
from .grid import field_types
from .harness import (
    METHODS,
    REGISTRY,
    SECTIONS,
    run_table1,
    run_table2,
    spec_from_json,
    mean_table,
)
from .metrics import MIN_SLOPE_GRID, evaluate, radial_spectrum_slope
from .psf import (
    RadialProfile,
    brightness_moments,
    ellipticity_from_moments,
    psf_radius,
    render_star,
)
from .sampling import random_mask, subsample
from .synthesis import normalize_dynamic_range, synthesize_cvfbm

__all__ = ["main"]


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_synth(args) -> int:
    field = synthesize_cvfbm(args.h, args.rows, args.cols, args.seed, periodic=not args.free_boundary)
    if args.target_rms is not None:
        field = normalize_dynamic_range(field, args.target_rms)
    write_cvf1(args.out, field)
    # null where the grid is too small for the slope fit
    slope = radial_spectrum_slope(field) if min(field.shape) >= MIN_SLOPE_GRID else None
    _emit(
        {
            "out": str(args.out),
            "rows": args.rows,
            "cols": args.cols,
            "h": args.h,
            "seed": args.seed,
            "rms": float(np.sqrt(np.mean(np.abs(field) ** 2))),
            "spectral_slope": slope,
        }
    )
    return 0


def _cmd_sample(args) -> int:
    field = read_cvf1(args.field)
    rows, cols = field.shape
    if (args.n is None) == (args.factor is None):
        raise ValueError("give exactly one of --n or --factor")
    if args.factor is not None and args.factor < 1:
        raise ValueError(f"--factor must be at least 1, got {args.factor}")
    n = args.n if args.n is not None else rows * cols // args.factor
    mask = random_mask(rows, cols, n, args.seed)
    samples = subsample(field, mask)
    write_samples_csv(args.out, samples)
    _emit({"out": str(args.out), "n_sub": int(n), "rows": rows, "cols": cols})
    return 0


def _cmd_recon(args) -> int:
    samples = read_samples_csv(args.samples, args.rows, args.cols)
    section, solve = REGISTRY[args.method]
    # the recon flags are named after the config fields they set; a flag left
    # at None keeps the config's own default, and one that sets a field of
    # another method's config only is an error, not a silent no-op
    cls = SECTIONS[section]
    flag = {
        attr: "--" + name.replace("_", "-") for config in SECTIONS.values() for attr, _, name in field_types(config)
    }
    given = {attr: getattr(args, attr) for attr in flag if getattr(args, attr, None) is not None}
    own = {f.name for f in dataclasses.fields(cls)}
    foreign = [attr for attr in given if attr not in own]
    if foreign:
        flags = ", ".join(flag[attr] for attr in foreign)
        raise ValueError(f"{flags}: no such setting for --method {args.method}")
    cfg = cls(**given)
    # a samples CSV says nothing about the field's boundary, so solve as free
    field, info = solve(samples, cfg, periodic=False)
    write_cvf1(args.out, field)
    if args.diagnostics is not None:
        diag = {"method": args.method, "n_sub": samples.positions.shape[0], **info}
        Path(args.diagnostics).write_text(json.dumps(diag, indent=2, sort_keys=True) + "\n")
    _emit({"out": str(args.out), "method": args.method, "iterations": info.get("iterations", 0)})
    return 0


def _cmd_eval(args) -> int:
    truth = read_cvf1(args.truth)
    recon = read_cvf1(args.recon)
    report = evaluate(truth, recon)
    _emit(dataclasses.asdict(report))
    return 0


def _cmd_bench(args) -> int:
    # the campaign name picks only the default spec; the spec, given or
    # default, says all else, and the campaign writes the whole out-dir
    spec = spec_from_json(args.spec.read_text()) if args.spec is not None else None
    runner = run_table1 if args.campaign == "table1" else run_table2
    rows = runner(spec, out_dir=args.out_dir, jobs=args.jobs, timings=args.timings)
    for (method, h, n_sub), cell in sorted(mean_table(rows).items()):
        print(
            f"{method:8s} h={h!r} n_sub={n_sub}: "
            f"rmse={cell['rmse']:.4e} snr={cell['snr_db']:.2f} dB ({cell['n']} runs)"
        )
    _emit({"out_dir": str(args.out_dir), "rows": len(rows)})
    return 0


def _cmd_profile(args) -> int:
    field = read_cvf1(args.field)
    _emit(compressibility_diagnostics(field))
    return 0


def _cmd_star(args) -> int:
    profile = RadialProfile(kind=args.profile, scale=args.scale, beta=args.beta)
    img = render_star(profile, args.e1, args.e2, args.size)
    q = brightness_moments(img)
    e_hat = ellipticity_from_moments(q, form=args.form)
    _emit(
        {
            "profile": args.profile,
            "e1_in": args.e1,
            "e2_in": args.e2,
            "e1_out": e_hat.real,
            "e2_out": e_hat.imag,
            "radius": float(psf_radius(q)),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvfbm",
        allow_abbrev=False,
        description="Synthesize, subsample, and reconstruct complex fractional Brownian fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", allow_abbrev=False, help="synthesize a field and write it as CVF1")
    p.add_argument("--h", type=float, required=True, help="Hurst exponent in (0, 1)")
    p.add_argument("--rows", type=int, default=100)
    p.add_argument("--cols", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--free-boundary",
        action="store_true",
        help="synthesize on a doubled grid and keep one quadrant (non-periodic field)",
    )
    p.add_argument("--target-rms", type=float, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sample", allow_abbrev=False, help="draw a uniform random subsample from a field")
    p.add_argument("--field", type=Path, required=True)
    p.add_argument("--n", type=int, default=None, help="number of samples")
    p.add_argument("--factor", type=int, default=None, help="keep 1/factor of the grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("recon", allow_abbrev=False, help="reconstruct a field from scattered samples")
    p.add_argument("--samples", type=Path, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--diagnostics", type=Path, default=None, help="write solver details as JSON")
    p.add_argument("--window", type=int, default=None, help="boxcar window side")
    p.add_argument("--range-adjust", choices=("affine", "none"), default=None)
    p.add_argument("--p", type=float, default=None, help="thin-plate smoothing weight in (0, 1]")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="TV weight")
    p.add_argument("--max-iters", type=int, default=None, help="iteration cap (default: the method's own)")
    p.set_defaults(func=_cmd_recon)

    p = sub.add_parser("eval", allow_abbrev=False, help="score a reconstruction against the truth field")
    p.add_argument("truth", type=Path)
    p.add_argument("recon", type=Path)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", allow_abbrev=False, help="run a benchmark campaign")
    p.add_argument("campaign", choices=("table1", "table2"))
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--spec", type=Path, default=None, help="JSON experiment spec")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--timings", action="store_true", help="fill the wall_time_s column (non-deterministic)"
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("profile", allow_abbrev=False, help="report spectral compressibility diagnostics")
    p.add_argument("--field", type=Path, required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("star", allow_abbrev=False, help="render an elliptical PSF and report recovered moments")
    p.add_argument("--profile", choices=("gaussian", "moffat"), default="gaussian")
    p.add_argument("--e1", type=float, default=0.0)
    p.add_argument("--e2", type=float, default=0.0)
    p.add_argument("--size", type=int, default=33)
    p.add_argument("--scale", type=float, default=3.0)
    p.add_argument("--beta", type=float, default=3.0)
    p.add_argument("--form", choices=("squared", "standard"), default="squared")
    p.set_defaults(func=_cmd_star)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
