"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line with the measured numbers. The default campaigns come from the
session fixtures in conftest.py."""

import time

import numpy as np

from cvfbm import (
    EqualitySolverConfig,
    ExperimentSpec,
    MeasurementOperator,
    MomentTensor,
    RadialProfile,
    SampleSet,
    TwistConfig,
    bp_reconstruct,
    brightness_moments,
    ellipticity_from_moments,
    idft2,
    mean_table,
    psf_radius,
    radial_spectrum_slope,
    random_mask,
    render_star,
    run_table2,
    shear_coords,
    subsample,
    synthesize_cvfbm,
    thin_plate_coefficients,
    thin_plate_reconstruct,
    twist_reconstruct,
    write_mean_csv,
    write_results_csv,
)
from cvfbm.baselines import ThinPlateConfig


def grade(num, name, checks, elapsed, budget):
    """Assert every (ok, detail) check and print one summary line."""
    failed = [detail for ok, detail in checks if not ok]
    if elapsed > budget:
        failed.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s")
    status = "PASS" if not failed else "FAIL"
    print(f"{status} acceptance {num} ({name}): "
          + (f"{len(checks)} checks in {elapsed:.1f}s" if not failed else "; ".join(failed)))
    assert not failed, f"acceptance {num} ({name}): " + "; ".join(failed)


def test_01_spectral_slope():
    t0 = time.perf_counter()
    checks = []
    for h in (0.2, 0.5, 0.8):
        slopes = [
            radial_spectrum_slope(synthesize_cvfbm(h, 64, 64, seed)) for seed in range(20)
        ]
        mean = float(np.mean(slopes))
        target = -(2.0 * h + 1.0)
        checks.append(
            (abs(mean - target) <= 0.3, f"h={h}: mean slope {mean:.3f}, want {target}+-0.3")
        )
    grade(1, "spectral slope", checks, time.perf_counter() - t0, 10.0)


def test_02_paired_campaign_structure(paired_campaign):
    rows, elapsed = paired_campaign
    means = mean_table(rows)
    snr = lambda h, n: means[("cs-tv", h, n)]["snr_db"]
    half, quarter = 2048, 1024
    checks = []
    for n in (half, quarter):
        s = [snr(h, n) for h in (0.4, 0.6, 0.8)]
        checks.append(
            (s[0] < s[1] < s[2], f"snr not increasing in h at n={n}: {np.round(s, 2)}")
        )
    for h in (0.4, 0.6, 0.8):
        checks.append(
            (
                snr(h, half) > snr(h, quarter),
                f"half-sampling snr {snr(h, half):.2f} <= quarter {snr(h, quarter):.2f} at h={h}",
            )
        )
    cell = snr(0.8, half)
    checks.append(
        (16.2 - 3.0 <= cell <= 16.2 + 3.0, f"(h=0.8, half) snr {cell:.2f} dB outside 16.2+-3")
    )
    grade(2, "half/quarter sampling table", checks, elapsed, 900.0)


def test_03_method_comparison_orderings(comparison_campaign):
    rows, elapsed = comparison_campaign
    means = mean_table(rows)
    rmse = lambda m, h, n: means[(m, h, n)]["rmse"]
    counts = (500, 1000, 2000)
    checks = []
    for h in (0.9, 0.8, 0.7, 0.6):
        for n in counts:
            cs, tp = rmse("cs-twist", h, n), rmse("tp", h, n)
            checks.append((cs < tp, f"cs {cs:.3e} >= tp {tp:.3e} at h={h} n={n}"))
    for h in (0.4, 0.5):
        cs, tp = rmse("cs-twist", h, 2000), rmse("tp", h, 2000)
        checks.append((cs <= tp, f"cs {cs:.3e} > tp {tp:.3e} at h={h} n=2000"))
    for h in (0.7, 0.8, 0.9):
        for n in (1000, 2000):
            box = rmse("box", h, n)
            others = max(rmse("tp", h, n), rmse("cs-twist", h, n))
            checks.append((box > others, f"box {box:.3e} not worst at h={h} n={n}"))
    cell = rmse("cs-twist", 0.8, 2000)
    lo, hi = 4.24e-3 * 0.5, 4.24e-3 * 1.5
    checks.append((lo <= cell <= hi, f"cs cell (h=0.8, n=2000) rmse {cell:.3e} outside [{lo:.2e}, {hi:.2e}]"))
    grade(3, "method comparison table", checks, elapsed, 1800.0)


def test_04_exact_sparse_recovery():
    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        spectrum = np.zeros(256, dtype=complex)
        support = rng.choice(256, size=3, replace=False)
        spectrum[support] = rng.normal(size=3) + 1j * rng.normal(size=3)
        truth = idft2(spectrum.reshape(16, 16))
        mask = random_mask(16, 16, 64, seed=1000 + seed)
        recon, _ = bp_reconstruct(subsample(truth, mask))
        rel = np.linalg.norm(recon - truth) / np.linalg.norm(truth)
        worst = max(worst, rel)
        hits += rel < 1e-6
    grade(
        4,
        "exact sparse recovery",
        [(hits >= 9, f"only {hits}/10 seeds recovered (worst rel err {worst:.2e})")],
        time.perf_counter() - t0,
        60.0,
    )


def test_05_thin_plate_correctness():
    t0 = time.perf_counter()
    checks = []
    rng = np.random.default_rng(42)
    pos = random_mask(20, 20, 30, seed=7)
    values = rng.normal(size=30) + 1j * rng.normal(size=30)
    samples = SampleSet(20, 20, pos, values)

    interp = thin_plate_reconstruct(samples, ThinPlateConfig(p=1.0))
    resid = np.max(np.abs(interp[pos[:, 0], pos[:, 1]] - values))
    checks.append((resid < 1e-8, f"interpolation residual {resid:.2e} at p=1"))

    rr, cc = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
    affine = (0.3 - 0.1j) * rr + (0.05 + 0.2j) * cc + (1.0 - 2.0j)
    aff_samples = subsample(affine, random_mask(20, 20, 40, seed=8))
    for p in (1.0, 0.7, 0.3, 0.05):
        err = np.max(np.abs(thin_plate_reconstruct(aff_samples, ThinPlateConfig(p=p)) - affine))
        checks.append((err < 1e-8, f"affine field error {err:.2e} at p={p}"))

    c, _, _ = thin_plate_coefficients(samples, ThinPlateConfig(p=0.5))
    scale = max(np.abs(c).sum() * 20.0, 1.0)
    for moment, label in (
        (np.sum(c), "sum"),
        (np.sum(c * pos[:, 0]), "row moment"),
        (np.sum(c * pos[:, 1]), "col moment"),
    ):
        checks.append(
            (abs(moment) < 1e-8 * scale, f"side condition {label} = {abs(moment):.2e}")
        )
    grade(5, "thin-plate spline", checks, time.perf_counter() - t0, 10.0)


def test_06_shrinkage_solver_sanity():
    t0 = time.perf_counter()
    checks = []

    violations = 0
    for run in range(100):
        rng = np.random.default_rng(run)
        truth = idft2(
            (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
            / (1.0 + np.arange(256).reshape(16, 16))
        )
        mask = random_mask(16, 16, 60, seed=run)
        _, info = twist_reconstruct(
            subsample(truth, mask), TwistConfig(max_iters=25, tv_inner_iters=5)
        )
        trace = np.asarray(info["objective_trace"])
        if not np.all(np.diff(trace) <= 1e-10 * max(1.0, trace[0])):
            violations += 1
    checks.append((violations == 0, f"{violations}/100 runs had an increasing objective"))

    rng = np.random.default_rng(123)
    truth = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    full = np.argwhere(np.ones((12, 12), dtype=bool))
    recon, _ = twist_reconstruct(
        subsample(truth, full), TwistConfig(lam=1e-10, max_iters=60)
    )
    rel = np.linalg.norm(recon - truth) / np.linalg.norm(truth)
    checks.append((rel < 1e-6, f"full-sampling identity error {rel:.2e}"))

    for mode in ("selection", "partial_fourier"):
        op = MeasurementOperator(12, 12, random_mask(12, 12, 40, seed=5), mode=mode)
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(200 + trial)
            x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            y = rng.normal(size=40) + 1j * rng.normal(size=40)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            lhs = np.vdot(y, op.forward(x))
            rhs = np.vdot(op.adjoint(y), x)
            worst = max(worst, abs(lhs - rhs))
        checks.append((worst < 1e-10, f"adjoint mismatch {worst:.2e} in {mode} mode"))

    grade(6, "shrinkage solver sanity", checks, time.perf_counter() - t0, 120.0)


def test_07_psf_math():
    t0 = time.perf_counter()
    checks = []

    checks.append(
        (shear_coords(0.1, 0.0, 1.0, 1.0) == (0.9, 1.1), "shear of (1,1) under e=(0.1,0)")
    )
    checks.append(
        (shear_coords(0.0, 0.2, 1.0, 0.0) == (1.0, -0.2), "shear of (1,0) under e=(0,0.2)")
    )

    dumbbell = np.zeros((3, 3))
    dumbbell[1, 0] = dumbbell[1, 2] = 1.0
    q = brightness_moments(dumbbell)
    checks.append(
        (q.q11 == 1.0 and q.q22 == 0.0 and q.q12 == 0.0, "two-pixel dumbbell moments")
    )

    q = MomentTensor(q11=2.0, q12=0.0, q22=1.0)
    e_sq = ellipticity_from_moments(q, form="squared")
    e_st = ellipticity_from_moments(q, form="standard")
    checks.append(
        (e_sq == (4.0 - 1.0) / (4.0 + 1.0 + 2.0 * np.sqrt(2.0)), "squared-form value at q=(2,1,0)")
    )
    checks.append(
        (e_st == 1.0 / (3.0 + 2.0 * np.sqrt(2.0)), "standard-form value at q=(2,1,0)")
    )
    circ = ellipticity_from_moments(MomentTensor(q11=1.5, q12=0.0, q22=1.5), form="squared")
    checks.append((circ == 0.0, "circular source has zero ellipticity"))
    checks.append(
        (psf_radius(MomentTensor(q11=2.0, q12=0.0, q22=2.0)) == 2.0, "radius of q=(2,2,0)")
    )
    checks.append(
        (psf_radius(MomentTensor(q11=1.0, q12=0.5, q22=3.0)) == 2.0, "radius ignores q12")
    )

    profile = RadialProfile(kind="gaussian", scale=3.0)
    worst = 0.0
    for e1, e2 in [
        (0.0, 0.0), (0.3, 0.0), (-0.3, 0.0), (0.0, 0.3), (0.0, -0.3),
        (0.15, 0.15), (-0.15, 0.15), (0.15, -0.15), (-0.15, -0.15),
        (0.2, -0.1), (-0.25, 0.1), (0.21, 0.21),
    ]:
        img = render_star(profile, e1, e2, 33)
        e_hat = ellipticity_from_moments(brightness_moments(img), form="standard")
        worst = max(worst, abs(e_hat.real - e1), abs(e_hat.imag - e2))
    checks.append((worst < 0.005, f"round-trip component error {worst:.2e}"))

    grade(7, "psf moments and shapes", checks, time.perf_counter() - t0, 30.0)


def test_08_campaign_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        grid=(16, 16),
        hurst_values=(0.5, 0.8),
        sample_counts=(64,),
        methods=("box", "tp", "cs-tv"),
        repeats=2,
        base_seed=3,
        equality=EqualitySolverConfig(max_iters=120),
    )
    outputs = {}
    for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
        d = tmp_path / tag
        d.mkdir()
        rows = run_table2(spec, out_dir=d, jobs=jobs)
        write_results_csv(d / "results.csv", rows)
        write_mean_csv(d / "mean_rmse.csv", rows, value="rmse")
        write_mean_csv(d / "mean_snr_db.csv", rows, value="snr_db")
        outputs[tag] = {
            name: (d / name).read_bytes()
            for name in ("results.csv", "mean_rmse.csv", "mean_snr_db.csv", "manifest.json")
        }
    checks = [
        (outputs["a"] == outputs["b"], "serial rerun produced different bytes"),
        (outputs["a"] == outputs["c"], "parallel run produced different bytes"),
    ]
    grade(8, "campaign determinism", checks, time.perf_counter() - t0, 120.0)
