"""Compressive-sampling solvers: TV functional, denoiser, BP, equality TV, TwIST."""

import numpy as np
import pytest

from cvfbm import (
    EqualitySolverConfig,
    MeasurementOperator,
    SampleSet,
    TwistConfig,
    bp_reconstruct,
    compressibility_diagnostics,
    dft2,
    idft2,
    mirror_extend_samples,
    random_mask,
    subsample,
    synthesize_cvfbm,
    take_quadrant,
    tv,
    tv_denoise,
    tv_equality_reconstruct,
    twist_reconstruct,
)
from cvfbm import cs as cs_module
from cvfbm.cs import AUTO_LAMBDA_FACTOR, _ALPHA, _BETA, _TV_STEP, _TV_TOL, _div, _grad
from cvfbm.harness import _cell_truth, _repeat_masks, table1_spec


def random_field(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestTv:
    def test_constant_field_zero(self):
        assert tv(np.full((5, 5), 2.0 - 1.0j)) == 0.0

    def test_two_cell_wraparound(self):
        z = 3.0 + 4.0j
        f = np.array([[0.0, z]])
        assert tv(f) == pytest.approx(2 * abs(z))

    def test_homogeneous_degree_one(self):
        f = random_field(6, 6, seed=1)
        c = 2.5 - 0.5j
        assert tv(c * f) == pytest.approx(abs(c) * tv(f), rel=1e-12)

    def test_channel_coupling_bounds(self):
        # isotropic complex TV never exceeds the per-channel sum and is at
        # least each channel alone
        f = random_field(8, 8, seed=2)
        joint = tv(f)
        split = tv(f.real.astype(complex)) + tv(f.imag.astype(complex))
        assert joint <= split + 1e-12
        assert joint >= tv(f.real.astype(complex)) - 1e-12


def rolled_grad(f):
    """Reference: periodic forward differences built with np.roll."""
    return np.stack([np.roll(f, -1, axis=0) - f, np.roll(f, -1, axis=1) - f])


def rolled_div(p):
    """Reference: negative adjoint of rolled_grad."""
    return (p[0] - np.roll(p[0], 1, axis=0)) + (p[1] - np.roll(p[1], 1, axis=1))


def rolled_tv(f):
    g = rolled_grad(f)
    return float(np.sum(np.sqrt(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2)))


def rolled_tv_denoise(f, weight, iters, return_gap=False):
    """Reference: the dual projection loop with fresh arrays every iteration."""
    p = np.zeros((2,) + f.shape, dtype=np.complex128)
    tau = 0.125
    for _ in range(iters):
        g = rolled_grad(rolled_div(p) - f / weight)
        mag = np.sqrt(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2)
        p = (p + tau * g) / (1.0 + tau * mag)
    u = f - weight * rolled_div(p)
    if not return_gap:
        return u
    primal = 0.5 * np.sum(np.abs(u - f) ** 2) + weight * rolled_tv(u)
    dual = -0.5 * np.sum(np.abs(weight * rolled_div(p)) ** 2) + weight * np.sum(
        (rolled_div(p) * np.conj(f)).real
    )
    return u, float((primal - dual) / max(abs(primal), 1e-30))


class PlainOperator:
    """Reference A and A^H of the partial-Fourier model, without MeasurementOperator.

    A is the unitary inverse DFT read at the sample positions; A^H is the
    unitary DFT of a zero image with the values scattered in.
    """

    def __init__(self, samples):
        self.shape = (samples.rows, samples.cols)
        self.rows, self.cols = samples.positions.T

    def forward(self, x):
        return idft2(x)[self.rows, self.cols]

    def adjoint(self, y):
        z = np.zeros(self.shape, dtype=np.complex128)
        z[self.rows, self.cols] = y
        return dft2(z)


def rolled_twist_reconstruct(samples, cfg, periodic=False):
    """Reference: the TwIST loop on the rolled TV code, recomputing y - A x at every use."""
    solved = samples if periodic else mirror_extend_samples(samples)
    op = PlainOperator(solved)
    y = solved.values
    lam = cfg.lam if cfg.lam is not None else AUTO_LAMBDA_FACTOR * float(np.abs(op.adjoint(y)).max())

    def gamma(x):
        return rolled_tv_denoise(x + op.adjoint(y - op.forward(x)), lam, cfg.tv_inner_iters)

    def objective(x):
        return 0.5 * float(np.sum(np.abs(y - op.forward(x)) ** 2)) + lam * rolled_tv(x)

    x_old = op.adjoint(y)
    x = gamma(x_old)
    objectives = [objective(x_old), objective(x)]
    if objectives[1] > objectives[0]:
        x = x_old
        objectives[1] = objectives[0]
    iterations = 1
    for it in range(cfg.max_iters - 1):
        g = gamma(x)
        x_new = (1.0 - _ALPHA) * x_old + (_ALPHA - _BETA) * x + _BETA * g
        f_new = objective(x_new)
        if f_new > objectives[-1]:
            x_new = g
            f_new = objective(x_new)
            if f_new > objectives[-1]:
                break
        change = abs(objectives[-1] - f_new) / max(objectives[-1], 1e-30)
        x_old, x = x, x_new
        objectives.append(f_new)
        iterations = it + 2
        if change < cfg.tol:
            break
    info = {
        "iterations": iterations,
        "objective_trace": objectives,
        "fixed_point_gap": float(np.linalg.norm(x - gamma(x)) / max(np.linalg.norm(x), 1e-30)),
        "data_residual": float(np.linalg.norm(op.forward(x) - y) / max(np.linalg.norm(y), 1e-30)),
    }
    return (idft2(x) if periodic else take_quadrant(idft2(x))), info


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 8), (200, 200)])
class TestSliceDifferencesBitIdentical:
    """The in-place TV code against the rolled reference, under array_equal.

    The dual rescale multiplies by the real reciprocal where the reference
    divides, so only the signs of exact zeros may differ; array_equal (and
    float ==) treats -0.0 and 0.0 as equal, and every value must match.
    """

    def test_grad_and_div(self, shape):
        f = random_field(*shape, seed=20)
        p = np.stack([random_field(*shape, seed=21), random_field(*shape, seed=22)])
        assert np.array_equal(_grad(f), rolled_grad(f))
        assert np.array_equal(_div(p), rolled_div(p))

    def test_tv(self, shape):
        f = random_field(*shape, seed=23)
        assert tv(f) == rolled_tv(f)

    def test_tv_denoise(self, shape):
        f = random_field(*shape, seed=24)
        assert np.array_equal(tv_denoise(f, 0.3, iters=12), rolled_tv_denoise(f, 0.3, 12))
        u, gap = tv_denoise(f, 0.3, iters=12, return_gap=True)
        u_ref, gap_ref = rolled_tv_denoise(f, 0.3, 12, return_gap=True)
        assert np.array_equal(u, u_ref)
        assert gap == gap_ref

    def test_fortran_ordered_input(self, shape):
        f = np.asfortranarray(random_field(*shape, seed=27))
        p = np.asfortranarray(np.stack([random_field(*shape, seed=28), random_field(*shape, seed=29)]))
        assert np.array_equal(_grad(f), rolled_grad(f))
        assert np.array_equal(_div(p), rolled_div(p))
        assert np.array_equal(_div(p, out=np.empty(shape, complex, order="F")), rolled_div(p))
        assert tv(f) == rolled_tv(f)
        u, gap = tv_denoise(f, 0.3, iters=12, return_gap=True)
        u_ref, gap_ref = rolled_tv_denoise(f, 0.3, 12, return_gap=True)
        assert np.array_equal(u, u_ref)
        assert gap == gap_ref
        assert np.array_equal(tv_denoise(f.T, 0.3, iters=12), rolled_tv_denoise(f.T, 0.3, 12))

    def test_exact_zero_inputs(self, shape):
        rows, cols = shape
        constant = np.full(shape, 1.5 - 0.5j)
        real = random_field(rows, cols, seed=25).real.astype(complex)
        holed = random_field(rows, cols, seed=26)
        holed[rows // 2, :] = 0.0
        holed[:, cols // 2] = 0.0
        for f in (constant, real, holed):
            p = np.stack([f, 1j * f])
            assert np.array_equal(_grad(f), rolled_grad(f))
            assert np.array_equal(_div(p), rolled_div(p))
            assert tv(f) == rolled_tv(f)
            u, gap = tv_denoise(f, 0.3, iters=12, return_gap=True)
            u_ref, gap_ref = rolled_tv_denoise(f, 0.3, 12, return_gap=True)
            assert np.array_equal(u, u_ref)
            assert gap == gap_ref


class TestTvDenoise:
    def test_tiny_weight_is_identity(self):
        f = random_field(8, 8, seed=3)
        out = tv_denoise(f, 1e-12, iters=50)
        assert np.max(np.abs(out - f)) < 1e-8

    def test_constant_input_unchanged(self):
        f = np.full((6, 6), 1.0 + 2.0j)
        out = tv_denoise(f, 0.7, iters=50)
        assert np.allclose(out, f, atol=1e-12)

    def test_objective_non_increasing_in_iterations(self):
        f = random_field(8, 8, seed=4)
        w = 0.5

        def objective(u):
            return 0.5 * np.sum(np.abs(u - f) ** 2) + w * tv(u)

        values = [objective(tv_denoise(f, w, iters=k)) for k in (1, 2, 5, 10, 20, 40, 80)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_duality_gap_shrinks(self):
        f = random_field(8, 8, seed=5)
        _, gap_early = tv_denoise(f, 0.5, iters=5, return_gap=True)
        _, gap_late = tv_denoise(f, 0.5, iters=200, return_gap=True)
        assert gap_early > gap_late >= 0.0
        assert gap_late < 1e-4

    def test_matches_randomized_descent_oracle(self):
        # no random perturbation descent (1e5 proposals) may improve the
        # solver's objective by more than 1%
        rng = np.random.default_rng(6)
        f = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        w = 0.5

        def objective(u):
            return 0.5 * np.sum(np.abs(u - f) ** 2) + w * tv(u)

        solved = tv_denoise(f, w, iters=500)
        best = objective(solved)

        u, cur, step = f.copy(), objective(f), 0.5
        for k in range(100_000):
            if k % 20_000 == 19_999:
                step *= 0.4
                if cur > best:
                    # restart the descent from the solver's answer
                    u, cur = solved.copy(), best
            prop = u + step * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
            o = objective(prop)
            if o < cur:
                u, cur = prop, o
        assert best <= cur * 1.01

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            tv_denoise(random_field(4, 4), 0.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_weight_must_be_finite(self, weight):
        with pytest.raises(ValueError, match="weight must be positive and finite"):
            tv_denoise(random_field(4, 4), weight)

    @pytest.mark.parametrize("iters", [0, -3])
    def test_iters_must_be_at_least_one(self, iters):
        with pytest.raises(ValueError, match="iters must be at least 1"):
            tv_denoise(random_field(4, 4), 1.0, iters=iters)


class TestSolverConfigsRejectNonFinite:
    # a non-finite weight or tolerance would otherwise surface mid-solve, as
    # a NaN field or a run to the iteration cap
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field, named", [("lam", "lambda")])
    def test_twist(self, field, named, value):
        with pytest.raises(ValueError, match=f"{named} must be"):
            TwistConfig(**{field: value})


class TestBasisPursuit:
    def test_full_sampling_reproduces_field(self):
        f = random_field(8, 8, seed=7)
        s = subsample(f, random_mask(8, 8, 64, seed=0))
        out, info = bp_reconstruct(s)
        assert np.max(np.abs(out - f)) < 1e-8
        assert info["constraint_residual"] < 1e-8

    def test_exact_recovery_of_sparse_spectra(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = np.zeros((16, 16), dtype=complex)
            idx = rng.choice(256, size=3, replace=False)
            spec.ravel()[idx] = rng.normal(size=3) + 1j * rng.normal(size=3)
            f = idft2(spec)
            s = subsample(f, random_mask(16, 16, 64, seed=seed + 100))
            out, _ = bp_reconstruct(s)
            if np.linalg.norm(out - f) / np.linalg.norm(f) < 1e-6:
                hits += 1
        assert hits >= 9

    def test_l1_no_worse_than_zero_fill(self):
        f = synthesize_cvfbm(0.7, 16, 16, 8)
        mask = random_mask(16, 16, 100, seed=1)
        s = subsample(f, mask)
        out, info = bp_reconstruct(s)
        zero_fill = np.zeros_like(f)
        zero_fill[mask[:, 0], mask[:, 1]] = s.values
        assert info["objective"] <= np.sum(np.abs(dft2(zero_fill))) + 1e-9

    def test_converged_when_tolerance_met(self):
        # acceptance 4's 3-sparse 16x16 setup meets the tolerances well
        # before the iteration cap
        rng = np.random.default_rng(0)
        spectrum = np.zeros(256, dtype=complex)
        support = rng.choice(256, size=3, replace=False)
        spectrum[support] = rng.normal(size=3) + 1j * rng.normal(size=3)
        truth = idft2(spectrum.reshape(16, 16))
        cfg = EqualitySolverConfig()
        _, info = bp_reconstruct(subsample(truth, random_mask(16, 16, 64, seed=1000)), cfg)
        assert info["converged"] is True
        assert info["iterations"] < cfg.max_iters

    def test_not_converged_at_cap(self):
        f = random_field(16, 16, seed=40)
        cfg = EqualitySolverConfig(max_iters=3)
        _, info = bp_reconstruct(subsample(f, random_mask(16, 16, 64, seed=41)), cfg)
        assert info["converged"] is False
        assert info["iterations"] == cfg.max_iters

    def test_empty_samples_rejected(self):
        from cvfbm import SampleSet

        s = SampleSet(4, 4, np.zeros((0, 2), dtype=np.int64), np.zeros(0, complex))
        with pytest.raises(ValueError):
            bp_reconstruct(s)


def test_non_contiguous_difference_buffer_refused():
    f = random_field(5, 8, seed=30)
    p = np.stack([f, random_field(5, 8, seed=31)])
    with pytest.raises(ValueError, match="C-contiguous"):
        _div(p, work=np.empty((5, 8), complex, order="F"))
    with pytest.raises(ValueError, match="C-contiguous"):
        _grad(f, out=np.empty((2, 5, 8), complex, order="F"))


def rolled_tv_equality_reconstruct(samples, cfg):
    """Reference: the equality-TV loop on the rolled TV code, clipping by division."""
    op = PlainOperator(samples)
    y = samples.values
    y_norm = max(np.linalg.norm(y), 1e-30)
    e = op.adjoint(y)
    e_bar = e.copy()
    p = np.zeros((2,) + e.shape, dtype=np.complex128)
    q = np.zeros(len(y), dtype=np.complex128)
    iterations = cfg.max_iters
    converged = False
    for it in range(cfg.max_iters):
        p = p + _TV_STEP * rolled_grad(e_bar)
        mag = np.sqrt(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2)
        p = p / np.maximum(1.0, mag)
        q = q + _TV_STEP * (op.forward(e_bar) - y)
        e_new = e - _TV_STEP * (-rolled_div(p) + op.adjoint(q))
        e_bar = 2.0 * e_new - e
        step = np.linalg.norm(e_new - e)
        e = e_new
        if it % 25 == 24:
            primal = np.linalg.norm(op.forward(e) - y) / y_norm
            if primal <= _TV_TOL and step <= _TV_TOL * max(np.linalg.norm(e), 1e-30):
                iterations = it + 1
                converged = True
                break
    e = e - op.adjoint(op.forward(e) - y)
    residual = np.linalg.norm(op.forward(e) - y) / y_norm
    info = {
        "iterations": iterations,
        "converged": converged,
        "objective": rolled_tv(e),
        "constraint_residual": float(residual),
    }
    return idft2(e), info


class TestTvEqualityBitIdentical:
    """The reciprocal-multiply clip against p / max(1, |p|), under array_equal."""

    @pytest.mark.parametrize("size, n, iters", [(16, 120, 60), (32, 300, 80)])
    def test_matches_reference_loop(self, size, n, iters):
        f = synthesize_cvfbm(0.6, size, size, 12)
        s = subsample(f, random_mask(size, size, n, seed=5))
        cfg = EqualitySolverConfig(max_iters=iters)
        out, info = tv_equality_reconstruct(s, cfg)
        out_ref, info_ref = rolled_tv_equality_reconstruct(s, cfg)
        assert np.array_equal(out, out_ref)
        assert info == info_ref

    def test_non_square_grid_stopping_between_checks(self):
        # 37 iterations end between two 25-iteration checks
        f = synthesize_cvfbm(0.6, 24, 40, 12)
        s = subsample(f, random_mask(24, 40, 300, seed=5))
        cfg = EqualitySolverConfig(max_iters=37)
        out, info = tv_equality_reconstruct(s, cfg)
        out_ref, info_ref = rolled_tv_equality_reconstruct(s, cfg)
        assert np.array_equal(out, out_ref)
        assert info == info_ref

    def test_converged_early_exit(self):
        f = random_field(8, 8, seed=10)
        s = subsample(f, random_mask(8, 8, 64, seed=3))
        cfg = EqualitySolverConfig()  # full sampling converges at 350 of 600
        out, info = tv_equality_reconstruct(s, cfg)
        out_ref, info_ref = rolled_tv_equality_reconstruct(s, cfg)
        assert info["converged"] is True
        assert info["iterations"] < cfg.max_iters
        assert np.array_equal(out, out_ref)
        assert info == info_ref

    def test_default_table1_cell(self):
        # h = 0.8, subsampling factor 2, repeat 0
        spec = table1_spec()
        truth, _ = _cell_truth(spec, "paired", spec.hurst_values.index(0.8), 0)
        samples = subsample(truth, _repeat_masks(spec, 0)[spec.subsampling_factors.index(2)])
        out, info = tv_equality_reconstruct(samples, spec.equality)
        out_ref, info_ref = rolled_tv_equality_reconstruct(samples, spec.equality)
        assert np.array_equal(out, out_ref)
        assert info == info_ref

    def test_clip_step_on_random_duals(self):
        rng = np.random.default_rng(13)
        p = rng.standard_normal((2, 40, 40)) + 1j * rng.standard_normal((2, 40, 40))
        p[:, :5] *= 1e-3  # inside the unit ball: max(1, |p|) = 1
        p[:, 5:7] = 0.0
        mag = np.sqrt(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2)
        ref = p / np.maximum(1.0, mag)
        np.maximum(1.0, mag, out=mag)
        np.divide(1.0, mag, out=mag)
        assert np.array_equal(p * mag, ref)


class TestTvEquality:
    def test_default_table1_cell_not_converged(self):
        # the default table1 cell (h=0.8, half sampling, repeat 0) runs to
        # the iteration cap, and the info says so
        spec = table1_spec()
        truth, _ = _cell_truth(spec, "paired", spec.hurst_values.index(0.8), 0)
        samples = subsample(truth, _repeat_masks(spec, 0)[0])
        _, info = tv_equality_reconstruct(samples, spec.equality)
        assert info["iterations"] == spec.equality.max_iters
        assert info["converged"] is False

    def test_full_sampling_reproduces_field(self):
        f = random_field(8, 8, seed=10)
        s = subsample(f, random_mask(8, 8, 64, seed=3))
        out, info = tv_equality_reconstruct(s, EqualitySolverConfig(max_iters=50))
        assert np.max(np.abs(out - f)) < 1e-10
        assert info["constraint_residual"] < 1e-10

    def test_samples_reproduced_exactly(self):
        f = synthesize_cvfbm(0.6, 32, 32, 11)
        mask = random_mask(32, 32, 300, seed=4)
        s = subsample(f, mask)
        out, info = tv_equality_reconstruct(s, EqualitySolverConfig(max_iters=200))
        assert np.max(np.abs(out[mask[:, 0], mask[:, 1]] - s.values)) < 1e-10

    def test_tv_no_worse_than_zero_fill(self):
        f = synthesize_cvfbm(0.7, 16, 16, 12)
        mask = random_mask(16, 16, 120, seed=5)
        s = subsample(f, mask)
        out, info = tv_equality_reconstruct(s, EqualitySolverConfig(max_iters=400))
        zero_fill = np.zeros_like(f)
        zero_fill[mask[:, 0], mask[:, 1]] = s.values
        assert info["objective"] <= tv(dft2(zero_fill)) + 1e-9

    def test_improves_with_more_samples(self):
        f = synthesize_cvfbm(0.8, 32, 32, 13)
        cfg = EqualitySolverConfig(max_iters=300)
        errs = []
        for n in (128, 512):
            s = subsample(f, random_mask(32, 32, n, seed=6))
            out, _ = tv_equality_reconstruct(s, cfg)
            errs.append(np.linalg.norm(out - f))
        assert errs[1] < errs[0]


@pytest.mark.parametrize(
    "solve",
    [
        lambda s: tv_equality_reconstruct(s),
        # stops before the first 25-iteration check
        lambda s: tv_equality_reconstruct(s, EqualitySolverConfig(max_iters=10)),
        lambda s: bp_reconstruct(s),
        lambda s: twist_reconstruct(s, periodic=True),
    ],
    ids=["cs-tv", "cs-tv-10-iters", "cs-bp", "cs-twist-periodic"],
)
def test_overflowing_samples_raise(solve):
    # finite samples whose spectrum overflows: the solve fails with a
    # ValueError, not an Inf/NaN field
    s = SampleSet(16, 16, random_mask(16, 16, 100, seed=21), np.full(100, 1e307 * (1 + 1j)))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="field contains NaN or Inf"):
        solve(s)


class TestTwist:
    def test_full_sampling_small_lambda_identity(self):
        f = random_field(10, 10, seed=14)
        s = subsample(f, random_mask(10, 10, 100, seed=7))
        out, _ = twist_reconstruct(s, TwistConfig(lam=1e-10, max_iters=50))
        assert np.max(np.abs(out - f)) < 1e-6

    def test_monotone_objective_on_randomized_runs(self):
        for seed in range(100):
            f = synthesize_cvfbm(0.5 + 0.3 * (seed % 2), 16, 16, seed)
            s = subsample(f, random_mask(16, 16, 60, seed=seed))
            _, info = twist_reconstruct(
                s, TwistConfig(max_iters=25, tv_inner_iters=5, tol=1e-9)
            )
            trace = info["objective_trace"]
            assert all(
                a >= b - 1e-10 * max(abs(a), 1.0) for a, b in zip(trace, trace[1:])
            ), f"objective climbed on seed {seed}"

    def test_fixed_point_certified_at_convergence(self):
        # a tight inner prox lets the solver certify convergence: the
        # objective plateaus and the iterate is a fixed point of the
        # shrinkage map within ten times the tolerance
        f = synthesize_cvfbm(0.8, 24, 24, 15)
        s = subsample(f, random_mask(24, 24, 240, seed=8))
        cfg = TwistConfig(tol=1e-5, max_iters=2000, tv_inner_iters=60)
        _, info = twist_reconstruct(s, cfg)
        assert info["converged"]
        assert info["fixed_point_gap"] < 10 * cfg.tol

    @pytest.mark.parametrize("max_iters", [1, 3])
    def test_capped_solve_reports_the_cap(self, max_iters):
        # the first shrinkage step counts as iteration 1 and spends one unit
        # of the budget, so a solve stopped by the cap reports max_iters
        f = synthesize_cvfbm(0.8, 32, 32, 27)
        s = subsample(f, random_mask(32, 32, 300, seed=12))
        cfg = TwistConfig(lam=0.1, tol=0.01, max_iters=max_iters)
        _, info = twist_reconstruct(s, cfg)
        assert info["iterations"] == cfg.max_iters
        assert len(info["objective_trace"]) == info["iterations"] + 1
        assert info["converged"] is False

    def test_auto_lambda_reported(self):
        f = synthesize_cvfbm(0.7, 16, 16, 16)
        s = subsample(f, random_mask(16, 16, 64, seed=9))
        _, info = twist_reconstruct(s, TwistConfig(max_iters=10))
        assert info["lambda"] > 0

    def test_deterministic(self):
        f = synthesize_cvfbm(0.6, 16, 16, 17)
        s = subsample(f, random_mask(16, 16, 80, seed=10))
        a, _ = twist_reconstruct(s, TwistConfig(max_iters=40))
        b, _ = twist_reconstruct(s, TwistConfig(max_iters=40))
        assert np.array_equal(a, b)


class TestTwistBitIdentical:
    """twist_reconstruct against the reference loop: same field, same trace."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize(
        "size, n, cfg",
        [
            (32, 300, TwistConfig(max_iters=60)),
            (32, 300, TwistConfig(max_iters=60, lam=0.01)),  # an explicit weight, stopping early
            (100, 1000, TwistConfig(max_iters=12)),
        ],
    )
    def test_matches_reference_loop(self, size, n, cfg, periodic):
        f = synthesize_cvfbm(0.8, size, size, 27)
        s = subsample(f, random_mask(size, size, n, seed=12))
        out, info = twist_reconstruct(s, cfg, periodic=periodic)
        out_ref, info_ref = rolled_twist_reconstruct(s, cfg, periodic=periodic)
        assert np.array_equal(out, out_ref)
        for key in ("iterations", "objective_trace", "fixed_point_gap", "data_residual"):
            assert info[key] == info_ref[key], key

    @pytest.mark.parametrize("periodic", [True, False])
    def test_one_forward_per_evaluated_iterate(self, monkeypatch, periodic):
        # every iterate whose objective is taken gets exactly one y - A x, on
        # the native and the mirrored grid; a rejected two-step update is a
        # second such iterate (both solves below reject some)
        counts = {"forward": 0, "tv": 0}
        forward, tv_orig = MeasurementOperator.forward, cs_module.tv

        def counted_forward(self, x):
            counts["forward"] += 1
            return forward(self, x)

        def counted_tv(x):
            counts["tv"] += 1
            return tv_orig(x)

        monkeypatch.setattr(MeasurementOperator, "forward", counted_forward)
        monkeypatch.setattr(cs_module, "tv", counted_tv)
        f = synthesize_cvfbm(0.8, 32, 32, 28)
        s = subsample(f, random_mask(32, 32, 300, seed=13))
        _, info = twist_reconstruct(s, TwistConfig(max_iters=60), periodic=periodic)
        assert counts["forward"] == counts["tv"] > info["iterations"] + 2

    def test_monotone_break_reuses_last_prox(self, monkeypatch):
        # the loop takes one prox per pass plus one at the start; a solve
        # that ends on the monotone break already holds the prox of its final
        # iterate, so the fixed-point gap costs no further tv_denoise
        calls = {"tv_denoise": 0}
        tv_denoise_orig = cs_module.tv_denoise

        def counted_tv_denoise(*args, **kwargs):
            calls["tv_denoise"] += 1
            return tv_denoise_orig(*args, **kwargs)

        monkeypatch.setattr(cs_module, "tv_denoise", counted_tv_denoise)
        cfg = TwistConfig(max_iters=500)
        f = synthesize_cvfbm(0.8, 32, 32, 23)
        s = subsample(f, random_mask(32, 32, 300, seed=23))
        out, info = twist_reconstruct(s, cfg)
        trace = info["objective_trace"]
        last_change = abs(trace[-2] - trace[-1]) / trace[-2]
        # neither the cap nor the tolerance ended this solve: the guard did
        assert info["iterations"] < cfg.max_iters
        assert last_change >= cfg.tol
        assert calls["tv_denoise"] == info["iterations"] + 1
        out_ref, info_ref = rolled_twist_reconstruct(s, cfg)
        assert np.array_equal(out, out_ref)
        assert info["fixed_point_gap"] == info_ref["fixed_point_gap"]


class TestTwistNativeGrid:
    """periodic=True solves on the samples' own grid, with no mirroring."""

    def test_no_mirror_and_native_shape(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the native path mirrored its samples")

        monkeypatch.setattr(cs_module, "mirror_extend_samples", refuse)
        monkeypatch.setattr(cs_module, "take_quadrant", refuse)
        f = synthesize_cvfbm(0.8, 24, 40, 29)
        s = subsample(f, random_mask(24, 40, 300, seed=14))
        out, info = twist_reconstruct(s, TwistConfig(max_iters=20), periodic=True)
        assert out.shape == (24, 40)
        assert np.isfinite(out).all()
        assert info["iterations"] >= 1

    def test_full_sampling_small_lambda_identity(self):
        rng = np.random.default_rng(123)
        truth = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        full = np.argwhere(np.ones((12, 12), dtype=bool))
        recon, _ = twist_reconstruct(
            subsample(truth, full), TwistConfig(lam=1e-10, max_iters=60), periodic=True
        )
        rel = np.linalg.norm(recon - truth) / np.linalg.norm(truth)
        assert rel < 1e-6


class TestCompressibility:
    def test_sparse_spectrum_has_zero_tail(self):
        spec = np.zeros((16, 16), dtype=complex)
        spec[0, 1] = 1.0
        spec[3, 2] = 0.5j
        f = idft2(spec)
        report = compressibility_diagnostics(f)
        assert report["best_k_relative_error"][0.25] == pytest.approx(0.0, abs=1e-12)

    def test_tail_error_non_increasing_in_k(self):
        f = synthesize_cvfbm(0.5, 32, 32, 19)
        errs = compressibility_diagnostics(f)["best_k_relative_error"]
        ordered = [errs[k] for k in (0.01, 0.05, 0.10, 0.25)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    def test_decay_exponent_grows_with_hurst(self):
        q_low = np.mean(
            [compressibility_diagnostics(synthesize_cvfbm(0.2, 64, 64, s))["q"] for s in range(10)]
        )
        q_high = np.mean(
            [compressibility_diagnostics(synthesize_cvfbm(0.8, 64, 64, s))["q"] for s in range(10)]
        )
        assert q_high > q_low

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            compressibility_diagnostics(np.zeros((8, 8), dtype=complex))
