import json
import pickle
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from cvfbm import (
    BoxcarConfig,
    EqualitySolverConfig,
    ExperimentSpec,
    ResultRow,
    SynthesisOptions,
    ThinPlateConfig,
    TwistConfig,
    derive_seed,
    mean_table,
    random_mask,
    rmse,
    run_table1,
    run_table2,
    snr_db,
    spec_from_json,
    spec_to_json,
    subsample,
    table1_spec,
    table2_spec,
    twist_reconstruct,
    write_mean_csv,
    write_pgm,
    write_results_csv,
)
from cvfbm import harness as harness_module
from cvfbm.cs import tv_denoise
from cvfbm.harness import (
    _ArtifactStore,
    _audit_rows,
    _cell_truth,
    _repeat_masks,
    _run_cells,
)


def tiny_spec(**overrides):
    base = dict(
        grid=(12, 12),
        hurst_values=(0.5, 0.8),
        sample_counts=(30,),
        methods=("box", "tp"),
        repeats=2,
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a stub that runs each task here and
    starts no process; returns (max_workers of each pool, task arguments)."""
    workers, tasks = [], []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            args = list(zip(*iterables))
            tasks.extend(args)
            return [fn(*a) for a in args]

    monkeypatch.setattr(harness_module, "ProcessPoolExecutor", InlinePool)
    return workers, tasks


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)

    def test_key_sensitivity(self):
        seeds = {
            derive_seed(0),
            derive_seed(0, 1),
            derive_seed(0, 2),
            derive_seed(0, 1, 0),
            derive_seed(0, 1, 1),
            derive_seed(0, 0, 1),
            derive_seed(1, 1, 0),
        }
        assert len(seeds) == 7

    def test_range(self):
        s = derive_seed(12345, 6, 7)
        assert 0 <= s < 2**64


class TestSpecValidation:
    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid"):
            tiny_spec(grid=(1, 12))

    def test_empty_hurst(self):
        with pytest.raises(ValueError, match="hurst"):
            tiny_spec(hurst_values=())

    def test_empty_methods(self):
        with pytest.raises(ValueError, match="methods"):
            tiny_spec(methods=())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="kriging"):
            tiny_spec(methods=("kriging",))

    def test_repeats_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            tiny_spec(repeats=0)

    def test_counts_and_factors_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            tiny_spec(subsampling_factors=(2,))
        with pytest.raises(ValueError, match="exactly one"):
            tiny_spec(sample_counts=None)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            tiny_spec(sample_counts=())
        with pytest.raises(ValueError, match="nonempty"):
            tiny_spec(sample_counts=None, subsampling_factors=())

    @pytest.mark.parametrize("factors", [(0,), (2, 0), (-1,)])
    def test_factor_below_one_rejected(self, factors):
        with pytest.raises(ValueError, match="at least 1"):
            tiny_spec(sample_counts=None, subsampling_factors=factors)

    def test_target_rms_positive(self):
        with pytest.raises(ValueError, match="target_rms"):
            tiny_spec(target_rms=0.0)

    @pytest.mark.parametrize("target_rms", [float("nan"), float("inf"), -float("inf")])
    def test_target_rms_finite(self, target_rms):
        with pytest.raises(ValueError, match="target_rms must be positive and finite"):
            tiny_spec(target_rms=target_rms)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"hurst_values": (0.5, 0.8, 0.5)}, "hurst_values must not repeat"),
            ({"methods": ("box", "box")}, "methods must not repeat"),
            ({"sample_counts": (40, 40)}, "sample_counts must give distinct"),
            ({"sample_counts": None, "subsampling_factors": (2, 2)}, "subsampling_factors must give distinct"),
            # two factors, one count: 144 // 49 == 144 // 50 == 2
            ({"sample_counts": None, "subsampling_factors": (49, 50)}, "subsampling_factors must give distinct"),
        ],
    )
    def test_duplicates_rejected(self, overrides, named):
        # a repeated value would emit each of its rows twice
        with pytest.raises(ValueError, match=named):
            tiny_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"sample_counts": (0,)}, "sample_counts"),
            ({"sample_counts": (30, 145)}, "sample_counts"),
            ({"sample_counts": None, "subsampling_factors": (145,)}, "subsampling_factors"),
        ],
    )
    def test_count_outside_grid_rejected(self, overrides, named):
        with pytest.raises(ValueError, match=rf"{named} gives a sample count out of range \[1, 144\]"):
            tiny_spec(**overrides)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_hurst_outside_unit_interval_rejected(self, h):
        with pytest.raises(ValueError, match=r"hurst_values must lie in \(0, 1\)"):
            tiny_spec(hurst_values=(0.5, h))

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            tiny_spec(base_seed=-1)
        assert tiny_spec(base_seed=0).base_seed == 0

    @pytest.mark.parametrize(
        "name, make, good",
        [
            ("grid", lambda v: tiny_spec(grid=(v, 12)), 12),
            ("repeats", lambda v: tiny_spec(repeats=v), 2),
            ("base_seed", lambda v: tiny_spec(base_seed=v), 1),
            ("sample_counts", lambda v: tiny_spec(sample_counts=(v,)), 30),
            ("subsampling_factors", lambda v: tiny_spec(sample_counts=None, subsampling_factors=(v,)), 2),
            ("window", lambda v: BoxcarConfig(window=v), 3),
            ("max_iters", lambda v: EqualitySolverConfig(max_iters=v), 5),
            ("max_iters", lambda v: TwistConfig(max_iters=v), 5),
            ("tv_inner_iters", lambda v: TwistConfig(tv_inner_iters=v), 5),
            ("iters", lambda v: tv_denoise(np.ones((4, 4)), 0.1, iters=v), 5),
            ("jobs", lambda v: run_table2(tiny_spec(methods=("box",), repeats=1), jobs=v), 1),
        ],
        ids=[
            "grid", "repeats", "base_seed", "sample_counts", "subsampling_factors", "window",
            "equality.max_iters", "twist.max_iters", "tv_inner_iters", "tv_denoise.iters", "jobs",
        ],
    )
    def test_integer_fields_reject_floats_and_bools(self, name, make, good):
        # a float or bool must not be truncated or coerced (2.5 to 2, True
        # to 1), nor fail later with a TypeError that names no field
        for bad in (2.5, float("nan"), True):
            with pytest.raises(ValueError, match=rf"bad {name} value {bad!r}: expected an integer"):
                make(bad)
        make(np.int64(good))

    @pytest.mark.parametrize(
        "name, make, bads, good, expected",
        [
            ("hurst_values", lambda v: tiny_spec(hurst_values=(v,)), (True, "0.5"), np.float32(0.5), "a number"),
            ("target_rms", lambda v: tiny_spec(target_rms=v), (True, "0.05", 10**400), np.float32(0.05), "a number"),
            ("p", lambda v: ThinPlateConfig(p=v), (True, "0.5"), np.float32(0.5), "a number"),
            ("lambda", lambda v: TwistConfig(lam=v), (True, "0.25", 10**400), np.int64(1), "a number"),
            ("periodic", lambda v: SynthesisOptions(periodic=v), ("false", 0, None), np.False_, "a bool"),
            ("paired_noise", lambda v: tiny_spec(paired_noise=v), ("true", 1), np.True_, "a bool"),
            ("grid", lambda v: tiny_spec(grid=v), (12, (12, 12, 12), "1212", None), [12, np.int64(12)], "a list of 2"),
            ("hurst_values", lambda v: tiny_spec(hurst_values=v), (0.5, "0.5", None), [0.5], "a list"),
            ("methods", lambda v: tiny_spec(methods=v), ("box", None), ["box"], "a list"),
            ("methods", lambda v: tiny_spec(methods=(v,)), (1, None, b"box"), "box", "a string"),
            ("sample_counts", lambda v: tiny_spec(sample_counts=v), (30, "30"), [np.int64(30)], "a list"),
            (
                "subsampling_factors",
                lambda v: tiny_spec(sample_counts=None, subsampling_factors=v),
                (2, "2"),
                [np.int64(2)],
                "a list",
            ),
            ("range_adjust", lambda v: BoxcarConfig(range_adjust=v), (1, None), "none", "a string"),
            ("synthesis", lambda v: tiny_spec(synthesis=v), ({}, 1), SynthesisOptions(), "SynthesisOptions"),
            ("boxcar", lambda v: tiny_spec(boxcar=v), (ThinPlateConfig(), None), BoxcarConfig(), "BoxcarConfig"),
            ("thin_plate", lambda v: tiny_spec(thin_plate=v), ({}, None), ThinPlateConfig(), "ThinPlateConfig"),
            ("twist", lambda v: tiny_spec(twist=v), ({}, None), TwistConfig(), "TwistConfig"),
            ("equality", lambda v: tiny_spec(equality=v), ({}, None), EqualitySolverConfig(), "EqualitySolverConfig"),
        ],
        ids=[
            "hurst_values", "target_rms", "thin_plate.p", "twist.lambda", "periodic", "paired_noise", "grid",
            "hurst_values-bare", "methods", "methods-item", "sample_counts", "subsampling_factors", "range_adjust",
            "synthesis", "boxcar", "thin_plate", "twist", "equality",
        ],
    )
    def test_fields_reject_values_of_another_kind(self, name, make, bads, good, expected):
        # a bool must not be taken as 1.0, an integer too large for a float
        # must not escape as an OverflowError, a truthy string must not switch
        # periodic on, and a string or a bare value where a tuple belongs
        # must not fail later with a TypeError that names no field; the spec
        # JSON refuses all of these already
        for bad in bads:
            with pytest.raises(ValueError, match=re.escape(f"bad {name} value {bad!r}: expected {expected}")):
                make(bad)
        make(good)

    def test_counts_from_factors(self):
        spec = tiny_spec(grid=(10, 10), sample_counts=None, subsampling_factors=(2, 4))
        assert spec.counts == (50, 25)

    def test_counts_passthrough(self):
        assert tiny_spec(sample_counts=(30, 60)).counts == (30, 60)


class TestDefaultSpecs:
    def test_paired_campaign_shape(self):
        spec = table1_spec()
        assert spec.grid == (64, 64)
        assert spec.subsampling_factors == (2, 4)
        assert spec.counts == (2048, 1024)
        assert spec.methods == ("cs-tv",)
        assert not spec.synthesis.periodic
        assert spec.paired_noise is True

    def test_method_comparison_shape(self):
        spec = table2_spec()
        assert spec.grid == (100, 100)
        assert len(spec.hurst_values) == 6
        assert spec.sample_counts == (500, 1000, 2000)
        assert spec.methods == ("box", "tp", "cs-twist")
        assert spec.target_rms == 0.05
        assert spec.boxcar.window == 11
        assert spec.paired_noise is False

    def test_overrides(self):
        spec = table2_spec(repeats=1, hurst_values=(0.7,))
        assert spec.repeats == 1
        assert spec.hurst_values == (0.7,)


# a value off its default in every config section of the spec
NON_DEFAULT_SECTIONS = dict(
    synthesis=SynthesisOptions(periodic=False),
    boxcar=BoxcarConfig(window=5, range_adjust="none"),
    thin_plate=ThinPlateConfig(p=0.5),
    twist=TwistConfig(lam=0.25, tv_inner_iters=5),
    equality=EqualitySolverConfig(max_iters=50),
)


SMALL_SPEC = {"grid": [8, 8], "hurst_values": [0.5], "methods": ["box"], "repeats": 1, "sample_counts": [10]}

# every scalar and tuple field of the spec and of its config sections: JSON
# section (None at the top level), attribute, JSON key, a numpy value of the
# field's kind (None for a string field) and a JSON value of another kind
FIELD_KINDS = [
    (None, "grid", "grid", (np.int64(12), np.int32(12)), [12, "12"]),
    (None, "hurst_values", "hurst_values", (np.float32(0.5), np.float64(0.8)), 0.5),
    (None, "methods", "methods", None, [1]),
    (None, "repeats", "repeats", np.int64(2), 2.5),
    (None, "base_seed", "base_seed", np.uint8(1), True),
    (None, "sample_counts", "sample_counts", (np.int64(30),), [30.0]),
    (None, "subsampling_factors", "subsampling_factors", (np.int16(2),), 2),
    (None, "target_rms", "target_rms", np.float32(0.05), "0.05"),
    (None, "paired_noise", "paired_noise", np.True_, "true"),
    ("synthesis", "periodic", "periodic", np.False_, 0),
    ("boxcar", "window", "window", np.int64(5), 5.0),
    ("boxcar", "range_adjust", "range_adjust", None, False),
    ("thin_plate", "p", "p", np.float32(0.5), "0.5"),
    ("twist", "lam", "lambda", np.float32(0.25), False),
    ("twist", "max_iters", "max_iters", np.uint16(5), 5.5),
    ("twist", "tv_inner_iters", "tv_inner_iters", np.int8(5), "5"),
    ("equality", "max_iters", "max_iters", np.int64(50), [50]),
]


def _field_cases(cases):
    return pytest.mark.parametrize(
        "section, attr, key, value, bad", cases, ids=[f"{s or 'spec'}.{k}" for s, _, k, _, _ in cases]
    )


class TestFieldKinds:
    @_field_cases([case for case in FIELD_KINDS if case[3] is not None])
    def test_numpy_scalars_stored_as_python_values(self, section, attr, key, value, bad):
        if section is not None:
            stored = getattr(harness_module.SECTIONS[section](**{attr: value}), attr)
        elif attr == "subsampling_factors":
            stored = getattr(tiny_spec(sample_counts=None, subsampling_factors=value), attr)
        else:
            stored = getattr(tiny_spec(**{attr: value}), attr)
        pairs = zip(stored, value) if isinstance(value, tuple) else [(stored, value)]
        for got, given in pairs:
            assert got == given
            assert type(got) is type(given.item())

    @_field_cases(FIELD_KINDS)
    def test_spec_json_names_the_field(self, section, attr, key, value, bad):
        raw = {**SMALL_SPEC, key: bad} if section is None else {**SMALL_SPEC, section: {key: bad}}
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=rf"^bad {re.escape(name)} value .*: expected "):
            spec_from_json(json.dumps(raw))


class TestSpecJson:
    def test_round_trip_counts(self):
        for sections in ({}, NON_DEFAULT_SECTIONS):
            spec = table2_spec(repeats=3, **sections)
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_round_trip_factors(self):
        for sections in ({}, NON_DEFAULT_SECTIONS):
            spec = table1_spec(base_seed=11, **sections)
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_default_spec_keys(self):
        # the keys a default campaign writes to spec.json: a key removed or
        # renamed here makes the spec.json of an earlier run fail to load
        sections = {
            "boxcar": ["range_adjust", "window"],
            "equality": ["max_iters"],
            "synthesis": ["periodic"],
            "thin_plate": ["p"],
            "twist": ["lambda", "max_iters", "tv_inner_iters"],
        }
        shared = ["base_seed", "grid", "hurst_values", "methods", "paired_noise", "repeats", "target_rms", *sections]
        for spec, counts in ((table1_spec(), "subsampling_factors"), (table2_spec(), "sample_counts")):
            written = json.loads(spec_to_json(spec))
            assert sorted(written) == sorted([*shared, counts])
            assert {s: sorted(written[s]) for s in sections} == sections

    @pytest.mark.parametrize(
        "make, stored",
        [
            (lambda: table2_spec(repeats=np.int64(2)), False),
            (lambda: table2_spec(hurst_values=(np.float32(0.5),)), False),
            (lambda: table2_spec(twist=TwistConfig(max_iters=np.int64(5))), False),
            (lambda: tiny_spec(grid=(16, 16), hurst_values=(np.float32(0.5),), methods=("box",), repeats=1), True),
            (lambda: tiny_spec(sample_counts=(np.int64(60),), methods=("box",), repeats=1), True),
            (lambda: tiny_spec(sample_counts=None, subsampling_factors=(np.int64(4),), repeats=1), True),
        ],
        ids=["repeats", "hurst_values", "twist.max_iters", "stored-hurst", "stored-count", "stored-factor"],
    )
    def test_numpy_scalars_written_as_json(self, make, stored, tmp_path):
        # the spec accepts numpy scalars, so spec.json and manifest.json
        # must be able to hold them
        spec = make()
        assert spec_from_json(spec_to_json(spec)) == spec
        if stored:
            rows = run_table2(spec, out_dir=tmp_path)
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            assert [(e["h"], e["n_sub"]) for e in manifest] == [(r.h, r.n_sub) for r in rows]
            assert {e["n_sub"] for e in manifest} == set(spec.counts)

    def test_unknown_top_key(self):
        with pytest.raises(ValueError, match="snake"):
            spec_from_json('{"grid": [8, 8], "snake": 1}')

    @pytest.mark.parametrize(
        "section,key",
        [
            ("synthesis", "order"),
            ("boxcar", "stride"),
            ("thin_plate", "knots"),
            ("twist", "momentum"),
            ("equality", "rho"),
            # settings that no longer exist: a spec.json that names one
            # fails here rather than running a different solve
            ("thin_plate", "epsilon"),
            ("twist", "alpha"),
            ("twist", "beta"),
            ("twist", "monotone"),
            ("equality", "penalty"),
            ("equality", "primal_tol"),
            ("equality", "dual_tol"),
            ("synthesis", "envelope"),
            ("twist", "tol"),
        ],
    )
    def test_unknown_nested_key(self, section, key):
        text = json.dumps(
            {
                "grid": [8, 8],
                "hurst_values": [0.5],
                "methods": ["box"],
                "repeats": 1,
                "sample_counts": [10],
                section: {key: 1},
            }
        )
        with pytest.raises(ValueError, match=re.escape(f"unknown {section} keys: [{key!r}]")):
            spec_from_json(text)

    def test_nan_target_rms_rejected(self):
        # json.loads reads the NaN token as float("nan")
        text = json.dumps({**SMALL_SPEC, "target_rms": float("nan")})
        assert "NaN" in text
        with pytest.raises(ValueError, match="target_rms must be positive and finite"):
            spec_from_json(text)

    def test_nan_lambda_rejected(self):
        text = json.dumps({**SMALL_SPEC, "twist": {"lambda": float("nan")}})
        assert "NaN" in text
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            spec_from_json(text)

    def test_empty_object_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            spec_from_json("{}")

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            spec_from_json("[1, 2]")

    def test_lambda_key_maps_to_weight(self):
        text = json.dumps(
            {
                "grid": [8, 8],
                "hurst_values": [0.5],
                "methods": ["cs-twist"],
                "repeats": 1,
                "sample_counts": [10],
                "twist": {"lambda": 0.25},
            }
        )
        assert spec_from_json(text).twist.lam == 0.25

    def test_ints_accepted_as_floats(self):
        spec = spec_from_json(
            json.dumps(
                {
                    **SMALL_SPEC,
                    "target_rms": 1,
                    "thin_plate": {"p": 1},
                    "twist": {"lambda": 2},
                }
            )
        )
        # no int is a valid hurst value, but the int 1 passes the type check
        # as the float 1.0 and only then fails the range rule
        with pytest.raises(ValueError, match=r"hurst_values must lie in \(0, 1\), got 1\.0$"):
            spec_from_json(json.dumps({**SMALL_SPEC, "hurst_values": [1, 0.5]}))
        assert type(spec.target_rms) is float
        assert type(spec.thin_plate.p) is float
        assert type(spec.twist.lam) is float

    def test_integer_too_large_for_a_float_rejected(self):
        # float() of it raised an OverflowError that named no field
        big = 10**400
        with pytest.raises(ValueError, match=re.escape(f"bad target_rms value {big!r}: expected a number")):
            spec_from_json(json.dumps({**SMALL_SPEC, "target_rms": big}))

    def test_null_where_none_allowed(self):
        spec = spec_from_json(
            json.dumps({**SMALL_SPEC, "target_rms": None, "thin_plate": {"p": None}, "twist": {"lambda": None}})
        )
        assert spec.target_rms is None
        assert spec.thin_plate.p is None
        assert spec.twist.lam is None

    def test_bools_and_strings_kept(self):
        spec = spec_from_json(
            json.dumps(
                {
                    **SMALL_SPEC,
                    "synthesis": {"periodic": False},
                    "boxcar": {"range_adjust": "none"},
                }
            )
        )
        assert spec.synthesis.periodic is False
        assert spec.boxcar.range_adjust == "none"

    def test_lambda_auto(self):
        # null asks for the automatic weight; "auto" is no second spelling
        raw = {"grid": [8, 8], "hurst_values": [0.5], "methods": ["cs-twist"], "repeats": 1, "sample_counts": [10]}
        assert spec_from_json(json.dumps({**raw, "twist": {"lambda": None}})).twist.lam is None
        with pytest.raises(ValueError, match=re.escape("bad twist.lambda value 'auto'")):
            spec_from_json(json.dumps({**raw, "twist": {"lambda": "auto"}}))


class TestCellStreams:
    def test_masks_nest_across_counts(self):
        small, mid, big = _repeat_masks(tiny_spec(sample_counts=(10, 40, 90)), rep=1)
        as_set = lambda m: {tuple(p) for p in m}
        assert as_set(small) <= as_set(mid) <= as_set(big)

    def test_masks_are_per_count_draws(self):
        # one permutation per repeat gives the masks that one draw per
        # (count, repeat) gives
        spec = tiny_spec(sample_counts=(10, 40, 144))
        for rep in range(3):
            for nsub_idx, mask in enumerate(_repeat_masks(spec, rep)):
                rng = np.random.default_rng(derive_seed(spec.base_seed, harness_module._MASK_STREAM, rep))
                flat = np.sort(rng.permutation(144)[: spec.counts[nsub_idx]])
                expected = np.stack(np.unravel_index(flat, (12, 12)), axis=1)
                assert mask.dtype == np.int64
                assert np.array_equal(mask, expected)

    def test_mask_sorted_row_major(self):
        (mask,) = _repeat_masks(tiny_spec(), rep=0)
        flat = mask[:, 0] * 12 + mask[:, 1]
        assert np.all(np.diff(flat) > 0)

    def test_mask_changes_with_repeat(self):
        spec = tiny_spec()
        (a,) = _repeat_masks(spec, rep=0)
        (b,) = _repeat_masks(spec, rep=1)
        assert not np.array_equal(a, b)

    def test_mask_count_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            _repeat_masks(tiny_spec(sample_counts=(200,)), rep=0)

    def test_paired_policy_shares_noise_across_hurst(self):
        spec = tiny_spec(paired_noise=True)
        _, seed_a = _cell_truth(spec, h_idx=0, rep=0)
        _, seed_b = _cell_truth(spec, h_idx=1, rep=0)
        assert seed_a == seed_b

    def test_independent_policy_differs_across_hurst(self):
        spec = tiny_spec()
        _, seed_a = _cell_truth(spec, h_idx=0, rep=0)
        _, seed_b = _cell_truth(spec, h_idx=1, rep=0)
        assert seed_a != seed_b

    def test_truth_deterministic(self):
        spec = tiny_spec()
        f1, _ = _cell_truth(spec, 0, 0)
        f2, _ = _cell_truth(spec, 0, 0)
        assert np.array_equal(f1, f2)

    def test_target_rms_applied(self):
        spec = tiny_spec(target_rms=0.05, paired_noise=True)
        f, _ = _cell_truth(spec, 0, 0)
        assert np.hypot(f.real, f.imag).mean() == pytest.approx(0.05 * np.sqrt(np.pi / 2), rel=0.3)


class TestRegistry:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("method", harness_module.METHODS)
    def test_every_solve_takes_samples_cfg_periodic(self, method, periodic):
        rng = np.random.default_rng(5)
        truth = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        samples = subsample(truth, random_mask(8, 8, 24, seed=5))
        section, solve = harness_module.REGISTRY[method]
        field, info = solve(samples, harness_module.SECTIONS[section](), periodic)
        assert isinstance(field, np.ndarray) and field.shape == (8, 8)
        assert isinstance(info, dict)


class TestCampaign:
    def test_rerun_identical(self):
        spec = tiny_spec()
        rows_a = run_table2(spec)
        rows_b = run_table2(spec)
        assert rows_a == rows_b or [
            (r.method, r.h, r.n_sub, r.seed, r.rmse, r.snr_db, r.iterations) for r in rows_a
        ] == [(r.method, r.h, r.n_sub, r.seed, r.rmse, r.snr_db, r.iterations) for r in rows_b]

    def test_parallel_matches_serial(self):
        spec = tiny_spec()
        serial = run_table2(spec)
        parallel = run_table2(spec, jobs=2)
        key = lambda rows: [
            (r.method, r.h, r.n_sub, r.seed, r.rmse, r.snr_db, r.iterations) for r in rows
        ]
        assert key(serial) == key(parallel)

    def test_row_count_and_order(self):
        spec = tiny_spec()
        rows = run_table2(spec)
        assert len(rows) == 2 * 1 * 2 * 2  # hurst x counts x repeats x methods
        keys = [(r.method, r.h, r.n_sub, r.seed) for r in rows]
        box = [k for k in keys if k[0] == "box"]
        tp = [k for k in keys if k[0] == "tp"]
        assert keys == box + tp
        assert box == sorted(box)

    def test_reaches_solver_replaced_on_module(self, monkeypatch):
        # the method registry names its solvers at call time
        calls = []
        original = harness_module.boxcar_reconstruct

        def counted(samples, cfg):
            calls.append(cfg)
            return original(samples, cfg)

        monkeypatch.setattr(harness_module, "boxcar_reconstruct", counted)
        spec = tiny_spec(methods=("box",))
        rows = run_table2(spec)
        assert len(calls) == len(rows) == 4
        assert all(cfg == spec.boxcar for cfg in calls)

    def test_thin_plate_factors_once_per_mask(self, monkeypatch):
        # a mask depends on (count, repeat) only and its cells run back to
        # back, so the thin-plate memo factors each mask's system once
        from cvfbm import baselines

        calls = []
        original = baselines._cholesky

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(baselines, "_cholesky", counted)
        monkeypatch.setattr(baselines, "_SYSTEM_MEMO", {})
        spec = tiny_spec(hurst_values=(0.4, 0.6, 0.8), sample_counts=(30, 60), methods=("tp",))
        rows = run_table2(spec)
        assert len(rows) == 3 * 2 * 2
        assert len(calls) == 2 * 2  # counts x repeats

    def test_pool_gets_one_tp_task_per_mask(self, monkeypatch, inline_pool):
        # under --jobs tp runs every h of a mask in one task, so the worker
        # that gets the task factors the mask's thin-plate system once; the
        # other methods run one task per (mask, h)
        from cvfbm import baselines

        calls = []
        workers, tasks = inline_pool
        original = baselines._cholesky
        monkeypatch.setattr(baselines, "_cholesky", lambda blocks: calls.append(1) or original(blocks))
        spec = tiny_spec(hurst_values=(0.4, 0.6, 0.8), sample_counts=(30, 60), methods=("box", "tp"))
        key = lambda rows: [(r.method, r.h, r.n_sub, r.seed, r.rmse, r.snr_db) for r in rows]
        assert key(run_table2(spec, jobs=2)) == key(run_table2(spec))
        assert workers == [2]
        assert len(tasks) == 2 * 2 * (3 + 1)  # counts x repeats x (one box task per h, one tp task)
        assert sorted(len(t[4]) for t in tasks) == [1] * 12 + [3] * 4  # hs per task
        assert len(calls) == 2 * (2 * 2)  # both runs factor each mask once

    @pytest.mark.parametrize(
        "methods, counts, tasks",
        [
            (("box", "tp"), (30, 60), 2 * (3 + 1)),  # counts x (one box task per h, one tp task)
            (("tp",), (30, 60), 2),
            (("tp",), (30,), 1),
        ],
    )
    def test_pool_capped_at_tasks_per_repeat(self, inline_pool, methods, counts, tasks):
        # a pool forks all its workers at the first task, so it gets no more
        # than one repeat's tasks, and none at all for a single task
        workers, _ = inline_pool
        spec = tiny_spec(hurst_values=(0.4, 0.6, 0.8), sample_counts=counts, methods=methods)
        key = lambda rows: [(r.method, r.h, r.n_sub, r.seed, r.rmse, r.snr_db) for r in rows]
        assert key(run_table2(spec, jobs=10_000)) == key(run_table2(spec))
        assert workers == ([tasks] if tasks > 1 else [])

    def test_task_without_store_returns_no_fields(self):
        # a pool task pickles its result back to the campaign, which reads
        # reconstructions only to store them
        spec = tiny_spec(grid=(24, 24), hurst_values=(0.4, 0.6, 0.8), sample_counts=(100,), methods=("box", "tp"))
        truths = np.stack([_cell_truth(spec, h, 0)[0] for h in range(3)])
        seeds = [_cell_truth(spec, h, 0)[1] for h in range(3)]
        mask = _repeat_masks(spec, 0)[0]
        task = (spec, ("box", "tp"), 0, mask, range(3), truths, seeds)
        kept, dropped = _run_cells(*task, True), _run_cells(*task, False)
        assert all(isinstance(recon, np.ndarray) for _, recon, _ in kept)
        assert all(recon is None for _, recon, _ in dropped)
        strip = lambda cells: [(key, replace(row, wall_time_s=0.0)) for key, _, row in cells]
        assert strip(kept) == strip(dropped)
        assert len(pickle.dumps(dropped)) < 4096 < 6 * 24 * 24 * 16 < len(pickle.dumps(kept))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        out_dir = tmp_path / "b"
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_table2(tiny_spec(), out_dir=out_dir, jobs=jobs)
        assert not out_dir.exists()

    def test_direct_methods_report_zero_iterations(self):
        rows = run_table2(tiny_spec())
        assert all(r.iterations == 0 for r in rows)

    def test_solver_reports_iterations(self):
        spec = tiny_spec(
            hurst_values=(0.5,),
            methods=("cs-tv",),
            repeats=1,
            equality=EqualitySolverConfig(max_iters=50),
        )
        rows = run_table2(spec)
        assert rows[0].iterations > 0

    @pytest.mark.parametrize("periodic", [True, False])
    def test_twist_rows_follow_synthesis_periodicity(self, periodic):
        # the campaign solves cs-twist on the native grid exactly when the
        # spec synthesizes periodic fields
        spec = tiny_spec(
            grid=(16, 16),
            hurst_values=(0.8,),
            sample_counts=(80,),
            methods=("cs-twist",),
            repeats=1,
            synthesis=SynthesisOptions(periodic=periodic),
            twist=TwistConfig(max_iters=30),
        )
        (row,) = run_table2(spec)
        truth, seed = _cell_truth(spec, 0, 0)
        samples = subsample(truth, _repeat_masks(spec, 0)[0])
        direct = {
            p: twist_reconstruct(samples, spec.twist, periodic=p) for p in (True, False)
        }
        field, info = direct[periodic]
        assert row.seed == seed
        assert row.rmse == rmse(truth, field)
        assert row.snr_db == snr_db(truth, field)
        assert row.iterations == info["iterations"]
        assert row.rmse != rmse(truth, direct[not periodic][0])

    def test_paired_campaign_shares_seed_across_hurst(self):
        rows = run_table1(tiny_spec(sample_counts=None, subsampling_factors=(4,), paired_noise=True))
        by_h = {}
        for r in rows:
            by_h.setdefault(r.h, set()).add(r.seed)
        seed_sets = list(by_h.values())
        assert seed_sets[0] == seed_sets[1]

    def test_independent_campaign_separates_seeds(self):
        rows = run_table2(tiny_spec())
        by_h = {}
        for r in rows:
            by_h.setdefault(r.h, set()).add(r.seed)
        seed_sets = list(by_h.values())
        assert not (seed_sets[0] & seed_sets[1])


class TestPersistence:
    def test_manifest_and_store(self, tmp_path):
        spec = tiny_spec(hurst_values=(0.5,), repeats=1)
        rows = run_table2(spec, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest) == 2  # one cell, two methods
        blobs = {p.name for p in (tmp_path / "store").iterdir()}
        for entry in manifest:
            assert {entry["truth"], entry["mask"], entry["recon"]} <= blobs
        # a library run writes the whole out-dir, as `cvfbm bench` does
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"store", "manifest.json", "results.csv", "mean_rmse.csv", "mean_snr_db.csv", "spec.json"}
        assert spec_from_json((tmp_path / "spec.json").read_text()) == spec
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + len(rows)

    def test_identical_artifacts_dedup(self, tmp_path):
        spec = tiny_spec(hurst_values=(0.5,), repeats=1)
        run_table2(spec, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # both methods reuse the same truth and mask blobs
        assert manifest[0]["truth"] == manifest[1]["truth"]
        assert manifest[0]["mask"] == manifest[1]["mask"]

    def test_store_identical_across_jobs(self, tmp_path):
        spec = tiny_spec(hurst_values=(0.5, 0.7, 0.9), sample_counts=(30, 60))
        run_table2(spec, out_dir=tmp_path / "serial")
        run_table2(spec, out_dir=tmp_path / "parallel", jobs=2)
        files = lambda root: {p.name: p.read_bytes() for p in (root / "store").iterdir()}
        serial = files(tmp_path / "serial")
        assert serial == files(tmp_path / "parallel")
        assert len(serial) == 3 * 2 + 2 * 2 + 3 * 2 * 2 * 2  # truths + masks + recons
        manifest = lambda root: (root / "manifest.json").read_bytes()
        assert manifest(tmp_path / "serial") == manifest(tmp_path / "parallel")

    def test_each_artifact_built_and_stored_once(self, tmp_path, monkeypatch):
        # a truth depends on (h, repeat) and a mask on (count, repeat): the
        # cells of every count share the truth and each blob is put once
        synth_calls, puts = [], []
        synthesize = harness_module.synthesize_cvfbm
        put = _ArtifactStore._put

        def counted_synthesize(*args, **kwargs):
            synth_calls.append(args[0])
            return synthesize(*args, **kwargs)

        def counted_put(self, blob, ext):
            name = put(self, blob, ext)
            puts.append(name)
            return name

        monkeypatch.setattr(harness_module, "synthesize_cvfbm", counted_synthesize)
        monkeypatch.setattr(_ArtifactStore, "_put", counted_put)
        spec = tiny_spec(hurst_values=(0.5, 0.7, 0.9), sample_counts=(30, 60, 90), repeats=2)
        rows = run_table2(spec, out_dir=tmp_path)
        assert len(rows) == 3 * 3 * 2 * 2
        assert len(synth_calls) == 3 * 2  # hurst values x repeats
        blobs = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert sorted(puts) == blobs
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len({e["truth"] for e in manifest}) == 3 * 2
        assert len({e["mask"] for e in manifest}) == 3 * 2

    def test_audit_detects_corruption(self, tmp_path):
        spec = tiny_spec(hurst_values=(0.5,), repeats=1)
        run_table2(spec, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        store = _ArtifactStore(tmp_path)
        victim = tmp_path / "store" / manifest[0]["recon"]
        from cvfbm.fileio import field_to_bytes

        victim.write_bytes(field_to_bytes(np.ones((12, 12)) * 99.0))
        with pytest.raises(RuntimeError, match="disagree"):
            _audit_rows(spec, manifest, store)

    def test_audit_passes_on_honest_store(self, tmp_path):
        spec = tiny_spec(hurst_values=(0.5,), repeats=1)
        run_table2(spec, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        _audit_rows(spec, manifest, _ArtifactStore(tmp_path))


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRepeatAtATime:
    # a campaign builds, runs, stores and drops one repeat at a time

    @pytest.mark.parametrize("stored", [False, True], ids=["memory", "out_dir"])
    def test_peak_memory_does_not_grow_with_repeats(self, tmp_path, stored):
        def peak(repeats, name):
            spec = table2_spec(
                grid=(48, 48),
                hurst_values=(0.5, 0.7, 0.9),
                sample_counts=(100, 200, 400),
                methods=("box",),
                repeats=repeats,
            )
            out_dir = tmp_path / name if stored else None
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_table2(spec, out_dir=out_dir)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                if started:
                    tracemalloc.stop()

        peak(1, "warm")
        # all fields at once would be 3.4x the 2-repeat peak at 8 repeats
        assert peak(8, "eight") <= 1.25 * peak(2, "two")

    def test_campaign_without_out_dir_keeps_no_reconstructions(self, tmp_path):
        # only the store reads reconstructions, so without an out-dir the
        # campaign copies none into a buffer of all of a repeat's cells
        spec = table2_spec(
            grid=(48, 48),
            hurst_values=(0.5, 0.7, 0.9),
            sample_counts=(100, 200, 400),
            methods=("box",),
            repeats=2,
        )

        def peak(out_dir):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_table2(spec, out_dir=out_dir)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                if started:
                    tracemalloc.stop()

        peak(tmp_path / "warm")
        buffer = 3 * 3 * 48 * 48 * np.dtype(np.complex128).itemsize  # h x counts x methods fields
        assert peak(None) <= peak(tmp_path / "stored") - buffer

    def test_failed_campaign_keeps_only_finished_repeats(self, tmp_path, monkeypatch):
        spec = tiny_spec(hurst_values=(0.5, 0.8), sample_counts=(30, 60), methods=("box",), repeats=3)
        box = harness_module.boxcar_reconstruct
        calls = []

        def fails_in_second_repeat(samples, cfg):
            calls.append(1)
            if len(calls) > 2 * 2:  # hurst values x counts: one repeat's solves
                raise RuntimeError("box failed")
            return box(samples, cfg)

        monkeypatch.setattr(harness_module, "boxcar_reconstruct", fails_in_second_repeat)
        out = tmp_path / "rerun"
        with pytest.raises(RuntimeError, match="box failed"):
            run_table2(spec, out_dir=out)
        assert not (out / "manifest.json").exists()
        assert not (out / "results.csv").exists()
        kept = {p.name for p in (out / "store").glob("*")}
        monkeypatch.setattr(harness_module, "boxcar_reconstruct", box)

        run_table2(spec, out_dir=out)
        run_table2(spec, out_dir=tmp_path / "fresh")
        assert tree(out) == tree(tmp_path / "fresh")
        # the first repeat was stored as it ended: 2 truths, 2 masks, 4 recons
        manifest = json.loads((out / "manifest.json").read_text())
        first = {e[k] for e in manifest if e["repeat"] == 0 for k in ("truth", "mask", "recon")}
        assert len(first) == 8
        assert kept == first

    def test_one_pool_per_campaign(self, tmp_path, monkeypatch):
        pools = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness_module, "ProcessPoolExecutor", CountedPool)
        spec = tiny_spec(repeats=3)
        run_table2(spec, out_dir=tmp_path / "parallel", jobs=2)
        assert len(pools) == 1
        run_table2(spec, out_dir=tmp_path / "serial")
        assert len(pools) == 1
        assert tree(tmp_path / "parallel") == tree(tmp_path / "serial")


def hand_rows():
    return [
        ResultRow("box", 0.8, 500, 1, 0.2, 10.0, 0.5, 0),
        ResultRow("box", 0.8, 500, 2, 0.4, 14.0, 0.5, 0),
        ResultRow("tp", 0.8, 500, 1, 0.1, 20.0, 0.5, 0),
    ]


class TestResultsOutput:
    def test_csv_header_and_format(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(path, hand_rows())
        lines = path.read_text().splitlines()
        assert lines[0] == "method,h,n_sub,seed,rmse,snr_db,wall_time_s,iterations"
        assert lines[1] == "box,0.8,500,1,2.0000000000e-01,1.0000000000e+01,,0"
        # distinct hurst values keep distinct labels in both CSVs
        close = [replace(hand_rows()[0], h=h) for h in (0.5, 0.5000001)]
        write_results_csv(path, close)
        assert [line.split(",")[1] for line in path.read_text().splitlines()[1:]] == ["0.5", "0.5000001"]
        write_mean_csv(path, close)
        assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == ["0.5000001", "0.5"]

    def test_timings_column_opt_in(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(path, hand_rows(), include_timings=True)
        assert ",0.500," in path.read_text().splitlines()[1]

    def test_byte_identical_without_timings(self, tmp_path):
        spec = tiny_spec(hurst_values=(0.5,), repeats=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(a, run_table2(spec))
        write_results_csv(b, run_table2(spec))
        assert a.read_bytes() == b.read_bytes()

    def test_mean_table_values(self):
        means = mean_table(hand_rows())
        cell = means[("box", 0.8, 500)]
        assert cell["rmse"] == pytest.approx(0.3)
        assert cell["snr_db"] == pytest.approx(12.0)
        assert cell["n"] == 2
        assert means[("tp", 0.8, 500)]["n"] == 1

    def test_mean_csv_layout(self, tmp_path):
        rows = [
            ResultRow(m, h, n, rep, 0.01 * rep + n * 1e-6, 10.0, 0.0, 0)
            for m in ("box", "tp", "cs-twist")
            for h in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
            for n in (500, 1000, 2000)
            for rep in (1, 2)
        ]
        path = tmp_path / "mean.csv"
        write_mean_csv(path, rows, value="rmse")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "h"
        assert len(header) == 1 + 9  # methods x counts
        assert header[1:4] == ["box_n500", "tp_n500", "cs-twist_n500"]
        assert len(lines) == 1 + 6
        hs = [float(l.split(",")[0]) for l in lines[1:]]
        assert hs == sorted(hs, reverse=True)
        assert sum(len(l.split(",")) - 1 for l in lines[1:]) == 54


class TestFigureData:
    def test_field_images(self, tmp_path):
        # the re/im preview pair of a complex field, as `cvfbm synth --pgm` writes it
        rng = np.random.default_rng(0)
        f = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        paths = [tmp_path / "field.re.pgm", tmp_path / "field.im.pgm"]
        for path, part in zip(paths, (f.real, f.imag)):
            write_pgm(path, part)
        header = b"P5\n8 8\n255\n"
        for path, part in zip(paths, (f.real, f.imag)):
            img = path.read_bytes()
            assert img.startswith(header)
            pixels = np.frombuffer(img[len(header):], dtype=np.uint8).reshape(8, 8)
            assert pixels.flat[np.argmin(part)] == 0 and pixels.flat[np.argmax(part)] == 255
        assert paths[0].read_bytes() != paths[1].read_bytes()
