import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvfbm
from cvfbm import harness, read_cvf1, read_samples_csv, write_cvf1
from cvfbm.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


class TestExitCodes:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["synth"])  # missing required --h/--out
        assert info.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["summon"])
        assert info.value.code == 2

    def test_missing_file_exits_1_with_json_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "eval", str(tmp_path / "no.cvf"), str(tmp_path / "no.cvf")
        )
        assert code == 1
        assert "error" in json.loads(err.strip())

    def test_conflicting_sample_flags_exit_1(self, capsys, tmp_path):
        field_path = tmp_path / "f.cvf"
        write_cvf1(field_path, np.zeros((4, 4), dtype=complex) + 1.0)
        code, out, err = run_cli(
            capsys,
            "sample", "--field", str(field_path),
            "--n", "4", "--factor", "2",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert "exactly one" in json.loads(err.strip())["error"]

    def test_negative_seed_exits_1_naming_it(self, capsys, tmp_path):
        field_path = tmp_path / "f.cvf"
        write_cvf1(field_path, np.ones((4, 4)))
        for argv, out in (
            (["synth", "--h", "0.5", "--rows", "16", "--cols", "16", "--seed", "-1"], tmp_path / "g.cvf"),
            (["sample", "--field", str(field_path), "--n", "4", "--seed", "-1"], tmp_path / "s.csv"),
        ):
            code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert code == 1 and stdout == ""
            assert json.loads(err) == {"error": "seed must be non-negative, got -1"}
            assert not out.exists()

    def test_zero_factor_exits_1(self, capsys, tmp_path):
        field_path = tmp_path / "f.cvf"
        write_cvf1(field_path, np.ones((4, 4), dtype=complex))
        code, _, err = run_cli(
            capsys, "sample", "--field", str(field_path), "--factor", "0", "--out", str(tmp_path / "s.csv")
        )
        assert code == 1
        assert "--factor must be at least 1" in json.loads(err.strip())["error"]
        assert not (tmp_path / "s.csv").exists()


class TestSynth:
    def test_writes_field_and_reports(self, capsys, tmp_path):
        out = tmp_path / "field.cvf"
        code, stdout, _ = run_cli(
            capsys,
            "synth", "--h", "0.6", "--rows", "32", "--cols", "32",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        report = last_json(stdout)
        assert report["h"] == 0.6
        assert report["rows"] == 32
        field = read_cvf1(out)
        assert field.shape == (32, 32)
        assert report["rms"] == pytest.approx(float(np.sqrt(np.mean(np.abs(field) ** 2))))
        assert -3.5 < report["spectral_slope"] < -1.0

    def test_target_rms(self, capsys, tmp_path):
        out = tmp_path / "field.cvf"
        code, stdout, _ = run_cli(
            capsys,
            "synth", "--h", "0.7", "--rows", "16", "--cols", "16",
            "--target-rms", "0.05", "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout)["rms"] == pytest.approx(0.05)

    def test_nan_target_rms_exits_1(self, capsys, tmp_path):
        out = tmp_path / "field.cvf"
        code, stdout, err = run_cli(
            capsys,
            "synth", "--h", "0.7", "--rows", "16", "--cols", "16",
            "--target-rms", "nan", "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "target_rms must be positive and finite"
        assert not out.exists()

    def test_free_boundary_changes_field(self, capsys, tmp_path):
        a, b = tmp_path / "a.cvf", tmp_path / "b.cvf"
        run_cli(capsys, "synth", "--h", "0.5", "--rows", "16", "--cols", "16", "--out", str(a))
        run_cli(
            capsys,
            "synth", "--h", "0.5", "--rows", "16", "--cols", "16",
            "--free-boundary", "--out", str(b),
        )
        assert not np.array_equal(read_cvf1(a), read_cvf1(b))

    def test_grid_below_slope_minimum_reports_null_slope(self, capsys, tmp_path):
        out = tmp_path / "small.cvf"
        code, stdout, _ = run_cli(
            capsys, "synth", "--h", "0.7", "--rows", "8", "--cols", "8", "--out", str(out)
        )
        assert code == 0
        assert last_json(stdout)["spectral_slope"] is None
        assert read_cvf1(out).shape == (8, 8)

    def test_bad_hurst_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "synth", "--h", "1.5", "--out", str(tmp_path / "f.cvf")
        )
        assert code == 1
        assert "error" in json.loads(err.strip())


@pytest.fixture
def field_file(tmp_path):
    rng = np.random.default_rng(5)
    field = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    path = tmp_path / "truth.cvf"
    write_cvf1(path, field)
    return path, field


class TestSampleAndRecon:
    def test_sample_count(self, capsys, tmp_path, field_file):
        path, _ = field_file
        out = tmp_path / "s.csv"
        code, stdout, _ = run_cli(
            capsys, "sample", "--field", str(path), "--n", "40", "--out", str(out)
        )
        assert code == 0
        assert last_json(stdout)["n_sub"] == 40
        assert len(out.read_text().splitlines()) == 41

    def test_sample_factor(self, capsys, tmp_path, field_file):
        path, _ = field_file
        out = tmp_path / "s.csv"
        code, stdout, _ = run_cli(
            capsys, "sample", "--field", str(path), "--factor", "4", "--out", str(out)
        )
        assert last_json(stdout)["n_sub"] == 64

    def test_thin_plate_interpolates_samples(self, capsys, tmp_path, field_file):
        path, field = field_file
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(path), "--n", "50", "--out", str(samples_path))
        out = tmp_path / "tp.cvf"
        code, _, _ = run_cli(
            capsys,
            "recon", "--samples", str(samples_path), "--rows", "16", "--cols", "16",
            "--method", "tp", "--p", "1", "--out", str(out),
        )
        assert code == 0
        recon = read_cvf1(out)
        s = read_samples_csv(samples_path, 16, 16)
        residual = recon[s.positions[:, 0], s.positions[:, 1]] - s.values
        assert np.max(np.abs(residual)) < 1e-8

    def test_diagnostics_sidecar(self, capsys, tmp_path, field_file):
        path, _ = field_file
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(path), "--n", "80", "--out", str(samples_path))
        diag_path = tmp_path / "diag.json"
        code, stdout, _ = run_cli(
            capsys,
            "recon", "--samples", str(samples_path), "--rows", "16", "--cols", "16",
            "--method", "cs-twist", "--max-iters", "30",
            "--out", str(tmp_path / "r.cvf"), "--diagnostics", str(diag_path),
        )
        assert code == 0
        diag = json.loads(diag_path.read_text())
        assert diag["method"] == "cs-twist"
        assert diag["n_sub"] == 80
        assert type(diag["iterations"]) is int and diag["iterations"] >= 1
        assert type(diag["converged"]) is bool
        assert isinstance(diag["objective_trace"], list)
        assert last_json(stdout)["iterations"] == diag["iterations"]

    @pytest.mark.parametrize("method", ["cs-tv", "cs-bp"])
    def test_diagnostics_keep_json_types(self, capsys, tmp_path, field_file, method):
        # a capped solve reports converged as a JSON false, iterations as an int
        path, _ = field_file
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(path), "--n", "80", "--out", str(samples_path))
        diag_path = tmp_path / "diag.json"
        code, _, _ = run_cli(
            capsys,
            "recon", "--samples", str(samples_path), "--rows", "16", "--cols", "16",
            "--method", method, "--max-iters", "20",
            "--out", str(tmp_path / "r.cvf"), "--diagnostics", str(diag_path),
        )
        assert code == 0
        diag = json.loads(diag_path.read_text())
        assert diag["converged"] is False
        assert type(diag["iterations"]) is int and diag["iterations"] == 20
        assert diag["method"] == method and diag["n_sub"] == 80

    def test_max_iters_defaults_to_the_config(self, capsys, tmp_path, field_file):
        # without --max-iters cs-tv keeps EqualitySolverConfig's 600-iteration
        # cap (these 50 samples do not converge within it)
        path, _ = field_file
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(path), "--n", "50", "--out", str(samples_path))
        code, stdout, _ = run_cli(
            capsys,
            "recon", "--samples", str(samples_path), "--rows", "16", "--cols", "16",
            "--method", "cs-tv", "--out", str(tmp_path / "r.cvf"),
        )
        assert code == 0
        assert last_json(stdout)["iterations"] == 600

    def test_reaches_solver_replaced_on_harness(self, capsys, tmp_path, field_file, monkeypatch):
        # recon goes through the campaigns' method registry, which names its
        # solvers at call time
        calls = []
        original = harness.boxcar_reconstruct

        def counted(samples, cfg):
            calls.append(cfg)
            return original(samples, cfg)

        monkeypatch.setattr(harness, "boxcar_reconstruct", counted)
        path, _ = field_file
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(path), "--n", "50", "--out", str(samples_path))
        code, _, _ = run_cli(
            capsys,
            "recon", "--samples", str(samples_path), "--rows", "16", "--cols", "16",
            "--method", "box", "--window", "5", "--out", str(tmp_path / "r.cvf"),
        )
        assert code == 0
        assert [(cfg.window, cfg.range_adjust) for cfg in calls] == [(5, "affine")]

    def test_bp_solves_beyond_64x64(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        field_path = tmp_path / "big.cvf"
        write_cvf1(field_path, rng.normal(size=(72, 72)) + 1j * rng.normal(size=(72, 72)))
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(field_path), "--n", "500", "--out", str(samples_path))
        code, stdout, _ = run_cli(
            capsys,
            "recon", "--samples", str(samples_path), "--rows", "72", "--cols", "72",
            "--method", "cs-bp", "--max-iters", "3", "--out", str(tmp_path / "r.cvf"),
        )
        assert code == 0
        assert last_json(stdout)["iterations"] == 3
        assert read_cvf1(tmp_path / "r.cvf").shape == (72, 72)

    @pytest.mark.parametrize(
        "method_flags, named",
        [
            (
                ["--method", "tp", "--window", "4", "--lambda", "5", "--max-iters", "3"],
                "--window, --lambda, --max-iters",
            ),
            (["--method", "cs-tv", "--lambda", "5"], "--lambda"),
            (["--method", "box", "--lambda", "0.1"], "--lambda"),
        ],
    )
    def test_flag_of_another_method_rejected(self, capsys, tmp_path, field_file, method_flags, named):
        path, _ = field_file
        samples = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(path), "--n", "100", "--out", str(samples))
        code, stdout, err = run_cli(
            capsys,
            "recon", "--samples", str(samples), "--rows", "16", "--cols", "16",
            *method_flags, "--out", str(tmp_path / "r.cvf"),
        )
        assert code == 1 and stdout == ""
        message = json.loads(err)["error"]
        assert message.startswith(named + ":")
        assert "--method " + method_flags[1] in message
        assert not (tmp_path / "r.cvf").exists()

    def test_config_flags_name_config_fields(self):
        # the foreign-flag rule knows a flag only through its config field, so a
        # flag whose dest is no field of any config would be dropped unseen
        args = build_parser().parse_args(
            ["recon", "--samples", "s.csv", "--rows", "4", "--cols", "4", "--method", "box", "--out", "r.cvf"]
        )
        not_config = {"command", "func", "samples", "rows", "cols", "method", "out", "diagnostics"}
        dests = set(vars(args)) - not_config
        config_fields = {f.name for cls in harness.SECTIONS.values() for f in dataclasses.fields(cls)}
        assert dests and dests <= config_fields, dests - config_fields

    def test_recon_flags_default_to_none(self):
        # the config dataclasses are the one place a recon default is written
        args = build_parser().parse_args(
            ["recon", "--samples", "s.csv", "--rows", "4", "--cols", "4", "--method", "box", "--out", "r.cvf"]
        )
        for name in ("window", "range_adjust", "p", "lam", "max_iters"):
            assert getattr(args, name) is None, name

    def test_retired_epsilon_flag_exits_2(self, capsys, tmp_path):
        # thin-plate smoothing is set by --p alone; TwIST's stopping tolerance
        # is fixed, and box has no second name
        for flags, named in (
            (["--method", "tp", "--epsilon", "0.1"], "--epsilon"),
            (["--method", "cs-twist", "--tol", "1e-4"], "--tol"),
            (["--method", "boxcar"], "'boxcar'"),
        ):
            with pytest.raises(SystemExit) as info:
                main(["recon", "--samples", str(tmp_path / "s.csv"), "--rows", "4", "--cols", "4",
                      *flags, "--out", str(tmp_path / "r.cvf")])
            assert info.value.code == 2
            assert named in capsys.readouterr().err
            assert not (tmp_path / "r.cvf").exists()

    def test_retired_envelope_flag_exits_2(self, capsys, tmp_path):
        # every field follows the one amplitude law, --h is the one spelling
        # of the Hurst exponent, and a field is written as CVF1 only
        for flags, named in (
            (["--envelope", "power"], "--envelope"),
            (["--hurst", "0.5"], "--hurst"),
            (["--pgm", str(tmp_path / "f")], "--pgm"),
        ):
            with pytest.raises(SystemExit) as info:
                main(["synth", "--h", "0.5", "--rows", "8", "--cols", "8", *flags, "--out", str(tmp_path / "f.cvf")])
            assert info.value.code == 2
            assert named in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_retired_output_flags_exit_2(self, capsys, tmp_path, field_file):
        # the samples CSV holds the mask as its row,col columns, and a star
        # is reported, not drawn
        path, _ = field_file
        for argv, named in (
            (["sample", "--field", str(path), "--n", "10", "--out", str(tmp_path / "s.csv"),
              "--mask-out", str(tmp_path / "m.csv")], "--mask-out"),
            (["star", "--e1", "0.1", "--out", str(tmp_path / "star.pgm")], "--out"),
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert named in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["truth.cvf"]

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_nan_sample_rejected_up_front(self, capfd, tmp_path, method):
        # rejected when the samples are read, so no solver sees the NaN (box
        # would fail inside LAPACK, which writes to stderr itself, and tp
        # would return an all-NaN field)
        rng = np.random.default_rng(3)
        lines = ["row,col,e1,e2"] + [f"{i},{5 * i % 16},{rng.normal()!r},{rng.normal()!r}" for i in range(16)]
        lines[7] = "6,14,nan,0.5"
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n")
        section, solve = harness.REGISTRY[method]
        with pytest.raises(ValueError, match="NaN"):
            solve(read_samples_csv(path, 16, 16), harness.SECTIONS[section](), periodic=False)
        code = main(
            ["recon", "--samples", str(path), "--rows", "16", "--cols", "16",
             "--method", method, "--out", str(tmp_path / "r.cvf")]
        )
        out, err = capfd.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert "NaN" in json.loads(err)["error"]
        assert not (tmp_path / "r.cvf").exists()

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_all_zero_samples_give_the_zero_field(self, capfd, tmp_path, method):
        # the zero field fits zero data exactly; cs-twist's automatic lambda
        # for it is 0, which must not reach tv_denoise
        path = tmp_path / "s.csv"
        path.write_text("row,col,e1,e2\n0,0,0.0,0.0\n1,5,0.0,0.0\n4,2,0.0,0.0\n7,6,0.0,0.0\n")
        section, solve = harness.REGISTRY[method]
        for periodic in (False, True):
            field, _ = solve(read_samples_csv(path, 8, 8), harness.SECTIONS[section](), periodic=periodic)
            assert np.array_equal(field, np.zeros((8, 8)))
        code = main(
            ["recon", "--samples", str(path), "--rows", "8", "--cols", "8",
             "--method", method, "--out", str(tmp_path / "r.cvf")]
        )
        assert code == 0, capfd.readouterr().err
        assert np.array_equal(read_cvf1(tmp_path / "r.cvf"), np.zeros((8, 8)))

    @pytest.mark.parametrize(
        "text, named",
        [
            ("", "line 1: empty file"),
            ("row,col,e1,e2\n0,0,1.0,0.5\n1,2,0.5\n", "line 3: expected 4 fields, got 3"),
            ("row,col,e1,e2\n1,2,0.5,0.1,9\n", "line 2: expected 4 fields, got 5"),
            ("row,col,e1,e2\n0,0,1.0,0.5\n0,1,1.0,abc\n", "line 3: could not convert string to float: 'abc'"),
            ("row,col,e1,e2\n1.5,2,0.5,0.1\n", "line 2: invalid literal for int() with base 10: '1.5'"),
            ("row,col,re,im\n0,0,1.5,-2.5\n", "unexpected sample value columns"),
            ("x,y,e1,e2\n0,0,1.5,-2.5\n", "unexpected sample CSV header"),
            (" ROW , Col,E1 ,e2\n0,0,1.5,-2.5\n", "unexpected sample CSV header"),
            ("row,col,E1 ,e2\n0,0,1.5,-2.5\n", "unexpected sample value columns"),
        ],
        ids=[
            "empty", "three-fields", "five-fields", "non-numeric-value", "float-row", "re-im-header",
            "x-y-header", "spaced-upper-case-header", "spaced-upper-case-value-columns",
        ],
    )
    def test_malformed_samples_csv_exits_1(self, capfd, tmp_path, text, named):
        path = tmp_path / "s.csv"
        path.write_text(text)
        code = main(
            ["recon", "--samples", str(path), "--rows", "16", "--cols", "16",
             "--method", "box", "--out", str(tmp_path / "r.cvf")]
        )
        out, err = capfd.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert named in json.loads(err)["error"]
        assert not (tmp_path / "r.cvf").exists()


class TestFlagSpelling:
    # each long flag has one spelling: argparse's prefix matching would read
    # every unambiguous prefix as the flag itself
    @pytest.mark.parametrize(
        "argv, flag, prefix",
        [
            (["synth", "--h", "0.5", "--free-boundary", "--out", "f.cvf"], "--free-boundary", "--free"),
            (["sample", "--field", "f.cvf", "--n", "4", "--seed", "3", "--out", "s.csv"], "--seed", "--se"),
            (["recon", "--samples", "s.csv", "--rows", "8", "--cols", "8", "--method", "tp", "--out", "r.cvf",
              "--diagnostics", "d.json"], "--diagnostics", "--diag"),
            (["eval", "t.cvf", "r.cvf", "--help"], "--help", "--he"),
            (["bench", "table2", "--out-dir", "x", "--timings"], "--timings", "--tim"),
            (["profile", "--field", "f.cvf"], "--field", "--fie"),
            (["star", "--profile", "moffat"], "--profile", "--prof"),
        ],
        ids=["synth", "sample", "recon", "eval", "bench", "profile", "star"],
    )
    def test_flag_prefix_exits_2(self, capsys, argv, flag, prefix):
        parser = build_parser()
        if flag == "--help":
            with pytest.raises(SystemExit) as info:
                parser.parse_args(argv)
            assert info.value.code == 0
        else:
            parser.parse_args(argv)
        with pytest.raises(SystemExit) as info:
            parser.parse_args([prefix if a == flag else a for a in argv])
        assert info.value.code == 2
        assert prefix in capsys.readouterr().err


class TestEval:
    def test_self_comparison(self, capsys, field_file):
        path, _ = field_file
        code, stdout, _ = run_cli(capsys, "eval", str(path), str(path))
        assert code == 0
        report = last_json(stdout)
        assert report["rmse"] == 0.0
        assert report["n_points"] == 256
        assert report["snr_db"] >= 100.0

    def test_full_loop(self, capsys, tmp_path):
        truth_path = tmp_path / "truth.cvf"
        samples_path = tmp_path / "s.csv"
        recon_path = tmp_path / "r.cvf"
        run_cli(
            capsys,
            "synth", "--h", "0.8", "--rows", "16", "--cols", "16",
            "--seed", "2", "--out", str(truth_path),
        )
        run_cli(capsys, "sample", "--field", str(truth_path), "--n", "120", "--out", str(samples_path))
        run_cli(
            capsys,
            "recon", "--samples", str(samples_path), "--rows", "16", "--cols", "16",
            "--method", "cs-tv", "--max-iters", "300", "--out", str(recon_path),
        )
        code, stdout, _ = run_cli(capsys, "eval", str(truth_path), str(recon_path))
        assert code == 0
        report = last_json(stdout)
        assert report["rmse"] > 0.0
        assert report["snr_db"] > 3.0
        assert report["n_points"] == 256


class TestBench:
    def test_tiny_campaign(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "grid": [12, 12],
                    "hurst_values": [0.6],
                    "sample_counts": [36],
                    "methods": ["box", "tp"],
                    "repeats": 2,
                    "base_seed": 1,
                }
            )
        )
        out_dir = tmp_path / "bench"
        code, stdout, _ = run_cli(
            capsys,
            "bench", "table2", "--out-dir", str(out_dir), "--spec", str(spec_path),
        )
        assert code == 0
        assert last_json(stdout)["rows"] == 4
        for name in ("results.csv", "mean_rmse.csv", "mean_snr_db.csv", "spec.json", "manifest.json"):
            assert (out_dir / name).exists(), name
        results = (out_dir / "results.csv").read_text().splitlines()
        assert results[0].startswith("method,h,n_sub,seed")
        assert len(results) == 5
        assert "rmse=" in stdout

    def test_spec_runs_the_same_under_either_campaign_name(self, capsys, tmp_path):
        # the spec names its noise policy; the campaign name only picks the
        # default spec, so a given spec runs alike under both names
        spec = {
            "grid": [16, 16], "hurst_values": [0.5, 0.5000001], "sample_counts": [64], "methods": ["box"], "repeats": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outputs = []
        for campaign in ("table1", "table2"):
            out_dir = tmp_path / campaign
            code, stdout, _ = run_cli(capsys, "bench", campaign, "--out-dir", str(out_dir), "--spec", str(spec_path))
            assert code == 0
            files = {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
            outputs.append((files, stdout.splitlines()[:-1]))
        assert outputs[0] == outputs[1]
        files, table = outputs[0]
        assert json.loads(files["spec.json"])["paired_noise"] is False
        # two close hurst values keep two labels in the printed table
        assert sorted({line.split()[1] for line in table}) == ["h=0.5", "h=0.5000001"]

    @pytest.mark.parametrize("timings", [False, True])
    def test_timings_fill_the_wall_time_column(self, capsys, tmp_path, timings):
        spec = {"grid": [12, 12], "hurst_values": [0.5], "sample_counts": [30], "methods": ["box"], "repeats": 2}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "b"
        flags = ["--timings"] if timings else []
        code, _, _ = run_cli(capsys, "bench", "table2", "--out-dir", str(out_dir), "--spec", str(spec_path), *flags)
        assert code == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        column = lines[0].split(",").index("wall_time_s")
        walls = [line.split(",")[column] for line in lines[1:]]
        assert len(walls) == 2
        if timings:
            assert all(float(w) >= 0 for w in walls)
        else:
            assert walls == ["", ""]

    def test_spec_missing_required_key_exits_1(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"grid": [12, 12], "hurst_values": [0.5], "repeats": 1, "sample_counts": [10]})
        )
        code, _, err = run_cli(
            capsys, "bench", "table2", "--out-dir", str(tmp_path / "b"), "--spec", str(spec_path)
        )
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "missing spec keys: ['methods']"

    def test_bad_spec_exits_1(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"grid": [12, 12], "warp": 9}')
        code, _, err = run_cli(
            capsys, "bench", "table2", "--out-dir", str(tmp_path / "b"), "--spec", str(spec_path)
        )
        assert code == 1
        assert "warp" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("boxcar", {"window": "5"}, "boxcar"),
            ("grid", 12, "grid"),
            ("repeats", "two", "repeats"),
            ("repeats", 2.5, "repeats"),
            ("repeats", "2", "repeats"),
            ("base_seed", None, "base_seed"),
            ("grid", [12, 12, 12], "grid"),
            ("grid", "1212", "grid"),
            ("hurst_values", [0.5, "0.7"], "hurst_values"),
            ("methods", "box", "methods"),
            ("sample_counts", [30.0], "sample_counts"),
            ("synthesis", {"periodic": "false"}, "synthesis.periodic"),
            ("synthesis", {"periodic": "no"}, "synthesis.periodic"),
            ("twist", {"max_iters": 5.5}, "twist.max_iters"),
            ("equality", {"max_iters": True}, "equality.max_iters"),
            ("boxcar", {"range_adjust": 1}, "boxcar.range_adjust"),
            ("thin_plate", {"p": "0.5"}, "thin_plate.p"),
            ("twist", {"lambda": "0.25"}, "twist.lambda"),
            ("twist", {"lambda": False}, "twist.lambda"),
            pytest.param("target_rms", 10**400, "target_rms", id="target_rms-too-large-for-a-float"),
        ],
    )
    def test_spec_value_of_wrong_type_exits_1(self, capsys, tmp_path, key, value, named):
        spec = {"grid": [12, 12], "hurst_values": [0.5], "sample_counts": [30], "repeats": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec, key: value}))
        code, _, err = run_cli(
            capsys, "bench", "table2", "--out-dir", str(tmp_path / "b"), "--spec", str(spec_path)
        )
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert named in json.loads(err)["error"]

    def test_nan_lambda_spec_exits_1(self, capsys, tmp_path):
        spec = {"grid": [12, 12], "hurst_values": [0.5], "sample_counts": [30], "methods": ["cs-twist"], "repeats": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec, "twist": {"lambda": float("nan")}}))
        out_dir = tmp_path / "b"
        code, _, err = run_cli(capsys, "bench", "table2", "--out-dir", str(out_dir), "--spec", str(spec_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "lambda must be positive and finite"
        assert not out_dir.exists()

    def test_runs_as_python_module(self, tmp_path):
        # `python -m cvfbm` is the same command line as the cvfbm script
        spec = {"grid": [12, 12], "hurst_values": [0.5], "sample_counts": [30], "methods": ["box"], "repeats": 2}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "b"
        src = str(Path(cvfbm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["bench", "table2", "--spec", str(spec_path), "--out-dir", str(out_dir)]
        proc = subprocess.run([sys.executable, "-m", "cvfbm", *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert last_json(proc.stdout) == {"out_dir": str(out_dir), "rows": 2}
        assert (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize(
        "counts, named",
        [
            ({"subsampling_factors": [0]}, "at least 1"),
            ({"subsampling_factors": [2, 0]}, "at least 1"),
            ({"sample_counts": []}, "nonempty"),
            ({"sample_counts": [145]}, "sample_counts gives a sample count out of range [1, 144]"),
            ({"sample_counts": [30, 30]}, "sample_counts must give distinct sample counts"),
        ],
    )
    def test_degenerate_counts_exit_1(self, capsys, tmp_path, counts, named):
        spec_path = tmp_path / "spec.json"
        spec = {"grid": [12, 12], "hurst_values": [0.5], "methods": ["box"], "repeats": 1}
        spec_path.write_text(json.dumps({**spec, **counts}))
        out_dir = tmp_path / "b"
        code, _, err = run_cli(capsys, "bench", "table2", "--out-dir", str(out_dir), "--spec", str(spec_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert named in json.loads(err)["error"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, capsys, tmp_path, jobs):
        spec = {"grid": [12, 12], "hurst_values": [0.5], "sample_counts": [30], "methods": ["box"], "repeats": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "b"
        code, stdout, err = run_cli(
            capsys, "bench", "table2", "--out-dir", str(out_dir), "--spec", str(spec_path), "--jobs", jobs
        )
        assert code == 1 and stdout == ""
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "jobs must be at least 1"
        assert not out_dir.exists()


class TestStarAndProfile:
    def test_star_round_trip_standard_form(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "star", "--e1", "0.15", "--e2", "-0.1", "--form", "standard",
        )
        assert code == 0
        report = last_json(stdout)
        assert report["e1_out"] == pytest.approx(0.15, abs=0.005)
        assert report["e2_out"] == pytest.approx(-0.1, abs=0.005)
        assert report["radius"] > 0

    def test_circular_star_reports_zero(self, capsys):
        _, stdout, _ = run_cli(capsys, "star")
        report = last_json(stdout)
        assert report["e1_out"] == pytest.approx(0.0, abs=1e-10)
        assert report["e2_out"] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--scale", "nan"], "scale"),
            (["--scale=-inf"], "scale"),
            (["--profile", "moffat", "--beta", "inf"], "beta"),
            (["--e1", "nan"], "e1"),
            (["--e2=-inf"], "e2"),
        ],
    )
    def test_non_finite_star_input_exits_1(self, capsys, argv, name):
        code, stdout, err = run_cli(capsys, "star", *argv)
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == f"{name} must be finite"

    def test_profile_diagnostics(self, capsys, tmp_path, field_file):
        path, _ = field_file
        code, stdout, _ = run_cli(capsys, "profile", "--field", str(path))
        assert code == 0
        report = last_json(stdout)
        assert "q" in report
        assert "best_k_relative_error" in report

    def test_profile_flat_field_exits_1(self, capfd, tmp_path):
        # one nonzero spectral coefficient leaves no decay to fit
        path = tmp_path / "flat.cvf"
        write_cvf1(path, np.full((8, 8), 0.3 - 0.2j))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["profile", "--field", str(path)])
        out, err = capfd.readouterr()
        assert code == 1 and out == "" and caught == []
        assert len(err.splitlines()) == 1
        assert "no decay to fit" in json.loads(err)["error"]


class TestReadme:
    def test_cli_examples_parse(self, capsys):
        # every `cvfbm ...` line of the code blocks under README's CLI heading
        # is parsed, and nothing runs: a flag the README shows but the CLI
        # lacks exits 2 here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        lines = "".join(re.findall(r"```\w*\n(.*?)```", section, re.S)).replace("\\\n", " ").splitlines()
        examples = [shlex.split(line)[1:] for line in lines if line.startswith("cvfbm ")]
        assert {argv[0] for argv in examples} == {"synth", "sample", "recon", "eval", "bench", "profile", "star"}
        parser = build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: cvfbm {shlex.join(argv)}\n{capsys.readouterr().err}")


class TestPackaging:
    def test_version_read_from_the_package(self):
        # pyproject.toml names no version of its own: the build reads
        # cvfbm.__version__, so the two cannot disagree
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        assert "version" not in project["project"]
        assert project["project"]["dynamic"] == ["version"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "cvfbm.__version__"}
