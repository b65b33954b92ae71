import json

import numpy as np
import pytest

from cvfbm import harness, read_cvf1, read_samples_csv, write_cvf1
from cvfbm.cli import main


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

    def test_hurst_long_flag_alias(self, capsys, tmp_path):
        a, b = tmp_path / "a.cvf", tmp_path / "b.cvf"
        run_cli(capsys, "synth", "--h", "0.5", "--rows", "16", "--cols", "16", "--out", str(a))
        run_cli(capsys, "synth", "--hurst", "0.5", "--rows", "16", "--cols", "16", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_target_rms(self, capsys, tmp_path):
        out = tmp_path / "field.cvf"
        code, stdout, _ = run_cli(
            capsys,
            "synth", "--h", "0.7", "--rows", "16", "--cols", "16",
            "--target-rms", "0.05", "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout)["rms"] == pytest.approx(0.05)

    def test_free_boundary_changes_field(self, capsys, tmp_path):
        a, b = tmp_path / "a.cvf", tmp_path / "b.cvf"
        run_cli(capsys, "synth", "--h", "0.5", "--rows", "16", "--cols", "16", "--out", str(a))
        run_cli(
            capsys,
            "synth", "--h", "0.5", "--rows", "16", "--cols", "16",
            "--free-boundary", "--out", str(b),
        )
        assert not np.array_equal(read_cvf1(a), read_cvf1(b))

    def test_pgm_previews(self, capsys, tmp_path):
        run_cli(
            capsys,
            "synth", "--h", "0.5", "--rows", "16", "--cols", "16",
            "--out", str(tmp_path / "f.cvf"), "--pgm", str(tmp_path / "f"),
        )
        assert (tmp_path / "f.re.pgm").read_bytes().startswith(b"P5")
        assert (tmp_path / "f.im.pgm").read_bytes().startswith(b"P5")

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

    def test_mask_out(self, capsys, tmp_path, field_file):
        path, _ = field_file
        run_cli(
            capsys,
            "sample", "--field", str(path), "--n", "10",
            "--out", str(tmp_path / "s.csv"), "--mask-out", str(tmp_path / "m.csv"),
        )
        assert len((tmp_path / "m.csv").read_text().splitlines()) == 10

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

    def test_boxcar_alias(self, capsys, tmp_path, field_file):
        path, _ = field_file
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(path), "--n", "50", "--out", str(samples_path))
        a, b = tmp_path / "a.cvf", tmp_path / "b.cvf"
        base = ["recon", "--samples", str(samples_path), "--rows", "16", "--cols", "16"]
        run_cli(capsys, *base, "--method", "box", "--out", str(a))
        run_cli(capsys, *base, "--method", "boxcar", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

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
            "--method", "boxcar", "--window", "5", "--out", str(tmp_path / "r.cvf"),
        )
        assert code == 0
        assert [(cfg.window, cfg.range_adjust) for cfg in calls] == [(5, "affine")]

    def test_bp_size_guard_and_allow_large(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        field_path = tmp_path / "big.cvf"
        write_cvf1(field_path, rng.normal(size=(72, 72)) + 1j * rng.normal(size=(72, 72)))
        samples_path = tmp_path / "s.csv"
        run_cli(capsys, "sample", "--field", str(field_path), "--n", "500", "--out", str(samples_path))
        base = [
            "recon", "--samples", str(samples_path), "--rows", "72", "--cols", "72",
            "--method", "cs-bp", "--out", str(tmp_path / "r.cvf"),
        ]
        code, _, err = run_cli(capsys, *base)
        assert code == 1
        assert "64x64" in json.loads(err.strip())["error"]
        assert not (tmp_path / "r.cvf").exists()
        code, stdout, _ = run_cli(capsys, *base, "--allow-large", "--max-iters", "3")
        assert code == 0
        assert last_json(stdout)["iterations"] == 3
        assert read_cvf1(tmp_path / "r.cvf").shape == (72, 72)


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

    def test_bad_spec_exits_1(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"grid": [12, 12], "warp": 9}')
        code, _, err = run_cli(
            capsys, "bench", "table2", "--out-dir", str(tmp_path / "b"), "--spec", str(spec_path)
        )
        assert code == 1
        assert "warp" in json.loads(err.strip())["error"]


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

    def test_star_writes_pgm(self, capsys, tmp_path):
        out = tmp_path / "star.pgm"
        run_cli(capsys, "star", "--e1", "0.1", "--out", str(out))
        assert out.read_bytes().startswith(b"P5")

    def test_circular_star_reports_zero(self, capsys):
        _, stdout, _ = run_cli(capsys, "star")
        report = last_json(stdout)
        assert report["e1_out"] == pytest.approx(0.0, abs=1e-10)
        assert report["e2_out"] == pytest.approx(0.0, abs=1e-10)

    def test_profile_diagnostics(self, capsys, tmp_path, field_file):
        path, _ = field_file
        code, stdout, _ = run_cli(capsys, "profile", "--field", str(path))
        assert code == 0
        report = last_json(stdout)
        assert "q" in report
        assert "best_k_relative_error" in report
