import numpy as np
import pytest

from cvfbm import (
    SampleSet,
    read_cvf1,
    read_samples_csv,
    write_cvf1,
    write_mask_csv,
    write_pgm,
    write_samples_csv,
)
from cvfbm.fileio import field_from_bytes, field_to_bytes


def random_field(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestFieldFormat:
    def test_round_trip(self, tmp_path):
        f = random_field(7, 11, seed=1)
        path = tmp_path / "field.cvf"
        write_cvf1(path, f)
        assert np.array_equal(read_cvf1(path), f)

    def test_header_layout(self):
        f = np.array([[1.0 + 2.0j]])
        blob = field_to_bytes(f)
        assert blob[:4] == b"CVF1"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 1
        assert np.frombuffer(blob[12:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_size_matches_dims(self):
        f = random_field(3, 5)
        assert len(field_to_bytes(f)) == 4 + 8 + 3 * 5 * 16

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + field_to_bytes(random_field(2, 2))[4:]
        with pytest.raises(ValueError):
            field_from_bytes(blob)

    def test_truncated_payload_rejected(self):
        blob = field_to_bytes(random_field(4, 4))
        with pytest.raises(ValueError):
            field_from_bytes(blob[:-8])


class TestPgm:
    def test_header_and_range(self, tmp_path):
        img = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        header, rest = blob.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"4 3"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        data = np.frombuffer(pixels, dtype=np.uint8)
        assert data.min() == 0 and data.max() == 255
        assert len(data) == 12

    def test_flat_image_mid_gray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((4, 4), 3.7))
        pixels = np.frombuffer(path.read_bytes().rsplit(b"\n", 1)[1], dtype=np.uint8)
        assert np.all(pixels == 128)


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        f = random_field(6, 6, seed=2)
        pos = np.array([[0, 1], [3, 4], [5, 5]])
        s = SampleSet(6, 6, pos, f[pos[:, 0], pos[:, 1]])
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s)
        back = read_samples_csv(path, 6, 6)
        assert np.array_equal(back.positions, s.positions)
        assert np.array_equal(back.values, s.values)

    def test_header_names_components(self, tmp_path):
        s = SampleSet(4, 4, np.array([[1, 2]]), np.array([0.5 - 0.25j]))
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,e1,e2"
        assert lines[1].startswith("1,2,")

    def test_alternate_component_header_accepted(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("row,col,re,im\n0,0,1.5,-2.5\n")
        s = read_samples_csv(path, 2, 2)
        assert s.values[0] == 1.5 - 2.5j

    def test_values_exact_through_text(self, tmp_path):
        # repr round-trips doubles exactly
        rng = np.random.default_rng(3)
        vals = rng.normal(size=5) * 1e-7 + 1j * rng.normal(size=5)
        s = SampleSet(3, 3, np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]), vals)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s)
        assert np.array_equal(read_samples_csv(path, 3, 3).values, vals)


class TestMaskCsv:
    def test_plain_pairs_no_header(self, tmp_path):
        path = tmp_path / "mask.csv"
        write_mask_csv(path, np.array([[0, 0], [2, 3], [4, 1]]))
        assert path.read_text() == "0,0\n2,3\n4,1\n"
