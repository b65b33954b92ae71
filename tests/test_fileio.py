import struct

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
from cvfbm.fileio import field_from_bytes, field_to_bytes, mask_to_bytes


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

    def test_signed_zeros_round_trip_bytes(self):
        # a decode that rebuilds re + 1j*im turns -0.0 into 0.0, so the
        # re-encoded bytes (and their content hash) would differ
        f = np.array(
            [[complex(-0.0, 1.0), complex(2.0, -0.0)], [complex(-0.0, -0.0), complex(0.0, -3.5)]]
        )
        blob = field_to_bytes(f)
        back = field_from_bytes(blob)
        assert field_to_bytes(back) == blob
        assert np.signbit(back.real).tolist() == [[True, False], [True, False]]
        assert np.signbit(back.imag).tolist() == [[False, True], [True, True]]

    @pytest.mark.parametrize("layout", ["c", "transposed", "fortran"])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (100, 100)])
    def test_payload_is_row_major_re_im_pairs(self, shape, layout):
        f = random_field(*shape, seed=4)
        if layout == "transposed":
            f = random_field(shape[1], shape[0], seed=4).T
        elif layout == "fortran":
            f = np.asfortranarray(f)
        rows, cols = f.shape
        expected = struct.pack("<4sII", b"CVF1", rows, cols) + b"".join(
            struct.pack("<dd", f[r, c].real, f[r, c].imag) for r in range(rows) for c in range(cols)
        )
        assert field_to_bytes(f) == expected

    def test_decoded_field_is_writable_native_complex(self):
        back = field_from_bytes(field_to_bytes(random_field(3, 4)))
        assert back.dtype == np.complex128
        assert back.flags.c_contiguous and back.flags.writeable

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "samples.csv"
        path.write_text(f"row,col,e1,e2\n0,0,1.0,2.0\n1,1,0.5,{value}\n")
        with pytest.raises(ValueError, match="NaN or Inf"):
            read_samples_csv(path, 2, 2)

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

    def test_encoder_matches_per_row_format(self):
        rng = np.random.default_rng(4)
        mask = np.stack([rng.integers(0, 12345, 50), rng.integers(0, 7, 50)], axis=1)
        mask[0] = (0, 0)
        mask[1] = (10, 123)
        expected = "".join(f"{r},{c}\n" for r, c in mask).encode()
        assert mask_to_bytes(mask) == expected
        assert mask_to_bytes(mask.tolist()) == expected

    def test_empty_mask(self, tmp_path):
        path = tmp_path / "mask.csv"
        write_mask_csv(path, np.zeros((0, 2), dtype=np.int64))
        assert mask_to_bytes(np.zeros((0, 2), dtype=np.int64)) == b""
        assert path.read_bytes() == b""

    def test_file_holds_encoder_bytes(self, tmp_path):
        path = tmp_path / "mask.csv"
        mask = np.array([[99, 1000], [3, 45]])
        write_mask_csv(path, mask)
        assert path.read_bytes() == mask_to_bytes(mask) == b"99,1000\n3,45\n"
