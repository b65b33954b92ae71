"""File formats: CVF1 binary fields, the samples CSV and the store's mask blobs."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .grid import SampleSet, as_field, as_positions

__all__ = [
    "write_cvf1",
    "read_cvf1",
    "write_samples_csv",
    "read_samples_csv",
]

_MAGIC = b"CVF1"
_CELL = np.dtype("<c16")  # one f64le (re, im) pair per grid cell, row-major


def field_to_bytes(field) -> bytes:
    """Serialize: magic 'CVF1', u32le rows, u32le cols, f64le re/im pairs row-major."""
    f = as_field(field)
    return _MAGIC + np.array(f.shape, dtype="<u4").tobytes() + f.astype(_CELL, copy=False).tobytes()


def field_from_bytes(blob: bytes) -> np.ndarray:
    if blob[:4] != _MAGIC:
        raise ValueError("not a CVF1 payload (bad magic)")
    rows, cols = map(int, np.frombuffer(blob, dtype="<u4", count=2, offset=4))
    expected = 12 + rows * cols * _CELL.itemsize
    if len(blob) != expected:
        raise ValueError(f"CVF1 payload truncated: {len(blob)} bytes, expected {expected}")
    # the re/im pairs are the memory layout of complex128: a copy keeps every
    # bit, signed zeros included, so decoding inverts field_to_bytes exactly
    return np.frombuffer(blob, dtype=_CELL, offset=12).reshape(rows, cols).astype(np.complex128)


def write_cvf1(path, field) -> None:
    Path(path).write_bytes(field_to_bytes(field))


def read_cvf1(path) -> np.ndarray:
    return field_from_bytes(Path(path).read_bytes())


def write_samples_csv(path, samples: SampleSet) -> None:
    """Catalog of known values: header row,col,e1,e2 (e1 + i*e2 per sample)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "col", "e1", "e2"])
        for (r, c), v in zip(samples.positions, samples.values):
            w.writerow([int(r), int(c), repr(float(v.real)), repr(float(v.imag))])


def read_samples_csv(path, rows: int, cols: int) -> SampleSet:
    """Read a sample catalog written by write_samples_csv (header row,col,e1,e2)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("sample CSV line 1: empty file, expected header row,col,e1,e2")
        if header[:2] != ["row", "col"] or len(header) != 4:
            raise ValueError(f"unexpected sample CSV header: {header}")
        if header[2:] != ["e1", "e2"]:
            raise ValueError(f"unexpected sample value columns: {header}")
        pos, vals = [], []
        for line in reader:
            if not line:
                continue
            if len(line) != 4:
                n = reader.line_num
                raise ValueError(f"sample CSV line {n}: expected 4 fields, got {len(line)}")
            try:
                pos.append((int(line[0]), int(line[1])))
                vals.append(complex(float(line[2]), float(line[3])))
            except ValueError as exc:
                raise ValueError(f"sample CSV line {reader.line_num}: {exc}") from None
    return SampleSet(rows, cols, pos, vals)


def mask_to_bytes(mask) -> bytes:
    """Bare row,col lines, one sampled position each."""
    return "".join(f"{r},{c}\n" for r, c in as_positions(mask).tolist()).encode()
