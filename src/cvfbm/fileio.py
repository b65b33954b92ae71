"""File formats: CVF1 binary fields, PGM dumps, sample/mask/results CSVs."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .grid import SampleSet, as_field

__all__ = [
    "write_cvf1",
    "read_cvf1",
    "write_pgm",
    "write_samples_csv",
    "read_samples_csv",
    "write_mask_csv",
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


def write_pgm(path, values) -> None:
    """8-bit binary PGM with linear min-max scaling; flat input maps to mid-gray."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError("PGM dump expects a 2D real array")
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        scaled = np.round((a - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.full(a.shape, 128, dtype=np.uint8)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + scaled.tobytes())


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
        names = [h.strip().lower() for h in header]
        if names[:2] != ["row", "col"] or len(names) != 4:
            raise ValueError(f"unexpected sample CSV header: {header}")
        if names[2:] != ["e1", "e2"]:
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
    pos = np.asarray(mask, dtype=np.int64).reshape(-1, 2)
    return "".join(f"{r},{c}\n" for r, c in pos.tolist()).encode()


def write_mask_csv(path, mask) -> None:
    Path(path).write_bytes(mask_to_bytes(mask))
