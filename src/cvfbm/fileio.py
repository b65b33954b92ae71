"""File formats: CVF1 binary fields, PGM dumps, sample/mask/results CSVs."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .grid import SampleSet, as_field

__all__ = [
    "field_to_bytes",
    "field_from_bytes",
    "write_cvf1",
    "read_cvf1",
    "write_pgm",
    "write_samples_csv",
    "read_samples_csv",
    "write_mask_csv",
]

_MAGIC = b"CVF1"


def field_to_bytes(field) -> bytes:
    """Serialize: magic 'CVF1', u32le rows, u32le cols, f64le re/im pairs row-major."""
    f = as_field(field)
    rows, cols = f.shape
    header = _MAGIC + np.array([rows, cols], dtype="<u4").tobytes()
    inter = np.empty((rows, cols, 2), dtype="<f8")
    inter[..., 0] = f.real
    inter[..., 1] = f.imag
    return header + inter.tobytes()


def field_from_bytes(blob: bytes) -> np.ndarray:
    if blob[:4] != _MAGIC:
        raise ValueError("not a CVF1 payload (bad magic)")
    rows, cols = np.frombuffer(blob, dtype="<u4", count=2, offset=4)
    rows, cols = int(rows), int(cols)
    expected = 12 + rows * cols * 16
    if len(blob) != expected:
        raise ValueError(f"CVF1 payload truncated: {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=12).reshape(rows, cols, 2)
    return (flat[..., 0] + 1j * flat[..., 1]).astype(np.complex128)


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
    """Read a sample catalog; accepts e1,e2 or re,im value headers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = [h.strip().lower() for h in header]
        if names[:2] != ["row", "col"] or len(names) != 4:
            raise ValueError(f"unexpected sample CSV header: {header}")
        if names[2:] not in (["e1", "e2"], ["re", "im"]):
            raise ValueError(f"unexpected sample value columns: {header}")
        pos, vals = [], []
        for line in reader:
            if not line:
                continue
            pos.append((int(line[0]), int(line[1])))
            vals.append(complex(float(line[2]), float(line[3])))
    return SampleSet(rows, cols, np.array(pos, dtype=np.int64).reshape(-1, 2), np.array(vals, dtype=complex))


def write_mask_csv(path, mask) -> None:
    """Bare row,col lines, one sampled position each."""
    pos = np.asarray(mask, dtype=np.int64).reshape(-1, 2)
    with open(path, "w", newline="") as fh:
        for r, c in pos:
            fh.write(f"{int(r)},{int(c)}\n")
