"""Complex 2D grids: unitary DFT, mirror extension, scattered samples.

A field is a plain 2D complex ndarray. Every function here is pure; nothing
mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "dft2",
    "idft2",
    "SampleSet",
]


def as_field(a) -> np.ndarray:
    """Validate and return ``a`` as a finite, C-ordered 2D complex array.

    Input in another memory layout (a transpose, a Fortran-ordered array) is
    copied into C order; C-ordered complex input is returned as is.
    """
    f = np.ascontiguousarray(a, dtype=np.complex128)
    if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
        raise ValueError(f"expected a 2D grid, got shape {f.shape}")
    if not np.all(np.isfinite(f.view(np.float64))):
        raise ValueError("field contains NaN or Inf")
    return f


def dft2(f) -> np.ndarray:
    """Unitary 2D DFT (forward and inverse both scale by 1/sqrt(R*C))."""
    f = as_field(f)
    return np.fft.fft2(f) / np.sqrt(f.size)


def idft2(F) -> np.ndarray:
    """Unitary 2D inverse DFT."""
    F = as_field(F)
    return np.fft.ifft2(F) * np.sqrt(F.size)


def radial_sq(rows: int, cols: int) -> np.ndarray:
    """Squared radial frequency wr^2 + wc^2 of each bin of a rows x cols DFT.

    Per axis, bin k is the signed integer frequency k for k <= N/2 and k - N
    above (FFT layout), so every entry is a whole number held in float64.
    """
    wr, wc = (np.fft.fftfreq(n, d=1.0 / n) for n in (rows, cols))
    return wr[:, None] ** 2 + wc[None, :] ** 2


def take_quadrant(f) -> np.ndarray:
    """Return the top-left M x N quadrant of a 2M x 2N grid."""
    f = as_field(f)
    rows, cols = f.shape
    if rows % 2 or cols % 2:
        raise ValueError(f"grid dimensions must be even, got {rows}x{cols}")
    return f[: rows // 2, : cols // 2].copy()


def _kind(tp) -> str:
    """The values that annotation ``tp`` takes, as an error message names them."""
    if get_origin(tp) is tuple:
        args = get_args(tp)
        return "a list" if args[-1:] == (Ellipsis,) else f"a list of {len(args)}"
    return {int: "an integer", float: "a number", bool: "a bool", str: "a string"}.get(tp, tp.__name__)


def check(value, tp, name: str):
    """``value`` as a value of annotation ``tp``; ValueError naming ``name`` if it is of another kind.

    ``tp`` is int, float, bool, a class such as str, a tuple type (a list
    passes too) or ``X | None``. A bool is no number and a string no number;
    a float, even a whole or NaN one, is no integer, and an integer becomes a
    float where a float belongs. numpy ints, floats and bools pass and come
    back as Python values. NaN and inf pass, for the caller's range checks to
    reject.
    """
    if tp is int:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return int(value)
    elif tp is float:
        if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass  # an integer too large for a float is no number either
    elif tp is bool:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
    elif get_origin(tp) is UnionType:
        return None if value is None else check(value, get_args(tp)[0], name)
    elif get_origin(tp) is tuple:
        if isinstance(value, (list, tuple)):
            args = get_args(tp)
            arms = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
            if len(arms) == len(value):
                return tuple(check(v, arm, name) for v, arm in zip(value, arms))
    elif isinstance(value, tp):
        return value
    raise ValueError(f"bad {name} value {value!r}: expected {_kind(tp)}")


@cache
def field_types(cls) -> tuple:
    """(attribute, annotation, name) of each field of dataclass ``cls``.

    The name is the field's metadata "name" if it has one, else the attribute:
    errors, spec JSON keys and CLI flags call the field by it.
    """
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata.get("name", f.name)) for f in fields(cls))


def check_fields(obj) -> None:
    """Store :func:`check` of each field of the frozen dataclass ``obj`` in place of its value."""
    for attr, tp, name in field_types(type(obj)):
        object.__setattr__(obj, attr, check(getattr(obj, attr), tp, name))


def grid_shape(rows, cols) -> tuple[int, int]:
    """``rows`` and ``cols`` as Python ints; ValueError naming either unless an integer of at least 1."""
    for name, n in (("rows", rows), ("cols", cols)):
        if check(n, int, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    return int(rows), int(cols)


def seeded_rng(seed) -> np.random.Generator:
    """numpy's default generator for ``seed``; ValueError unless a non-negative integer."""
    seed = check(seed, int, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def as_positions(positions) -> np.ndarray:
    """Integer (row, col) pairs of shape (n, 2) as an int64 array; ValueError naming them if of another form.

    An empty sequence is no position. A flat list, a (2, n) transpose, floats and bools are never re-read.
    """
    pos = np.asarray(positions)
    if pos.shape in ((0,), (0, 2)):
        return np.empty((0, 2), dtype=np.int64)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.dtype.kind not in "iu":
        raise ValueError(f"positions must be integer pairs of shape (n, 2), got {pos.dtype} of shape {pos.shape}")
    return pos.astype(np.int64, copy=False)


def flat_positions(positions, rows: int, cols: int) -> np.ndarray:
    """Row-major flat indices of :func:`as_positions` pairs; ValueError unless in bounds and distinct."""
    pos = as_positions(positions)
    if len(pos) and (pos.min() < 0 or pos[:, 0].max() >= rows or pos[:, 1].max() >= cols):
        raise ValueError(f"position out of bounds for a {rows}x{cols} grid")
    flat = pos[:, 0] * cols + pos[:, 1]
    ordered = np.sort(flat)  # a sort finds repeats far faster than np.unique's hashing
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("duplicate positions")
    return flat


@dataclass(frozen=True)
class SampleSet:
    """Scattered known values on a grid: positions (n, 2) int64 and values (n,) complex.

    Positions are read by :func:`as_positions`, unique and in bounds; values are one-dimensional and finite.
    Order is significant: it fixes the layout of measurement vectors.
    """

    rows: int
    cols: int
    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows, cols = grid_shape(self.rows, self.cols)
        pos = as_positions(self.positions)
        val = np.asarray(self.values, dtype=np.complex128)
        if val.ndim != 1:
            raise ValueError(f"sample values must be one-dimensional, got shape {val.shape}")
        if len(pos) != len(val):
            raise ValueError("positions and values differ in length")
        flat_positions(pos, rows, cols)
        if not np.isfinite(val).all():
            raise ValueError("sample values contain NaN or Inf")
        for name, value in (("rows", rows), ("cols", cols), ("positions", pos), ("values", val)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.values)


def mirror_extend_samples(samples: SampleSet) -> SampleSet:
    """Map each sample of an M x N grid to its 4 mirror positions in 2M x 2N.

    The 2M x 2N grid is the input, its column reversal to the right and the
    row reversal of both below (r -> 2M-1-r, c -> 2N-1-c): no edge row or
    column repeats, the result wraps periodically and distinct inputs never
    collide. Output is in canonical row-major order.
    """
    m, n = samples.rows, samples.cols
    r = samples.positions[:, 0]
    c = samples.positions[:, 1]
    rr = np.concatenate([r, r, 2 * m - 1 - r, 2 * m - 1 - r])
    cc = np.concatenate([c, 2 * n - 1 - c, c, 2 * n - 1 - c])
    vv = np.concatenate([samples.values] * 4)
    flat = rr * (2 * n) + cc
    order = np.argsort(flat, kind="stable")
    pos = np.stack([rr[order], cc[order]], axis=1)
    return SampleSet(2 * m, 2 * n, pos, vv[order])
