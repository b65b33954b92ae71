"""The machine record every benchmark output carries.

Two sets of runs are comparable only when their records agree on every field
except the commit; compare.py flags any other difference.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Fields that may differ between two sets of runs that are compared.
NOT_MACHINE = ("git_commit",)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> tuple[str, int | None]:
    """BLAS vendor from numpy's build record, and its live thread count."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return vendor, threads


def _git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git repository (read without running git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _filesystem(path: Path) -> str:
    """Type of the mounted filesystem that holds path."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                inside = target == mnt or target.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(root: Path, store_dir: Path) -> dict:
    import numpy as np
    import scipy

    vendor, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "thread_caps": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "store_fs": _filesystem(store_dir),
    }


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; call before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def differences(a: dict, b: dict) -> list[str]:
    """Machine fields on which two records disagree."""
    keys = sorted((set(a) | set(b)) - set(NOT_MACHINE))
    return [f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in keys if a.get(k) != b.get(k)]
