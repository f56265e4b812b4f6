"""Record of the machine and software a benchmark result was measured on.

Everything here only reads: package metadata, `/sys` cache descriptions,
`/proc/self/maps` to find the loaded BLAS, and the checkout's `.git`.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes() -> dict:
    """Data/unified cache size per level of CPU 0, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root):
    """Commit of the checkout at `root`, or None outside a git work tree."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit is not None:
        return commit
    packed = _read(os.path.join(root, ".git", "packed-refs")) or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(root, pinned_threads) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads_pinned": pinned_threads,
        "blas_threads_reported": blas_threads(),
        "git_commit": git_commit(root),
    }
