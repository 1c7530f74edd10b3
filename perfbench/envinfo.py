"""Environment record printed with every result.

The benchmark records BLAS threading but never sets it: ``unet_loop``
runs faster with more BLAS threads and ``serve_paced`` slower (worker
processes oversubscribe the cores), so any fixed setting would favour
one workload over the other.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from typing import Any, Dict, Optional

import numpy as np

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, Any]:
    info: Dict[str, Any] = {"name": None, "version": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name")
        info["version"] = deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    return info


def _blas_threads() -> Optional[int]:
    """Threads numpy's bundled OpenBLAS will use (None if not found)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> Dict[str, Any]:
    """nproc, CPU model, Python/numpy versions and BLAS threading."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
    }
