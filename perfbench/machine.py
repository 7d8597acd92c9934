"""The machine a run measured: CPUs, memory, versions, and the BLAS it used.

Called from inside the workload process, after numpy and scipy are loaded,
so the BLAS thread counts are the ones the measured code actually sees.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _loaded_blas() -> list[dict]:
    """Each OpenBLAS library mapped into this process, with its thread count."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    out = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            entry["error"] = str(exc)
            out.append(entry)
            continue
        for key, symbols, restype in (("threads", _THREAD_SYMBOLS, ctypes.c_int),
                                      ("config", _CONFIG_SYMBOLS, ctypes.c_char_p)):
            for sym in symbols:
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(entry)
    return out


def machine_info() -> dict:
    mem_kb = _first_line("/proc/meminfo", "MemTotal")
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas_build.get('name')} {blas_build.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_loaded": _loaded_blas(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }
