"""What a result was measured on: backend, CPUs, versions, BLAS and its threads."""

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy

from bergex import backend_name
from bergex._backend import FFT_THRESHOLD

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas(package):
    """BLAS name, version and live thread count of a wheel's bundled library."""
    info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def record(seed):
    return {
        "seed": seed,
        "backend": backend_name(),
        "fft_threshold": FFT_THRESHOLD,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
    }
