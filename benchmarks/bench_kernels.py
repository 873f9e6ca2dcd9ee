"""Times the coefficient kernels' two paths: direct NumPy and FFT.

Prints one table per operation (Cauchy convolution and nonnegative-lag
cross-correlation) with median wall time per call at a range of operand
sizes. Each column calls ``bergex._backend.conv``/``xcorr`` with
``FFT_THRESHOLD`` pinned so that one path runs at every size: the direct
NumPy evaluation used below the threshold, or the FFT evaluation used at
or above it. Both operands have length n, so the output degree is 2n - 2.

On a 2-CPU x86-64 VM (NumPy 2.4, 300 repeats) the direct path stayed
ahead for both kernels up to n = 384 and the FFT path led from n = 512
on: the crossover is near n = 448, an output degree of about 900. The
threshold in use, 256 in output degree, switches to the FFT sooner than
this table asks.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--sizes 16,64,256,1024] [--repeats 200]
"""

import argparse
import statistics
import time

import numpy as np

from bergex import _backend

THRESHOLD_IN_USE = _backend.FFT_THRESHOLD


def time_call(fn, *args, repeats=200):
    """Median seconds per call over the given number of repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# Values of FFT_THRESHOLD that force each path for every operand size.
PATHS = (("direct", float("inf")), ("fft", 0))


def bench_operation(name, fn, sizes, repeats):
    print(f"\n{name}: median microseconds per call")
    header = f"{'n':>6}" + "".join(f"{label:>14}" for label, _ in PATHS)
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in sizes:
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        row = f"{n:>6}"
        for _, threshold in PATHS:
            _backend.FFT_THRESHOLD = threshold
            try:
                micros = time_call(fn, a, b, repeats=repeats) * 1e6
            finally:
                _backend.FFT_THRESHOLD = THRESHOLD_IN_USE
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

    print(f"FFT_THRESHOLD in use: {THRESHOLD_IN_USE} (output degree)")
    bench_operation("conv", _backend.conv, sizes, args.repeats)
    bench_operation("xcorr", _backend.xcorr, sizes, args.repeats)


if __name__ == "__main__":
    main()
