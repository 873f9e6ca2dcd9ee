"""Times the coefficient kernels' two paths, one Newton step and a solve.

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

The ``newton_step`` table times the dense part of one solver iteration,
median of 5 calls, at p = 4 and 6 on the coefficients a_t = (t+1)^-1.6
of degree n = 96, 352 and 704. The "real" and "complex" columns time an
iteration that steps before convergence: ``solver._newton_terms``
(objective and gradient), ``solver._hessian`` and the Cholesky
factorization of that Hessian. The "real" column passes the
coefficients as a real vector, which the solver does for a real kernel
(n+1 unknowns); the "complex" column passes e^{0.7i} a_t, whose Hessian
has 2(n+1) rows. The "real final" and "complex final" columns time the
iteration that meets the tolerance: objective and gradient, then the
step with the Cholesky factor kept from the iteration before, which is
all the solver's final step costs now that it builds no Hessian. Pin
OpenBLAS to one thread for this table: on a 2-CPU VM its threads made
single cells up to 20x slower from run to run.

The ``solve`` table times a whole ``solver.solve_extremal`` call (the
degree ladder, the certificate included) for the real kernel a_t =
(t+1)^-1.6, t < 64, at the same degrees and p = 4 and 6, median of 5
calls, with the iterations taken at the requested degree.

The ``emit`` table times the report layer at the same degrees, median
of 5 calls, on the solution of that kernel at p = 4 with the default
checks: "write" is ``cli._emit_json`` of its ``cli._solution_body``
into a temporary file, and "read" is ``json.load`` of that file plus
``cli._read_coefficients``, the coefficient parse of ``bergex verify``.
"kB" is the size of the file.

The ``study`` table times ``checks.convergence_study`` of the same
kernel over the degrees 8, 16, ..., 64, median of 5 calls, at p = 4 and
6, with the number of ``solver._newton`` calls one study makes: one per
rung of the single degree ladder that climbs the study's degrees.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_kernels.py [--sizes 16,64,256,1024] [--repeats 200]
"""

import argparse
import json
import os
import statistics
import tempfile
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from bergex import _backend, cli, kernelspec, solver
from bergex.checks import check_reports, convergence_study
from bergex.families import power_decay_kernel
from bergex.solver import (DEFAULT_TOLERANCE, ExtremalProblem, _hessian,
                           _newton_terms, solve_extremal)

THRESHOLD_IN_USE = _backend.FFT_THRESHOLD
NEWTON_SIZES = (96, 352, 704)
NEWTON_REPEATS = 5
STUDY_DEGREES = tuple(range(8, 65, 8))


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


def newton_step(a, p):
    """One iteration's dense work: Newton terms, Hessian, Cholesky factor."""
    wu, v = _newton_terms(a, p)[2:]
    return cho_factor(_hessian(a, p, wu, v), overwrite_a=True,
                      check_finite=False)


def final_step(a, p, factor):
    """The converged iteration's: Newton terms, then a step with ``factor``."""
    cho_solve(factor, _newton_terms(a, p)[1], check_finite=False)


def bench_newton_step(sizes, repeats):
    print("\nnewton_step: median milliseconds per call")
    header = (f"{'n':>6}{'p':>4}{'real':>12}{'complex':>12}{'ratio':>8}"
              f"{'real final':>12}{'complex final':>15}")
    print(header)
    print("-" * len(header))
    for n in sizes:
        a = (np.arange(n + 1) + 1.0) ** -1.6
        for p in (4, 6):
            times = []
            for coeffs in (a, np.exp(0.7j) * a):
                factor = newton_step(coeffs, p)
                times.append(time_call(newton_step, coeffs, p,
                                       repeats=repeats))
                times.append(time_call(final_step, coeffs, p, factor,
                                       repeats=repeats))
            real, real_final, cplx, cplx_final = (t * 1e3 for t in times)
            print(f"{n:>6}{p:>4}{real:>12.2f}{cplx:>12.2f}{cplx / real:>8.2f}"
                  f"{real_final:>12.2f}{cplx_final:>15.2f}")


def bench_solve(sizes, repeats):
    print("\nsolve: median milliseconds per solve_extremal call")
    header = f"{'n':>6}{'p':>4}{'ms':>12}{'iterations':>12}"
    print(header)
    print("-" * len(header))
    kernel = power_decay_kernel(1.6, 64)
    for n in sizes:
        for p in (4, 6):
            problem = ExtremalProblem(p=p, kernel=kernel, degree=n)
            millis = time_call(solve_extremal, problem, repeats=repeats) * 1e3
            iterations = solve_extremal(problem).iterations
            print(f"{n:>6}{p:>4}{millis:>12.2f}{iterations:>12}")


def read_solution(path):
    """What ``bergex verify`` parses first: the file and its coefficients."""
    with open(path, encoding="utf-8") as fh:
        return cli._read_coefficients(json.load(fh)["body"]["solution"])


def bench_emit(sizes, repeats):
    print("\nemit: median milliseconds per report")
    header = f"{'n':>6}{'p':>4}{'write':>12}{'read':>12}{'kB':>10}"
    print(header)
    print("-" * len(header))
    spec = kernelspec.power_decay_spec(1.6, 64)
    kernel = kernelspec.realize(spec)
    p = 4
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "solution.json")
        for n in sizes:
            sol = solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
            reports = check_reports(cli._requested_checks({}, n), sol.F,
                                    kernel, p, sol.phi_norm)
            body = cli._solution_body(spec, DEFAULT_TOLERANCE, sol, reports)
            write = time_call(cli._emit_json, cli._header(), body, path,
                              repeats=repeats)
            read = time_call(read_solution, path, repeats=repeats)
            print(f"{n:>6}{p:>4}{write * 1e3:>12.2f}{read * 1e3:>12.2f}"
                  f"{os.path.getsize(path) / 1e3:>10.1f}")


def bench_study(degrees, repeats):
    print("\nstudy: median milliseconds per convergence_study call")
    header = f"{'p':>4}{'ms':>12}{'newton':>8}"
    print(header)
    print("-" * len(header))
    kernel = power_decay_kernel(1.6, 64)
    newton, calls = solver._newton, []

    def counting_newton(*args):
        calls.append(None)
        return newton(*args)

    for p in (4, 6):
        millis = time_call(convergence_study, kernel, p, degrees,
                           repeats=repeats) * 1e3
        calls.clear()
        solver._newton = counting_newton
        try:
            convergence_study(kernel, p, degrees)
        finally:
            solver._newton = newton
        print(f"{p:>4}{millis:>12.2f}{len(calls):>8}")


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
    bench_newton_step(NEWTON_SIZES, NEWTON_REPEATS)
    bench_solve(NEWTON_SIZES, NEWTON_REPEATS)
    bench_emit(NEWTON_SIZES, NEWTON_REPEATS)
    bench_study(STUDY_DEGREES, NEWTON_REPEATS)


if __name__ == "__main__":
    main()
