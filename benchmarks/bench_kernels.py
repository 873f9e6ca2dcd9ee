"""Times the coefficient kernels, the solver, the reports and the quadrature.

Prints one table per operation (Cauchy convolution and nonnegative-lag
cross-correlation) with median wall time per call at a range of operand
sizes. Each column calls ``bergex._backend.conv``/``xcorr`` with
``FFT_THRESHOLD`` pinned so that one path runs at every size: the direct
NumPy evaluation used below the threshold, or the FFT evaluation used at
or above it. ``xcorr`` is ``conv`` of the reversed conjugate, so its
columns time that convolution plus the conjugate and the slice of its
upper half. Both operands have length n, so the output degree is
2n - 2. "direct" and "fft" time complex operands; "direct real" and
"fft real" time their real parts as float64 arrays, which stay real: the
direct path is a real ``np.convolve`` and the FFT path takes real
transforms of half the size. The four columns of a row are timed call by
call in turn, so that drift in the machine's speed lands on all of them
alike. Under each table a crossover line gives, for complex and for real
operands, the first size from which the FFT column is below the direct
one at every larger size, and the output degree there, which is what
``FFT_THRESHOLD`` is compared with.

On a 2-CPU x86-64 VM (NumPy 2.4, one BLAS thread, 200 repeats, three
runs) the FFT path, NumPy's transforms at power-of-two lengths, led for
both kernels from n = 384-448 on with complex operands (output degree
766-894) and from n = 768 on with real ones (output degree 1534): a real
``np.convolve`` took 1/1.3 (n = 64) to 1/2.6 (n = 1024) of the complex
one's time. The ``power`` table below crosses much sooner, and
``FFT_THRESHOLD`` (512) follows it; ``bergex._backend`` gives the
reasons.

The ``newton_step`` table times the dense part of one solver iteration,
median of 5 calls, at p = 4 and 6 on the coefficients a_t = (t+1)^-1.6
of degree n = 16, 24 and 48, the sizes of the lowest rungs of the
degree ladders, and 96, 352 and 704. The "real" and "complex" columns
time an iteration that steps before convergence: ``solver._newton_terms``
(objective and gradient), ``solver._hessian`` and the Cholesky
factorization of that Hessian by LAPACK's ``dpotrf``, called directly as
the solver calls it, on the lower triangle (``lower=1``), the one
``_hessian`` builds. The "real" column passes the coefficients as a real
vector, which the solver does for a real kernel (n+1 unknowns); the
"complex" column passes e^{0.7i} a_t, whose Hessian has 2(n+1) rows.
The "real final" and "complex final" columns time the iteration that
meets the tolerance: objective and gradient, then the step with the
lower Cholesky factor kept from the iteration before (LAPACK's
``dpotrs``, ``lower=1``),
which is all the solver's final step costs now that it builds no
Hessian. The "real hessian" and "complex hessian" columns time
``solver._hessian`` alone, from the objective's W f^s and f^{s-1}, so
that the Hessian's assembly shows apart from its factorization. Pin
OpenBLAS to one thread for this table: on a 2-CPU VM its threads made
single cells up to 20x slower from run to run.

The ``power`` table times ``_backend.abs_power_xcorr``, the Fourier
coefficients b_0..b_{(p/2)(n-1)} of |f|^p, at p = 4 and 6 for the n
coefficients a_t = (t+1)^-1.6, at the ``--sizes`` of the tables above,
median of ``--repeats`` calls, with the columns and the crossover lines
of those tables. Its direct path is ``_backend.power``'s p/2 - 1
products and one correlation, and its FFT path one transform of f; the
output degree it dispatches on is p (n - 1). "direct" and "fft" time
e^{0.7i} a_t, "direct real" and "fft real" the float64 a_t. "error" is
the largest difference between the two paths on e^{0.7i} a_t, relative
to the largest |b_m|. In the same three runs the FFT led from an output
degree of 380-444 (p = 4) and 378 (p = 6) with complex coefficients, and
from 508 (p = 4) and 474-666 (p = 6) with real ones.

The ``solve`` table times a whole ``solver.solve_extremal`` call (the
degree ladder, the certificate included) for the real kernel a_t =
(t+1)^-1.6, t < 64, at the same degrees and p = 4 and 6, median of 5
calls, with the iterations taken at the requested degree.

The ``ladder`` table solves each standard-family kernel at its
calibrated degree, p = 4 and 6, median of 5 calls per solve. For each
rung of the degree ladder it lists the degree and, in parentheses, the
iterations ``solver._newton`` reported there (the iteration that met the
rung's tolerance: the square root of ``solver.TOLERANCE`` below the
requested degree, ``TOLERANCE`` at it), and it counts the Hessians the
whole solve built (calls of ``solver._gram``).

The ``emit`` table times the report layer at the same degrees, median
of 5 calls, on the solution of that kernel at p = 4 with the checks
every solve records (``checks.check_table``). "new" is
``cli._emit_json`` of its ``cli._solution_body`` into a fresh file of a
temporary directory on every call, and "overwrite" the same into one
file that exists already, the case of a solve or verify that reruns
with the same ``--out``. "read" is ``json.load`` of that file plus
``cli._read_coefficients``, the coefficient parse of ``bergex verify``.
"kB" is the size of the file.

The ``certificate`` and ``check_table`` tables time the two layers that
certify a solve, on the solution of each standard-family kernel at its
calibrated degree n, p = 4 and 6, median of 50 calls, since each call
takes well under a millisecond. ``certificate`` is
``solver.extremality_residual`` over the monomials j = 0..
``solver.certificate_degree(p, n)``, the j listed as "j max";
"residual" is the largest modulus, the solve's ``residual_max``.
``check_table`` is ``checks.check_table``, the reports every ``bergex
solve`` records and every ``bergex verify`` recomputes; "checks" counts
them. The solutions are solved once, before either table is timed.

The ``study`` table times ``checks.convergence_study`` of the same
kernel over the degrees 8, 16, ..., 64, median of 5 calls, at p = 4 and
6, with the number of ``solver._newton`` calls one study makes: one per
rung of the single degree ladder that climbs the study's degrees.

The ``quadrature`` table times the general-exponent norms on each
standard-family kernel, median of 15 calls: ``spaces.bergman_norm_general``
(64 circles, one FFT per block of 8) and ``spaces.hardy_norm_general``
(the unit circle) at q = 4/3 and 6/5. "real" says whether the kernel's
coefficients are real, which samples the half circle.

The ``startup`` table splits start-up by layer. Each of four statements
runs in a fresh interpreter, the four in turn, ``STARTUP_REPEATS``
times: ``import numpy``, ``import bergex.cli``, ``bergex verify``
(``cli.main``, its import included) of the family's power-decay-3.0
solution at p = 6, n = 128, solved once beforehand, and ``bergex solve``
of the same config. "inside" is the statement's own time, taken in the
interpreter; "process" is the whole process, interpreter start-up
included. The second row less the first is what bergex adds to NumPy's
import, the third less the second is what verify and its checks cost,
and the fourth less the second what the solve costs, its first
factorization included. The Newton solve loads SciPy's compiled LAPACK
module, and not the ``scipy.linalg`` package, on its first
factorization (``solver._flapack``), so only the last row loads SciPy.
On a 2-CPU x86-64 VM (one BLAS thread, 15 repeats) the four "process"
medians were 163, 226, 236 and 267 ms. Importing ``scipy.linalg``
whole, as ``from scipy.linalg.lapack import dpotrf`` does, doubles the
last: over 12 alternating pairs of fresh processes the whole-process
solve took 0.448 s that way and 0.224 s with the module alone, and its
peak RSS 59.1 MB against 36.7 MB.

With ``--out PATH`` the script also writes every table to PATH as one
JSON object. ``tables`` maps each table's name to its rows. A timed cell
of a row is an object holding the ``median``, ``min`` and ``max`` seconds
of its repeats and their count, ``repeats``; a row's other entries (the
sizes, iterations, rungs, kB or error) are the printed ones.
``environment`` records ``nproc``, ``OPENBLAS_NUM_THREADS``, the NumPy,
SciPy and Python versions, the commit checked out where the timed
bergex package lives (null outside a git work tree), the date and
``FFT_THRESHOLD``. A default run took 17-20 s on a 2-CPU x86-64 VM with
one BLAS thread. To compare two versions of bergex, run the script on
each in turn, with PYTHONPATH at each one's ``src``, in one session, and
keep both files.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_kernels.py [--sizes 16,64,256,1024] [--repeats 200]
        [--out BENCH_label.json]
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np
import scipy

from bergex import _backend, cli, kernelspec, solver, spaces
from bergex.checks import check_table, convergence_study
from bergex.families import power_decay_kernel, standard_family
from bergex.solver import (ExtremalProblem, _hessian, _newton_terms,
                           certificate_degree, extremality_residual,
                           solve_extremal)

THRESHOLD_IN_USE = _backend.FFT_THRESHOLD
# SciPy's compiled LAPACK module, loaded as the solver loads it, so that
# the newton_step table times the routines _newton calls
LAPACK = solver._flapack()
NEWTON_SIZES = (96, 352, 704)
# the newton_step table adds lowest-rung degrees of the family's ladders
NEWTON_STEP_SIZES = (16, 24, 48) + NEWTON_SIZES
NEWTON_REPEATS = 5
STUDY_DEGREES = tuple(range(8, 65, 8))
QUADRATURE_EXPONENTS = (4.0 / 3.0, 6.0 / 5.0)
QUADRATURE_REPEATS = 15
CERTIFY_REPEATS = 50
STARTUP_REPEATS = 15
# Each statement runs in a fresh interpreter, which prints the seconds it
# took; argv[1] is the directory holding the bergex package, argv[2] and
# argv[3] the solution to verify and the report to write, argv[4] and
# argv[5] the config to solve and the solution to write.
STARTUP_PROBES = (
    ("import numpy", "import numpy"),
    ("import bergex.cli", "import bergex.cli"),
    ("bergex verify", "from bergex import cli; "
                      "cli.main(['verify', sys.argv[2], '--out', sys.argv[3]])"),
    ("bergex solve", "from bergex import cli; "
                     "cli.main(['solve', '--config', sys.argv[4], "
                     "'--out', sys.argv[5]])"),
)


def cell(times):
    """One timed cell of a table: the median, min and max seconds of its
    repeats, and their count."""
    return {"median": statistics.median(times), "min": min(times),
            "max": max(times), "repeats": len(times)}


def time_call(fn, *args, repeats=200):
    """The ``cell`` of fn(*args) over the given number of repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return cell(times)


# Values of FFT_THRESHOLD that force each path for every operand size.
PATHS = (("direct", float("inf")), ("fft", 0))
# the columns of a path table: each path on complex, then on real operands
PATH_LABELS = [label + kind for kind in ("", " real") for label, _ in PATHS]


def time_paths(fn, operands, repeats):
    """The ``cell`` of fn(*args) for args in ``operands`` (the complex
    arguments, then the real ones), on each path of PATHS: the four cells
    of a row in PATH_LABELS' order. The cells are timed call by call in
    turn."""
    cells = [(args, threshold) for args in operands for _, threshold in PATHS]
    times = [[] for _ in cells]
    try:
        for _ in range(repeats):
            for (args, threshold), column in zip(cells, times):
                _backend.FFT_THRESHOLD = threshold
                start = time.perf_counter()
                fn(*args)
                column.append(time.perf_counter() - start)
    finally:
        _backend.FFT_THRESHOLD = THRESHOLD_IN_USE
    return [cell(column) for column in times]


def medians(cells):
    """The median seconds of each cell of a row."""
    return [c["median"] for c in cells]


def crossover(sizes, degrees, rows):
    """The line under a path table: for each operand kind, the first size
    from which its fft column is below its direct column at every larger
    size, with the output degree there, which is what FFT_THRESHOLD is
    compared with. ``rows`` holds the median seconds of each row."""
    parts = []
    for kind, direct, fft in (("complex", 0, 1), ("real", 2, 3)):
        first = None
        for n, degree, row in zip(sizes, degrees, rows):
            if row[fft] >= row[direct]:
                first = None
            elif first is None:
                first = f"n = {n} (output degree {degree})"
        parts.append(f"{kind} from {first or 'no size here'}")
    return "crossover, fft ahead: " + "; ".join(parts)


def bench_operation(name, fn, sizes, repeats):
    print(f"\n{name}: median microseconds per call")
    header = f"{'n':>6}" + "".join(f"{label:>14}" for label in PATH_LABELS)
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    rows, table = [], []
    for n in sizes:
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cells = time_paths(fn, ((a, b), (a.real, b.real)), repeats)
        rows.append(medians(cells))
        table.append({"n": n, **dict(zip(PATH_LABELS, cells))})
        print(f"{n:>6}" + "".join(f"{t * 1e6:>14.2f}" for t in rows[-1]))
    print(crossover(sizes, [2 * n - 2 for n in sizes], rows))
    return table


def newton_step(a, p):
    """One iteration's dense work: Newton terms, Hessian, Cholesky factor.

    Returns ``dpotrf``'s factor and info, 0 when the factorization
    succeeded."""
    wu, v = _newton_terms(a, p)[2:]
    return LAPACK.dpotrf(_hessian(a, p, wu, v), lower=1, overwrite_a=1,
                         clean=0)


def final_step(a, p, factor):
    """The converged iteration's: Newton terms, then a step with ``factor``."""
    LAPACK.dpotrs(factor, _newton_terms(a, p)[1], lower=1)


def bench_newton_step(sizes, repeats):
    print("\nnewton_step: median milliseconds per call")
    header = (f"{'n':>6}{'p':>4}{'real':>10}{'complex':>10}{'ratio':>8}"
              f"{'real final':>12}{'complex final':>15}"
              f"{'real hessian':>14}{'complex hessian':>17}")
    print(header)
    print("-" * len(header))
    table = []
    for n in sizes:
        a = (np.arange(n + 1) + 1.0) ** -1.6
        for p in (4, 6):
            cells = []
            for coeffs in (a, np.exp(0.7j) * a):
                factor = newton_step(coeffs, p)[0]
                wu, v = _newton_terms(coeffs, p)[2:]
                cells.append(time_call(newton_step, coeffs, p,
                                       repeats=repeats))
                cells.append(time_call(final_step, coeffs, p, factor,
                                       repeats=repeats))
                cells.append(time_call(_hessian, coeffs, p, wu, v,
                                       repeats=repeats))
            table.append({"n": n, "p": p, **dict(zip(
                ("real", "real final", "real hessian", "complex",
                 "complex final", "complex hessian"), cells))})
            real, real_final, real_hessian, cplx, cplx_final, cplx_hessian = (
                t * 1e3 for t in medians(cells))
            print(f"{n:>6}{p:>4}{real:>10.3f}{cplx:>10.3f}{cplx / real:>8.2f}"
                  f"{real_final:>12.3f}{cplx_final:>15.3f}"
                  f"{real_hessian:>14.3f}{cplx_hessian:>17.3f}")
    return table


def bench_power(sizes, repeats):
    print("\npower: median microseconds per |f|^p spectrum")
    header = (f"{'n':>6}{'p':>4}"
              + "".join(f"{label:>14}" for label in PATH_LABELS)
              + f"{'error':>10}")
    print(header)
    print("-" * len(header))
    table = []
    for p in (4, 6):
        rows = []
        for n in sizes:
            a = (np.arange(n) + 1.0) ** -1.6
            rotated = np.exp(0.7j) * a
            cells = time_paths(_backend.abs_power_xcorr,
                               ((rotated, p), (a, p)), repeats)
            rows.append(medians(cells))
            spectra = []
            for _, threshold in PATHS:
                _backend.FFT_THRESHOLD = threshold
                spectra.append(_backend.abs_power_xcorr(rotated, p))
            _backend.FFT_THRESHOLD = THRESHOLD_IN_USE
            direct, fft = spectra
            error = float(np.max(np.abs(fft - direct))
                          / np.max(np.abs(direct)))
            table.append({"n": n, "p": p, **dict(zip(PATH_LABELS, cells)),
                          "error": error})
            print(f"{n:>6}{p:>4}"
                  + "".join(f"{t * 1e6:>14.2f}" for t in rows[-1])
                  + f"{error:>10.1e}")
        print(f"p = {p}: "
              + crossover(sizes, [p * (n - 1) for n in sizes], rows))
    return table


def bench_solve(sizes, repeats):
    print("\nsolve: median milliseconds per solve_extremal call")
    header = f"{'n':>6}{'p':>4}{'ms':>12}{'iterations':>12}"
    print(header)
    print("-" * len(header))
    kernel = power_decay_kernel(1.6, 64)
    table = []
    for n in sizes:
        for p in (4, 6):
            problem = ExtremalProblem(p=p, kernel=kernel, degree=n)
            timed = time_call(solve_extremal, problem, repeats=repeats)
            iterations = solve_extremal(problem).iterations
            table.append({"n": n, "p": p, "solve": timed,
                          "iterations": iterations})
            print(f"{n:>6}{p:>4}{timed['median'] * 1e3:>12.2f}"
                  f"{iterations:>12}")
    return table


def bench_ladder(repeats):
    print("\nladder: median milliseconds per standard-family solve")
    header = (f"{'kernel':>16}{'p':>4}{'n':>6}{'ms':>10}{'hessians':>10}"
              f"  rungs (iterations)")
    print(header)
    print("-" * len(header))
    gram, newton = solver._gram, solver._newton
    builds, rungs = [0], []

    def counting_gram(*args):
        builds[0] += 1
        return gram(*args)

    def recording_newton(c_hat, *args):
        a, trace, failure = newton(c_hat, *args)
        rungs.append(f"{len(c_hat) - 1}({trace[-1][0]})")
        return a, trace, failure

    table = []
    for p in (4, 6):
        for name, kernel, n in standard_family():
            problem = ExtremalProblem(p=p, kernel=kernel, degree=n)
            timed = time_call(solve_extremal, problem, repeats=repeats)
            builds[0] = 0
            rungs.clear()
            solver._gram, solver._newton = counting_gram, recording_newton
            try:
                solve_extremal(problem)
            finally:
                solver._gram, solver._newton = gram, newton
            table.append({"kernel": name, "p": p, "n": n, "solve": timed,
                          "hessians": builds[0], "rungs": list(rungs)})
            print(f"{name:>16}{p:>4}{n:>6}{timed['median'] * 1e3:>10.2f}"
                  f"{builds[0]:>10}  {' '.join(rungs)}")
    return table


def family_solutions():
    """(kernel name, kernel, p, n, solution) for each standard-family
    kernel at its calibrated degree n, at p = 4 and 6."""
    return [(name, kernel, p, n,
             solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n)))
            for p in (4, 6) for name, kernel, n in standard_family()]


def bench_certificate(solutions, repeats):
    print("\ncertificate: median milliseconds per extremality_residual call")
    header = (f"{'kernel':>16}{'p':>4}{'n':>6}{'j max':>8}{'ms':>10}"
              f"{'residual':>11}")
    print(header)
    print("-" * len(header))
    table = []
    for name, kernel, p, n, sol in solutions:
        top = certificate_degree(p, n)
        timed = time_call(extremality_residual, sol.F, kernel, p,
                          sol.phi_norm, top, repeats=repeats)
        table.append({"kernel": name, "p": p, "n": n, "j_max": top,
                      "certificate": timed, "residual": sol.residual_max})
        print(f"{name:>16}{p:>4}{n:>6}{top:>8}{timed['median'] * 1e3:>10.3f}"
              f"{sol.residual_max:>11.1e}")
    return table


def bench_check_table(solutions, repeats):
    print("\ncheck_table: median milliseconds per check_table call")
    header = f"{'kernel':>16}{'p':>4}{'n':>6}{'ms':>10}{'checks':>8}"
    print(header)
    print("-" * len(header))
    table = []
    for name, kernel, p, n, sol in solutions:
        timed = time_call(check_table, sol.F, kernel, p, sol.phi_norm, n,
                          repeats=repeats)
        checks = len(check_table(sol.F, kernel, p, sol.phi_norm, n))
        table.append({"kernel": name, "p": p, "n": n, "check_table": timed,
                      "checks": checks})
        print(f"{name:>16}{p:>4}{n:>6}{timed['median'] * 1e3:>10.3f}"
              f"{checks:>8}")
    return table


def read_solution(path):
    """What ``bergex verify`` parses first: the file and its coefficients."""
    with open(path, encoding="utf-8") as fh:
        body = json.load(fh)["body"]
    return cli._read_coefficients(body["solution"],
                                  body["problem"]["degree"])


def bench_emit(sizes, repeats):
    print("\nemit: median milliseconds per report")
    header = (f"{'n':>6}{'p':>4}{'new':>12}{'overwrite':>12}{'read':>12}"
              f"{'kB':>10}")
    print(header)
    print("-" * len(header))
    spec = kernelspec.power_decay_spec(1.6, 64)
    kernel = kernelspec.realize(spec)
    p = 4
    table = []
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "solution.json")
        fresh = (os.path.join(workdir, f"new-{i}.json")
                 for i in itertools.count())
        for n in sizes:
            sol = solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
            reports = check_table(sol.F, kernel, p, sol.phi_norm, n)
            body = cli._solution_body(spec, sol, reports)
            stamp = cli._header()
            new = time_call(lambda: cli._emit_json(stamp, body, next(fresh)),
                            repeats=repeats)
            cli._emit_json(stamp, body, path)  # every timed call overwrites
            overwrite = time_call(cli._emit_json, stamp, body, path,
                                  repeats=repeats)
            read = time_call(read_solution, path, repeats=repeats)
            kilobytes = os.path.getsize(path) / 1e3
            table.append({"n": n, "p": p, "new": new, "overwrite": overwrite,
                          "read": read, "kB": kilobytes})
            new, overwrite, read = medians((new, overwrite, read))
            print(f"{n:>6}{p:>4}{new * 1e3:>12.2f}{overwrite * 1e3:>12.2f}"
                  f"{read * 1e3:>12.2f}{kilobytes:>10.1f}")
    return table


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

    table = []
    for p in (4, 6):
        timed = time_call(convergence_study, kernel, p, degrees,
                          repeats=repeats)
        calls.clear()
        solver._newton = counting_newton
        try:
            convergence_study(kernel, p, degrees)
        finally:
            solver._newton = newton
        table.append({"p": p, "degrees": list(degrees), "study": timed,
                      "newton": len(calls)})
        print(f"{p:>4}{timed['median'] * 1e3:>12.2f}{len(calls):>8}")
    return table


def bench_quadrature(repeats):
    print("\nquadrature: median milliseconds per call")
    header = (f"{'kernel':>16}{'real':>6}{'q':>6}{'bergman':>10}"
              f"{'hardy':>10}")
    print(header)
    print("-" * len(header))
    table = []
    for name, kernel, _ in standard_family():
        real = not np.iscomplexobj(kernel.coeffs)
        for q in QUADRATURE_EXPONENTS:
            bergman, hardy = (
                time_call(norm, kernel, q, repeats=repeats)
                for norm in (spaces.bergman_norm_general,
                             spaces.hardy_norm_general))
            table.append({"kernel": name, "real": real, "q": q,
                          "bergman": bergman, "hardy": hardy})
            bergman, hardy = medians((bergman, hardy))
            print(f"{name:>16}{'yes' if real else 'no':>6}{q:>6.3f}"
                  f"{bergman * 1e3:>10.3f}{hardy * 1e3:>10.3f}")
    return table


def bench_startup(repeats):
    print("\nstartup: median milliseconds per fresh interpreter")
    header = f"{'statement':>20}{'inside':>10}{'process':>10}"
    print(header)
    print("-" * len(header))
    package_dir = os.path.dirname(os.path.dirname(cli.__file__))
    times = [([], []) for _ in STARTUP_PROBES]
    with tempfile.TemporaryDirectory() as workdir:
        config = os.path.join(workdir, "config.json")
        solution = os.path.join(workdir, "solution.json")
        with open(config, "w", encoding="utf-8") as fh:
            # the family's power-decay-3.0 job at p = 6
            json.dump({"schema_version": 1, "p": 6, "degree": 128,
                       "kernel": {"type": "power_decay", "alpha": 3.0,
                                  "count": 64}}, fh)
        cli.main(["solve", "--config", config, "--out", solution])
        argv = [package_dir, solution, os.path.join(workdir, "verify.json"),
                config, os.path.join(workdir, "resolved.json")]
        for _ in range(repeats):
            for (_, statement), (inside, process) in zip(STARTUP_PROBES,
                                                          times):
                code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                        f"t = time.perf_counter(); {statement}; "
                        "print(time.perf_counter() - t)")
                start = time.perf_counter()
                out = subprocess.run([sys.executable, "-c", code, *argv],
                                     capture_output=True, text=True,
                                     check=True).stdout
                process.append(time.perf_counter() - start)
                inside.append(float(out.split()[-1]))
    table = []
    for (label, _), (inside, process) in zip(STARTUP_PROBES, times):
        table.append({"statement": label, "inside": cell(inside),
                      "process": cell(process)})
        print(f"{label:>20}{statistics.median(inside) * 1e3:>10.1f}"
              f"{statistics.median(process) * 1e3:>10.1f}")
    return table


def head_commit():
    """The commit checked out where the timed bergex package lives, or
    None outside a git work tree."""
    try:
        result = subprocess.run(
            ["git", "-C", os.path.dirname(cli.__file__), "rev-parse", "HEAD"],
            capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def environment():
    """What a run's numbers depend on besides the code."""
    return {"nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "commit": head_commit(),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "fft_threshold": THRESHOLD_IN_USE}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="16,32,64,128,256,512,1024",
                        help="comma-separated operand lengths")
    parser.add_argument("--repeats", type=int, default=200,
                        help="timing repeats per cell (median reported)")
    parser.add_argument("--out", default=None,
                        help="also write every table as one JSON object")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"FFT_THRESHOLD in use: {THRESHOLD_IN_USE} (output degree)")
    solutions = family_solutions()
    tables = {
        "conv": bench_operation("conv", _backend.conv, sizes, args.repeats),
        "xcorr": bench_operation("xcorr", _backend.xcorr, sizes,
                                 args.repeats),
        "newton_step": bench_newton_step(NEWTON_STEP_SIZES, NEWTON_REPEATS),
        "power": bench_power(sizes, args.repeats),
        "solve": bench_solve(NEWTON_SIZES, NEWTON_REPEATS),
        "ladder": bench_ladder(NEWTON_REPEATS),
        "certificate": bench_certificate(solutions, CERTIFY_REPEATS),
        "check_table": bench_check_table(solutions, CERTIFY_REPEATS),
        "emit": bench_emit(NEWTON_SIZES, NEWTON_REPEATS),
        "study": bench_study(STUDY_DEGREES, NEWTON_REPEATS),
        "quadrature": bench_quadrature(QUADRATURE_REPEATS),
        "startup": bench_startup(STARTUP_REPEATS),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "tables": tables}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
