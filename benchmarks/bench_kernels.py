"""Times the coefficient kernels, the solver, the reports and the quadrature.

Prints twelve tables, in this order: ``conv``, ``xcorr``,
``newton_step``, ``power``, ``solve``, ``ladder``, ``certificate``,
``check_table``, ``emit``, ``study``, ``quadrature`` and ``startup``.
A table's title names its unit, its headers are the keys of the rows
that ``--out`` writes, and a timed cell prints the median of its
repeats. The cells of a row are timed call by call in turn
(``time_cells``), so that drift in the machine's speed lands on all of
them alike. ``BENCH_layers.json`` holds a default run on a 2-CPU x86-64
VM with one BLAS thread, and ``BENCH_quadrature-parent.json`` and
``BENCH_quadrature.json`` two runs taken in turn, before and after the
disc quadrature's product route; the text below restates none of their
figures.

The ``conv`` and ``xcorr`` tables time ``bergex._backend.conv`` and
``xcorr`` at a range of operand sizes n, with ``FFT_THRESHOLD`` pinned
so that one path runs at every size: the direct NumPy evaluation used
below the threshold, or the FFT evaluation used at or above it, NumPy's
transforms at power-of-two lengths. ``xcorr`` is ``conv`` of the
reversed conjugate, so its cells time that convolution plus the
conjugate and the slice of its upper half. Both operands have length n,
so the output degree is 2n - 2. "direct" and "fft" time complex
operands; "direct real" and "fft real" time their real parts as float64
arrays, which stay real: the direct path is a real ``np.convolve`` and
the FFT path takes real transforms of half the size. Under each table a
crossover line gives, for complex and for real operands, the first size
from which the FFT cell is below the direct one at every larger size,
and the output degree there, which is what ``FFT_THRESHOLD`` is
compared with. The ``power`` table crosses much sooner, and
``FFT_THRESHOLD`` (512) follows it; ``bergex._backend`` gives the
reasons.

The ``newton_step`` table times the dense part of one solver iteration,
median of 5 calls, at p = 4 and 6 on the coefficients a_t = (t+1)^-1.6
of degree n = 16, 24 and 48, the sizes of the lowest rungs of the
degree ladders, and 96, 352 and 704. The "real" and "complex" cells
time an iteration that steps before convergence: ``solver._newton_terms``
(objective and gradient), ``solver._hessian`` and the Cholesky
factorization of that Hessian by LAPACK's ``dpotrf``, called directly as
the solver calls it, on the lower triangle (``lower=1``), the one
``_hessian`` builds. The "real" cell passes the coefficients as a real
vector, which the solver does for a real kernel (n+1 unknowns); the
"complex" cell passes e^{0.7i} a_t, whose Hessian has 2(n+1) rows.
The "real final" and "complex final" cells time the iteration that
meets the tolerance: objective and gradient, then the step with the
lower Cholesky factor kept from the iteration before (LAPACK's
``dpotrs``, ``lower=1``), which is all the solver's final step costs
now that it builds no Hessian. The "real hessian" and "complex hessian"
cells time ``solver._hessian`` alone, from the objective's W f^s and
f^{s-1}, so that the Hessian's assembly shows apart from its
factorization. Pin OpenBLAS to one thread for this table: on a 2-CPU VM
its threads made single cells up to 20x slower from run to run.

The ``power`` table times ``_backend.abs_power_xcorr``, the Fourier
coefficients b_0..b_{(p/2)(n-1)} of |f|^p, at p = 4 and 6 for the n
coefficients a_t = (t+1)^-1.6, at the ``--sizes`` of the tables above,
median of ``--repeats`` calls, with the cells and the crossover lines
of those tables. Its direct path is ``_backend.power``'s p/2 - 1
products and one correlation, and its FFT path one transform of f; the
output degree it dispatches on is p (n - 1). "direct" and "fft" time
e^{0.7i} a_t, "direct real" and "fft real" the float64 a_t. "error" is
the largest difference between the two paths on e^{0.7i} a_t, relative
to the largest |b_m|.

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

The ``certificate`` and ``check_table`` tables time the two layers that
certify a solve, on the solution of each standard-family kernel at its
calibrated degree n, p = 4 and 6, median of 50 calls, since each call
takes well under a millisecond. ``certificate`` is
``solver.extremality_residual`` over the monomials j = 0..
``solver.certificate_degree(p, n)``, the j listed as "j_max";
"residual" is the largest modulus, the solve's ``residual_max``.
``check_table`` is ``checks.check_table``, the reports every ``bergex
solve`` records and every ``bergex verify`` recomputes; "checks" counts
them. The solutions are solved once, before either table is timed.

The ``emit`` table times the report layer at the degrees of the
``solve`` table, median of 5 calls, on the solution of its kernel at
p = 4 with the checks every solve records (``checks.check_table``).
"new" is ``cli._emit_json`` of its ``cli._solution_body`` into a fresh
file of a temporary directory on every call, and "overwrite" the same
into one file that exists already, the case of a solve or verify that
reruns with the same ``--out``. "read" is ``json.load`` of that file
plus ``cli._read_coefficients``, the coefficient parse of ``bergex
verify``. "kB" is the size of the file.

The ``study`` table times ``checks.convergence_study`` of the ``solve``
table's kernel over the degrees 8, 16, ..., 64, median of 5 calls, at
p = 4 and 6, with the number of ``solver._newton`` calls one study
makes: one per rung of the single degree ladder that climbs the study's
degrees.

The ``quadrature`` table times the general-exponent norms, median of
15 calls, on each standard-family kernel at q = 4/3 and 6/5 and on
random polynomials of the ``QUADRATURE_DEGREES``, 8 to 255, with real
and with complex coefficients, at q = 4/3. "bergman" is
``spaces.bergman_norm_general`` as it dispatches, "product" and "fft"
the same with ``spaces._PRODUCT_THRESHOLD`` pinned so that one route
runs at every degree: the matrix product of ``spaces._product_means``
or the FFTs of ``spaces._circle_means``. "hardy" is
``spaces.hardy_norm_general`` (the unit circle). "real" says whether
the coefficients are real, which samples the half circle. A crossover
line under the table gives, for complex and for real polynomials, the
first degree from which the FFT route is ahead at every larger degree,
which is what ``_PRODUCT_THRESHOLD`` is compared with.

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
Importing ``scipy.linalg`` whole, as ``from scipy.linalg.lapack import
dpotrf`` does, doubles the last: over 12 alternating pairs of fresh
processes on a 2-CPU x86-64 VM the whole-process solve took 0.448 s
that way and 0.224 s with the module alone, and its peak RSS 59.1 MB
against 36.7 MB.

With ``--out PATH`` the script also writes every table to PATH as one
JSON object. ``tables`` maps each table's name to its rows. A timed cell
of a row is an object holding the ``median``, ``min`` and ``max`` seconds
of its repeats and their count, ``repeats``; a row's other entries (the
sizes, iterations, rungs, kB or error) are the printed ones.
``environment`` records ``nproc``, ``OPENBLAS_NUM_THREADS``, the NumPy,
SciPy and Python versions, the commit checked out where the timed
bergex package lives (null outside a git work tree), the date,
``FFT_THRESHOLD`` and ``spaces._PRODUCT_THRESHOLD``. A default run took
17-20 s on a 2-CPU x86-64 VM with one BLAS thread. To compare two
versions of bergex, run the script on each in turn, with PYTHONPATH at
each one's ``src``, in one session, and keep both files. Such a pair
compares two processes, whose speed can differ more than the cells of
one run: the cells of one table that pin a threshold are the A/B within
one process.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_kernels.py [--sizes 16,64,256,1024] [--repeats 200]
        [--out BENCH_label.json]
"""

import argparse
import contextlib
import itertools
import json
import os
import re
import statistics
import string
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from functools import partial

import numpy as np
import scipy

from bergex import _backend, cli, kernelspec, solver, spaces
from bergex.checks import check_table, convergence_study
from bergex.families import power_decay_kernel, standard_family
from bergex.poly import as_poly
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
# the degrees of the quadrature table's random polynomials
QUADRATURE_DEGREES = (8, 16, 24, 28, 32, 36, 40, 48, 64, 128, 255)
# Values of spaces._PRODUCT_THRESHOLD that force each route of
# bergman_norm_general at every degree: the matrix product, then the FFTs.
ROUTES = (("product", float("inf")), ("fft", 0))
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


@contextlib.contextmanager
def replaced(module, name, value):
    """``module.name`` bound to ``value`` inside the block, and to its old
    value again after it, whatever the block raises."""
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def time_cells(calls, repeats, thresholds=None,
               constant=(_backend, "FFT_THRESHOLD")):
    """The ``cell`` of each of ``calls``, functions of no argument, over
    ``repeats`` rounds that call each once, in turn. Each call runs with
    the threshold that ``constant``, a (module, name) pair, names at its
    entry of ``thresholds``, or at its value on entry when none is given,
    pinned outside the timed span."""
    module, name = constant
    thresholds = thresholds or [getattr(module, name)] * len(calls)
    times = [[] for _ in calls]
    for _ in range(repeats):
        for call, threshold, column in zip(calls, thresholds, times):
            with replaced(module, name, threshold):
                start = time.perf_counter()
                call()
                column.append(time.perf_counter() - start)
    return [cell(column) for column in times]


def table(title, row_format, rows, scale=1e3):
    """Prints ``title``, a header, a rule and ``rows``, the row dicts that
    --out writes, through ``row_format``, a str.format string over their
    keys. The header prints each key at its field's alignment and width.
    A timed cell prints its median seconds times ``scale``, a list its
    items joined by spaces."""
    header = "".join(
        literal + format(key or "", re.match(r"[<>^]?\d*", spec or "")[0])
        for literal, key, spec, _ in string.Formatter().parse(row_format))
    print(f"\n{title}\n{header}\n{'-' * len(header)}")
    for row in rows:
        print(row_format.format(**{
            key: value["median"] * scale if isinstance(value, dict)
            else " ".join(map(str, value)) if isinstance(value, list)
            else value for key, value in row.items()}))


# Values of FFT_THRESHOLD that force each path for every operand size.
PATHS = (("direct", float("inf")), ("fft", 0))
# the cells of a path table: each path on complex, then on real operands
PATH_LABELS = [label + kind for kind in ("", " real") for label, _ in PATHS]
PATH_FORMAT = "".join(f"{{{label}:>14.2f}}" for label in PATH_LABELS)


def path_cells(fn, operands, repeats):
    """The cells of fn(*args) for args in ``operands`` (the complex
    arguments, then the real ones), on each path of PATHS, keyed by
    PATH_LABELS."""
    calls, thresholds = zip(*[(partial(fn, *args), threshold)
                              for args in operands for _, threshold in PATHS])
    return dict(zip(PATH_LABELS, time_cells(calls, repeats, thresholds)))


def crossover(sizes, degrees, rows, what="output degree"):
    """The line under a path table: for each operand kind, the first size
    from which its fft column is below its direct column at every larger
    size, with ``what`` the threshold is compared with there, by default
    the output degree, which FFT_THRESHOLD is compared with. ``rows``
    holds the median seconds of each row."""
    parts = []
    for kind, direct, fft in (("complex", 0, 1), ("real", 2, 3)):
        first = None
        for n, degree, row in zip(sizes, degrees, rows):
            if row[fft] >= row[direct]:
                first = None
            elif first is None:
                first = f"n = {n} ({what} {degree})"
        parts.append(f"{kind} from {first or 'no size here'}")
    return "crossover, fft ahead: " + "; ".join(parts)


def path_medians(rows):
    """The median seconds of the PATH_LABELS cells of each row."""
    return [[row[label]["median"] for label in PATH_LABELS] for row in rows]


def bench_operation(name, fn, sizes, repeats):
    rng = np.random.default_rng(0)
    rows = []
    for n in sizes:
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows.append({"n": n, **path_cells(fn, ((a, b), (a.real, b.real)),
                                          repeats)})
    table(f"{name}: median microseconds per call", "{n:>6}" + PATH_FORMAT,
          rows, scale=1e6)
    print(crossover(sizes, [2 * n - 2 for n in sizes], path_medians(rows)))
    return rows


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
    rows = []
    for n in sizes:
        a = (np.arange(n + 1) + 1.0) ** -1.6
        for p in (4, 6):
            calls = []
            for coeffs in (a, np.exp(0.7j) * a):
                factor = newton_step(coeffs, p)[0]
                wu, v = _newton_terms(coeffs, p)[2:]
                calls += [partial(newton_step, coeffs, p),
                          partial(final_step, coeffs, p, factor),
                          partial(_hessian, coeffs, p, wu, v)]
            rows.append({"n": n, "p": p, **dict(zip(
                ("real", "real final", "real hessian", "complex",
                 "complex final", "complex hessian"),
                time_cells(calls, repeats)))})
    table("newton_step: median milliseconds per call",
          "{n:>6}{p:>4}{real:>10.3f}{complex:>10.3f}{real final:>12.3f}"
          "{complex final:>15.3f}{real hessian:>14.3f}"
          "{complex hessian:>17.3f}", rows)
    return rows


def bench_power(sizes, repeats):
    rows = []
    for p in (4, 6):
        for n in sizes:
            a = (np.arange(n) + 1.0) ** -1.6
            rotated = np.exp(0.7j) * a
            cells = path_cells(_backend.abs_power_xcorr,
                               ((rotated, p), (a, p)), repeats)
            spectra = []
            for _, threshold in PATHS:
                with replaced(_backend, "FFT_THRESHOLD", threshold):
                    spectra.append(_backend.abs_power_xcorr(rotated, p))
            direct, fft = spectra
            error = float(np.max(np.abs(fft - direct))
                          / np.max(np.abs(direct)))
            rows.append({"n": n, "p": p, **cells, "error": error})
    table("power: median microseconds per |f|^p spectrum",
          "{n:>6}{p:>4}" + PATH_FORMAT + "{error:>10.1e}", rows, scale=1e6)
    for p in (4, 6):
        print(f"p = {p}: " + crossover(
            sizes, [p * (n - 1) for n in sizes],
            path_medians(row for row in rows if row["p"] == p)))
    return rows


def bench_solve(sizes, repeats):
    kernel = power_decay_kernel(1.6, 64)
    rows = []
    for n in sizes:
        for p in (4, 6):
            problem = ExtremalProblem(p=p, kernel=kernel, degree=n)
            [timed] = time_cells([partial(solve_extremal, problem)], repeats)
            rows.append({"n": n, "p": p, "solve": timed,
                         "iterations": solve_extremal(problem).iterations})
    table("solve: median milliseconds per solve_extremal call",
          "{n:>6}{p:>4}{solve:>12.2f}{iterations:>12}", rows)
    return rows


def bench_ladder(repeats):
    gram, newton = solver._gram, solver._newton
    builds, rungs = [], []

    def counting_gram(*args):
        builds.append(None)
        return gram(*args)

    def recording_newton(c_hat, *args):
        a, trace, failure = newton(c_hat, *args)
        rungs.append(f"{len(c_hat) - 1}({trace[-1][0]})")
        return a, trace, failure

    rows = []
    for p in (4, 6):
        for name, kernel, n in standard_family():
            problem = ExtremalProblem(p=p, kernel=kernel, degree=n)
            [timed] = time_cells([partial(solve_extremal, problem)], repeats)
            builds.clear()
            rungs.clear()
            with replaced(solver, "_gram", counting_gram), \
                    replaced(solver, "_newton", recording_newton):
                solve_extremal(problem)
            rows.append({"kernel": name, "p": p, "n": n, "solve": timed,
                         "hessians": len(builds), "rungs": list(rungs)})
    table("ladder: median milliseconds per standard-family solve",
          "{kernel:>16}{p:>4}{n:>6}{solve:>10.2f}{hessians:>10}  {rungs}",
          rows)
    return rows


def family_solutions():
    """(kernel name, kernel, p, n, solution) for each standard-family
    kernel at its calibrated degree n, at p = 4 and 6."""
    return [(name, kernel, p, n,
             solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n)))
            for p in (4, 6) for name, kernel, n in standard_family()]


def bench_certificate(solutions, repeats):
    rows = []
    for name, kernel, p, n, sol in solutions:
        top = certificate_degree(p, n)
        [timed] = time_cells([partial(extremality_residual, sol.F, kernel, p,
                                      sol.phi_norm, top)], repeats)
        rows.append({"kernel": name, "p": p, "n": n, "j_max": top,
                     "certificate": timed, "residual": sol.residual_max})
    table("certificate: median milliseconds per extremality_residual call",
          "{kernel:>16}{p:>4}{n:>6}{j_max:>8}{certificate:>12.3f}"
          "{residual:>11.1e}", rows)
    return rows


def bench_check_table(solutions, repeats):
    rows = []
    for name, kernel, p, n, sol in solutions:
        args = (sol.F, kernel, p, sol.phi_norm, n)
        [timed] = time_cells([partial(check_table, *args)], repeats)
        rows.append({"kernel": name, "p": p, "n": n, "check_table": timed,
                     "checks": len(check_table(*args))})
    table("check_table: median milliseconds per check_table call",
          "{kernel:>16}{p:>4}{n:>6}{check_table:>12.3f}{checks:>8}", rows)
    return rows


def read_solution(path):
    """What ``bergex verify`` parses first: the file and its coefficients."""
    with open(path, encoding="utf-8") as fh:
        body = json.load(fh)["body"]
    return cli._read_coefficients(body["solution"],
                                  body["problem"]["degree"])


def bench_emit(sizes, repeats):
    spec = kernelspec.power_decay_spec(1.6, 64)
    kernel = kernelspec.realize(spec)
    p = 4
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "solution.json")
        fresh = (os.path.join(workdir, f"new-{i}.json")
                 for i in itertools.count())
        for n in sizes:
            sol = solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
            reports = check_table(sol.F, kernel, p, sol.phi_norm, n)
            body = cli._solution_body(spec, sol, reports)
            stamp = cli._header()
            cli._emit_json(stamp, body, path)  # every timed call overwrites
            new, overwrite, read = time_cells(
                [lambda: cli._emit_json(stamp, body, next(fresh)),
                 partial(cli._emit_json, stamp, body, path),
                 partial(read_solution, path)], repeats)
            rows.append({"n": n, "p": p, "new": new, "overwrite": overwrite,
                         "read": read, "kB": os.path.getsize(path) / 1e3})
    table("emit: median milliseconds per report",
          "{n:>6}{p:>4}{new:>12.2f}{overwrite:>12.2f}{read:>12.2f}{kB:>10.1f}",
          rows)
    return rows


def bench_study(degrees, repeats):
    kernel = power_decay_kernel(1.6, 64)
    newton, calls = solver._newton, []

    def counting_newton(*args):
        calls.append(None)
        return newton(*args)

    rows = []
    for p in (4, 6):
        [timed] = time_cells([partial(convergence_study, kernel, p, degrees)],
                             repeats)
        calls.clear()
        with replaced(solver, "_newton", counting_newton):
            convergence_study(kernel, p, degrees)
        rows.append({"p": p, "degrees": list(degrees), "study": timed,
                     "newton": len(calls)})
    table("study: median milliseconds per convergence_study call",
          "{p:>4}{study:>12.2f}{newton:>8}", rows)
    return rows


def bench_quadrature(repeats):
    in_use = spaces._PRODUCT_THRESHOLD
    pins = [in_use, *(threshold for _, threshold in ROUTES), in_use]
    rng = np.random.default_rng(0)
    kernels = [(name, kernel, QUADRATURE_EXPONENTS)
               for name, kernel, _ in standard_family()]
    for d in QUADRATURE_DEGREES:
        c = rng.standard_normal(d + 1)
        kernels += [("real poly", as_poly(c), QUADRATURE_EXPONENTS[:1]),
                    ("complex poly",
                     as_poly(c + 1j * rng.standard_normal(d + 1)),
                     QUADRATURE_EXPONENTS[:1])]
    rows = []
    for name, kernel, exponents in kernels:
        for q in exponents:
            bergman = partial(spaces.bergman_norm_general, kernel, q)
            cells = time_cells(
                [bergman] * 3 + [partial(spaces.hardy_norm_general, kernel, q)],
                repeats, pins, (spaces, "_PRODUCT_THRESHOLD"))
            rows.append({"kernel": name,
                         "real": not np.iscomplexobj(kernel.coeffs),
                         "degree": kernel.degree, "q": q, **dict(zip(
                             ["bergman", *(r for r, _ in ROUTES), "hardy"],
                             cells))})
    table("quadrature: median milliseconds per call",
          "{kernel:>16}{real!s:>6}{degree:>7}{q:>6.3f}{bergman:>10.3f}"
          "{product:>10.3f}{fft:>10.3f}{hardy:>10.3f}", rows)
    polys = [row for row in rows if row["kernel"].endswith(" poly")]
    medians = [[row[route]["median"] for row in (complex_row, real_row)
                for route, _ in ROUTES]
               for real_row, complex_row in zip(polys[0::2], polys[1::2])]
    print("bergman_norm_general, product against fft: " + crossover(
        [d + 1 for d in QUADRATURE_DEGREES], QUADRATURE_DEGREES, medians,
        what="degree"))
    return rows


def bench_startup(repeats):
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
    rows = [{"statement": label, "inside": cell(inside),
             "process": cell(process)}
            for (label, _), (inside, process) in zip(STARTUP_PROBES, times)]
    table("startup: median milliseconds per fresh interpreter",
          "{statement:>20}{inside:>10.1f}{process:>10.1f}", rows)
    return rows


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
            "fft_threshold": THRESHOLD_IN_USE,
            "product_threshold": spaces._PRODUCT_THRESHOLD}


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
