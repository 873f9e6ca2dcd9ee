"""Command-line driver: solve, verify, studies, oracle comparison.

Reports separate a header (timestamps, tool version) from a body
(everything computed), and the body is deterministic: identical config
and seed produce byte-identical bodies at one BLAS thread count. Every
JSON report, a solution included, is one line with sorted keys and
floats at full precision, written by json's C encoder;
``python3 -m json.tool solution.json`` pretty-prints it. Studies emit
CSV rows or JSON.

``bergex solve`` records one fixed table of checks (``check_records``)
and gates on it and on its extremality certificate.

Exit codes: 0 all checks passed, 1 a check failed, the certificate's
residual_max exceeds DEFAULT_CERTIFICATE_TOL or verification mismatched,
2 solver non-convergence, 3 invalid input or command line.
"""

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import kernelspec
from .checks import (
    STUDY_TOLERANCE,
    check_hinfty_criterion,
    check_records,
    check_reports,
    convergence_study,
    growth_study,
)
from .families import DEFAULT_SEED, standard_family
from .kernelspec import (_REQUIRED, ConfigError, _complex_pairs, _field,
                         _finite_number, _pairs_field)
from .poly import AnalyticPoly
from .solver import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    ExtremalProblem,
    NonConvergenceError,
    brute_force_oracle,
    certificate_degree,
    extremality_residual,
    solve_extremal,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID = 3

SCHEMA_VERSION = 1
# the largest coefficient gap at which oracle-compare calls the quadrature
# oracle and the solver in agreement
ORACLE_TOLERANCE = 1e-6


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("config is nested too deeply to read") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _field(data, "schema_version", int, lambda v: v == SCHEMA_VERSION,
           f"the supported schema_version is {SCHEMA_VERSION}", SCHEMA_VERSION)
    return data


def _positive_finite(value):
    return 0 < value < math.inf


def _degrees(config, default=_REQUIRED):
    """The study field 'degrees': at least two distinct integers in
    0..MAX_DEGREE. A study solves each distinct degree once, so a repeat
    would be dropped."""
    return _field(config, "degrees", list, lambda v: len(v) >= 2 and all(
        isinstance(n, int) and not isinstance(n, bool)
        and 0 <= n <= kernelspec.MAX_DEGREE for n in v)
        and len(set(v)) == len(v),
        f"need at least two distinct integers in 0..{kernelspec.MAX_DEGREE}",
        default)


def _seed(config):
    """The config field 'seed', an integer >= 0 that reports record in
    their header."""
    return _field(config, "seed", int, lambda v: v >= 0, "seed must be >= 0",
                  None)


def _validate_common(config):
    p = _field(config, "p", int,
               lambda v: 2 <= v <= kernelspec.MAX_EXPONENT and v % 2 == 0,
               f"p must be an even integer in 2..{kernelspec.MAX_EXPONENT}")
    tolerance = _field(config, "tolerance", float, _positive_finite,
                       "tolerance must be positive and finite",
                       DEFAULT_TOLERANCE)
    return p, tolerance


def _problem(config):
    """(p, tolerance, degree, kernel spec) of a solve config, or of the
    problem a solution file records."""
    p, tolerance = _validate_common(config)
    degree = _field(config, "degree", int,
                    lambda v: 1 <= v <= kernelspec.MAX_DEGREE,
                    f"degree must be in 1..{kernelspec.MAX_DEGREE}")
    return p, tolerance, degree, kernelspec.from_dict(
        _field(config, "kernel", dict))


def _study_exponent(config):
    """The study field 'p'. Studies solve at STUDY_TOLERANCE, so a
    'tolerance' field, which they would ignore, is refused."""
    if "tolerance" in config:
        raise ConfigError(f"config field 'tolerance' does not apply to "
                          f"studies, which solve at {STUDY_TOLERANCE:g}")
    return _validate_common(config)[0]


def _jsonable(value):
    """Recursively convert report payloads into strict JSON structures:
    a complex number is its [re, im] pair, and NaN and +-inf are null."""
    if isinstance(value, complex):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json_coefficients(coeffs):
    """Coefficients as [re, im] pairs, the Python floats of the array."""
    return np.column_stack([coeffs.real, coeffs.imag]).tolist()


def _read_coefficients(solution, degree):
    """The complex coefficients a solution section of the given degree
    records, bit for bit: the pairs ``_pairs_field`` validates, through
    ``_complex_pairs``. F lies in P_degree, so there are at most
    degree + 1 of them; fewer are valid, since trailing zeros are trimmed."""
    return _complex_pairs(_pairs_field(solution, "coefficients", degree + 1))


def _header(seed=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "bergex",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
    }


def _emit_json(header, body, out):
    """One line of JSON with sorted keys, through json's C encoder."""
    payload = {"header": header, "body": body}
    _write(json.dumps(payload, sort_keys=True) + "\n", out)


def _emit_study(header, rows, out, fmt, **summary):
    """A study report: its rows of like-keyed dicts, then its summary.

    CSV writes the header as ``# key: value`` lines, then the rows under
    the first row's keys, then the summary the same way as the header.
    JSON writes the rows as ``rows`` beside the summary's keys.
    """
    if fmt != "csv":
        _emit_json(header, _jsonable({"rows": rows, **summary}), out)
        return
    buf = io.StringIO()
    buf.writelines(f"# {key}: {value}\n" for key, value in header.items())
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    buf.writelines(f"# {key}: {value}\n" for key, value in summary.items())
    _write(buf.getvalue(), out)


def _write(text, out):
    """Write a report to the path ``out``, or to stdout when it is unset.

    An existing file is written over in place and then cut to the new
    length. Opening it with ``O_TRUNC`` instead makes ext4
    (``auto_da_alloc``) start writeback when the file is closed, which
    costs more than the whole in-place write of a small report. The
    write is neither atomic nor fsynced, as a truncating one was not: a
    file torn by a power loss fails to parse or fails ``bergex verify``'s
    residual recomputation. Only a regular file is cut; ``/dev/null``
    cannot be.
    """
    if not out:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _solution_body(spec, tolerance, solution, reports):
    return {
        "problem": {
            "p": solution.p,
            "degree": solution.degree,
            "tolerance": tolerance,
            "kernel": spec,
        },
        "solution": {
            "coefficients": _json_coefficients(solution.F.coeffs),
            "phi_norm": solution.phi_norm,
            "residual_max": solution.residual_max,
            "iterations": solution.iterations,
        },
        "checks": [_jsonable(vars(r)) for r in reports],
    }


def run_solve(config, out=None):
    p, tolerance, degree, spec = _problem(config)
    kernel = kernelspec.realize(spec)
    max_iterations = _field(config, "max_iterations", int, lambda v: v >= 1,
                            "max_iterations must be >= 1",
                            DEFAULT_MAX_ITERATIONS)
    seed = _seed(config)
    problem = ExtremalProblem(
        p=p, kernel=kernel, degree=degree, tolerance=tolerance,
        max_iterations=max_iterations,
    )
    solution = solve_extremal(problem)
    if not math.isfinite(solution.phi_norm):
        raise ValueError("the functional norm ||phi|| overflows the float "
                         "range; scale the kernel down")
    reports = check_reports(check_records(degree), solution.F, kernel, p,
                            solution.phi_norm)
    body = _solution_body(spec, tolerance, solution, reports)
    _emit_json(_header(seed), body, out)
    passed = solution.certified and all(r.passed for r in reports)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _recorded_checks(body, degree):
    """A solution file's check records. Each is an object whose name, and
    the context field that picks its report, are read by the config rule,
    in the range solve records."""
    records = _field(body, "checks", list,
                     lambda v: all(isinstance(r, dict) for r in v),
                     "each check record must be an object")
    for record in records:
        name = _field(record, "check_name", str)
        context = _field(record, "context", dict, default={})
        if name == "fourier_formula":
            _field(context, "m", int, lambda v: v >= 0, "m must be >= 0")
        elif name == "coefficient_bound_sweep":
            _field(context, "m_max", int, lambda v: 0 <= v <= 2 * degree,
                   f"m_max must be in 0..{2 * degree}")
    return records


def run_verify(solution_path, out=None):
    """Re-check a serialized solution; residuals must reproduce to 1e-14.
    Every recorded field is read by the rule of ``bergex solve``'s config."""
    try:
        with open(solution_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        body = payload["body"]
        p, _, degree, spec = _problem(body["problem"])
        kernel = kernelspec.realize(spec)
        solution = body["solution"]
        F = AnalyticPoly(_read_coefficients(solution, degree))
        phi_norm = _field(solution, "phi_norm", float, _positive_finite,
                          "phi_norm must be positive and finite")
        recorded_max = _field(solution, "residual_max", float)
        checks = _recorded_checks(body, degree)
        reports = check_reports(checks, F, kernel, p, phi_norm)
        pairs = list(zip(checks, reports))
        rows = [{"check_name": check["check_name"],
                 "recorded": _field(check, "residual", float),
                 "recomputed": float(report.residual)}
                for check, report in pairs if report is not None]
        skipped = [check["check_name"]
                   for check, report in pairs if report is None]
    except (OSError, KeyError, TypeError, ValueError, OverflowError,
            json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable solution file: {exc}") from exc
    except RecursionError:
        raise ConfigError(
            "solution file is nested too deeply to read") from None

    residuals = extremality_residual(F, kernel, p, phi_norm,
                                     certificate_degree(p, degree))
    rows.insert(0, {"check_name": "residual_max",
                    "recorded": recorded_max,
                    "recomputed": float(np.max(np.abs(residuals)))})
    for row in rows:
        row["difference"] = abs(row["recomputed"] - row["recorded"])
    worst = float(np.max([row["difference"] for row in rows]))  # NaN fails

    ok = bool(worst <= 1e-14)
    body_out = {"verified": ok, "max_difference": worst, "rows": rows,
                "skipped": skipped}
    _emit_json(_header(), _jsonable(body_out), out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def check_coefficient_sweep_for_verify(F, kernel, p, phi_norm, m_max):
    """The coefficient-bound sweep of a reloaded solution, as solve runs it.

    Unused by the commands, which build the sweep in ``check_reports``;
    perfbench/tracer.py still wraps this name.
    """
    return check_reports([{"check_name": "coefficient_bound_sweep",
                           "context": {"m_max": m_max}}],
                         F, kernel, p, phi_norm)[0]


def run_growth_study(config, out=None, fmt="csv", seed=None):
    p = _study_exponent(config)
    q = p / (p - 1.0)
    q1_list = _field(config, "q1_list", list, lambda v: v and all(
        _finite_number(q1) and (p - 1) * q1 <= kernelspec.MAX_EXPONENT
        for q1 in v),
        f"q1_list must be a non-empty list of finite numbers q1 with "
        f"(p - 1) * q1 <= {kernelspec.MAX_EXPONENT}", [q, 2.0, 4.0])
    if seed is None:
        seed = _seed(config)
    family, seed = _study_family(config, seed)
    rows = growth_study(family, p, q1_list)
    # np.max, unlike max(), keeps a NaN ratio
    ratios = np.array([r.ratio for r in rows])
    _emit_study(_header(seed), [vars(r) for r in rows], out, fmt,
                empirical_C=float(np.max([ratios.max(), 1.0 / ratios.min()])))
    return EXIT_OK


def _study_family(config, seed):
    """Family for studies, the standard one or explicit kernel specs, and
    the seed to record: the standard family's random kernels are drawn
    from ``seed``, or from DEFAULT_SEED when it is None."""
    specs = config.get("family", "standard")
    if specs == "standard":
        seed = DEFAULT_SEED if seed is None else seed
        limit = _field(config, "max_study_degree", int, lambda v: v >= 0,
                       "max_study_degree must be >= 0", 128)
        return [(name, k, min(d, limit))
                for name, k, d in standard_family(seed)], seed
    if not (isinstance(specs, list) and specs):
        raise ConfigError("config field 'family' must be \"standard\" or a "
                          "non-empty list of kernel specs")
    entries = []
    degree = _field(config, "degree", int,
                    lambda v: 0 <= v <= kernelspec.MAX_DEGREE,
                    f"degree must be in 0..{kernelspec.MAX_DEGREE}", 64)
    for item in specs:
        spec = kernelspec.from_dict(item)
        entries.append((kernelspec.describe(spec), kernelspec.realize(spec),
                        degree))
    return entries, seed


def run_convergence_study(config, out=None, fmt="csv"):
    p = _study_exponent(config)
    degrees = _degrees(config)
    kernel = kernelspec.realize(kernelspec.from_dict(
        _field(config, "kernel", dict)))
    seed = _seed(config)
    rows = convergence_study(kernel, p, degrees)
    _emit_study(_header(seed), [{"degree": n, "distance": d} for n, d in rows],
                out, fmt)
    return EXIT_OK


def run_hinfty_study(config, out=None, fmt="csv"):
    p = _study_exponent(config)
    alpha = _field(config, "alpha", float, _positive_finite,
                   "alpha must be positive and finite")
    degrees = _degrees(config, [16, 32, 64])
    seed = _seed(config)
    report = check_hinfty_criterion(alpha, p, degrees)
    sups = report.context["sup_by_degree"]
    l1 = report.context["l1_by_degree"]
    rows = [{"degree": n, "sup": sups[n], "l1_mass": l1[n]}
            for n in sorted(sups)]
    _emit_study(_header(seed), rows, out, fmt,
                relative_growth=report.residual, verdict=report.verdict)
    return EXIT_OK if report.verdict in ("pass", "withheld") else EXIT_CHECK_FAILED


def run_oracle_compare(config, out=None):
    p, tolerance = _validate_common(config)
    kernel = kernelspec.realize(kernelspec.from_dict(
        _field(config, "kernel", dict)))
    degree = _field(config, "oracle_degree", int, lambda v: v in (2, 3),
                    "oracle_degree must be 2 or 3", 3)
    seed = _seed(config)
    oracle_F = brute_force_oracle(kernel, p, degree=degree)
    problem = ExtremalProblem(p=p, kernel=kernel, degree=degree,
                              tolerance=min(tolerance, 1e-12))
    solution = solve_extremal(problem)
    gap = float(np.max(np.abs(
        oracle_F.padded(degree + 1) - solution.F.padded(degree + 1))))
    agree = gap <= ORACLE_TOLERANCE
    body = {
        "oracle_coefficients": _json_coefficients(oracle_F.coeffs),
        "solver_coefficients": _json_coefficients(solution.F.coeffs),
        "max_coefficient_gap": gap,
        "agree": agree,
    }
    _emit_json(_header(seed), _jsonable(body), out)
    return EXIT_OK if agree else EXIT_CHECK_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, with usage errors reported as invalid input (exit 3)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _ArgumentParser(
        prog="bergex",
        description="Extremal problems over Bergman spaces: solve, certify, "
                    "and study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, fmt=True):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            sp.add_argument("--format", default="csv", choices=["json", "csv"])

    add_common(sub.add_parser("solve", help="solve one extremal problem"),
               fmt=False)
    ver = sub.add_parser("verify", help="re-check a serialized solution")
    ver.add_argument("solution", help="solution JSON from `bergex solve`")
    ver.add_argument("--out", default=None)
    study = sub.add_parser("study", help="run a family study")
    study.add_argument("kind", choices=["growth", "convergence", "hinfty"])
    add_common(study)
    add_common(sub.add_parser("oracle-compare",
                              help="Newton quadrature oracle vs solver"),
               fmt=False)

    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            return run_verify(args.solution, out=args.out)
        config = _load_config(args.config)
        if args.command == "solve":
            return run_solve(config, out=args.out)
        if args.command == "study":
            runner = {"growth": run_growth_study,
                      "convergence": run_convergence_study,
                      "hinfty": run_hinfty_study}[args.kind]
            return runner(config, out=args.out, fmt=args.format)
        if args.command == "oracle-compare":
            return run_oracle_compare(config, out=args.out)
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        tail = exc.trace[-3:]
        for it, value, gnorm in tail:
            print(f"  iteration {it}: objective {value!r}, "
                  f"gradient {gnorm!r}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
