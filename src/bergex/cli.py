"""Command-line driver: solve, verify, studies, oracle comparison.

Reports separate a header (timestamps, tool version) from a body
(everything computed), and the body is deterministic: identical configs
produce byte-identical bodies at one BLAS thread count. Every
JSON report, a solution included, is one line with sorted keys and
floats at full precision, written by json's C encoder;
``python3 -m json.tool solution.json`` pretty-prints it. Studies emit
CSV rows or JSON.

``bergex solve`` records one fixed table of checks (``check_table``)
and gates on it and on its extremality certificate; ``bergex verify``
recomputes both from the file's problem, F and ||phi|| and compares.
Every command solves at ``solver.TOLERANCE``: a config holds the problem
alone, and a key nothing reads, such as the 'tolerance' of older configs
and solution files, is ignored.

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
from functools import partial

import numpy as np

from . import __version__
from . import kernelspec
from .checks import (
    _coefficient_bound_report,
    check_hinfty_criterion,
    check_table,
    convergence_study,
    growth_study,
)
from .families import DEFAULT_SEED, standard_family
from .kernelspec import (ConfigError, _check_degree, _check_degrees,
                         _check_exponent, _check_growth_exponents,
                         _check_positive, _complex_pairs, _field,
                         _growth_exponent, _pairs_field, _require)
from .poly import AnalyticPoly, rescaled
from .solver import (
    DEFAULT_CERTIFICATE_TOL,
    ExtremalProblem,
    NonConvergenceError,
    brute_force_oracle,
    certificate_degree,
    extremality_residual,
    solve_extremal,
    solve_ladder,
)
from .spaces import abs_power_spectrum

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID = 3

SCHEMA_VERSION = 1
# the largest coefficient gap at which oracle-compare calls the quadrature
# oracle and the solver in agreement
ORACLE_TOLERANCE = 1e-6
# the degree at which oracle-compare solves, within the oracle's reach
ORACLE_DEGREE = 3


def _load_json(path, what):
    """The JSON object in the file at ``path``, the ``what`` (a config or
    a solution file) that the messages name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{what} is nested too deeply to read") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return data


def _problem(config, what="config"):
    """(p, degree, kernel spec) of a solve config, or of the problem a
    solution file records; ``what`` names the document, as for
    ``_field``."""
    return (_field(config, "p", int, _check_exponent, what=what),
            _field(config, "degree", int, _check_degree, what=what),
            kernelspec.from_dict(_field(config, "kernel", dict, what=what),
                                 what))


def _jsonable(value):
    """Recursively convert report payloads into strict JSON structures:
    a complex number is its [re, im] pair, and NaN and +-inf are null."""
    kind = type(value)  # the common exact types first, the cheap tests
    if kind is float:
        return value if math.isfinite(value) else None
    if kind is str or kind is int or kind is bool or value is None:
        return value
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


def _read_coefficients(solution, degree, what="config"):
    """The complex coefficients a solution section of the given degree
    records, bit for bit: the array of pairs ``_pairs_field`` validates,
    viewed by ``_complex_pairs``. F lies in P_degree, so there are at most
    degree + 1 of them; fewer are valid, since trailing zeros are trimmed.
    ``what`` names the document, as for ``_field``."""
    return _complex_pairs(_pairs_field(solution, "coefficients", degree + 1,
                                       what))


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


def _solution_body(spec, solution, reports):
    return {
        "problem": {
            "p": solution.p,
            "degree": solution.degree,
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
    p, degree, spec = _problem(config)
    kernel = kernelspec.realize(spec)
    solution = solve_extremal(ExtremalProblem(p, kernel, degree))
    if not math.isfinite(solution.phi_norm):
        raise ValueError("the functional norm ||phi|| overflows the float "
                         "range; scale the kernel down")
    reports = check_table(solution.F, kernel, p, solution.phi_norm, degree)
    body = _solution_body(spec, solution, reports)
    _emit_json(_header(), body, out)
    if degree < kernel.degree:
        print(f"warning: working degree {degree} below kernel degree "
              f"{kernel.degree}: the functional is truncated to P_{degree}",
              file=sys.stderr)
    passed = _certified(solution.residual_max, reports)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _certified(residual_max, reports):
    """The gate of ``bergex solve``: the certificate's residual_max is at
    most DEFAULT_CERTIFICATE_TOL and every report of the table passes."""
    return bool(residual_max <= DEFAULT_CERTIFICATE_TOL
                and all(r.passed for r in reports))


def _identity(name, context):
    """A check's name, its context's keys and, type for type, its m and
    m_max, so that JSON true is no m = 1."""
    return (name, sorted(context),
            *((type(context.get(key)), context.get(key))
              for key in ("m", "m_max")))


def run_verify(solution_path, out=None):
    """Recompute a serialized solution's table and certificate. Each table
    entry needs the one record of its ``_identity`` (else it is missing,
    and a record left over is unexpected), whose residual must reproduce
    to 1e-14. The file is read as ``bergex solve``'s config is, and
    every recorded field by the rule of that config. ``certified`` does
    not move the exit code."""
    what = "solution file"
    field = partial(_field, what=what)
    payload = _load_json(solution_path, what)
    try:
        body = field(payload, "body", dict)
        p, degree, spec = _problem(field(body, "problem", dict), what)
        kernel = kernelspec.realize(spec)
        solution = field(body, "solution", dict)
        F = AnalyticPoly(_read_coefficients(solution, degree, what))
        phi_norm = field(solution, "phi_norm", float,
                         lambda v: _check_positive(v, "phi_norm"))
        recorded_max = field(solution, "residual_max", float)
        records = [(_identity(field(record, "check_name", str),
                              field(record, "context", dict, default={})),
                    field(record, "residual", float))
                   for record in field(body, "checks", list, lambda v: (
                       _require(all(isinstance(r, dict) for r in v),
                                "each check record must be an object")))]
    except ValueError as exc:
        raise ConfigError(f"unreadable solution file: {exc}") from exc

    # an extreme F or ||phi|| gives inf or NaN residuals, written as null
    with np.errstate(all="ignore"):
        reports = check_table(F, kernel, p, phi_norm, degree)
        residual_max = float(np.max(np.abs(extremality_residual(
            F, kernel, p, phi_norm, certificate_degree(p, degree)))))
    unpaired = [_identity(r.check_name, r.context) for r in reports]
    recorded, unexpected = {}, []  # recorded: residual per table index
    for identity, residual in records:
        if identity in unpaired:
            i = unpaired.index(identity)
            unpaired[i], recorded[i] = None, residual
        else:
            unexpected.append(identity[0])
    rows = [("residual_max", recorded_max, residual_max, "pass"
             if residual_max <= DEFAULT_CERTIFICATE_TOL else "fail")]
    rows += [(r.check_name, recorded[i], float(r.residual), r.verdict)
             for i, r in enumerate(reports) if i in recorded]
    rows = [{"check_name": name, "recorded": old, "recomputed": new,
             "verdict": verdict, "difference": abs(new - old)}
            for name, old, new, verdict in rows]
    worst = float(np.max([row["difference"] for row in rows]))  # NaN fails
    missing = [r.check_name for i, r in enumerate(reports) if unpaired[i]]

    ok = bool(worst <= 1e-14) and not missing and not unexpected
    body_out = {"verified": ok,
                "certified": _certified(residual_max, reports),
                "max_difference": worst, "rows": rows, "missing": missing,
                "unexpected": unexpected}
    _emit_json(_header(), _jsonable(body_out), out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def check_coefficient_sweep_for_verify(F, kernel, p, phi_norm, m_max):
    """The coefficient-bound sweep over m = 0..m_max of a reloaded solution.

    Unused by the commands, which build the sweep in ``check_table``;
    perfbench/tracer.py still wraps this name.
    """
    return _coefficient_bound_report(F, kernel, p,
                                     rescaled(kernel.coeffs, phi_norm), m_max,
                                     abs_power_spectrum(F, p))


def run_growth_study(config, out=None, fmt="csv", seed=None):
    p = _field(config, "p", int, _check_exponent)
    # by default q, 2 and 4, less those past the rule's bound
    q1_list = _field(config, "q1_list", list,
                     lambda v: _check_growth_exponents(v, p),
                     [q1 for q1 in (p / (p - 1.0), 2.0, 4.0)
                      if _growth_exponent(q1, p)])
    if seed is None:
        seed = _field(config, "seed", int, lambda v: _require(
            v >= 0, "seed must be >= 0"), None)
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
    from ``seed``, or from DEFAULT_SEED when it is None, and explicit specs
    draw nothing, so they record None."""
    specs = config.get("family", "standard")
    if specs == "standard":
        seed = DEFAULT_SEED if seed is None else seed
        limit = _field(config, "max_study_degree", int, lambda v: _require(
            v >= 0, "max_study_degree must be >= 0"), 128)
        return [(name, k, min(d, limit))
                for name, k, d in standard_family(seed)], seed
    if not (isinstance(specs, list) and specs):
        raise ConfigError("config field 'family' must be \"standard\" or a "
                          "non-empty list of kernel specs")
    entries = []
    degree = _field(config, "degree", int, _check_degree, 64)
    for item in specs:
        spec = kernelspec.from_dict(item)
        entries.append((kernelspec.describe(spec), kernelspec.realize(spec),
                        degree))
    return entries, None


def run_convergence_study(config, out=None, fmt="csv"):
    p = _field(config, "p", int, _check_exponent)
    degrees = _field(config, "degrees", list, _check_degrees)
    kernel = kernelspec.realize(kernelspec.from_dict(
        _field(config, "kernel", dict)))
    rows = convergence_study(kernel, p, degrees)
    _emit_study(_header(), [{"degree": n, "distance": d} for n, d in rows],
                out, fmt)
    return EXIT_OK


def run_hinfty_study(config, out=None, fmt="csv"):
    p = _field(config, "p", int, _check_exponent)
    alpha = _field(config, "alpha", float, _check_positive)
    degrees = _field(config, "degrees", list, _check_degrees, [16, 32, 64])
    report = check_hinfty_criterion(alpha, p, degrees)
    sups = report.context["sup_by_degree"]
    l1 = report.context["l1_by_degree"]
    rows = [{"degree": n, "sup": sups[n], "l1_mass": l1[n]}
            for n in sorted(sups)]
    _emit_study(_header(), rows, out, fmt,
                relative_growth=report.residual, verdict=report.verdict)
    return EXIT_OK if report.verdict in ("pass", "withheld") else EXIT_CHECK_FAILED


def run_oracle_compare(config, out=None):
    """The quadrature oracle against the solver, both on S_3 k over P_3,
    a truncation made on purpose."""
    p = _field(config, "p", int, _check_exponent)
    kernel = kernelspec.realize(kernelspec.from_dict(
        _field(config, "kernel", dict)))
    oracle_F = brute_force_oracle(kernel, p, degree=ORACLE_DEGREE)
    solution = next(solve_ladder(p, kernel, [ORACLE_DEGREE]))
    gap = float(np.max(np.abs(oracle_F.padded(ORACLE_DEGREE + 1)
                              - solution.F.padded(ORACLE_DEGREE + 1))))
    agree = gap <= ORACLE_TOLERANCE
    body = {
        "oracle_coefficients": _json_coefficients(oracle_F.coeffs),
        "solver_coefficients": _json_coefficients(solution.F.coeffs),
        "max_coefficient_gap": gap,
        "agree": agree,
    }
    _emit_json(_header(), _jsonable(body), out)
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
        config = _load_json(args.config, "config")
        _field(config, "schema_version", int, lambda v: _require(
            v == SCHEMA_VERSION,
            f"the supported schema_version is {SCHEMA_VERSION}"), None)
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
