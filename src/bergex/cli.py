"""Command-line driver: solve, verify, studies, oracle comparison.

Reports separate a header (timestamps, tool version) from a body
(everything computed), and the body is deterministic: identical configs
produce byte-identical bodies at one BLAS thread count. Every
JSON report, a solution included, is one line with sorted keys and
floats at full precision, written by json's C encoder;
``python3 -m json.tool solution.json`` pretty-prints it. Studies emit
CSV rows or JSON.

``bergex solve`` records one fixed table of checks (``check_table``)
and the extremality certificate's residual_max, and exits by
``checks.certified`` on both; ``bergex verify`` recomputes both from the
file's problem, F and ||phi||, checks ||phi|| against Re phi(F),
compares, and reports the same verdict.
Every command solves at ``solver.TOLERANCE``: a config holds the problem
alone, and a key nothing reads, such as the 'tolerance' of older configs
and solution files or an older growth config's 'max_study_degree', is
ignored.

Exit codes: 0 all checks passed, 1 a solve that ``checks.certified``
fails (a check failed or the certificate's residual_max exceeds
DEFAULT_CERTIFICATE_TOL) or verification mismatched, 2 solver
non-convergence, 3 invalid input or command line.
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
    _record_key,
    _sweep,
    certified,
    check_hinfty_criterion,
    check_table,
    convergence_study,
    growth_study,
)
from .families import DEFAULT_SEED, standard_family
from .kernelspec import (ConfigError, _check_degree, _check_degrees,
                         _check_exponent, _check_growth_exponents,
                         _check_kernel, _check_positive, _field, _pairs,
                         _pairs_field, _require)
from .poly import AnalyticPoly
from .solver import (
    ExtremalProblem,
    NonConvergenceError,
    _certificate,
    brute_force_oracle,
    solve_extremal,
    solve_ladder,
)
from .spaces import functional_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID = 3

SCHEMA_VERSION = 1
# the largest coefficient gap at which oracle-compare calls the quadrature
# oracle and the solver in agreement
ORACLE_TOLERANCE = 1e-6
# the largest difference between a recorded and a recomputed value at
# which bergex verify calls a solution file reproduced
VERIFY_TOLERANCE = 1e-14
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


def _kernel(config, what="config"):
    """(spec, kernel) of the 'kernel' field: its canonical spec and the
    kernel realized from it; ``what`` names the document, as for
    ``_field``."""
    spec = kernelspec.from_dict(_field(config, "kernel", dict, what=what),
                                what)
    return spec, kernelspec.realize(spec)


def _problem(config, what="config"):
    """(p, degree, kernel spec, kernel) of a solve config, or of the
    problem a solution file records, read in that order; ``what`` names
    the document, as for ``_field``."""
    p = _field(config, "p", int, _check_exponent, what=what)
    degree = _field(config, "degree", int, _check_degree, what=what)
    return (p, degree, *_kernel(config, what))


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


def _emit_study(header, rows, trailers, out, fmt):
    """A study report: its rows of like-keyed dicts, then its trailers,
    as a ``checks`` study returns them.

    CSV writes the header as ``# key: value`` lines, then the rows under
    the first row's keys, then the trailers the same way as the header.
    JSON writes the rows as ``rows`` beside the trailers' keys.
    """
    if fmt != "csv":
        _emit_json(header, _jsonable({"rows": rows, **trailers}), out)
        return
    buf = io.StringIO()
    buf.writelines(f"# {key}: {value}\n" for key, value in header.items())
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    buf.writelines(f"# {key}: {value}\n" for key, value in trailers.items())
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
            "coefficients": _pairs(solution.F.coeffs),
            "phi_norm": solution.phi_norm,
            "residual_max": solution.residual_max,
            "iterations": solution.iterations,
        },
        "checks": [_jsonable(vars(r)) for r in reports],
    }


def run_solve(config, out=None):
    p, degree, spec, kernel = _problem(config)
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
    passed = certified(solution.residual_max, reports)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def run_verify(solution_path, out=None):
    """Recompute a serialized solution's table and certificate. Each table
    entry needs the one record of its key, ``checks._record_key`` (else
    it is missing, and a record left over is unexpected), whose residual
    must reproduce to VERIFY_TOLERANCE. The file is read as ``bergex
    solve``'s config is, and every recorded field by the rule of that
    config. ``certified`` is ``checks.certified`` on the recomputation,
    and does not move the exit code; the residual_max row's verdict is
    its residual_max part.
    The table and the certificate are recomputed from the file's
    ||phi||, and the phi_norm row checks that value against Re phi(F),
    which ``solve_ladder`` records: every identity is homogeneous under
    (F, ||phi||) -> (c F, ||phi|| / c^(p-1)), so without that row a
    rescaled file would verify. Its difference is relative to Re phi(F),
    so that the rule holds at every kernel scale, and its verdict is a
    pass when Re phi(F) is positive and finite."""
    what = "solution file"
    field = partial(_field, what=what)
    payload = _load_json(solution_path, what)
    try:
        body = field(payload, "body", dict)
        p, degree, _, kernel = _problem(field(body, "problem", dict), what)
        solution = field(body, "solution", dict)
        # F lies in P_degree: at most degree + 1 coefficients, and fewer
        # are valid, since trailing zeros are trimmed
        F = AnalyticPoly(_pairs_field(solution, "coefficients", degree + 1,
                                      what))
        phi_norm = field(solution, "phi_norm", float,
                         lambda v: _check_positive(v, "phi_norm"))
        recorded_max = field(solution, "residual_max", float)
        records = [(_record_key(field(record, "check_name", str),
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
        residual_max = _certificate(F, kernel, p, phi_norm, degree)
        phi_value = float(functional_value(kernel, F).real)
    unpaired = [_record_key(r.check_name, r.context) for r in reports]
    # recorded: residual per table index; a list scan pairs the keys, since
    # a recorded m may be unhashable, such as [1]
    recorded, unexpected = {}, []
    for key, residual in records:
        if key in unpaired:
            i = unpaired.index(key)
            unpaired[i], recorded[i] = None, residual
        else:
            unexpected.append(key[0])
    # (name, recorded, recomputed, scale, verdict); the row's difference
    # is |recorded - recomputed| / scale, and infinite at scale 0
    rows = [("residual_max", recorded_max, residual_max, 1.0,
             "pass" if certified(residual_max, []) else "fail"),
            ("phi_norm", phi_norm, phi_value, abs(phi_value),
             "pass" if 0 < phi_value < math.inf else "fail")]
    rows += [(r.check_name, recorded[i], float(r.residual), 1.0, r.verdict)
             for i, r in enumerate(reports) if i in recorded]
    rows = [{"check_name": name, "recorded": old, "recomputed": new,
             "verdict": verdict,
             "difference": abs(new - old) / scale if scale else math.inf}
            for name, old, new, scale, verdict in rows]
    worst = float(np.max([row["difference"] for row in rows]))  # NaN fails
    missing = [r.check_name for i, r in enumerate(reports) if unpaired[i]]

    ok = bool(worst <= VERIFY_TOLERANCE) and not missing and not unexpected
    body_out = {"verified": ok,
                "certified": certified(residual_max, reports),
                "max_difference": worst, "rows": rows, "missing": missing,
                "unexpected": unexpected}
    _emit_json(_header(), _jsonable(body_out), out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# the coefficient-bound sweep of a reloaded solution, unused by the
# commands, which build it in ``check_table``; perfbench/tracer.py still
# wraps this name
check_coefficient_sweep_for_verify = _sweep


def run_growth_study(config, out=None, fmt="csv", seed=None):
    p = _field(config, "p", int, _check_exponent)
    # None: growth_study's default q1 list
    q1_list = _field(config, "q1_list", list,
                     lambda v: _check_growth_exponents(v, p), None)
    if seed is None:
        seed = _field(config, "seed", int, lambda v: _require(
            v >= 0, "seed must be >= 0"), None)
    family, seed = _study_family(config, seed)
    rows, trailers = growth_study(family, p, q1_list)
    _emit_study(_header(seed), rows, trailers, out, fmt)
    return EXIT_OK


def _study_family(config, seed):
    """Family for studies, and the seed to record: the standard family,
    each kernel at its calibrated degree, or explicit kernel specs at the
    config's degree. The standard family's random kernels are drawn from
    ``seed``, or from DEFAULT_SEED when it is None, and explicit specs
    draw nothing, so they record None."""
    specs = _field(config, "family", (str, list), lambda v: _require(
        v == "standard" or isinstance(v, list) and v, "family must be "
        "\"standard\" or a non-empty list of kernel specs"), "standard")
    if specs == "standard":
        seed = DEFAULT_SEED if seed is None else seed
        return standard_family(seed), seed
    degree = _field(config, "degree", int, _check_degree, 64)
    return [(kernelspec.describe(spec), kernelspec.realize(spec), degree)
            for spec in map(kernelspec.from_dict, specs)], None


def run_convergence_study(config, out=None, fmt="csv"):
    p = _field(config, "p", int, _check_exponent)
    degrees = _field(config, "degrees", list, _check_degrees)
    _, kernel = _kernel(config)
    rows, trailers = convergence_study(kernel, p, degrees)
    _emit_study(_header(), rows, trailers, out, fmt)
    return EXIT_OK


def run_hinfty_study(config, out=None, fmt="csv"):
    p = _field(config, "p", int, _check_exponent)
    alpha = _field(config, "alpha", float, _check_positive)
    degrees = _field(config, "degrees", list, _check_degrees, [16, 32, 64])
    rows, trailers = check_hinfty_criterion(alpha, p, degrees)
    _emit_study(_header(), rows, trailers, out, fmt)
    return (EXIT_OK if trailers["verdict"] in ("pass", "withheld")
            else EXIT_CHECK_FAILED)


def run_oracle_compare(config, out=None):
    """The quadrature oracle against the solver, both on S_3 k over P_3,
    a truncation made on purpose. A kernel that vanishes on P_3 is
    rejected naming that fixed space, since no degree can be raised."""
    p = _field(config, "p", int, _check_exponent)
    _, kernel = _kernel(config)
    try:
        _check_kernel(kernel, ORACLE_DEGREE)
    except ValueError:
        raise ValueError(f"kernel vanishes on P_{ORACLE_DEGREE}, the fixed "
                         f"working space of oracle-compare") from None
    oracle_F = brute_force_oracle(kernel, p, ORACLE_DEGREE)
    solution = next(solve_ladder(p, kernel, [ORACLE_DEGREE]))
    gap = float(np.max(np.abs(oracle_F.padded(ORACLE_DEGREE + 1)
                              - solution.F.padded(ORACLE_DEGREE + 1))))
    agree = gap <= ORACLE_TOLERANCE
    body = {
        "oracle_coefficients": _pairs(oracle_F.coeffs),
        "solver_coefficients": _pairs(solution.F.coeffs),
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


# the subcommands in the order --help lists them, each with its help text
# and its runner; study's runner is a table from the study kind to its own
_COMMANDS = {
    "solve": ("solve one extremal problem", run_solve),
    "verify": ("re-check a serialized solution", run_verify),
    "study": ("run a family study", {"growth": run_growth_study,
                                     "convergence": run_convergence_study,
                                     "hinfty": run_hinfty_study}),
    "oracle-compare": ("Newton quadrature oracle vs solver",
                       run_oracle_compare),
}


def main(argv=None):
    parser = _ArgumentParser(prog="bergex", description="Extremal problems "
                             "over Bergman spaces: solve, certify, and study.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, runner) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        if name == "verify":
            sp.add_argument("solution", help="solution JSON from `bergex solve`")
        else:
            sp.add_argument("--config", required=True, help="JSON config file")
        if name == "study":
            sp.add_argument("kind", choices=list(runner))
            sp.add_argument("--format", default="csv", choices=["json", "csv"])
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    args = parser.parse_args(argv)
    runner = _COMMANDS[args.command][1]
    try:
        if args.command == "verify":
            return runner(args.solution, out=args.out)
        config = _load_json(args.config, "config")
        _field(config, "schema_version", int, lambda v: _require(
            v == SCHEMA_VERSION,
            f"the supported schema_version is {SCHEMA_VERSION}"), None)
        if args.command == "study":
            return runner[args.kind](config, out=args.out, fmt=args.format)
        return runner(config, out=args.out)
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        for it, value, gnorm in exc.trace[-3:]:
            print(f"  iteration {it}: objective {value!r}, "
                  f"gradient {gnorm!r}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
