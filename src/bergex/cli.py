"""Command-line driver: solve, verify, studies, oracle comparison.

Reports separate a header (timestamps, tool version) from a body
(everything computed), and the body is deterministic: identical config
and seed produce byte-identical bodies. Solutions serialize to JSON at
full precision; studies emit CSV rows or JSON.

Exit codes: 0 all checks passed, 1 a check failed or verification
mismatch, 2 solver non-convergence, 3 invalid input.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import kernelspec
from .checks import (
    check_fourier_formula,
    check_norm_equality,
    check_ryabykh_bound,
    coefficient_bound_sweep,
    check_hinfty_criterion,
    convergence_study,
    growth_study,
)
from .families import standard_family
from .poly import AnalyticPoly, degree_cap, get_max_degree
from .solver import (
    DEFAULT_MAX_ITERATIONS,
    ExtremalProblem,
    NonConvergenceError,
    brute_force_oracle,
    extremality_residual,
    solve_extremal,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID = 3

SCHEMA_VERSION = 1

DEFAULT_CHECKS = ("norm_equality", "fourier_formula", "coefficient_bound",
                  "ryabykh_bound")


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    return data


def _require(config, key, kind, predicate=None, message=""):
    if key not in config:
        raise ConfigError(f"config is missing {key!r}")
    value = config[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"config field {key!r} has the wrong type")
    if predicate is not None and not predicate(value):
        raise ConfigError(f"config field {key!r} is invalid: {message}")
    return value


def _validate_common(config):
    p = _require(config, "p", int, lambda v: v >= 2 and v % 2 == 0,
                 "p must be an even integer >= 2")
    tolerance = float(config.get("tolerance", 1e-10))
    if not 0 < tolerance < math.inf:
        raise ConfigError("tolerance must be positive and finite")
    return p, tolerance


def _json_complex(value):
    value = complex(value)
    return [value.real, value.imag]


def _jsonable(value):
    """Recursively convert report payloads into JSON-safe structures."""
    if isinstance(value, complex):
        return _json_complex(value)
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, float) and value != value:  # NaN
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _report_payload(report):
    data = asdict(report)
    return _jsonable(data)


def _header(seed=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "bergex",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
    }


def _emit_json(header, body, out):
    payload = {"header": header, "body": body}
    text = json.dumps(payload, indent=2, sort_keys=True)
    _write(text + "\n", out)


def _emit_csv(header, fieldnames, rows, out, trailer=()):
    buf = io.StringIO()
    for key, value in header.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    for line in trailer:
        buf.write(f"# {line}\n")
    _write(buf.getvalue(), out)


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solution_body(config, solution, reports):
    return {
        "problem": {
            "p": solution.p,
            "degree": solution.degree,
            "tolerance": config.get("tolerance", 1e-10),
            "kernel": kernelspec.to_dict(
                kernelspec.from_dict(config["kernel"])),
        },
        "solution": {
            "coefficients": [_json_complex(c) for c in solution.F.coeffs],
            "phi_norm": solution.phi_norm,
            "residual_max": solution.residual_max,
            "iterations": solution.iterations,
        },
        "checks": [_report_payload(r) for r in reports],
    }


def _check_names(config):
    names = config.get("checks", list(DEFAULT_CHECKS))
    if not (isinstance(names, list)
            and all(isinstance(name, str) for name in names)):
        raise ConfigError("config field 'checks' must be a list of check names")
    for name in names:
        if name not in DEFAULT_CHECKS:
            raise ConfigError(f"unknown check {name!r}")
    return names


def _run_checks(config, names, solution):
    m_max = int(config.get("fourier_m_max", 8))
    reports = []
    for name in names:
        if name == "norm_equality":
            reports.append(check_norm_equality(
                solution.F, solution.kernel, solution.p, solution.phi_norm))
        elif name == "fourier_formula":
            for m in range(m_max + 1):
                reports.append(check_fourier_formula(
                    solution.F, solution.kernel, solution.p,
                    solution.phi_norm, m))
        elif name == "coefficient_bound":
            reports.append(coefficient_bound_sweep(solution))
        elif name == "ryabykh_bound":
            reports.append(check_ryabykh_bound(
                solution.F, solution.kernel, solution.p))
    return reports


def _gating(reports):
    """Non-informational failures gate the exit code."""
    failed = [r for r in reports
              if r.verdict == "fail" and r.context.get("kind") != "informational"]
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def run_solve(config, out=None, fmt="json"):
    p, tolerance = _validate_common(config)
    degree = _require(config, "degree", int, lambda v: v >= 1,
                      "degree must be >= 1")
    if "kernel" not in config:
        raise ConfigError("config is missing 'kernel'")
    kernel = kernelspec.realize(kernelspec.from_dict(config["kernel"]))
    if fmt != "json":
        raise ConfigError("solve reports are JSON only")
    checks = _check_names(config)
    needed = max((p // 2) * degree, get_max_degree())
    with degree_cap(needed):
        problem = ExtremalProblem(
            p=p, kernel=kernel, degree=degree, tolerance=tolerance,
            max_iterations=int(config.get("max_iterations",
                                          DEFAULT_MAX_ITERATIONS)),
        )
        solution = solve_extremal(problem)
        reports = _run_checks(config, checks, solution)
    body = _solution_body(config, solution, reports)
    _emit_json(_header(config.get("seed")), body, out)
    return _gating(reports)


def run_verify(solution_path, out=None):
    """Re-check a serialized solution; residuals must reproduce to 1e-14."""
    try:
        with open(solution_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        body = payload["body"]
        problem = body["problem"]
        spec = kernelspec.from_dict(problem["kernel"])
        kernel = kernelspec.realize(spec)
        coeffs = np.array([re + 1j * im
                           for re, im in body["solution"]["coefficients"]])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable solution file: {exc}") from exc

    p = int(problem["p"])
    degree = int(problem["degree"])
    phi_norm = float(body["solution"]["phi_norm"])
    needed = max((p // 2) * degree, get_max_degree())
    rows = []
    worst = 0.0
    with degree_cap(needed):
        F = AnalyticPoly(coeffs)
        residuals = extremality_residual(F, kernel, p, phi_norm, 2 * degree)
        recomputed_max = float(np.max(np.abs(residuals)))
        recorded_max = float(body["solution"]["residual_max"])
        worst = abs(recomputed_max - recorded_max)
        rows.append({"check_name": "residual_max",
                     "recorded": recorded_max,
                     "recomputed": recomputed_max,
                     "difference": worst})
        for recorded in body["checks"]:
            name = recorded["check_name"]
            context = recorded.get("context", {})
            if name == "norm_equality":
                rep = check_norm_equality(F, kernel, p, phi_norm)
            elif name == "fourier_formula":
                rep = check_fourier_formula(F, kernel, p, phi_norm,
                                            int(context["m"]))
            elif name == "coefficient_bound_sweep":
                rep = check_coefficient_sweep_for_verify(
                    F, kernel, p, phi_norm, int(context["m_max"]))
            elif name == "ryabykh_bound":
                rep = check_ryabykh_bound(F, kernel, p)
            else:
                continue
            diff = float(abs(rep.residual - float(recorded["residual"])))
            worst = max(worst, diff)
            rows.append({"check_name": name,
                         "recorded": float(recorded["residual"]),
                         "recomputed": float(rep.residual),
                         "difference": diff})

    ok = bool(worst <= 1e-14)
    body_out = {"verified": ok, "max_difference": worst, "rows": rows}
    _emit_json(_header(), body_out, out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def check_coefficient_sweep_for_verify(F, kernel, p, phi_norm, m_max):
    from .checks import check_coefficient_bound

    worst = None
    for m in range(m_max + 1):
        rep = check_coefficient_bound(F, kernel, p, phi_norm, m)
        if worst is None or rep.residual < worst.residual:
            worst = rep
    return worst


def run_growth_study(config, out=None, fmt="csv", seed=None):
    p, tolerance = _validate_common(config)
    q = p / (p - 1.0)
    q1_list = config.get("q1_list", [q, 2.0, 4.0])
    seed = seed if seed is not None else config.get("seed")
    family = _study_family(config, seed)
    cap = max(int((p - 1) * max(q1_list) / 2 + 1) * max(d for _, _, d in family),
              get_max_degree())
    with degree_cap(cap):
        rows = growth_study(family, p, q1_list)
    ratios = [r.ratio for r in rows]
    empirical_c = max(max(ratios), 1.0 / min(ratios))
    fields = ["kernel_id", "q1", "p1", "k_hardy", "k_bergman", "F_hardy",
              "ratio"]
    csv_rows = [{f: getattr(r, f) for f in fields} for r in rows]
    header = _header(seed)
    if fmt == "csv":
        _emit_csv(header, fields, csv_rows, out,
                  trailer=[f"empirical_C: {empirical_c!r}"])
    else:
        _emit_json(header, {"rows": csv_rows, "empirical_C": empirical_c}, out)
    return EXIT_OK


def _study_family(config, seed):
    """Family for studies: the standard one, or explicit kernel specs."""
    if config.get("family", "standard") == "standard":
        family = standard_family(**({} if seed is None else {"seed": seed}))
        limit = int(config.get("max_study_degree", 128))
        return [(name, k, min(d, limit)) for name, k, d in family]
    entries = []
    degree = int(config.get("degree", 64))
    for item in config["family"]:
        spec = kernelspec.from_dict(item)
        entries.append((kernelspec.describe(spec), kernelspec.realize(spec),
                        degree))
    return entries


def run_convergence_study(config, out=None, fmt="csv"):
    p, tolerance = _validate_common(config)
    degrees = _require(config, "degrees", list, lambda v: len(v) >= 2,
                       "need at least two degrees")
    if "kernel" not in config:
        raise ConfigError("config is missing 'kernel'")
    kernel = kernelspec.realize(kernelspec.from_dict(config["kernel"]))
    cap = max((p // 2) * max(degrees), get_max_degree())
    with degree_cap(cap):
        rows = convergence_study(kernel, p, [int(n) for n in degrees])
    csv_rows = [{"degree": n, "distance": d} for n, d in rows]
    header = _header(config.get("seed"))
    if fmt == "csv":
        _emit_csv(header, ["degree", "distance"], csv_rows, out)
    else:
        _emit_json(header, {"rows": csv_rows}, out)
    return EXIT_OK


def run_hinfty_study(config, out=None, fmt="csv"):
    p, tolerance = _validate_common(config)
    alpha = _require(config, "alpha", float, lambda v: 0 < v < math.inf,
                     "alpha must be positive and finite")
    degrees = [int(n) for n in config.get("degrees", [16, 32, 64])]
    threshold = float(config.get("growth_threshold", 0.01))
    exploratory = bool(config.get("exploratory", False))
    cap = max((p // 2) * max(degrees), get_max_degree())
    try:
        with degree_cap(cap):
            report = check_hinfty_criterion(
                alpha, p, degrees, growth_threshold=threshold,
                exploratory=exploratory)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sups = report.context["sup_by_degree"]
    l1 = report.context["l1_by_degree"]
    csv_rows = [{"degree": n, "sup": sups[n], "l1_mass": l1[n]}
                for n in sorted(sups)]
    header = _header(config.get("seed"))
    trailer = [f"relative_growth: {report.residual!r}",
               f"verdict: {report.verdict}"]
    if fmt == "csv":
        _emit_csv(header, ["degree", "sup", "l1_mass"], csv_rows, out,
                  trailer=trailer)
    else:
        _emit_json(header, {"rows": csv_rows,
                            "relative_growth": report.residual,
                            "verdict": report.verdict}, out)
    return EXIT_OK if report.verdict in ("pass", "withheld") else EXIT_CHECK_FAILED


def run_oracle_compare(config, out=None, fmt="json", seed=None):
    p, tolerance = _validate_common(config)
    if "kernel" not in config:
        raise ConfigError("config is missing 'kernel'")
    kernel = kernelspec.realize(kernelspec.from_dict(config["kernel"]))
    degree = int(config.get("oracle_degree", 3))
    if degree not in (2, 3):
        raise ConfigError("oracle_degree must be 2 or 3")
    seed = seed if seed is not None else int(config.get("seed", 7))
    oracle_F = brute_force_oracle(kernel, p, degree=degree, seed=seed)
    problem = ExtremalProblem(p=p, kernel=kernel, degree=degree,
                              tolerance=min(tolerance, 1e-12))
    solution = solve_extremal(problem)
    gap = float(np.max(np.abs(
        oracle_F.padded(degree + 1) - solution.F.padded(degree + 1))))
    agree = gap <= float(config.get("oracle_tolerance", 1e-6))
    body = {
        "oracle_coefficients": [_json_complex(c) for c in oracle_F.coeffs],
        "solver_coefficients": [_json_complex(c) for c in solution.F.coeffs],
        "max_coefficient_gap": gap,
        "agree": agree,
    }
    _emit_json(_header(seed), body, out)
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bergex",
        description="Extremal problems over Bergman spaces: solve, certify, "
                    "and study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, config_required=True):
        sp.add_argument("--config", required=config_required,
                        help="JSON config file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", default=None, choices=["json", "csv"])
        sp.add_argument("--seed", type=int, default=None)

    add_common(sub.add_parser("solve", help="solve one extremal problem"))
    ver = sub.add_parser("verify", help="re-check a serialized solution")
    ver.add_argument("solution", help="solution JSON from `bergex solve`")
    ver.add_argument("--out", default=None)
    study = sub.add_parser("study", help="run a family study")
    study.add_argument("kind", choices=["growth", "convergence", "hinfty"])
    add_common(study)
    add_common(sub.add_parser("oracle-compare",
                              help="brute-force small-space oracle vs solver"))

    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            return run_verify(args.solution, out=args.out)
        config = _load_config(args.config)
        if args.command == "solve":
            return run_solve(config, out=args.out,
                             fmt=args.format or "json")
        if args.command == "study":
            fmt = args.format or "csv"
            if args.kind == "growth":
                return run_growth_study(config, out=args.out, fmt=fmt,
                                        seed=args.seed)
            if args.kind == "convergence":
                return run_convergence_study(config, out=args.out, fmt=fmt)
            return run_hinfty_study(config, out=args.out, fmt=fmt)
        if args.command == "oracle-compare":
            return run_oracle_compare(config, out=args.out,
                                      fmt=args.format or "json",
                                      seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
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
