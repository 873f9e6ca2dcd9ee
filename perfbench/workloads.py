"""The three benchmark workloads, their jobs and the correctness gate on each job.

A job calls into bergex the way a user does and returns a ``JobResult``:
the seconds spent in the program, the machine's speed meanwhile (see
speed.py) and the gates its output missed. A job that misses a gate
produces no timing row of its own and counts as failed, unless it is a
known failure (NOTES.md); the pass time still includes it, since a user
waited for it.

* ``family``: ``cli.run_solve`` with the default checks, then
  ``cli.run_verify``, for every standard-family kernel at its calibrated
  degree and p in {4, 6}, plus the README's one-plus-z config.
* ``studies``: the convergence, hinfty and growth studies through the CLI
  entry points.
* ``certify``: set-up solves the family once; each pass verifies every
  solution file and reruns the check suite and the growth-study norms on
  the reloaded F, so no solver runs in the timed pass.

See NOTES.md for why each workload exists and what it should move.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from speed import Stopwatch

from bergex import checks, cli, kernelspec, solver, spaces
from bergex.families import DEFAULT_SEED, standard_family
from bergex.poly import AnalyticPoly, degree_cap, get_max_degree

# Gates, fixed here so that loosening one inside bergex does not loosen the
# benchmark.
RESIDUAL_BAR = 1e-8      # extremality certificate, residual_max
SLACK_BAR = -1e-12       # coefficient-bound slack
EQUALITY_BAR = 1e-4      # norm-equality and Fourier-formula residuals
VERIFY_BAR = 1e-14       # `bergex verify` agreement
PHI_REL_TOL = 1e-12      # phi_norm against reference.json

FAMILY_PS = (4, 6)
FAMILY_TOLERANCE = 1e-12
FOURIER_M_MAX = 8
STUDY_DEGREES = list(range(8, 65, 8))
HINFTY_CONFIG = {"schema_version": 1, "p": 4, "alpha": 2.0,
                 "degrees": [16, 32, 64]}
GROWTH_CONFIG = {"schema_version": 1, "p": 4}

# The README's solve config, tolerance omitted. It exits 1 today: the
# default tolerance 1e-10 leaves coefficient-bound slack near -8e-12.
README_CONFIG = {
    "schema_version": 1,
    "p": 4,
    "degree": 160,
    "kernel": {"type": "coeffs", "values": [[1.0, 0.0], [1.0, 0.0]]},
    "checks": ["norm_equality", "fourier_formula", "coefficient_bound",
               "ryabykh_bound"],
}


@dataclass(frozen=True)
class KnownFailure:
    """A failure written down in NOTES.md and kept in its workload on purpose.

    ``misses`` are the gates it misses. One that happens at every seed must
    miss exactly those, and passing is news (``xpass``); one that happens at
    some seeds may miss any of them, and passing is ``ok``.
    """

    misses: frozenset
    every_seed: bool


# NOTES.md, known failure 1: the README config with tolerance omitted.
README_FAILURE = KnownFailure(frozenset({"exit", "slack"}), True)
# NOTES.md, known failure 2: a random kernel at its calibrated degree.
RANDOM_FAILURE = KnownFailure(frozenset({"exit", "residual", "slack"}), False)

REQUIRED_CHECKS = {"norm_equality", "fourier_formula",
                   "coefficient_bound_sweep", "ryabykh_bound"}

# Errors bergex raises on purpose; `bergex` maps them to exit codes 2 and 3.
PROGRAM_ERRORS = (ValueError, solver.NonConvergenceError)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass
class JobResult:
    name: str
    seconds: float
    speed: float            # mean calibration seconds; None if not sampled
    misses: list
    reported: bool          # the program itself signalled a failure
    known: KnownFailure = None
    info: dict = field(default_factory=dict)

    @property
    def status(self):
        known, misses = self.known, set(self.misses)
        if not misses:
            return "xpass" if known and known.every_seed else "ok"
        if (self.reported and known and misses <= known.misses
                and (misses == known.misses or not known.every_seed)):
            return "xfail"
        return "failed"

    @property
    def silent(self):
        """A wrong output the program presented as a success."""
        return self.status == "failed" and not self.reported


def _le(value, bar):
    return value is not None and value <= bar


def _ge(value, bar):
    return value is not None and value >= bar


def _finite_positive(value):
    return value is not None and math.isfinite(value) and value > 0


def _load_body(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["body"]


def _error_result(name, watch, exc, known=None):
    return JobResult(name, watch.seconds, watch.speed,
                     [f"error:{type(exc).__name__}"], True, known)


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _phi_miss(reference, name, kernel_dict, phi):
    """phi_norm against the table, for kernels equal to the reference seed's."""
    entry = reference["jobs"].get(name)
    if entry is None or entry["kernel"] != kernel_dict:
        return []
    if abs(phi - entry["phi_norm"]) <= PHI_REL_TOL * abs(entry["phi_norm"]):
        return []
    return ["phi_reference"]


def _check_misses(reports):
    """Gate the recorded check reports of a solution; returns miss tags."""
    misses = set()
    if not REQUIRED_CHECKS <= {r["check_name"] for r in reports}:
        misses.add("checks_missing")
    for rep in reports:
        if rep["context"].get("kind") == "informational":
            continue
        if rep["check_name"] == "coefficient_bound_sweep":
            if not (_ge(rep["residual"], SLACK_BAR) and rep["verdict"] == "pass"):
                misses.add("slack")
        elif not (_le(rep["residual"], EQUALITY_BAR) and rep["verdict"] == "pass"):
            misses.add(rep["check_name"])
    return misses


def _verify_misses(rc, path):
    body = _load_body(path)
    if rc == 0 and body["verified"] and _le(body["max_difference"], VERIFY_BAR):
        return set()
    return {"verify"}


def _family_configs(seed):
    """(job name, solve config, known failure) for every kernel at its
    calibrated degree."""
    out = []
    for name, kernel, degree in standard_family(seed):
        spec = kernelspec.to_dict(kernelspec.coeffs_spec(kernel.coeffs))
        known = RANDOM_FAILURE if name.startswith("random-") else None
        for p in FAMILY_PS:
            out.append((f"{name}-p{p}", {
                "schema_version": 1, "p": p, "degree": degree,
                "kernel": spec, "tolerance": FAMILY_TOLERANCE,
            }, known))
    return out


@dataclass
class SolveJob:
    """`bergex solve` with the default checks, then `bergex verify`."""

    name: str
    config: dict
    reference: dict
    workdir: str
    known: KnownFailure = None
    solutions_checked = 2

    def run(self):
        sol = os.path.join(self.workdir, self.name + ".json")
        ver = os.path.join(self.workdir, self.name + ".verify.json")
        watch = Stopwatch()
        try:
            with watch:
                rc = cli.run_solve(self.config, out=sol)
                vrc = cli.run_verify(sol, out=ver)
        except PROGRAM_ERRORS as exc:
            return _error_result(self.name, watch, exc, self.known)
        body = _load_body(sol)
        solution = body["solution"]
        misses = _check_misses(body["checks"]) | _verify_misses(vrc, ver)
        if rc != 0:
            misses.add("exit")
        if not _le(solution["residual_max"], RESIDUAL_BAR):
            misses.add("residual")
        misses.update(_phi_miss(self.reference, self.name,
                                self.config["kernel"], solution["phi_norm"]))
        slack = next((r["residual"] for r in body["checks"]
                      if r["check_name"] == "coefficient_bound_sweep"), None)
        info = {"iterations": solution["iterations"],
                "residual_max": solution["residual_max"],
                "slack": slack, "phi_norm": solution["phi_norm"]}
        return JobResult(self.name, watch.seconds, watch.speed, sorted(misses),
                         rc != 0 or vrc != 0, self.known, info)


def prepare_family(seed, workdir, reference):
    jobs = [SolveJob(name, config, reference, workdir, known)
            for name, config, known in _family_configs(seed)]
    jobs.append(SolveJob("readme-one-plus-z-p4", README_CONFIG, reference,
                         workdir, README_FAILURE))
    return jobs


@dataclass
class CertifyJob:
    """Verify one solution file, then rerun the checks on the reloaded F."""

    name: str
    path: str
    solve_rc: int
    reference: dict
    workdir: str
    known: KnownFailure = None
    solutions_checked = 2

    def run(self):
        ver = os.path.join(self.workdir, self.name + ".verify.json")
        watch = Stopwatch()
        try:
            with watch:
                vrc = cli.run_verify(self.path, out=ver)
                out = self._recheck()
        except PROGRAM_ERRORS as exc:
            return _error_result(self.name, watch, exc, self.known)
        misses = _verify_misses(vrc, ver)
        if not _le(out["residual_max"], RESIDUAL_BAR):
            misses.add("residual")
        for rep in out["equalities"]:
            if not (_le(rep.residual, EQUALITY_BAR) and rep.passed):
                misses.add(rep.check_name)
        if not (_ge(out["slack"], SLACK_BAR) and out["sweep_passed"]):
            misses.add("slack")
        if not out["ryabykh_passed"]:
            misses.add("ryabykh_bound")
        if not _le(out["round_trip"], RESIDUAL_BAR):
            misses.add("kernel_round_trip")
        if not all(_finite_positive(x) for x in out["norms"]):
            misses.add("growth_norms")
        misses.update(_phi_miss(self.reference, self.name, out["kernel_dict"],
                                out["phi_norm"]))
        info = {"iterations": out["iterations"],
                "residual_max": out["residual_max"], "slack": out["slack"],
                "phi_norm": out["phi_norm"]}
        return JobResult(self.name, watch.seconds, watch.speed, sorted(misses),
                         self.solve_rc != 0 or vrc != 0, self.known, info)

    def _recheck(self):
        body = _load_body(self.path)
        problem, solution = body["problem"], body["solution"]
        p, degree = int(problem["p"]), int(problem["degree"])
        phi = float(solution["phi_norm"])
        kernel = kernelspec.realize(kernelspec.from_dict(problem["kernel"]))
        coeffs = np.array([re + 1j * im for re, im in solution["coefficients"]])
        with degree_cap(max((p // 2) * degree, get_max_degree())):
            F = AnalyticPoly(coeffs)
            equalities = [checks.check_norm_equality(F, kernel, p, phi)]
            equalities += [checks.check_fourier_formula(F, kernel, p, phi, m)
                           for m in range(FOURIER_M_MAX + 1)]
            sweep = checks.coefficient_bound_sweep(solver.ExtremalSolution(
                F=F, phi_norm=phi, residual_max=solution["residual_max"],
                iterations=solution["iterations"], trace=(), p=p,
                kernel=kernel, degree=degree))
            ryabykh = checks.check_ryabykh_bound(F, kernel, p)
            residuals = solver.extremality_residual(F, kernel, p, phi,
                                                    2 * degree)
            recovered = solver.kernel_from_extremal(F, p, kernel.degree)
            q = p / (p - 1.0)
            norms = [spaces.hardy_norm_general(F, (p - 1.0) * q1)
                     for q1 in (q, 2.0, 4.0)]
            norms.append(spaces.bergman_norm_general(kernel, q))
        t = np.arange(kernel.degree + 1) + 1.0
        round_trip = float(np.max(
            np.abs(recovered.padded(len(t)) - kernel.coeffs / phi) / t))
        return {
            "kernel_dict": problem["kernel"], "phi_norm": phi,
            "iterations": solution["iterations"],
            "residual_max": float(np.max(np.abs(residuals))),
            "equalities": equalities, "slack": float(sweep.residual),
            "sweep_passed": sweep.passed, "ryabykh_passed": ryabykh.passed,
            "round_trip": round_trip, "norms": norms,
        }


def prepare_certify(seed, workdir, reference):
    """Solve every calibrated family job once; the files are the pass's input."""
    jobs = []
    for name, config, known in _family_configs(seed):
        path = os.path.join(workdir, name + ".json")
        try:
            rc = cli.run_solve(config, out=path)
        except PROGRAM_ERRORS:
            # no file to certify; the pass reports it as an error
            rc = None
        jobs.append(CertifyJob(name, path, rc, reference, workdir, known))
    return jobs


def _read_csv(path):
    """Data rows and `# key: value` trailer/header comments of a study CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = dict(line[2:].split(": ", 1) for line in lines
                    if line.startswith("# "))
    rows = list(csv.DictReader(line for line in lines
                               if not line.startswith("#")))
    return rows, comments


def _floats(rows, key):
    return [float(r[key]) for r in rows]


def _convergence_misses(rows, comments):
    degrees = [int(r["degree"]) for r in rows]
    dist = _floats(rows, "distance")
    ok = (degrees == STUDY_DEGREES and all(math.isfinite(d) and d >= 0 for d in dist)
          and dist[-1] == 0.0)
    return set() if ok else {"convergence_csv"}


def _hinfty_misses(rows, comments):
    misses = set()
    if comments.get("verdict") != "pass":
        misses.add("hinfty_verdict")
    if ([int(r["degree"]) for r in rows] != HINFTY_CONFIG["degrees"]
            or not all(_finite_positive(x) for x in _floats(rows, "sup"))):
        misses.add("hinfty_csv")
    return misses


def _growth_misses(rows, comments):
    ratios = _floats(rows, "ratio")
    ok = (len(rows) == 3 * len({r["kernel_id"] for r in rows}) > 0
          and all(_finite_positive(x) for x in ratios)
          and _finite_positive(float(comments.get("empirical_C", "nan"))))
    return set() if ok else {"growth_ratios"}


@dataclass
class StudyJob:
    """One `bergex study` run writing CSV, gated on the parsed CSV."""

    name: str
    runner: str             # name of the cli entry point
    config: dict
    gate: object
    workdir: str
    seed: int = None
    solutions_checked = 0

    def run(self):
        out = os.path.join(self.workdir, self.name + ".csv")
        kwargs = {} if self.seed is None else {"seed": self.seed}
        watch = Stopwatch()
        try:
            with watch:
                rc = getattr(cli, self.runner)(self.config, out=out, **kwargs)
        except PROGRAM_ERRORS as exc:
            return _error_result(self.name, watch, exc)
        try:
            misses = self.gate(*_read_csv(out))
        except (KeyError, ValueError, TypeError, IndexError):
            misses = {"csv_unparsable"}
        if rc != 0:
            misses.add("exit")
        return JobResult(self.name, watch.seconds, watch.speed, sorted(misses),
                         rc != 0)


def prepare_studies(seed, workdir, reference):
    jobs = []
    for name, kernel, _ in standard_family(seed):
        spec = kernelspec.to_dict(kernelspec.coeffs_spec(kernel.coeffs))
        for p in FAMILY_PS:
            config = {"schema_version": 1, "p": p, "degrees": STUDY_DEGREES,
                      "kernel": spec}
            jobs.append(StudyJob(f"convergence-{name}-p{p}",
                                 "run_convergence_study", config,
                                 _convergence_misses, workdir))
    jobs.append(StudyJob("hinfty-alpha2-p4", "run_hinfty_study", HINFTY_CONFIG,
                         _hinfty_misses, workdir))
    jobs.append(StudyJob("growth-p4", "run_growth_study", GROWTH_CONFIG,
                         _growth_misses, workdir, seed=seed))
    return jobs


@dataclass(frozen=True)
class Workload:
    prepare: object         # (seed, workdir, reference) -> jobs
    prepare_repeats: int    # set-ups per run; the median is reported
    certifies: bool         # reports certificate margins


WORKLOADS = {
    "family": Workload(prepare_family, 3, True),
    "studies": Workload(prepare_studies, 3, False),
    # one set-up is a full family solve, so it runs once per run
    "certify": Workload(prepare_certify, 1, True),
}


def certificate_margins(results):
    """(residual_margin_decades, slack_margin_frac) over passing jobs."""
    ok = [r for r in results if r.status in ("ok", "xpass")]
    if not ok:
        return None, None
    worst_residual = max(r.info["residual_max"] for r in ok)
    worst_slack = min(r.info["slack"] for r in ok)
    residual_margin = (math.log10(RESIDUAL_BAR / worst_residual)
                       if worst_residual > 0 else math.inf)
    return residual_margin, 1.0 + worst_slack / -SLACK_BAR


def reference_table(workdir, seed=DEFAULT_SEED):
    """phi_norm of every family job at the given seed (for reference.json)."""
    jobs = {}
    configs = _family_configs(seed) + [("readme-one-plus-z-p4", README_CONFIG, None)]
    for name, config, _ in configs:
        path = os.path.join(workdir, name + ".json")
        cli.run_solve(config, out=path)
        jobs[name] = {"kernel": config["kernel"],
                      "phi_norm": _load_body(path)["solution"]["phi_norm"]}
    return {"seed": seed, "jobs": jobs}
