"""The benchmark harness under perfbench/ reaches into bergex by name.

``perfbench/workloads.py`` imports bergex modules and names and calls
them, ``perfbench/environment.py`` imports names from the package, and
``perfbench/tracer.py`` wraps the functions listed in ``TARGETS``. A
rename or deletion in bergex that breaks any of them fails here, before
a benchmark run does. The tracer is only read, never installed.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bergex import cli, solver
from bergex.families import DEFAULT_SEED, standard_family
from bergex.kernelspec import from_dict, realize

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


def test_workloads_import(perfbench):
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS


def test_environment_import(perfbench):
    # imported by run.py at start-up, before any workload runs
    environment = importlib.import_module("environment")
    assert callable(environment.record)


def test_tracer_targets_resolve(perfbench):
    tracer = importlib.import_module("tracer")
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_family_configs_build_the_family(perfbench):
    # the specs every family and certify pass solves, built without solving
    workloads = importlib.import_module("workloads")
    family = {name: kernel for name, kernel, _ in standard_family(DEFAULT_SEED)}
    configs = workloads._family_configs(DEFAULT_SEED)
    assert len(configs) == len(family) * len(workloads.FAMILY_PS)
    for job, config, _ in configs:
        kernel = realize(from_dict(config["kernel"]))
        np.testing.assert_array_equal(
            kernel.coeffs, family[job.rsplit("-p", 1)[0]].coeffs)


def test_certify_recheck_builds_a_solution():
    # the keywords CertifyJob._recheck passes to ExtremalSolution
    keywords = ("F", "phi_norm", "residual_max", "iterations", "trace", "p",
                "kernel", "degree")
    inspect.signature(solver.ExtremalSolution).bind(
        **dict.fromkeys(keywords))


def test_cli_calls_bind(perfbench, tmp_path):
    # the calls StudyJob, SolveJob and CertifyJob make, bound to the
    # runners' signatures: a renamed keyword fails here, not in a run
    workloads = importlib.import_module("workloads")
    jobs = workloads.prepare_studies(DEFAULT_SEED, str(tmp_path), {})
    assert {job.runner for job in jobs} == {
        "run_growth_study", "run_convergence_study", "run_hinfty_study"}
    for job in jobs:
        seed = {} if job.seed is None else {"seed": job.seed}
        signature = inspect.signature(getattr(cli, job.runner))
        signature.bind(job.config, out="study.csv", **seed)
        # StudyJob passes no format and parses the report as CSV
        assert signature.parameters["fmt"].default == "csv"
    inspect.signature(cli.run_solve).bind({}, out="solution.json")
    inspect.signature(cli.run_verify).bind("solution.json", out="verify.json")


def test_readme_config_checks_key_moves_nothing(perfbench, tmp_path):
    # the family workload's README config still carries the 'checks' key;
    # nothing reads it, so the benchmark's solve gives the body and exit
    # code of the same config without it
    workloads = importlib.import_module("workloads")
    config = workloads.README_CONFIG
    assert "checks" in config
    bare = {key: value for key, value in config.items() if key != "checks"}
    runs = []
    for name, cfg in (("with", config), ("without", bare)):
        path = tmp_path / f"{name}.json"
        code = cli.run_solve(cfg, out=str(path))
        runs.append((code, json.loads(path.read_text())["body"]))
    assert runs[0] == runs[1]


def family_job(workloads, seed, name):
    """(config, known failure) of the family job of this name and seed."""
    return next((config, known) for job, config, known
                in workloads._family_configs(seed) if job == name)


def test_uncertified_random_job_stays_a_known_failure(perfbench, tmp_path):
    # seed 1's random-0 at p = 4 exits 1 on its slack gate, and verify
    # reproduces the file and exits 0: the family workload counts the job
    # as known failure 2 (xfail), not as a failed operation
    workloads = importlib.import_module("workloads")
    config, known = family_job(workloads, 1, "random-0-p4")
    result = workloads.SolveJob("random-0-p4", config,
                                workloads.load_reference(), str(tmp_path),
                                known).run()
    assert result.status == "xfail", result.misses


def test_certified_family_file_has_no_verify_miss(perfbench, tmp_path):
    workloads = importlib.import_module("workloads")
    config, _ = family_job(workloads, DEFAULT_SEED, "power-decay-3.0-p4")
    solution, report = tmp_path / "s.json", tmp_path / "v.json"
    assert cli.run_solve(config, out=str(solution)) == 0
    code = cli.run_verify(str(solution), out=str(report))
    assert workloads._verify_misses(code, str(report)) == set()
