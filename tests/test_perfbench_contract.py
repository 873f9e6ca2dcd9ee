"""The benchmark harness under perfbench/ reaches into bergex by name.

``perfbench/workloads.py`` imports bergex modules and names and calls
them, ``perfbench/environment.py`` imports names from the package, and
``perfbench/tracer.py`` wraps the functions listed in ``TARGETS``. A
rename or deletion in bergex that breaks any of them fails here, before
a benchmark run does. The tracer is only read, never installed.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from bergex import solver
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
