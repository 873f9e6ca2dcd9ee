"""The benchmark harness under perfbench/ reaches into bergex by name.

``perfbench/workloads.py`` imports bergex modules and names, and
``perfbench/tracer.py`` wraps the functions listed in ``TARGETS``. A
rename or deletion in bergex that breaks either fails here, before a
benchmark run does. The tracer is only read, never installed.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


def test_workloads_import(perfbench):
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS


def test_tracer_targets_resolve(perfbench):
    tracer = importlib.import_module("tracer")
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
