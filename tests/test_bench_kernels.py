"""Smoke test for the kernel timing script under benchmarks/.

``benchmarks/bench_kernels.py`` reaches into bergex by name, the private
``solver._newton_terms``, ``solver._hessian``, ``solver._newton`` and
the report writer and reader of ``cli`` included, and nothing else runs
it. Each of its tables runs here once at the smallest size, so a rename
that breaks the script fails here.
"""

import importlib
import sys
from pathlib import Path

import pytest

from bergex import _backend, solver

BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")


@pytest.fixture(scope="module")
def bench_kernels():
    sys.path.insert(0, BENCHMARKS)
    yield importlib.import_module("bench_kernels")
    sys.path.remove(BENCHMARKS)


# the solve and emit tables truncate their degree-63 kernel at n = 16
@pytest.mark.filterwarnings("ignore:working degree below kernel degree")
def test_every_table_runs(bench_kernels, capsys):
    threshold = _backend.FFT_THRESHOLD
    bench_kernels.bench_operation("conv", _backend.conv, [16], 1)
    bench_kernels.bench_operation("xcorr", _backend.xcorr, [16], 1)
    bench_kernels.bench_newton_step([16], 1)
    bench_kernels.bench_solve([16], 1)
    bench_kernels.bench_emit([16], 1)
    newton = solver._newton
    bench_kernels.bench_study([8, 16], 1)
    assert _backend.FFT_THRESHOLD == threshold
    assert solver._newton is newton
    out = capsys.readouterr().out
    for table in ("conv:", "xcorr:", "newton_step:", "solve:", "emit:",
                  "study:"):
        assert table in out
