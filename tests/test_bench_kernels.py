"""Smoke test for the kernel timing script under benchmarks/.

``benchmarks/bench_kernels.py`` reaches into bergex by name, the private
``solver._newton_terms``, ``solver._hessian``, ``solver._newton``,
``solver._gram`` and the report writer and reader of ``cli`` included,
and nothing else runs it. Each of its tables runs here once at the
smallest size, so a rename that breaks the script fails here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
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
    bench_kernels.bench_power([16], 1)
    bench_kernels.bench_solve([16], 1)
    bench_kernels.bench_emit([16], 1)
    newton, gram = solver._newton, solver._gram
    bench_kernels.bench_ladder(1)
    bench_kernels.bench_study([8, 16], 1)
    bench_kernels.bench_quadrature(1)
    bench_kernels.bench_startup(1)
    assert _backend.FFT_THRESHOLD == threshold
    assert solver._newton is newton
    assert solver._gram is gram
    out = capsys.readouterr().out
    for table in ("conv:", "xcorr:", "newton_step:", "power:", "solve:",
                  "ladder:", "emit:", "study:", "quadrature:", "startup:"):
        assert table in out
    # under conv, xcorr and the power table's p = 4 and p = 6
    assert out.count("crossover, fft ahead: complex from ") == 4


def test_crossover_is_where_the_fft_stays_ahead(bench_kernels):
    # cells: direct, fft, direct real, fft real. The complex fft leads at
    # n = 2, falls behind at 3 and leads from 4 on; the real one never
    rows = [(1, 2, 1, 2), (2, 1, 1, 2), (1, 2, 1, 2), (2, 1, 1, 2)]
    assert bench_kernels.crossover([1, 2, 3, 4], [0, 2, 4, 6], rows) == (
        "crossover, fft ahead: complex from n = 4 (output degree 6); "
        "real from no size here")


@pytest.mark.parametrize("n", [16, 96])
@pytest.mark.parametrize("p", [4, 6])
def test_newton_step_factors_the_hessian(bench_kernels, n, p):
    # the table factors the triangle _hessian builds, as the solver does
    a = (np.arange(n + 1) + 1.0) ** -1.6
    for coeffs in (a, np.exp(0.7j) * a):
        factor, info = bench_kernels.newton_step(coeffs, p)
        assert info == 0
        assert np.all(np.isfinite(np.tril(factor)))
