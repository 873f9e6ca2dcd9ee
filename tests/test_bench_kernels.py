"""Smoke test for the kernel timing script under benchmarks/.

``benchmarks/bench_kernels.py`` reaches into bergex by name, the private
``solver._newton_terms``, ``solver._hessian``, ``solver._newton``,
``solver._gram`` and the report writer and reader of ``cli`` included,
and nothing else runs it. Each of its tables runs here once at the
smallest size, so a rename that breaks the script fails here.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergex import _backend, solver, spaces
from bergex.checks import check_table
from bergex.families import standard_family
from bergex.poly import as_poly

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = str(ROOT / "benchmarks")


@pytest.fixture(scope="module")
def bench_kernels():
    sys.path.insert(0, BENCHMARKS)
    yield importlib.import_module("bench_kernels")
    sys.path.remove(BENCHMARKS)


def cells(value):
    """Every timed cell, a dict with a median, anywhere inside ``value``."""
    if isinstance(value, dict):
        if "median" in value:
            return [value]
        return [c for item in value.values() for c in cells(item)]
    if isinstance(value, list):
        return [c for item in value for c in cells(item)]
    return []


def test_every_table_runs(bench_kernels, capsys, monkeypatch, tmp_path):
    # the whole script at size 16 and one repeat, its fixed sizes and
    # repeat counts cut to the same, with --out
    for name, value in (("NEWTON_STEP_SIZES", (16,)), ("NEWTON_SIZES", (16,)),
                        ("NEWTON_REPEATS", 1), ("STUDY_DEGREES", (8, 16)),
                        ("QUADRATURE_REPEATS", 1), ("CERTIFY_REPEATS", 1),
                        ("STARTUP_REPEATS", 1)):
        monkeypatch.setattr(bench_kernels, name, value)
    threshold = _backend.FFT_THRESHOLD
    product_threshold = spaces._PRODUCT_THRESHOLD
    newton, gram = solver._newton, solver._gram
    out = tmp_path / "bench.json"
    bench_kernels.main(["--sizes", "16", "--repeats", "1", "--out", str(out)])
    assert _backend.FFT_THRESHOLD == threshold
    assert spaces._PRODUCT_THRESHOLD == product_threshold
    assert solver._newton is newton
    assert solver._gram is gram
    text = capsys.readouterr().out
    tables = ("conv", "xcorr", "newton_step", "power", "solve", "ladder",
              "certificate", "check_table", "emit", "study", "quadrature",
              "startup")
    for table in tables:
        assert f"{table}:" in text
    for row in ("import numpy", "import bergex.cli", "bergex verify",
                "bergex solve"):
        assert row in text.split("startup:")[1]
    # under conv, xcorr, the power table's p = 4 and p = 6 and the
    # quadrature table
    assert text.count("crossover, fft ahead: complex from ") == 5

    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["environment"]) >= {
        "nproc", "OPENBLAS_NUM_THREADS", "numpy", "scipy", "commit", "date"}
    assert set(report["tables"]) == set(tables)
    for table in tables:
        assert report["tables"][table], table
        # each row of a table times at least one cell
        for row in report["tables"][table]:
            assert cells(row), (table, row)
    for c in cells(report["tables"]):
        assert c["min"] <= c["median"] <= c["max"]
        assert c["repeats"] >= 1
    # the certifying layers time each standard-family solution at its
    # calibrated degree, at p = 4 and 6
    family = [(name, n) for name, _, n in standard_family()]
    for table, cell_name in (("certificate", "certificate"),
                             ("check_table", "check_table")):
        rows = report["tables"][table]
        assert [(r["kernel"], r["n"], r["p"]) for r in rows] == [
            (name, n, p) for p in (4, 6) for name, n in family]
        for row in rows:
            assert set(row[cell_name]) == {"median", "min", "max", "repeats"}
    # both routes of the disc quadrature on every row, the family's and
    # the random polynomials' of degree 8 to 255
    rows = report["tables"]["quadrature"]
    assert {row["degree"] for row in rows} >= {8, 255}
    for row in rows:
        assert set(row) >= {"bergman", "product", "fft", "hardy"}
    for row in report["tables"]["certificate"]:
        assert row["j_max"] == solver.certificate_degree(row["p"], row["n"])
    assert {row["checks"] for row in report["tables"]["check_table"]} == {
        len(check_table(as_poly([1.0]), as_poly([1.0]), 4, 1.0, 0))}


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


def test_newton_step_times_the_solvers_routines(bench_kernels):
    # the script takes dpotrf and dpotrs from the module the solver loads
    # them from, and loads no scipy.linalg package around it
    assert bench_kernels.LAPACK is solver._flapack()
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import bench_kernels; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, BENCHMARKS,
                          str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_time_cells_times_the_calls_in_turn(bench_kernels):
    # drift in the machine's speed lands on every cell of a row alike
    order = []
    cells = bench_kernels.time_cells(
        [lambda: order.append("a"), lambda: order.append("b")], 2)
    assert order == ["a", "b", "a", "b"]
    assert [c["repeats"] for c in cells] == [2, 2]


def test_power_table_restores_the_threshold(bench_kernels, monkeypatch):
    # the fft spectrum of the table's error check raises: FFT_THRESHOLD is
    # back at the value in use, not at the 0 that forced the fft path
    spectrum = _backend.abs_power_xcorr

    def failing_fft(a, p):
        if _backend.FFT_THRESHOLD == 0:
            raise FloatingPointError("fft path")
        return spectrum(a, p)

    def untimed(calls, repeats, thresholds=None):
        return [bench_kernels.cell([0.0]) for _ in calls]

    monkeypatch.setattr(bench_kernels, "time_cells", untimed)
    monkeypatch.setattr(_backend, "abs_power_xcorr", failing_fft)
    with pytest.raises(FloatingPointError, match="fft path"):
        bench_kernels.bench_power([16], 1)
    assert _backend.FFT_THRESHOLD == bench_kernels.THRESHOLD_IN_USE
