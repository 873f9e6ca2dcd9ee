"""End-to-end tests for the command-line driver.

Each test invokes ``bergex.cli.main`` in process with a config written
to a temporary directory, then inspects the exit code and the emitted
report. Determinism tests compare report bodies, not headers, because
headers carry a generation timestamp.
"""

import csv
import errno
import importlib.machinery
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bergex import _backend, checks, cli, kernelspec, poly, solver, spaces
from bergex.checks import check_fourier_formula
from bergex.families import standard_family
from bergex.poly import AnalyticPoly, as_poly
from bergex.solver import ExtremalProblem, solve_extremal

MONOMIAL_Z = {"type": "coeffs", "values": [[0.0, 0.0], [1.0, 0.0]]}
ONE_PLUS_Z = {"type": "coeffs", "values": [[1.0, 0.0], [1.0, 0.0]]}
CONSTANT_ONE = {"type": "coeffs", "values": [[1.0, 0.0]]}
# Degree 599, beyond the fixed degree cap of 512 that bergex once had.
LONG_POWER_DECAY = {"type": "power_decay", "alpha": 3.0, "count": 600}
# the standard family's power-decay-3.0, calibrated to degree 128
POWER_DECAY_3 = {"type": "power_decay", "alpha": 3.0, "count": 64}
TRUNCATED_AT_16 = ("warning: working degree 16 below kernel degree 63: the "
                   "functional is truncated to P_16\n")


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_strict_report(path):
    """A report read as strict JSON: NaN, Infinity and -Infinity raise."""
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def scaled_one_plus_z(scale):
    """The kernel spec of scale * (1 + z)."""
    return {"type": "coeffs", "values": [[scale, 0.0], [scale, 0.0]]}


def read_csv_report(path):
    """Split a CSV report into header comments, rows, and trailer comments."""
    header, trailer = {}, {}
    data_lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                target = trailer if data_lines else header
                target[key] = value
            else:
                data_lines.append(line)
    rows = list(csv.DictReader(data_lines))
    return header, rows, trailer


def report_without_timestamp(path):
    """A JSON or CSV report, less the header's generation timestamp."""
    text = Path(path).read_text(encoding="utf-8")
    if text.startswith("{"):
        report = json.loads(text)
        del report["header"]["generated_at"]
        return report
    return [line for line in text.splitlines()
            if not line.startswith("# generated_at: ")]


def body_text(path):
    """Canonical serialization of the body, for determinism comparisons."""
    return json.dumps(load_report(path)["body"], sort_keys=True)


@pytest.fixture(scope="module")
def solved_artifact(tmp_path_factory):
    """A solve config and its report, shared by the verify tests."""
    root = tmp_path_factory.mktemp("solved")
    config = write_json(root / "config.json", {
        "schema_version": 1,
        "p": 4,
        "degree": 32,
        "kernel": MONOMIAL_Z,
    })
    solution = str(root / "solution.json")
    code = cli.main(["solve", "--config", config, "--out", solution])
    assert code == 0
    return config, solution


class TestSolveCommand:
    """The solve subcommand produces certified JSON reports."""

    def test_monomial_kernel_passes_all_checks(self, solved_artifact):
        _, solution = solved_artifact
        report = load_report(solution)
        verdicts = {c["verdict"] for c in report["body"]["checks"]}
        assert verdicts == {"pass"}
        names = {c["check_name"] for c in report["body"]["checks"]}
        assert names == {"norm_equality", "fourier_formula",
                         "coefficient_bound_sweep", "ryabykh_bound"}

    def test_monomial_kernel_matches_closed_form(self, solved_artifact):
        _, solution = solved_artifact
        body = load_report(solution)["body"]
        coeffs = np.array([complex(re, im)
                           for re, im in body["solution"]["coefficients"]])
        expected = np.zeros_like(coeffs)
        expected[1] = 3.0 ** 0.25
        assert np.max(np.abs(coeffs - expected)) <= 1e-8

    def test_p_two_solution_is_normalized_kernel(self, tmp_path):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 2,
            "degree": 16,
            "kernel": ONE_PLUS_Z,
        })
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        body = load_report(out)["body"]
        coeffs = np.array([complex(re, im)
                           for re, im in body["solution"]["coefficients"]])
        expected = np.array([1.0, 1.0]) / math.sqrt(1.5)
        padded = np.zeros(len(coeffs), dtype=complex)
        padded[:2] = expected
        assert np.max(np.abs(coeffs - padded)) <= 1e-10

    def test_largest_exponent_solves(self, tmp_path):
        # p = MAX_EXPONENT: the constant kernel's F = 1 still certifies
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": kernelspec.MAX_EXPONENT,
            "degree": 4,
            "kernel": CONSTANT_ONE,
        })
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        assert cli.main(["verify", out]) == 0

    def test_report_shape(self, solved_artifact):
        _, solution = solved_artifact
        report = load_report(solution)
        assert set(report) == {"header", "body"}
        header = report["header"]
        assert header["schema_version"] == 1
        assert header["tool"] == "bergex"
        assert "generated_at" in header
        body = report["body"]
        assert set(body) == {"problem", "solution", "checks"}
        assert body["problem"]["kernel"] == MONOMIAL_Z

    def test_body_is_deterministic(self, tmp_path):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 128,
            "kernel": POWER_DECAY_3,
        })
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        assert cli.main(["solve", "--config", config, "--out", first]) == 0
        assert cli.main(["solve", "--config", config, "--out", second]) == 0
        assert body_text(first) == body_text(second)

    def test_readme_config_without_tolerance_passes(self, tmp_path):
        # solver.TOLERANCE must clear the -1e-12 coefficient-bound gate at
        # the README's degree, and a solution file records no tolerance
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 160,
            "kernel": ONE_PLUS_Z,
        })
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        assert cli.main(["verify", out]) == 0
        problem = load_report(out)["body"]["problem"]
        assert "tolerance" not in problem

    def test_uncertified_solve_exits_one(self, tmp_path, capsys):
        # every check passes, but degree 16 leaves the certificate's
        # residual_max near 1e-5, above DEFAULT_CERTIFICATE_TOL; the
        # solution file is still written, and verify reproduces it
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 16,
            "kernel": POWER_DECAY_3,
        })
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 1
        assert capsys.readouterr().err == TRUNCATED_AT_16
        body = load_report(out)["body"]
        residual_max = body["solution"]["residual_max"]
        assert residual_max > solver.DEFAULT_CERTIFICATE_TOL
        assert {c["verdict"] for c in body["checks"]} == {"pass"}
        verified = str(tmp_path / "v.json")
        assert cli.main(["verify", out, "--out", verified]) == 0
        # verify reproduces the file, and names its failed gate
        report = load_report(verified)["body"]
        assert report["verified"] is True and report["certified"] is False
        assert report["rows"][0]["verdict"] == "fail"

    def test_check_fields_are_ignored(self, tmp_path):
        # 'checks' and 'fourier_m_max' are keys nothing reads: every solve
        # records the one table of check_table
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 16,
            "kernel": MONOMIAL_Z,
            "checks": ["norm_equality"],
            "fourier_m_max": 32,
        })
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        records = load_report(out)["body"]["checks"]
        assert [r["check_name"] for r in records] == (
            ["norm_equality"] + ["fourier_formula"] * 9
            + ["coefficient_bound_sweep", "ryabykh_bound"])
        assert [r["context"]["m"] for r in records[1:10]] == list(range(9))
        assert records[10]["context"]["m_max"] == 32

    def test_seed_recorded_in_header(self, tmp_path):
        # a solve draws nothing at random: its header records seed null,
        # and a config's 'seed' is a key nothing reads
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 8,
            "kernel": CONSTANT_ONE,
            "seed": 5,
        })
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        assert load_report(out)["header"]["seed"] is None

    def test_iteration_budget_field_ignored(self, tmp_path):
        # the Newton budget is solver.DEFAULT_MAX_ITERATIONS, not an input:
        # a config's 'max_iterations' changes neither exit code nor body
        bodies = []
        for extra in ({}, {"max_iterations": 1}):
            config = write_json(tmp_path / "c.json", {
                "schema_version": 1, "p": 4, "degree": 128,
                "kernel": POWER_DECAY_3, **extra})
            out = str(tmp_path / "s.json")
            assert cli.main(["solve", "--config", config, "--out", out]) == 0
            bodies.append(body_text(out))
        assert bodies[0] == bodies[1]

    def test_stdout_when_no_out_path(self, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 8,
            "kernel": CONSTANT_ONE,
        })
        assert cli.main(["solve", "--config", config]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["body"]["solution"]["iterations"] >= 0

    def test_long_kernel_solves(self, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 128,
            "kernel": LONG_POWER_DECAY,
        })
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        assert capsys.readouterr().err == (
            "warning: working degree 128 below kernel degree 599: the "
            "functional is truncated to P_128\n")

    @pytest.mark.parametrize("kernel, degree, code", [
        (POWER_DECAY_3, 16, 1), (LONG_POWER_DECAY, 128, 0)])
    def test_truncation_is_no_python_warning(self, tmp_path, kernel, degree,
                                             code):
        # under -W error a UserWarning would end the solve in a traceback;
        # the truncation is one stderr line, and the exit code is the gate's
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1, "p": 4, "degree": degree, "kernel": kernel})
        kernel_degree = kernelspec.realize(kernelspec.from_dict(kernel)).degree
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys; from bergex import cli; sys.exit(cli.main(['solve', "
             "'--config', sys.argv[1], '--out', sys.argv[2]]))",
             config, str(tmp_path / "s.json")],
            env=fresh_env(), capture_output=True, text=True)
        assert done.returncode == code
        assert done.stderr == (
            f"warning: working degree {degree} below kernel degree "
            f"{kernel_degree}: the functional is truncated to P_{degree}\n")

    def test_negative_zero_imaginary_part_takes_the_complex_path(
            self, tmp_path, monkeypatch):
        # -0.0 sets a bit, so the kernel keeps complex storage and solves
        # in (Re a, Im a), to the F of the kernel with +0.0 in its place
        c_hat_dtypes, newton = [], solver._newton

        def recording(c_hat, *args):
            c_hat_dtypes.append(c_hat.dtype)
            return newton(c_hat, *args)

        monkeypatch.setattr(solver, "_newton", recording)
        solved = {}
        for name, im in (("signed", -0.0), ("real", 0.0)):
            kernel = {"type": "coeffs", "values": [[1.0, im], [0.5, 0.0]]}
            stored = kernelspec.realize(kernelspec.from_dict(kernel)).coeffs
            assert stored.dtype == (complex if name == "signed" else float)
            config = write_json(tmp_path / f"{name}.json", {
                "schema_version": 1, "p": 4, "degree": 64,
                "kernel": kernel})
            out = str(tmp_path / f"{name}-solution.json")
            c_hat_dtypes.clear()
            assert cli.main(["solve", "--config", config, "--out", out]) == 0
            assert set(c_hat_dtypes) == {stored.dtype}
            solved[name] = cli._read_coefficients(
                load_report(out)["body"]["solution"], 64)
        gap = np.abs(solved["signed"] - solved["real"])
        assert len(gap) == 65 and np.max(gap) <= 1e-14

    def test_csv_format_rejected_for_solve(self, tmp_path):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "degree": 8,
            "kernel": CONSTANT_ONE,
        })
        # solve reports are JSON only, so solve has no --format: argparse
        # rejects the flag as a usage error
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["solve", "--config", config, "--format", "csv"])
        assert exc_info.value.code == 3


class TestReportEncoding:
    """Reports are compact JSON whose parsed content is the indented one's."""

    def test_report_is_one_line(self, solved_artifact):
        _, solution = solved_artifact
        text = Path(solution).read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True) + "\n"
        body = report["body"]
        assert body == json.loads(json.dumps(body, indent=2, sort_keys=True))

    def test_coefficients_reload_bit_for_bit(self, tmp_path):
        coeffs = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2,
                           1 / 3 - 2j / 7])
        solution = SimpleNamespace(F=AnalyticPoly(coeffs), p=4, degree=4,
                                   phi_norm=1.0, residual_max=0.0,
                                   iterations=0)
        body = cli._solution_body(CONSTANT_ONE, solution, [])
        out = tmp_path / "solution.json"
        cli._emit_json(cli._header(), body, str(out))
        recorded = load_report(out)["body"]["solution"]
        reloaded = cli._read_coefficients(recorded, solution.degree)
        assert reloaded.dtype == complex
        assert reloaded.tobytes() == solution.F.coeffs.tobytes()
        assert math.copysign(1.0, reloaded[0].real) == -1.0
        # the validated pairs are one float64 array, -0.0 bits kept
        pairs = kernelspec._pairs_field(recorded, "coefficients", 5)
        assert pairs.dtype == np.float64 and pairs.shape == (5, 2)
        assert pairs.tobytes() == solution.F.coeffs.view(float).tobytes()
        # one pair too many for degree 3, with the reader's own message
        with pytest.raises(kernelspec.ConfigError) as exc_info:
            cli._read_coefficients(recorded, 3)
        assert str(exc_info.value) == (
            "config field 'coefficients' is invalid: need a non-empty list "
            "of at most 4 [re, im] pairs of finite numbers")

    def test_jsonable_text(self):
        # exact types first, then NumPy scalars, complex numbers, dicts and
        # sequences: NaN and +-inf are null wherever they sit, -0.0 stays
        report = checks.VerificationReport(
            check_name="x", lhs=complex(1.5, math.inf), rhs=-0.0,
            residual=np.float64(math.nan), tolerance=1e-4, verdict="fail",
            context={"nan": np.float64(math.nan), "n": np.int64(3),
                     "ok": np.bool_(True), 7: "seven",
                     "nested": [[-0.0, complex(-0.0, 2.0)],
                                (np.float64(2.5), None, -math.inf)]})
        text = json.dumps(cli._jsonable(vars(report)), sort_keys=True,
                          allow_nan=False)
        assert text == (
            '{"check_name": "x", "context": {"7": "seven", "n": 3, '
            '"nan": null, "nested": [[-0.0, [-0.0, 2.0]], [2.5, null, '
            'null]], "ok": true}, "lhs": [1.5, null], "residual": null, '
            '"rhs": -0.0, "tolerance": 0.0001, "verdict": "fail"}')


class TestVerifyCommand:
    """verify re-derives every recorded number from the solution file."""

    def test_round_trip_reproduces_exactly(self, solved_artifact, tmp_path):
        _, solution = solved_artifact
        out = str(tmp_path / "verify.json")
        assert cli.main(["verify", solution, "--out", out]) == 0
        body = load_report(out)["body"]
        assert body["verified"] is True
        assert body["certified"] is True
        assert body["max_difference"] <= 1e-14
        assert [r["check_name"] for r in body["rows"]] == ["residual_max"] + [
            r["check_name"] for r in load_report(solution)["body"]["checks"]]
        assert {r["verdict"] for r in body["rows"]} == {"pass"}
        assert body["missing"] == [] and body["unexpected"] == []

    def verify_edited(self, solution, tmp_path, edit):
        """Exit code and report body of verify on the file after
        ``edit(checks)`` changed its check records in place."""
        payload = load_report(solution)
        edit(payload["body"]["checks"])
        edited = write_json(tmp_path / "edited.json", payload)
        out = tmp_path / "verify.json"
        code = cli.main(["verify", edited, "--out", str(out)])
        return code, load_strict_report(out)["body"]

    def test_unknown_check_is_named_as_unexpected(self, solved_artifact,
                                                 tmp_path):
        code, body = self.verify_edited(
            solved_artifact[1], tmp_path, lambda checks: checks.append(
                {"check_name": "mystery_check", "residual": 0.0,
                 "context": {}}))
        assert code == 1
        assert body["verified"] is False
        assert body["unexpected"] == ["mystery_check"]
        assert body["missing"] == []
        assert "mystery_check" not in {r["check_name"] for r in body["rows"]}

    def test_informational_ryabykh_record_is_unexpected(self, solved_artifact,
                                                        tmp_path):
        # files written while the Ryabykh check gated nothing record its
        # old quantity, marked informational; it is not the table's entry,
        # which such a file lacks
        def edit(checks):
            for check in checks:
                if check["check_name"] == "ryabykh_bound":
                    check.update(lhs=1.0 / 3.0, rhs=None, residual=1.0 / 3.0,
                                 tolerance=math.inf, verdict="pass")
                    check["context"]["kind"] = "informational"

        code, body = self.verify_edited(solved_artifact[1], tmp_path, edit)
        assert code == 1
        assert body["verified"] is False
        assert body["unexpected"] == ["ryabykh_bound"]
        assert body["missing"] == ["ryabykh_bound"]
        assert "ryabykh_bound" not in {r["check_name"] for r in body["rows"]}

    @pytest.mark.parametrize("index", range(12))
    def test_deleted_record_is_missing(self, solved_artifact, tmp_path,
                                       index):
        name = load_report(solved_artifact[1])["body"]["checks"][index][
            "check_name"]
        code, body = self.verify_edited(solved_artifact[1], tmp_path,
                                        lambda checks: checks.pop(index))
        assert code == 1
        assert body["verified"] is False
        assert body["missing"] == [name]
        assert body["unexpected"] == []

    def test_duplicated_record_is_unexpected(self, solved_artifact, tmp_path):
        code, body = self.verify_edited(
            solved_artifact[1], tmp_path,
            lambda checks: checks.insert(3, dict(checks[3])))
        assert code == 1
        assert body["verified"] is False
        assert body["unexpected"] == ["fourier_formula"]
        assert body["missing"] == []
        # the table's rows are there once each, with a zero difference
        assert len(body["rows"]) == 13
        assert body["max_difference"] == 0.0

    @pytest.mark.parametrize("check_name, key, value", [
        ("fourier_formula", "m", True),
        ("fourier_formula", "m", None),
        ("coefficient_bound_sweep", "m_max", "64"),
        ("coefficient_bound_sweep", "m_max", 64.0),
        ("coefficient_bound_sweep", "m_max", 64.7),
        ("coefficient_bound_sweep", "m_max", 10 ** 15),
        ("coefficient_bound_sweep", "m_max", -1),
        ("coefficient_bound_sweep", "m_max", None),
    ])
    def test_unpaired_record(self, solved_artifact, tmp_path, check_name,
                             key, value):
        # a record whose m or m_max is not, type for type, the table's is
        # no entry of it, so the table's entry is missing; None deletes
        # the field. The Fourier record edited is the one at m = 1, which
        # true would pair with if bool were int.
        def edit(checks):
            record = [c for c in checks if c["check_name"] == check_name][-1]
            if check_name == "fourier_formula":
                record = checks[2]
                assert record["context"]["m"] == 1
            if value is None:
                del record["context"][key]
            else:
                record["context"][key] = value

        code, body = self.verify_edited(solved_artifact[1], tmp_path, edit)
        assert code == 1
        assert body["verified"] is False
        assert body["unexpected"] == [check_name]
        assert body["missing"] == [check_name]

    def test_random_kernel_file_is_uncertified(self, tmp_path):
        # seed 1's random-0 at p = 4 fails its slack gate at its family
        # degree: verify reproduces the file and says so, and a file whose
        # failing record is deleted, or that holds no records, fails
        kernel, degree = {name: (k, n) for name, k, n
                          in standard_family(1)}["random-0"]
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1, "p": 4, "degree": degree,
            "kernel": kernelspec.coeffs_spec(kernel.coeffs)})
        solution = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", solution]) == 1
        table = [c["check_name"]
                 for c in load_report(solution)["body"]["checks"]]
        out = tmp_path / "verify.json"
        assert cli.main(["verify", solution, "--out", str(out)]) == 0
        body = load_strict_report(out)["body"]
        assert body["verified"] is True and body["certified"] is False
        sweep = next(r for r in body["rows"]
                     if r["check_name"] == "coefficient_bound_sweep")
        assert sweep["verdict"] == "fail"

        def drop_sweep(checks):
            checks[:] = [c for c in checks
                         if c["check_name"] != "coefficient_bound_sweep"]

        for edit, missing in ((drop_sweep, ["coefficient_bound_sweep"]),
                              (list.clear, table)):
            code, body = self.verify_edited(solution, tmp_path, edit)
            assert code == 1
            assert body["verified"] is False and body["certified"] is False
            assert body["missing"] == missing
            assert body["unexpected"] == []

    def test_recomputes_certificate_over_solve_range(self, tmp_path,
                                                      monkeypatch):
        # at p = 6 the pairings reach j = 3n, past the 2n of p <= 4
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1, "p": 6, "degree": 32,
            "kernel": MONOMIAL_Z})
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        ranges = []
        original = cli.extremality_residual

        def recording(F, k, p, phi_norm, max_test_degree):
            ranges.append(max_test_degree)
            return original(F, k, p, phi_norm, max_test_degree)

        monkeypatch.setattr(cli, "extremality_residual", recording)
        assert cli.main(["verify", out]) == 0
        assert ranges == [96]

    def test_real_kernel_verifies_in_float64(self, tmp_path, monkeypatch):
        # a real F reloads as float64, so every kernel call of verify, on
        # the direct path and through a transform, runs in real arithmetic
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1, "p": 4, "degree": 288,
            "kernel": {"type": "power_decay", "alpha": 1.6, "count": 64}})
        out = str(tmp_path / "s.json")
        assert cli.main(["solve", "--config", config, "--out", out]) == 0
        dtypes = {"conv": [], "_pointwise": []}

        def recorded(name, fn):
            def call(*args):
                operands = args[0] if name == "_pointwise" else args
                dtypes[name].extend(np.asarray(x).dtype for x in operands)
                return fn(*args)
            return call

        # every module-level name of the two, xcorr's and power's inner
        # calls of conv included
        for name in dtypes:
            original = getattr(_backend, name)
            for module in (_backend, poly, solver):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name,
                                        recorded(name, original))
        assert cli.main(["verify", out, "--out",
                         str(tmp_path / "v.json")]) == 0
        for name, seen in dtypes.items():
            assert seen and set(seen) == {np.dtype(np.float64)}, name

    def test_tampered_residual_detected(self, solved_artifact, tmp_path):
        _, solution = solved_artifact
        payload = load_report(solution)
        payload["body"]["solution"]["residual_max"] += 1e-9
        tampered = write_json(tmp_path / "tampered.json", payload)
        assert cli.main(["verify", tampered]) == 1

    def test_tampered_coefficient_detected(self, solved_artifact, tmp_path):
        _, solution = solved_artifact
        payload = load_report(solution)
        payload["body"]["solution"]["coefficients"][1][0] += 1e-6
        tampered = write_json(tmp_path / "tampered.json", payload)
        assert cli.main(["verify", tampered]) == 1

    def test_nan_recorded_residual_detected(self, solved_artifact, tmp_path):
        _, solution = solved_artifact
        payload = load_report(solution)
        payload["body"]["checks"][-1]["residual"] = math.nan
        tampered = write_json(tmp_path / "tampered.json", payload)
        assert cli.main(["verify", tampered]) == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_recomputation_is_strict_json(self, solved_artifact,
                                                      tmp_path):
        # F with a 1e300 or 1e308 coefficient overflows every recomputed
        # residual, with no warning on the way
        _, solution = solved_artifact
        for value in (1e300, 1e308):
            payload = load_report(solution)
            payload["body"]["solution"]["coefficients"][0] = [value, 0.0]
            tampered = write_json(tmp_path / "tampered.json", payload)
            out = tmp_path / "verify.json"
            assert cli.main(["verify", tampered, "--out", str(out)]) == 1
            body = load_strict_report(out)["body"]
            assert body["verified"] is False
            assert body["certified"] is False
            assert body["max_difference"] is None

    @pytest.mark.filterwarnings("error")
    def test_extreme_phi_norm_is_reported(self, tmp_path, capsys):
        # ||phi|| = 1e308 divides the kernel by 2^1024 before the Ryabykh
        # ratio, whose right side underflows to 0: the bound fails with an
        # infinite residual, and verify writes its report
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1, "p": 4, "degree": 8,
            "kernel": {"type": "coeffs",
                       "values": [[1.0, 0.0], [0.5, 0.25]]}})
        solution = tmp_path / "s.json"
        cli.main(["solve", "--config", config, "--out", str(solution)])
        payload = load_report(solution)
        payload["body"]["solution"]["phi_norm"] = 1e308
        tampered = write_json(tmp_path / "tampered.json", payload)
        out = tmp_path / "verify.json"
        capsys.readouterr()
        assert cli.main(["verify", tampered, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        body = load_strict_report(out)["body"]
        assert body["verified"] is False and body["certified"] is False
        ryabykh = body["rows"][-1]
        assert ryabykh["check_name"] == "ryabykh_bound"
        assert ryabykh["recomputed"] is None and ryabykh["verdict"] == "fail"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kernel_tail_is_reported(self, tmp_path, capsys):
        # ||phi|| = 2^-512 multiplies the kernel 0.8 + 0.8 z by 2^512: each
        # square is finite, and their sum, the coefficient bound's tail at
        # m = 0, is past the float range. The tail is inf and verify
        # writes its report, with no traceback
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1, "p": 4, "degree": 8,
            "kernel": {"type": "coeffs", "values": [[0.8, 0.0], [0.8, 0.0]]}})
        solution = tmp_path / "s.json"
        cli.main(["solve", "--config", config, "--out", str(solution)])
        payload = load_report(solution)
        payload["body"]["solution"]["phi_norm"] = 2.0 ** -512
        tampered = write_json(tmp_path / "tampered.json", payload)
        out = tmp_path / "verify.json"
        capsys.readouterr()
        assert cli.main(["verify", tampered, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        body = load_strict_report(out)["body"]
        assert body["verified"] is False and body["certified"] is False

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert cli.main(["verify", str(tmp_path / "absent.json")]) == 3

    def test_garbage_file_is_invalid_input(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json", encoding="utf-8")
        assert cli.main(["verify", str(path)]) == 3

    @pytest.mark.parametrize("payload, message", [
        ({"header": {}}, "solution file is missing 'body'"),
        ({"body": []}, "solution file field 'body' has the wrong type"),
        ({"body": {"problem": {"p": 4}}},
         "solution file is missing 'degree'"),
    ], ids=["no-body", "body-a-list", "problem-without-degree"])
    def test_malformed_file_names_the_solution_file(self, tmp_path, capsys,
                                                    payload, message):
        path = write_json(tmp_path / "solution.json", payload)
        assert cli.main(["verify", path]) == 3
        assert capsys.readouterr().err == (
            f"error: unreadable solution file: {message}\n")

    @pytest.mark.parametrize("field, where, value", [
        ("degree", "problem", 32.9),
        ("degree", "problem", 10 ** 15),
        ("p", "problem", "4"),
        ("coefficients", "solution", [[0.0, 0.0], [True, False]]),
        ("phi_norm", "solution", "1.0"),
        ("residual", "norm_equality", "0.0"),
        ("check_name", "norm_equality", 5),
        ("check_name", "norm_equality", None),
        ("checks", "body", [["norm_equality", 0.0, {}]]),
        # F of degree 33 in a file of degree 32, although its top
        # coefficient is negligible
        ("coefficients", "solution",
         [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 31 + [[1e-300, 0.0]]),
        ("p", "problem", kernelspec.MAX_EXPONENT + 2),
    ])
    def test_malformed_recorded_field_is_invalid_input(
            self, solved_artifact, tmp_path, capsys, field, where, value):
        # every field is read by the config rule, in the range solve
        # records, with no coercion (a check record's m and m_max pair it
        # with the table, test_unpaired_record): 'where' is the body, a
        # body section or the name of the check record that holds the
        # field (in the record itself, or else in its context)
        _, solution = solved_artifact
        payload = load_report(solution)
        body = payload["body"]
        if where == "body":
            body[field] = value
        elif where in body:
            body[where][field] = value
        for check in body["checks"]:
            if isinstance(check, dict) and check["check_name"] == where:
                (check if field in check else check["context"])[
                    field] = value
        broken = write_json(tmp_path / "broken.json", payload)
        assert cli.main(["verify", broken]) == 3
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("check_name, key", [
        ("norm_equality", "residual"),
    ])
    def test_missing_recorded_field_is_invalid_input(
            self, solved_artifact, tmp_path, capsys, check_name, key):
        _, solution = solved_artifact
        payload = load_report(solution)
        for check in payload["body"]["checks"]:
            if check["check_name"] == check_name:
                check.pop(key, None)
                check["context"].pop(key, None)
        broken = write_json(tmp_path / "broken.json", payload)
        assert cli.main(["verify", broken]) == 3
        assert repr(key) in capsys.readouterr().err


class TestExitCodes:
    """Invalid input exits 3; non-convergence exits 2."""

    def run_solve(self, tmp_path, overrides):
        config = {
            "schema_version": 1,
            "p": 4,
            "degree": 16,
            "kernel": ONE_PLUS_Z,
        }
        config.update(overrides)
        for key, value in list(config.items()):
            if value is None:
                del config[key]
        path = write_json(tmp_path / "c.json", config)
        return cli.main(["solve", "--config", path])

    def test_odd_p_rejected(self, tmp_path):
        assert self.run_solve(tmp_path, {"p": 3}) == 3

    def test_degree_zero_solves(self, tmp_path, capsys):
        # P_0 is a working space as for the library and the studies: the
        # constant kernel's solve there certifies
        overrides = {"degree": 0, "kernel": CONSTANT_ONE}
        assert self.run_solve(tmp_path, overrides) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["body"]["solution"]["coefficients"] == [
            [1.0, 0.0]]

    def test_missing_degree_rejected(self, tmp_path):
        assert self.run_solve(tmp_path, {"degree": None}) == 3

    def test_unknown_schema_version_rejected(self, tmp_path):
        assert self.run_solve(tmp_path, {"schema_version": 99}) == 3

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_is_an_integer(self, tmp_path, capsys, version):
        assert self.run_solve(tmp_path, {"schema_version": version}) == 3
        assert "'schema_version'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"kernel": {"type": "coeffs",
                    "values": [[float("nan"), 0.0], [1.0, 0.0]]}},
        {"kernel": {"type": "power_decay", "alpha": float("inf"), "count": 4}},
        {"tolerance": float("nan")},
        {"tolerance": float("inf")},
    ])
    def test_non_finite_input_rejected(self, tmp_path, capsys, overrides):
        # 'tolerance' is a key nothing reads: whatever its value, the exit
        # code and report are those of the config without it
        if "tolerance" not in overrides:
            assert self.run_solve(tmp_path, overrides) == 3
            return
        runs = []
        for fields in (overrides, {}):
            code = self.run_solve(tmp_path, fields)
            out, err = capsys.readouterr()
            report = json.loads(out)
            del report["header"]["generated_at"]
            runs.append((code, report, err))
        assert runs[0] == runs[1]

    def test_malformed_kernel_rejected(self, tmp_path, capsys):
        bad = {"type": "power_decay", "alpha": 2.0}
        assert self.run_solve(tmp_path, {"kernel": bad}) == 3
        # a count past kernelspec.MAX_DEGREE + 1 exits 3 before any
        # allocation, as does a degree past MAX_DEGREE
        for overrides, field in (
                ({"kernel": dict(bad, count=10 ** 15)}, "'count'"),
                ({"degree": 10 ** 15}, "'degree'")):
            capsys.readouterr()
            assert self.run_solve(tmp_path, overrides) == 3
            assert field in capsys.readouterr().err

    def test_unknown_kernel_type_rejected(self, tmp_path):
        assert self.run_solve(tmp_path, {"kernel": {"type": "mystery"}}) == 3

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kernel_rejected(self, tmp_path, capsys,
                                         solved_artifact):
        # (t+1)^1000 realizes to [1, 1.07e301, inf, inf]: exit 3 naming
        # alpha, not NaN iterations and exit 2
        overflow = {"type": "power_decay", "alpha": -1000, "count": 4}
        payload = load_report(solved_artifact[1])
        payload["body"]["problem"]["kernel"] = overflow
        study = write_json(tmp_path / "study.json", {
            "schema_version": 1, "p": 4, "degrees": [4, 8],
            "kernel": overflow})
        for code in (
                lambda: self.run_solve(tmp_path, {"kernel": overflow}),
                lambda: cli.main(["verify", write_json(
                    tmp_path / "solution.json", payload)]),
                lambda: cli.main(["study", "convergence", "--config",
                                  study])):
            capsys.readouterr()
            assert code() == 3
            assert "alpha=-1000" in capsys.readouterr().err

    def test_truncate_spec_rejected(self, tmp_path, capsys):
        # a truncation is written with fewer values or a smaller count
        kernel = {"type": "truncate", "n": 4,
                  "inner": {"type": "power_decay", "alpha": 2.0, "count": 16}}
        assert self.run_solve(tmp_path, {"kernel": kernel}) == 3
        assert ("unknown kernel spec type 'truncate'"
                in capsys.readouterr().err)

    def test_non_json_config_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{broken", encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 3

    @pytest.mark.parametrize("depth", [5000, 50000])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_deep_nesting_rejected(self, tmp_path, capsys, solved_artifact,
                                   command, depth):
        # arrays nested this deep in the kernel's values overflow the
        # recursion limit in the JSON decoder, from any stack depth
        kernel = ('{"type": "coeffs", "values": ' + "[" * depth
                  + "]" * depth + "}")
        if command == "solve":
            text = '{"p": 4, "degree": 8, "kernel": %s}' % kernel
        else:
            payload = load_report(solved_artifact[1])
            payload["body"]["problem"]["kernel"] = "KERNEL"
            text = json.dumps(payload).replace('"KERNEL"', kernel)
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        argv = ["solve", "--config", str(path)] if command == "solve" else [
            "verify", str(path)]
        assert cli.main(argv) == 3
        assert "nested too deeply" in capsys.readouterr().err

    def test_nonconvergence_exits_two(self, tmp_path, capsys, monkeypatch):
        # no step moves a gradient at its float floor down to 1e-30
        monkeypatch.setattr(solver, "TOLERANCE", 1e-30)
        code = self.run_solve(tmp_path, {})
        assert code == 2
        err = capsys.readouterr().err
        assert "did not converge" in err
        assert "iteration" in err

    def test_nonconvergence_trace_prints_python_floats(self, tmp_path,
                                                       capsys, monkeypatch):
        # the trace holds floats, so their repr carries no numpy type name;
        # a budget of one Newton iteration stops degree 64 at iteration 0
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITERATIONS", 1)
        code = self.run_solve(tmp_path, {"degree": 64})
        assert code == 2
        err = capsys.readouterr().err
        assert "iteration 0: objective -" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("command, what", [
        (["solve", "--config"], "config"),
        (["verify"], "solution file"),
    ], ids=["solve", "verify"])
    @pytest.mark.parametrize("payload", [[], [1, 2]], ids=["empty", "pair"])
    def test_document_not_an_object(self, tmp_path, capsys, command, what,
                                    payload):
        path = write_json(tmp_path / "doc.json", payload)
        assert cli.main([*command, path]) == 3
        assert capsys.readouterr().err == (
            f"error: {what} must be a JSON object\n")

    def nonconvergence_message(self, capsys):
        """The message line of an exit 2; the lines after it are the
        trace's last entries."""
        message, *trace = capsys.readouterr().err.splitlines()
        assert trace and all(line.startswith("  iteration ")
                             for line in trace)
        return message

    def test_hessian_not_positive_definite_exits_two(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(
            solver, "_hessian",
            lambda a, p, wu, v: -np.eye(len(a.view(float)), order="F"))
        assert self.run_solve(tmp_path, {}) == 2
        assert self.nonconvergence_message(capsys) == (
            "solver did not converge: degree 16: Hessian not positive "
            "definite at iteration 0")

    def test_oracle_nonconvergence_exits_two(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITERATIONS", 1)
        config = write_json(tmp_path / "o.json", {
            "schema_version": 1, "p": 4, "kernel": ONE_PLUS_Z})
        assert cli.main(["oracle-compare", "--config", config]) == 2
        assert self.nonconvergence_message(capsys) == (
            "solver did not converge: oracle: no convergence in 1 "
            "iterations")


# Smallest valid config per command; each field test sets one field on it.
FIELD_CASES = {
    "solve": (["solve"], {"p": 4, "degree": 16, "kernel": ONE_PLUS_Z}),
    "growth": (["study", "growth"], {"p": 4}),
    "growth-explicit": (["study", "growth"],
                        {"p": 4, "family": [CONSTANT_ONE]}),
    "convergence": (["study", "convergence"],
                    {"p": 4, "kernel": ONE_PLUS_Z, "degrees": [8, 16]}),
    "hinfty": (["study", "hinfty"],
               {"p": 4, "alpha": 2.0, "degrees": [16, 32]}),
    "hinfty-slow": (["study", "hinfty"],
                    {"p": 4, "alpha": 1.2, "degrees": [8, 16]}),
    "oracle": (["oracle-compare"], {"p": 4, "kernel": ONE_PLUS_Z}),
}

INTEGER_FIELDS = [
    ("solve", "degree"), ("growth", "max_study_degree"),
    ("growth-explicit", "degree"), ("growth", "seed"),
]
# integer fields that configs no longer read: keys nothing reads, which
# change neither the exit code nor the report
IGNORED_FIELDS = [
    ("solve", "max_iterations"), ("solve", "seed"),
    ("oracle", "oracle_degree"), ("oracle", "seed"),
    ("convergence", "seed"), ("hinfty", "seed"),
]
NOT_INTEGERS = [math.inf, True, False, 8.0, "8", [8], {"n": 8}, None, -1]

NUMBER_FIELDS = [("hinfty", "alpha")]
# number fields that configs no longer read, likewise ignored
IGNORED_NUMBER_FIELDS = [("solve", "tolerance")]
NOT_NUMBERS = [[1], True, {"value": 1}, "1e-10", None, 10 ** 400, -1.0]
NOT_NUMBER_LISTS = [[], "ab", 2.0, {"q1": 2.0}, None, ["2"], [True],
                    [2.0, None], [math.inf], [10 ** 400]]
NOT_FAMILIES = [5, "custom", "", [], None, True, {"type": "coeffs"}]


class TestConfigFieldTypes:
    """Every numeric config field is a JSON number of its kind, in range.

    A wrong value exits 3 before any solve, with a message naming the
    field, instead of a traceback or a silent coercion. A field that no
    command reads is ignored, whatever its value.
    """

    def run(self, tmp_path, capsys, case, field, value, element=False):
        argv, base = FIELD_CASES[case]
        config = dict(base, schema_version=1)
        if field is not None:
            config[field] = [8, value] if element else value
        path = write_json(tmp_path / "c.json", config)
        code = cli.main(argv + ["--config", path,
                                "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def assert_moves_nothing(self, tmp_path, capsys, case, field, value):
        """The field, set to the value, leaves the exit code, stderr and
        report, header included, of the same config without it."""
        code, err = self.run(tmp_path, capsys, case, field, value)
        report = report_without_timestamp(tmp_path / "out")
        assert (code, err) == self.run(tmp_path, capsys, case, None, None)
        assert report == report_without_timestamp(tmp_path / "out")

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("case, field", INTEGER_FIELDS + IGNORED_FIELDS)
    def test_integer_fields(self, tmp_path, capsys, case, field, value):
        if (case, field) in IGNORED_FIELDS:
            self.assert_moves_nothing(tmp_path, capsys, case, field, value)
            return
        code, err = self.run(tmp_path, capsys, case, field, value)
        assert code == 3
        assert repr(field) in err

    @pytest.mark.parametrize("value", NOT_INTEGERS + [[8]], ids=repr)
    @pytest.mark.parametrize("case", ["convergence", "hinfty"])
    def test_degree_lists(self, tmp_path, capsys, case, value):
        code, err = self.run(tmp_path, capsys, case, "degrees", value,
                             element=True)
        assert code == 3
        assert "'degrees'" in err
        code, err = self.run(tmp_path, capsys, case, "degrees", value)
        assert code == 3
        assert "'degrees'" in err

    @pytest.mark.parametrize("case, field, value", [
        ("convergence", "degrees", [8, kernelspec.MAX_DEGREE + 1]),
        ("hinfty", "degrees", [16, 10 ** 12]),
        ("growth-explicit", "degree", kernelspec.MAX_DEGREE + 1),
        # the first degree past the bound, not only a far one
        ("solve", "degree", kernelspec.MAX_DEGREE + 1),
        # past p = 1024 ||f||_{A^p}^p underflows in the solver, and
        # (p - 1) q1 = 3e308 overflows to inf
        *[(case, "p", kernelspec.MAX_EXPONENT + 2) for case in FIELD_CASES],
        ("growth", "q1_list", [2.0, 1e308]),
    ])
    def test_size_fields_are_bounded(self, tmp_path, capsys, case, field,
                                     value):
        # a size past its bound exits 3 before anything of that size is
        # allocated, instead of a MemoryError traceback or a file of
        # records that check nothing
        code, err = self.run(tmp_path, capsys, case, field, value)
        assert code == 3
        assert repr(field) in err

    @pytest.mark.parametrize("case, field, value, library", [
        pytest.param(case, field, value, library,
                     id=f"{case}-{field}-{value}")
        for case, field, values, library in [
            ("solve", "p", [0, 5, kernelspec.MAX_EXPONENT + 2],
             lambda v: ExtremalProblem(v, as_poly([1.0, 1.0]), 16)),
            ("solve", "degree", [-1, kernelspec.MAX_DEGREE + 1],
             lambda v: ExtremalProblem(4, as_poly([1.0, 1.0]), v)),
            ("convergence", "degrees",
             [[8], [8, 8], [8, kernelspec.MAX_DEGREE + 1]],
             lambda v: checks.convergence_study(as_poly([1.0, 1.0]), 4, v)),
            ("hinfty", "degrees", [[8, kernelspec.MAX_DEGREE + 1]],
             lambda v: checks.check_hinfty_criterion(2.0, 4, v)),
            ("growth", "q1_list", [[0.5], [400.0]],
             lambda v: checks.growth_study([], 4, v)),
            ("hinfty", "alpha", [0.0, -1.0],
             lambda v: checks.check_hinfty_criterion(v, 4, [16, 32])),
        ]
        for value in values])
    def test_rejection_reads_the_library_rule(self, tmp_path, capsys,
                                              monkeypatch, case, field,
                                              value, library):
        # each rule is the library's: the command and the entry point
        # reject the same value with the same message, before any solve
        def unreachable(*args):
            raise AssertionError("a solve ran")
        monkeypatch.setattr(solver, "_newton", unreachable)
        with pytest.raises(ValueError) as raised:
            library(value)
        assert self.run(tmp_path, capsys, case, field, value) == (
            3, f"error: config field {field!r} is invalid: {raised.value}\n")

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    @pytest.mark.parametrize("case, field",
                             NUMBER_FIELDS + IGNORED_NUMBER_FIELDS)
    def test_number_fields(self, tmp_path, capsys, case, field, value):
        if (case, field) in IGNORED_NUMBER_FIELDS:
            self.assert_moves_nothing(tmp_path, capsys, case, field, value)
            return
        code, err = self.run(tmp_path, capsys, case, field, value)
        assert code == 3
        assert repr(field) in err

    @pytest.mark.parametrize("value", NOT_NUMBER_LISTS, ids=repr)
    def test_q1_list(self, tmp_path, capsys, value):
        code, err = self.run(tmp_path, capsys, "growth", "q1_list", value)
        assert code == 3
        assert "'q1_list'" in err

    @pytest.mark.parametrize("value", NOT_FAMILIES, ids=repr)
    def test_growth_family(self, tmp_path, capsys, value):
        # "standard" or a non-empty list of kernel specs; a string is not
        # walked character by character
        code, err = self.run(tmp_path, capsys, "growth", "family", value)
        assert code == 3
        assert "'family'" in err

    @pytest.mark.parametrize("case", ["growth", "growth-explicit",
                                      "convergence", "hinfty", "oracle"])
    def test_tolerance_key_moves_nothing(self, tmp_path, capsys, case):
        # every command solves at solver.TOLERANCE, so a 'tolerance' key,
        # even one no solve could meet, is a key nothing reads
        self.assert_moves_nothing(tmp_path, capsys, case, "tolerance", 1e-30)


class TestCheckSuiteWork:
    @pytest.fixture(scope="class")
    def solution(self):
        return solve_extremal(ExtremalProblem(
            p=4, kernel=as_poly([1.0, 1.0]), degree=32))

    def test_power_calls_per_solution_bounded(self, solution, monkeypatch,
                                              tmp_path):
        # every report reads |F|^p's Fourier coefficients from one spectrum,
        # the Ryabykh check its ||F||_{H^p}^p = b_0 too: one power call for
        # it, and one for the sweep's ||F||_{H^2}. Rebuilding F^{p/2} per
        # frequency would cost one call per m = 0..8 in the Fourier checks.
        calls = []
        original = spaces.power

        def counting_power(f, m):
            calls.append(m)
            return original(f, m)

        monkeypatch.setattr(spaces, "power", counting_power)
        reports = checks.check_table(solution.F, solution.kernel, solution.p,
                                     solution.phi_norm, solution.degree)
        assert len(reports) == 12
        assert 0 < len(calls) <= 3

        body = cli._solution_body(ONE_PLUS_Z, solution, reports)
        path = tmp_path / "solution.json"
        cli._emit_json(cli._header(), body, str(path))
        calls.clear()
        assert cli.run_verify(str(path), out=str(tmp_path / "v.json")) == 0
        assert 0 < len(calls) <= 3

    def test_batch_equals_single_calls(self, solution, tmp_path):
        # the records of a solve are the single checks' reports
        F, k, phi = solution.F, solution.kernel, solution.phi_norm
        p = solution.p
        singles = [checks.check_norm_equality(F, k, p, phi),
                   *(check_fourier_formula(F, k, p, phi, m) for m in range(9)),
                   checks.coefficient_bound_sweep(solution),
                   checks.check_ryabykh_bound(F, k, p)]
        config = {"schema_version": 1, "p": p, "degree": solution.degree,
                  "kernel": ONE_PLUS_Z}
        out = tmp_path / "s.json"
        cli.run_solve(config, out=str(out))  # degree 32 leaves residual_max
        assert load_report(out)["body"]["checks"] == json.loads(json.dumps(
            [cli._jsonable(vars(r)) for r in singles]))


class TestGrowthStudy:
    """Growth studies emit per-kernel ratio rows and an empirical constant."""

    def config(self, tmp_path):
        return write_json(tmp_path / "growth.json", {
            "schema_version": 1,
            "p": 4,
            "family": [ONE_PLUS_Z, CONSTANT_ONE],
            "degree": 32,
            "q1_list": [4.0 / 3.0, 2.0],
        })

    def test_csv_rows_and_trailer(self, tmp_path):
        out = str(tmp_path / "g.csv")
        code = cli.main(["study", "growth", "--config", self.config(tmp_path),
                         "--out", out])
        assert code == 0
        header, rows, trailer = read_csv_report(out)
        assert header["tool"] == "bergex"
        assert len(rows) == 4
        assert {row["kernel_id"] for row in rows} == {"coeffs[2]", "coeffs[1]"}
        empirical = float(trailer["empirical_C"])
        assert empirical >= 1.0
        for row in rows:
            ratio = float(row["ratio"])
            assert 1.0 / empirical <= ratio <= empirical

    def test_constant_kernel_ratio_is_one(self, tmp_path):
        out = str(tmp_path / "g.csv")
        cli.main(["study", "growth", "--config", self.config(tmp_path),
                  "--out", out])
        _, rows, _ = read_csv_report(out)
        for row in rows:
            if row["kernel_id"] == "coeffs[1]":
                assert float(row["ratio"]) == pytest.approx(1.0, rel=1e-10)

    def test_json_format(self, tmp_path):
        out = str(tmp_path / "g.json")
        code = cli.main(["study", "growth", "--config", self.config(tmp_path),
                         "--format", "json", "--out", out])
        assert code == 0
        body = load_report(out)["body"]
        assert len(body["rows"]) == 4
        assert body["empirical_C"] >= 1.0

    def test_seed_from_config_or_keyword(self, tmp_path):
        # the config's seed and run_growth_study's seed= keyword draw the
        # same random kernels and record the same header seed
        def report(config_seed=None, **kwargs):
            config = {"schema_version": 1, "p": 4, "max_study_degree": 16}
            if config_seed is not None:
                config["seed"] = config_seed
            out = tmp_path / "g.json"
            assert cli.run_growth_study(config, out=str(out), fmt="json",
                                        **kwargs) == 0
            return load_report(out)

        by_config, by_keyword = report(3), report(seed=3)
        assert by_config["header"]["seed"] == by_keyword["header"]["seed"] == 3
        assert by_config["body"] == by_keyword["body"]

        def random_rows(body):
            return [row for row in body["rows"]
                    if row["kernel_id"].startswith("random-")]

        assert random_rows(by_config["body"])
        assert random_rows(report(4)["body"]) != random_rows(by_config["body"])

    def test_header_records_the_default_seed(self, tmp_path):
        # without a config seed the standard family's random kernels are
        # drawn from families.DEFAULT_SEED, and the header says which
        def report(**seed):
            config = write_json(tmp_path / "g.json", {
                "schema_version": 1, "p": 4, "max_study_degree": 16, **seed})
            out = tmp_path / "g_out.json"
            assert cli.main(["study", "growth", "--config", config,
                             "--format", "json", "--out", str(out)]) == 0
            return load_report(out)

        default, explicit = report(), report(seed=20240901)
        assert default["header"]["seed"] == explicit["header"]["seed"]
        assert default["header"]["seed"] == 20240901
        assert default["body"] == explicit["body"]

    # max_study_degree 16 truncates the 64-term power-decay kernels, and
    # degree 8 a 40-term one: the study solves S_n k on purpose, and warns
    # of no truncation
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("config", [
        {"max_study_degree": 16},
        {"family": [{"type": "power_decay", "alpha": 2.0, "count": 40}],
         "degree": 8},
    ], ids=["capped-standard", "explicit"])
    def test_truncating_study_warns_nothing(self, tmp_path, capsys, config):
        path = write_json(tmp_path / "g.json",
                          {"schema_version": 1, "p": 4, **config})
        out = str(tmp_path / "g.csv")
        assert cli.main(["study", "growth", "--config", path,
                         "--out", out]) == 0
        assert capsys.readouterr().err == ""

    def test_explicit_family_records_no_seed(self, tmp_path):
        # explicit kernel specs draw nothing at random, so a config's seed
        # is not recorded either
        out = tmp_path / "g.json"
        assert cli.main(["study", "growth", "--config", self.config(tmp_path),
                         "--format", "json", "--out", str(out)]) == 0
        assert load_report(out)["header"]["seed"] is None
        config = write_json(tmp_path / "seeded.json", {
            "schema_version": 1, "p": 4, "seed": 7, "degree": 8,
            "family": [{"type": "coeffs", "values": [[1.0, 0.0], [0.3, 0.0]]}]})
        out = str(tmp_path / "g.csv")
        assert cli.main(["study", "growth", "--config", config,
                         "--out", out]) == 0
        assert read_csv_report(out)[0]["seed"] == "None"

    def test_extreme_kernel_scales(self, tmp_path):
        # the ratio is homogeneous of degree 0 in the kernel
        def ratios(scale):
            config = write_json(tmp_path / "g.json", {
                "schema_version": 1,
                "p": 4,
                "family": [scaled_one_plus_z(scale)],
                "degree": 32,
            })
            out = tmp_path / "g_out.json"
            assert cli.main(["study", "growth", "--config", config,
                             "--format", "json", "--out", str(out)]) == 0
            rows = load_strict_report(out)["body"]["rows"]
            return [row["ratio"] for row in rows]

        base = ratios(1.0)
        for scale in (1e100, 1e-200, 1e-310, 1e300):
            assert ratios(scale) == pytest.approx(base, rel=1e-12, abs=0)

    def test_large_exponents_stay_finite(self, tmp_path):
        # at p = 2, F is the normalized kernel and every ratio is 1; at
        # exponents near 1000 the norms of F and of k are taken below
        # their boundary sup, where |f|^p1 cannot overflow
        config = write_json(tmp_path / "g.json", {
            "schema_version": 1, "p": 2, "q1_list": [1000, 1000.5, 1024]})
        out = tmp_path / "g_out.json"
        assert cli.main(["study", "growth", "--config", config,
                         "--format", "json", "--out", str(out)]) == 0
        body = load_strict_report(out)["body"]
        for row in body["rows"]:
            assert all(math.isfinite(row[key]) for key in (
                "k_hardy", "k_bergman", "F_hardy", "ratio")), row
            assert abs(row["ratio"] - 1.0) <= 1e-12, row
        assert abs(body["empirical_C"] - 1.0) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_default_q1_list_stays_within_the_largest_exponent(
            self, tmp_path, capsys):
        # at p = 300 the default q1 = 4 gives p1 = 1196, past the largest
        # exponent, whose sup-scaled |F|^p1 underflows to a zero norm; the
        # default keeps q and 2 alone
        config = write_json(tmp_path / "g.json", {
            "schema_version": 1, "p": 300, "degree": 8,
            "family": [{"type": "coeffs", "values": [[1.0, 0.0],
                                                     [0.3, 0.0]]}]})
        out = tmp_path / "g_out.json"
        assert cli.main(["study", "growth", "--config", config,
                         "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        body = load_strict_report(out)["body"]
        assert [row["q1"] for row in body["rows"]] == [300 / 299, 2.0]
        assert all(row["F_hardy"] > 0 for row in body["rows"])
        assert math.isfinite(body["empirical_C"])

    def test_nan_ratio_gives_nan_constant(self, tmp_path, monkeypatch):
        # the empirical constant is the largest of the ratios and their
        # reciprocals, and a NaN among them is not dropped
        rows = [SimpleNamespace(ratio=ratio) for ratio in (1.0, math.nan)]
        monkeypatch.setattr(cli, "growth_study", lambda *args: rows)
        out = tmp_path / "g.json"
        assert cli.run_growth_study(
            {"schema_version": 1, "p": 4, "family": [CONSTANT_ONE]},
            out=str(out), fmt="json") == 0
        assert load_strict_report(out)["body"]["empirical_C"] is None


class TestConvergenceStudy:
    """Truncation distances shrink as the degree grows."""

    def test_distances_decrease(self, tmp_path):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "kernel": ONE_PLUS_Z,
            "degrees": [8, 16, 32],
        })
        out = str(tmp_path / "conv.csv")
        code = cli.main(["study", "convergence", "--config", config,
                         "--out", out])
        assert code == 0
        _, rows, _ = read_csv_report(out)
        distances = [float(row["distance"]) for row in rows]
        assert distances[0] > distances[1] > distances[2]
        assert distances[2] == 0.0

    def test_long_kernel_runs(self, tmp_path):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "kernel": LONG_POWER_DECAY,
            "degrees": [8, 16],
        })
        out = str(tmp_path / "conv.csv")
        assert cli.main(["study", "convergence", "--config", config,
                         "--out", out]) == 0

    def test_single_degree_rejected(self, tmp_path):
        config = write_json(tmp_path / "c.json", {
            "schema_version": 1,
            "p": 4,
            "kernel": ONE_PLUS_Z,
            "degrees": [8],
        })
        assert cli.main(["study", "convergence", "--config", config]) == 3


# the kernel z vanishes on P_0: each study names that space, as bergex
# solve does, and does not call the kernel zero
@pytest.mark.parametrize("kind, config", [
    ("convergence", {"kernel": MONOMIAL_Z, "degrees": [0, 4]}),
    ("growth", {"family": [MONOMIAL_Z], "degree": 0}),
    # the standard family's monomial-z
    ("growth", {"max_study_degree": 0}),
], ids=["convergence", "growth-explicit", "growth-standard"])
def test_study_degree_on_which_the_kernel_vanishes(tmp_path, capsys, kind,
                                                    config):
    path = write_json(tmp_path / "c.json",
                      {"schema_version": 1, "p": 4, **config})
    assert cli.main(["study", kind, "--config", path]) == 3
    assert capsys.readouterr().err == (
        "error: kernel vanishes on the working space P_0; raise the degree\n")


class TestHinftyStudy:
    """Boundedness studies report sups per degree and a growth verdict."""

    def config(self, tmp_path, alpha, degrees, **extra):
        payload = {"schema_version": 1, "p": 4, "alpha": alpha,
                   "degrees": degrees}
        payload.update(extra)
        return write_json(tmp_path / "h.json", payload)

    def test_stable_sups_pass(self, tmp_path):
        out = str(tmp_path / "h.csv")
        code = cli.main(["study", "hinfty",
                         "--config", self.config(tmp_path, 2.0, [16, 32]),
                         "--out", out])
        assert code == 0
        _, rows, trailer = read_csv_report(out)
        assert trailer["verdict"] == "pass"
        sups = [float(row["sup"]) for row in rows]
        assert all(s > 0 for s in sups)
        growth = float(trailer["relative_growth"])
        assert 0 <= growth <= 0.01

    def test_fast_growth_fails(self, tmp_path):
        code = cli.main(["study", "hinfty",
                         "--config", self.config(tmp_path, 2.0, [8, 16]),
                         "--out", str(tmp_path / "h.csv")])
        assert code == 1

    def test_repeated_degree_rejected(self, tmp_path, capsys):
        # [16, 16] once passed with zero growth, a degree against itself
        code = cli.main(["study", "hinfty",
                         "--config", self.config(tmp_path, 1.6, [16, 16]),
                         "--out", str(tmp_path / "h.csv")])
        assert code == 3
        assert "'degrees'" in capsys.readouterr().err

    def test_infinite_alpha_rejected(self, tmp_path):
        config = self.config(tmp_path, float("inf"), [16, 32])
        code = cli.main(["study", "hinfty", "--config", config,
                         "--out", str(tmp_path / "h.csv")])
        assert code == 3

    def test_exploratory_verdict_withheld(self, tmp_path):
        # alpha <= 3/2 is outside the hypothesis: the study runs, exits 0
        # and withholds its verdict, with no switch in the config
        out = str(tmp_path / "h.csv")
        code = cli.main(["study", "hinfty",
                         "--config", self.config(tmp_path, 1.2, [8, 16]),
                         "--out", out])
        assert code == 0
        _, _, trailer = read_csv_report(out)
        assert trailer["verdict"] == "withheld"


def csv_cell(text):
    """A CSV cell read back as the JSON value it stands for: an int, a
    float (exactly, from its shortest repr; NaN is null), else the text."""
    for parse in (int, float):
        try:
            value = parse(text)
        except ValueError:
            continue
        return None if math.isnan(value) else value
    return text


@pytest.mark.parametrize("kind, config, code, columns, summary", [
    pytest.param("growth", {"family": [ONE_PLUS_Z, CONSTANT_ONE],
                            "degree": 16, "q1_list": [2.0, 3.5]}, 0,
                 ["kernel_id", "q1", "p1", "k_hardy", "k_bergman", "F_hardy",
                  "ratio"], ["empirical_C"], id="growth"),
    pytest.param("convergence", {"kernel": ONE_PLUS_Z, "degrees": [8, 16]},
                 0, ["degree", "distance"], [], id="convergence"),
    pytest.param("hinfty", {"alpha": 2.0, "degrees": [16, 32]}, 0,
                 ["degree", "sup", "l1_mass"],
                 ["relative_growth", "verdict"], id="hinfty-pass"),
    pytest.param("hinfty", {"alpha": 1.2, "degrees": [8, 16]}, 0,
                 ["degree", "sup", "l1_mass"],
                 ["relative_growth", "verdict"], id="hinfty-withheld"),
])
def test_study_csv_and_json_carry_one_report(tmp_path, kind, config, code,
                                              columns, summary):
    path = write_json(tmp_path / "c.json", dict(config, schema_version=1, p=4))
    outs = {fmt: str(tmp_path / f"report.{fmt}") for fmt in ("csv", "json")}
    for fmt, out in outs.items():
        assert cli.main(["study", kind, "--config", path, "--format", fmt,
                         "--out", out]) == code
    header, rows, trailer = read_csv_report(outs["csv"])
    report = load_report(outs["json"])
    body = report["body"]

    del header["generated_at"], report["header"]["generated_at"]
    assert header == {key: str(value)
                      for key, value in report["header"].items()}
    assert list(rows[0]) == columns
    # JSON sorts keys, so its rows hold the CSV columns in sorted order
    assert all(list(row) == sorted(columns) for row in body["rows"])
    assert [{key: csv_cell(text) for key, text in row.items()}
            for row in rows] == body["rows"]
    assert list(trailer) == summary
    assert {key: csv_cell(text) for key, text in trailer.items()} == {
        key: value for key, value in body.items() if key != "rows"}


def test_gate_fields_move_no_verdict(tmp_path):
    # 'growth_threshold' (hinfty) and 'oracle_tolerance' (oracle-compare)
    # are keys nothing reads: the gates are checks.HINFTY_GROWTH_TOL and
    # cli.ORACLE_TOLERANCE, so a config carrying either gets the exit code
    # and body of the same config without it. At degrees 8 and 16 the
    # sup grows by about 1.3%, past the 1% gate.
    for argv, config, extra, code in (
            (["study", "hinfty", "--format", "json"],
             {"alpha": 2.0, "degrees": [8, 16]}, {"growth_threshold": 0.5},
             1),
            (["oracle-compare"], {"kernel": ONE_PLUS_Z},
             {"oracle_tolerance": 1.0}, 0)):
        bodies = []
        for fields in ({}, extra):
            path = write_json(tmp_path / "c.json",
                              {"schema_version": 1, "p": 4, **config,
                               **fields})
            out = str(tmp_path / "out.json")
            assert cli.main(argv + ["--config", path, "--out", out]) == code
            bodies.append(body_text(out))
        assert bodies[0] == bodies[1]


class TestOracleCompare:
    """The quadrature oracle and the solver agree on small problems."""

    def test_agreement_on_two_term_kernel(self, tmp_path):
        config = write_json(tmp_path / "o.json", {
            "schema_version": 1,
            "p": 4,
            "kernel": ONE_PLUS_Z,
        })
        out = str(tmp_path / "oracle.json")
        code = cli.main(["oracle-compare", "--config", config, "--out", out])
        assert code == 0
        body = load_report(out)["body"]
        assert body["agree"] is True
        assert body["max_coefficient_gap"] <= 1e-6

    @pytest.mark.parametrize("scale", [1e-310, 1e300])
    def test_agreement_at_extreme_kernel_scales(self, tmp_path, scale):
        # F does not depend on the kernel's scale
        config = write_json(tmp_path / "o.json", {
            "schema_version": 1,
            "p": 4,
            "kernel": scaled_one_plus_z(scale),
        })
        out = str(tmp_path / "oracle.json")
        assert cli.main(["oracle-compare", "--config", config,
                         "--out", out]) == 0
        body = load_strict_report(out)["body"]
        assert body["agree"] is True
        assert body["max_coefficient_gap"] <= 1e-6

    @pytest.mark.parametrize("p", [64, 128])
    def test_agreement_at_large_exponents(self, tmp_path, p):
        # every trial step of the oracle's line search stays free of
        # overflow warnings, which Tier-1 turns into failures
        config = write_json(tmp_path / "o.json", {
            "schema_version": 1,
            "p": p,
            "kernel": ONE_PLUS_Z,
        })
        out = str(tmp_path / "oracle.json")
        assert cli.main(["oracle-compare", "--config", config,
                         "--out", out]) == 0
        body = load_strict_report(out)["body"]
        assert body["agree"] is True
        assert body["max_coefficient_gap"] <= 1e-12

    @pytest.mark.parametrize("p", [4, 6, 8])
    @pytest.mark.parametrize("kernel", [
        ONE_PLUS_Z,
        {"type": "coeffs", "values": [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0],
                                      [-1.0, 0.0]]},  # cubic-mix
        {"type": "coeffs", "values": [[1.0, 0.0], [0.5, 0.3]]},
        {"type": "coeffs", "values": [[0.2, 0.0], [1.0, 0.0], [0.4, -0.1]]},
    ], ids=["one-plus-z", "cubic-mix", "complex-linear", "quadratic"])
    def test_solver_side_is_the_solve(self, tmp_path, p, kernel):
        # one problem, one answer: oracle-compare's solver coefficients are
        # those of bergex solve at degree 3, bit for bit
        config = {"schema_version": 1, "p": p, "kernel": kernel}
        oracle, solution = tmp_path / "o.json", tmp_path / "s.json"
        cli.run_oracle_compare(config, out=str(oracle))
        cli.run_solve(dict(config, degree=3), out=str(solution))
        assert (load_report(oracle)["body"]["solver_coefficients"]
                == load_report(solution)["body"]["solution"]["coefficients"])

    @pytest.mark.filterwarnings("error")
    def test_truncated_kernel_warns_nothing(self, tmp_path, capsys):
        # the comparison is on S_3 k over P_3 by design, for a kernel of
        # any degree
        config = write_json(tmp_path / "o.json", {
            "schema_version": 1, "p": 4,
            "kernel": {"type": "power_decay", "alpha": 2.0, "count": 8}})
        out = str(tmp_path / "oracle.json")
        assert cli.main(["oracle-compare", "--config", config,
                         "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert load_report(out)["body"]["agree"] is True


class TestArgumentParsing:
    """argparse-level failures exit 3, invalid input, before any work."""

    def exit_code(self, argv):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        return exc_info.value.code

    def test_no_subcommand(self):
        assert self.exit_code([]) == 3

    def test_unknown_study_kind(self, tmp_path):
        config = write_json(tmp_path / "c.json", {"schema_version": 1})
        assert self.exit_code(["study", "sideways", "--config", config]) == 3

    def test_solve_requires_config(self):
        assert self.exit_code(["solve"]) == 3

    def test_help_exits_zero(self, capsys):
        assert self.exit_code(["solve", "--help"]) == 0

    @pytest.mark.parametrize("command", ["solve", "oracle-compare"])
    def test_solve_has_no_seed_flag(self, tmp_path, command):
        # neither draws anything at random
        config = write_json(tmp_path / "c.json", {"schema_version": 1})
        assert self.exit_code([command, "--config", config,
                               "--seed", "3"]) == 3

    @pytest.mark.parametrize("kind", ["growth", "convergence", "hinfty"])
    def test_studies_have_no_seed_flag(self, tmp_path, capsys, kind):
        # the growth study reads its seed from the config, as solve does;
        # the others draw nothing at random
        config = write_json(tmp_path / "c.json", {"schema_version": 1})
        assert self.exit_code(["study", kind, "--config", config,
                               "--seed", "5"]) == 3
        assert "--seed" in capsys.readouterr().err

    def test_oracle_compare_has_no_format_flag(self, tmp_path):
        # oracle-compare reports are JSON only
        config = write_json(tmp_path / "c.json", {"schema_version": 1})
        assert self.exit_code(["oracle-compare", "--config", config,
                               "--format", "csv"]) == 3


class TestReportFiles:
    """``--out`` is written over in place and cut to the new length."""

    SMALL_SOLVE = {
        "schema_version": 1,
        "p": 4,
        "degree": 8,
        "kernel": CONSTANT_ONE,
    }

    def solve(self, tmp_path, out):
        config = write_json(tmp_path / "c.json", self.SMALL_SOLVE)
        return cli.main(["solve", "--config", config, "--out", str(out)])

    def test_shorter_report_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("stale " * 1000, encoding="utf-8")
        cli._write("short\n", str(path))
        assert path.read_bytes() == b"short\n"

    def test_solve_over_a_longer_file_parses(self, tmp_path):
        fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
        reused.write_text("x" * 100_000, encoding="utf-8")
        assert self.solve(tmp_path, fresh) == 0
        assert self.solve(tmp_path, reused) == 0
        assert body_text(reused) == body_text(fresh)
        assert reused.stat().st_size == fresh.stat().st_size

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old " * 1000, encoding="utf-8")
        link.symlink_to(target)
        assert self.solve(tmp_path, link) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert load_report(target)["body"]["problem"]["degree"] == 8

    def test_dev_null_exits_zero(self, tmp_path):
        assert self.solve(tmp_path, os.devnull) == 0

    @pytest.mark.parametrize("mask", [0o022, 0o077])
    def test_new_file_mode_follows_the_umask(self, tmp_path, mask):
        previous = os.umask(mask)
        try:
            reference = tmp_path / "reference"
            with open(reference, "w", encoding="utf-8"):
                pass
            out = tmp_path / "s.json"
            assert self.solve(tmp_path, out) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode == reference.stat().st_mode

    def test_rewrite_gives_identical_bodies(self, tmp_path):
        out = tmp_path / "s.json"
        assert self.solve(tmp_path, out) == 0
        first = body_text(out)
        assert self.solve(tmp_path, out) == 0
        assert body_text(out) == first


def unwritable_cases():
    """(argv builder, --out builder) of each command and each way its
    --out can fail to open."""
    def solve(tmp_path, config, solution):
        return ["solve", "--config", config]

    def verify(tmp_path, config, solution):
        return ["verify", solution]

    def study(tmp_path, config, solution):
        path = write_json(tmp_path / "study.json", {
            "schema_version": 1, "p": 4, "kernel": CONSTANT_ONE,
            "degrees": [4, 8]})
        return ["study", "convergence", "--config", path]

    def missing_directory(tmp_path):
        return tmp_path / "absent" / "out"

    def directory(tmp_path):
        return tmp_path

    def read_only(tmp_path):
        path = tmp_path / "read-only"
        path.write_text("", encoding="utf-8")
        path.chmod(0o444)
        return path

    for command in (solve, verify, study):
        for where in (missing_directory, directory, read_only):
            yield pytest.param(command, where,
                               id=f"{command.__name__}-{where.__name__}")


@pytest.mark.parametrize("command, where", unwritable_cases())
def test_unwritable_out_is_invalid_input(tmp_path, capsys, monkeypatch,
                                         solved_artifact, command, where):
    config, solution = solved_artifact
    out = where(tmp_path)
    if os.access(out, os.W_OK) and not out.is_dir():
        # root may write to a read-only file; refuse it as the kernel would
        real_open = os.open

        def refuse(path, *args, **kwargs):
            if os.fspath(path) == str(out):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse)
    code = cli.main([*command(tmp_path, config, solution), "--out", str(out)])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")


def strict_json_cases():
    """(argv, config) of each command with a JSON report; every kernel is
    scale * (1 + z) at an extreme scale. At 1.5e308 the kernel's parts and
    ||phi|| = 1.138 * scale (p = 4) are near the top of the float range."""
    for scale in (1e-310, 1e300, 1.5e308):
        kernel = scaled_one_plus_z(scale)
        for argv, config in [
            (["solve"], {"degree": 160, "kernel": kernel}),
            (["study", "growth"], {"degree": 8, "family": [kernel]}),
            (["study", "convergence"], {"degrees": [4, 8], "kernel": kernel}),
            (["oracle-compare"], {"kernel": kernel}),
        ]:
            yield pytest.param(argv, config, id=f"{argv[-1]}-{scale:g}")
    yield pytest.param(["study", "hinfty"],
                       {"alpha": 2.0, "degrees": [16, 32]}, id="hinfty")


@pytest.mark.parametrize("argv, config", strict_json_cases())
# norms restored past the float range are inf, with no overflow warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_reports_are_strict(tmp_path, argv, config):
    path = write_json(tmp_path / "c.json",
                      dict(config, schema_version=1, p=4))
    out = str(tmp_path / "report.json")
    fmt = ["--format", "json"] if argv[0] == "study" else []
    assert cli.main([*argv, *fmt, "--config", path, "--out", out]) == 0
    assert load_strict_report(out)["body"]
    if argv == ["solve"]:
        verified = str(tmp_path / "verify.json")
        assert cli.main(["verify", out, "--out", verified]) == 0
        assert load_strict_report(verified)["body"]["verified"] is True


@pytest.mark.parametrize("values", [
    # |c_0| overflows, and ||phi|| with it; the parts are finite
    [[1.5e308, 1.5e308], [1.0, 0.0]],
    # finite |c_t|, but ||phi|| = 1.138 * 1.7e308 at p = 4
    [[1.7e308, 0.0], [1.7e308, 0.0]],
], ids=["complex-c0", "one-plus-z"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_phi_norm(tmp_path, capsys, values):
    # F depends on the kernel's direction alone, so every command that
    # reports no ||phi|| runs; solve refuses to write a non-finite one.
    # phi(F) is summed on the rescaled kernel: inf, not NaN, and no warning
    kernel = {"type": "coeffs", "values": values}
    solution = solve_extremal(ExtremalProblem(
        p=4, kernel=as_poly([complex(*v) for v in values]), degree=8))
    assert solution.phi_norm == math.inf
    # the kernel-side sums given the infinite ||phi|| still run on a
    # rescaled kernel: the bound fails, with no overflow on the way
    report = checks.check_ryabykh_bound(solution.F, solution.kernel, 4)
    assert report.verdict == "fail"
    for argv, config in [
        (["study", "growth"], {"degree": 8, "family": [kernel]}),
        (["study", "convergence"], {"degrees": [4, 8], "kernel": kernel}),
        (["oracle-compare"], {"kernel": kernel}),
    ]:
        path = write_json(tmp_path / "c.json",
                          dict(config, schema_version=1, p=4))
        out = str(tmp_path / f"{argv[-1]}.json")
        fmt = ["--format", "json"] if argv[0] == "study" else []
        assert cli.main([*argv, *fmt, "--config", path, "--out", out]) == 0
        assert load_strict_report(out)["body"]
    path = write_json(tmp_path / "c.json", {
        "schema_version": 1, "p": 4, "degree": 160, "kernel": kernel})
    out = tmp_path / "solution.json"
    capsys.readouterr()
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 3
    assert "||phi|| overflows" in capsys.readouterr().err
    assert not out.exists()


SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def fresh_env():
    """The environment of a fresh interpreter that imports this bergex."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_process(code, *args):
    """``code`` run in a fresh interpreter, its output captured."""
    return subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(),
                          capture_output=True, text=True)


def run_fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter."""
    done = fresh_process(code, *args)
    done.check_returncode()
    return done.stdout


def test_ryabykh_sides_past_the_float_range_are_null(tmp_path):
    # at a kernel near the float maximum the Ryabykh check passes at the
    # rescaled scale, and its lhs, rhs and kernel bound, past the float
    # range at the kernel's own, are recorded as null without a warning
    config = write_json(tmp_path / "c.json", {
        "schema_version": 1, "p": 4, "degree": 160,
        "kernel": {"type": "coeffs",
                   "values": [[1.5e308, 0], [1.5e308, 0]]}})
    solution = str(tmp_path / "s.json")
    done = fresh_process(
        "import sys; from bergex import cli; sys.exit(cli.main(['solve', "
        "'--config', sys.argv[1], '--out', sys.argv[2]]))",
        config, solution)
    assert (done.returncode, done.stderr) == (0, "")
    recorded = load_strict_report(solution)["body"]["checks"]
    [report] = [check for check in recorded
                if check["check_name"] == "ryabykh_bound"]
    assert report["verdict"] == "pass"
    assert report["lhs"] is report["rhs"] is None
    assert report["context"]["kernel_bound"] is None
    verified = str(tmp_path / "v.json")
    assert cli.main(["verify", solution, "--out", verified]) == 0
    assert load_strict_report(verified)["body"]["verified"] is True


def test_overflowing_trial_steps_leave_stderr_empty(tmp_path):
    # at p = 1024 the line search backtracks from trial steps whose |f|^p
    # overflows, and says nothing about them; degree 1 is too low for the
    # checks to pass, so the solve exits 1
    config = write_json(tmp_path / "c.json", {
        "schema_version": 1, "p": 1024, "degree": 1,
        "kernel": {"type": "coeffs", "values": [[1, 0], [0, 0.5]]}})
    done = fresh_process(
        "import sys; from bergex import cli; sys.exit(cli.main(['solve', "
        "'--config', sys.argv[1], '--out', sys.argv[2]]))",
        config, str(tmp_path / "s.json"))
    assert (done.returncode, done.stderr) == (1, "")


def test_import_leaves_slow_scipy_modules_unloaded():
    # SciPy takes a large share of start-up; NumPy serves the transforms
    # and the Gauss-Legendre rule, and the Newton solve imports the LAPACK
    # routines it needs itself
    out = run_fresh(f"import sys, bergex.cli; print({SCIPY_MODULES})")
    assert out.strip() == "[]"


def test_only_the_solve_loads_scipy(tmp_path):
    # bergex verify and its checks factor nothing, so they load no SciPy;
    # bergex solve loads SciPy's compiled LAPACK module on its first
    # factorization and not the scipy.linalg package, with its array-API
    # layer, around it; the quadrature oracle of oracle-compare needs no
    # scipy.optimize
    config = write_json(tmp_path / "c.json", {
        "schema_version": 1, "p": 4, "degree": 16, "kernel": MONOMIAL_Z})
    solution = str(tmp_path / "s.json")
    assert cli.main(["solve", "--config", config, "--out", solution]) == 0
    code = ("import sys; from bergex import cli; "
            "assert cli.main(['verify', sys.argv[1], '--out', sys.argv[2]]) "
            f"== 0; print({SCIPY_MODULES}); "
            "assert cli.main(['solve', '--config', sys.argv[3], '--out', "
            "sys.argv[4]]) == 0; "
            "assert cli.main(['oracle-compare', '--config', sys.argv[3], "
            "'--out', sys.argv[5]]) == 0; "
            "print([m in sys.modules for m in ('scipy.linalg._flapack', "
            "'scipy.linalg', 'scipy.linalg.lapack', 'scipy._lib._array_api', "
            "'scipy.optimize')])")
    out = run_fresh(code, solution, str(tmp_path / "v.json"), config,
                    str(tmp_path / "s2.json"),
                    str(tmp_path / "o.json")).split("\n")
    assert out[0] == "[]"
    assert out[1] == "[True, False, False, False, False]"


# the module objects named scipy.linalg._flapack in the process
FLAPACK_MODULES = ("[m for m in gc.get_objects() if isinstance(m, "
                   "types.ModuleType) and m.__name__ == "
                   "'scipy.linalg._flapack']")


@pytest.mark.parametrize("scipy_linalg_first", [False, True])
def test_one_lapack_module_in_either_import_order(tmp_path,
                                                  scipy_linalg_first):
    # whichever of bergex solve and scipy.linalg loads LAPACK first, the
    # other takes the same module, so scipy.linalg.lapack's routines are
    # the ones the solver calls, and scipy.linalg still works
    config = write_json(tmp_path / "c.json", {
        "schema_version": 1, "p": 4, "degree": 16, "kernel": MONOMIAL_Z})
    solve = ("assert cli.main(['solve', '--config', sys.argv[1], '--out', "
             "sys.argv[2]]) == 0; ")
    linalg = "import scipy.linalg, scipy.linalg.lapack; "
    code = ("import gc, sys, types; import numpy as np; "
            "from bergex import cli, solver; "
            + (linalg + solve if scipy_linalg_first else solve + linalg)
            + "from scipy.linalg import cho_factor, cho_solve, lapack; "
            "A, b = np.array([[4.0, 2.0], [2.0, 3.0]]), np.array([2.0, 1.0]); "
            "print(lapack.dpotrf is solver._flapack().dpotrf, "
            "lapack.dpotrs is solver._flapack().dpotrs, "
            "lapack._flapack is sys.modules['scipy.linalg._flapack'], "
            f"len({FLAPACK_MODULES}), "
            "np.allclose(cho_solve(cho_factor(A), b), np.linalg.solve(A, b)))")
    out = run_fresh(code, config, str(tmp_path / "s.json"))
    assert out.strip() == "True True True 1 True"


def test_missing_lapack_extension_names_the_directory(monkeypatch):
    # with no _flapack file among the extension suffixes the solve raises
    # ImportError naming the directory it searched and SciPy's version
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".absent"])
    with pytest.raises(ImportError) as raised:
        solve_extremal(ExtremalProblem(p=4, kernel=as_poly([1.0, 0.5]),
                                       degree=8))
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    assert directory in str(raised.value)
    assert f"SciPy {scipy.__version__}" in str(raised.value)


def test_solve_and_verify_leave_disc_quadrature_alone(tmp_path, monkeypatch):
    # the default checks read every norm on the circle; the A^q disc
    # quadrature serves the growth study alone
    def disc_quadrature(f, p):
        raise AssertionError("bergman_norm_general called")

    monkeypatch.setattr(spaces, "bergman_norm_general", disc_quadrature)
    monkeypatch.setattr(checks, "bergman_norm_general", disc_quadrature)
    config = write_json(tmp_path / "c.json", {
        "schema_version": 1,
        "p": 4,
        "degree": 160,
        "kernel": ONE_PLUS_Z,
    })
    out = str(tmp_path / "s.json")
    assert cli.main(["solve", "--config", config, "--out", out]) == 0
    assert cli.main(["verify", out]) == 0
