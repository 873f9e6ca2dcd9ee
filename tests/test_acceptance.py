"""Acceptance gate: one test per headline guarantee of the library.

Each test prints a single ``[PASS]``/``[FAIL]`` line carrying the
measured quantity that decided the verdict, then asserts. Run with
``-rA`` (the default options for this repository) to see every line in
the summary. The expensive standard-family solves are shared through a
module fixture; everything else is computed inside its criterion.
"""

import math
import time

import numpy as np
import pytest

from bergex import (
    ExtremalProblem,
    as_poly,
    bergman_norm_even,
    kernel_from_extremal,
    monomial,
    solve_extremal,
)
from bergex import kernelspec
from bergex.analysis import cauchy_green_gap, disc_pairing, lp_g_function
from bergex.checks import (
    check_fourier_formula,
    check_hinfty_criterion,
    check_norm_equality,
    coefficient_bound_sweep,
    convergence_study,
    growth_study,
    norm_equality_decay_study,
)
from bergex.families import standard_family
from bergex.solver import brute_force_oracle, gradient_norm_p

P = 4
Q = P / (P - 1.0)


def _report(number, description, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {number}: {description} ({detail})")
    assert passed, f"criterion {number}: {description}: {detail}"


@pytest.fixture(scope="module")
def family_solutions():
    """Certified solves of the standard family at calibrated degrees."""
    out = []
    for name, kernel, deg in standard_family():
        sol = solve_extremal(ExtremalProblem(
            p=P, kernel=kernel, degree=deg))
        out.append((name, sol))
    return out


def test_criterion_01_p2_closed_form():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(0, 17))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        k = as_poly(coeffs)
        sol = solve_extremal(ExtremalProblem(p=2, kernel=k, degree=16))
        expected = k.padded(17) / bergman_norm_even(k, 2)
        worst = max(worst, float(np.max(np.abs(sol.F.padded(17) - expected))))
    elapsed = time.perf_counter() - start
    _report(1, "p=2 solutions equal the normalized kernel",
            worst <= 1e-10 and elapsed <= 1.0,
            f"worst coefficient error {worst:.2e}, {elapsed:.2f} s for 20 kernels")


def test_criterion_02_brute_force_oracle():
    start = time.perf_counter()
    worst_gap = 0.0
    closed_form = np.zeros(4)
    closed_form[1] = 3.0 ** 0.25
    oracle_err = solver_err = math.inf
    for coeffs in ([0.0, 1.0], [1.0, 1.0], [1.0, -0.7]):
        k = as_poly(coeffs)
        F_oracle = brute_force_oracle(k, P, degree=3)
        sol = solve_extremal(ExtremalProblem(p=P, kernel=k, degree=3))
        gap = float(np.max(np.abs(F_oracle.padded(4) - sol.F.padded(4))))
        worst_gap = max(worst_gap, gap)
        if coeffs == [0.0, 1.0]:
            oracle_err = float(np.max(np.abs(F_oracle.padded(4) - closed_form)))
            solver_err = float(np.max(np.abs(sol.F.padded(4) - closed_form)))
    elapsed = time.perf_counter() - start
    _report(2, "quadrature oracle matches the solver on two-term kernels",
            worst_gap <= 1e-6 and oracle_err <= 1e-8 and solver_err <= 1e-8
            and elapsed <= 30.0,
            f"worst oracle gap {worst_gap:.2e}, k=z closed-form errors "
            f"{oracle_err:.2e}/{solver_err:.2e}, {elapsed:.1f} s")


def test_criterion_03_certificate_at_doubled_degree(family_solutions):
    worst = max(sol.residual_max for _, sol in family_solutions)
    all_certified = all(sol.certified for _, sol in family_solutions)
    _report(3, "optimality residual through doubled degree stays small",
            worst <= 1e-8 and all_certified,
            f"max residual {worst:.2e} over {len(family_solutions)} kernels")


def test_criterion_04_norm_equality_decay():
    kernels = {
        "one_plus_z": [1.0, 1.0],
        "cubic_mix": [1.0, 2.0, 0.0, -1.0],
        "quartic": [1.0, 1.0, 0.0, 0.0, 1.0],
    }
    start = time.perf_counter()
    monotone = True
    worst_final = 0.0
    for coeffs in kernels.values():
        _, rows = norm_equality_decay_study(as_poly(coeffs), P, [16, 32, 64])
        residuals = [rep.residual for _, rep in rows]
        monotone = monotone and residuals[0] > residuals[1] > residuals[2]
        worst_final = max(worst_final, residuals[2])
    elapsed = time.perf_counter() - start
    _report(4, "norm-equality residual falls monotonically with the degree",
            monotone and worst_final <= 1e-4 and elapsed <= 60.0,
            f"worst residual at degree 64 is {worst_final:.2e}, {elapsed:.1f} s")


def test_criterion_05_fourier_formula_through_m8():
    k = as_poly([1.0, 2.0, 0.0, -1.0])
    ref = solve_extremal(ExtremalProblem(p=P, kernel=k, degree=160))
    sol = solve_extremal(ExtremalProblem(p=P, kernel=k, degree=64))
    equality = check_norm_equality(sol.F, k, P, ref.phi_norm)
    residuals = [check_fourier_formula(sol.F, k, P, ref.phi_norm, m).residual
                 for m in range(9)]
    worst = max(residuals)
    same_float = residuals[0] == equality.residual
    _report(5, "Fourier-coefficient identity holds for m=0..8",
            worst <= 1e-4 and same_float,
            f"worst residual {worst:.2e}, m=0 equals norm-equality: {same_float}")


def test_criterion_06_coefficient_bound_slack(family_solutions):
    worst = math.inf
    worst_name = ""
    for name, sol in family_solutions:
        sweep = coefficient_bound_sweep(sol)
        if sweep.residual < worst:
            worst = sweep.residual
            worst_name = name
    _report(6, "coefficient-bound slack is never below -1e-12",
            worst >= -1e-12,
            f"worst slack {worst:.2e} at kernel {worst_name}")


def test_criterion_07_bounded_sup_for_quadratic_decay():
    start = time.perf_counter()
    report = check_hinfty_criterion(2.0, P, [32, 64])
    elapsed = time.perf_counter() - start
    _report(7, "boundary sup stabilizes for the alpha=2 kernel",
            report.verdict == "pass" and report.residual <= 0.01
            and elapsed <= 120.0,
            f"relative growth {report.residual:.2%} from degree 32 to 64, "
            f"{elapsed:.1f} s")


def test_criterion_08_growth_law_band():
    family = standard_family()
    rows = growth_study(family, P, [Q, 2.0, 4.0])
    ratios = [row.ratio for row in rows]
    recorded_c = 2.0
    in_band = all(1.0 / recorded_c <= r <= recorded_c for r in ratios)
    empirical_c = max(max(ratios), 1.0 / min(ratios))

    k = as_poly([1.0, 1.0])
    base = growth_study([("k", k, 64)], P, [Q, 2.0, 4.0])
    scaled = growth_study([("5k", as_poly(5.0 * k.coeffs), 64)], P,
                          [Q, 2.0, 4.0])
    invariance = max(abs(a.ratio - b.ratio) for a, b in zip(base, scaled))
    _report(8, "Hardy-growth ratios stay within the recorded band",
            in_band and invariance <= 1e-10,
            f"{len(ratios)} ratios in [1/{recorded_c}, {recorded_c}], "
            f"empirical C {empirical_c:.3f}, scaling drift {invariance:.1e}")


def test_criterion_09_kernel_round_trip():
    rng = np.random.default_rng(42)
    worst = 1.0
    for _ in range(10):
        deg = int(rng.integers(2, 7))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        coeffs *= 0.7 ** np.arange(deg + 1)
        k = as_poly(coeffs)
        sol = solve_extremal(ExtremalProblem(p=P, kernel=k, degree=48))
        out_deg = 2 * deg + 8
        k_hat = kernel_from_extremal(sol.F, P, out_deg)
        a = k.padded(out_deg + 1)
        b = k_hat.padded(out_deg + 1)
        cosine = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        worst = min(worst, float(cosine))
    _report(9, "recovered kernels align with the originals",
            worst >= 1.0 - 1e-6,
            f"worst cosine deficit {1.0 - worst:.1e} over 10 kernels")


def test_criterion_10_truncated_solutions_converge():
    k = kernelspec.realize(kernelspec.power_decay_spec(2.0, 64))
    rows = convergence_study(k, P, [8, 16, 32, 64])
    distances = [d for _, d in rows[:3]]
    strict = distances[0] > distances[1] > distances[2] > 0.0
    _report(10, "Hardy distance to the degree-64 solution shrinks",
            strict,
            "distances " + ", ".join(f"{d:.2e}" for d in distances))


def test_criterion_11_analysis_toolkit():
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = as_poly(coeffs)
    g = gradient_norm_p(f, P)
    h = 1e-5
    fd_err = 0.0
    for m in range(len(f.coeffs)):
        d_re = (bergman_norm_even(f + monomial(m, h), P) ** P
                - bergman_norm_even(f + monomial(m, -h), P) ** P) / (2 * h)
        d_im = (bergman_norm_even(f + monomial(m, 1j * h), P) ** P
                - bergman_norm_even(f + monomial(m, -1j * h), P) ** P) / (2 * h)
        fd = 0.5 * (d_re + 1j * d_im)
        fd_err = max(fd_err, abs(fd - g[m]) / max(1.0, abs(g[m])))

    g_err = max(abs(lp_g_function(monomial(1), 0.3) - math.sqrt(0.5)),
                abs(lp_g_function(monomial(2), 1.1) - math.sqrt(1.0 / 3.0)))

    pairing_err = max(
        abs(disc_pairing(monomial(1), as_poly([1.0]), monomial(1)) - 0.0),
        abs(disc_pairing(as_poly([1.0]), as_poly([1.0]), monomial(1)) - 1.0),
        abs(disc_pairing(monomial(2), monomial(1), monomial(2)) - 2.0 / 3.0),
    )

    green_err = max(
        cauchy_green_gap(as_poly([1.0, 0.5j]), as_poly([1.0, -0.25]),
                         monomial(2)),
        cauchy_green_gap(monomial(1), as_poly([0.5, 1.0, 1.0j]), monomial(3)),
    )

    _report(11, "analysis toolkit reproduces its exact values",
            fd_err <= 1e-6 and g_err <= 1e-10 and pairing_err <= 1e-12
            and green_err <= 1e-10,
            f"gradient FD {fd_err:.1e}, square function {g_err:.1e}, "
            f"pairing {pairing_err:.1e}, boundary-area gap {green_err:.1e}")
