"""Tests for the identity and inequality checks on extremal solutions."""

import math
import re
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bergex.checks import (
    DEFAULT_SLACK_TOL,
    VerificationReport,
    _boundary_sides,
    _coefficient_bound_report,
    _tails,
    check_fourier_formula,
    check_hinfty_criterion,
    check_norm_equality,
    check_ryabykh_bound,
    check_table,
    coefficient_bound_sweep,
    convergence_study,
    growth_study,
    norm_equality_decay_study,
)
from bergex.poly import (
    as_poly,
    derivative,
    monomial,
    multiply,
    rescaled,
    shift,
    taylor_truncate,
)
from bergex import checks, solver, spaces
from bergex.families import power_decay_kernel, standard_family
from bergex.kernelspec import MAX_DEGREE
from bergex.solver import ExtremalProblem, ExtremalSolution, solve_extremal
from bergex.spaces import (
    bergman_norm_even,
    fourier_coeff_abs_power,
    hardy_inner,
    hardy_norm_even,
)


@pytest.fixture(scope="module")
def one_plus_z_solution():
    # 160 is the calibrated degree at which this kernel's solution
    # certifies: coefficient tails beyond the kernel degree sit at the
    # solver's round-off floor
    kernel = as_poly([1.0, 1.0])
    return solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=160))


class TestNormEquality:
    def test_constant_kernel(self):
        # F=1, phi_norm=1: LHS = 1, RHS = 2 - 1 = 1
        report = check_norm_equality(as_poly([1.0]), as_poly([1.0]), 4, 1.0)
        assert report.passed
        assert report.lhs == pytest.approx(1.0, abs=1e-15)
        assert report.rhs == pytest.approx(1.0, abs=1e-15)
        assert report.residual <= 1e-15

    def test_monomial_kernel_hand_value(self):
        # F = 3^{1/4} z for k=z at p=4; restricted phi_norm is 3^{1/4}/2
        F = as_poly([0.0, 3.0 ** 0.25])
        phi_norm = 3.0 ** 0.25 / 2.0
        report = check_norm_equality(F, monomial(1), 4, phi_norm)
        assert report.lhs == pytest.approx(3.0, rel=1e-14)
        assert report.rhs == pytest.approx(3.0, rel=1e-14)
        assert report.passed

    def test_p2_exact_for_any_kernel(self):
        rng = np.random.default_rng(7)
        k = as_poly(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        F = as_poly(k.coeffs / bergman_norm_even(k, 2))
        from bergex.spaces import functional_value

        phi_norm = functional_value(k, F).real
        report = check_norm_equality(F, k, 2, phi_norm)
        assert report.residual <= 1e-13

    def test_certified_solution_small_residual(self, one_plus_z_solution):
        sol = one_plus_z_solution
        report = check_norm_equality(sol.F, sol.kernel, 4, sol.phi_norm)
        assert report.passed
        assert report.residual <= 1e-10


class TestFourierFormula:
    def test_m0_matches_norm_equality_exactly(self, one_plus_z_solution):
        sol = one_plus_z_solution
        fourier = check_fourier_formula(sol.F, sol.kernel, 4, sol.phi_norm, 0)
        plain = check_norm_equality(sol.F, sol.kernel, 4, sol.phi_norm)
        assert fourier.residual == plain.residual

    def test_constant_kernel_m0(self):
        report = check_fourier_formula(as_poly([1.0]), as_poly([1.0]), 4,
                                       1.0, 0)
        assert report.lhs == pytest.approx(1.0, abs=1e-15)
        assert report.rhs == pytest.approx(1.0, abs=1e-15)

    def test_monomial_kernel_m0(self):
        F = as_poly([0.0, 3.0 ** 0.25])
        report = check_fourier_formula(F, monomial(1), 4, 3.0 ** 0.25 / 2.0, 0)
        assert report.lhs == pytest.approx(3.0, rel=1e-14)
        assert report.rhs == pytest.approx(3.0, rel=1e-14)

    def test_beyond_bandwidth_both_sides_vanish(self):
        report = check_fourier_formula(as_poly([1.0]), as_poly([1.0]), 4,
                                       1.0, 7)
        assert report.lhs == 0
        assert report.rhs == 0

    def test_small_residuals_through_m8(self, one_plus_z_solution):
        sol = one_plus_z_solution
        for m in range(9):
            report = check_fourier_formula(sol.F, sol.kernel, 4,
                                           sol.phi_norm, m)
            assert report.residual <= 1e-4, f"m={m}"

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            check_fourier_formula(as_poly([1.0]), as_poly([1.0]), 4, 1.0, -1)


ONE = as_poly([1.0])


@pytest.mark.parametrize("bad", [-1, True, 2.5], ids=repr)
@pytest.mark.parametrize("name, call", [
    ("degree", lambda v: solver.certificate_degree(4, v)),
    ("degree", lambda v: check_table(ONE, ONE, 4, 1.0, v)),
    ("degree", lambda v: solver._certificate(ONE, ONE, 4, 1.0, v)),
    ("max_test_degree",
     lambda v: solver.extremality_residual(ONE, ONE, 4, 1.0, v)),
    ("m", lambda v: check_fourier_formula(ONE, ONE, 4, 1.0, v)),
], ids=["certificate_degree", "check_table", "_certificate",
        "extremality_residual", "check_fourier_formula"])
def test_certificate_entry_points_take_the_kernelspec_rules(name, call, bad):
    # true read as 1, -1 raised NumPy's negative dimensions and 2.5 its
    # TypeError (or an IndexError at m); certificate_degree returned -2
    # and 5.0
    with pytest.raises(ValueError, match=rf"^{name} must be an? .*integer"
                                         rf".*, got {re.escape(repr(bad))}$"):
        call(bad)


def weighted_sides_reference(F, k, p, phi_norm, m):
    """Both sides of the weighted formula at h = z^m by polynomial products.

    The direct evaluation: lhs = sum_j h_j conj(b_j) and the kernel side
    from the products h F and (z h)' F paired with k and K on the circle.
    """
    h = monomial(m)
    b = [fourier_coeff_abs_power(F, p, j) for j in range(len(h.coeffs))]
    lhs = complex(np.dot(h.coeffs, np.conj(b)))
    # K_t = c_t/(t+1), so that (z K)' = k
    K = as_poly(k.coeffs / (np.arange(len(k.coeffs)) + 1.0))
    rhs = ((p / 2.0) * hardy_inner(multiply(h, F), k)
           + (1.0 - p / 2.0) * hardy_inner(
               multiply(derivative(shift(h, 1)), F), K)
           ) / phi_norm
    return lhs, rhs


@st.composite
def boundary_inputs(draw):
    """(F, k, p, phi_norm) with deg F <= 7 and deg k <= 11, either larger."""
    parts = st.floats(-1.0, 1.0, allow_nan=False)

    def poly(count):
        return as_poly([complex(draw(parts), draw(parts))
                        for _ in range(count)])

    F = poly(draw(st.integers(1, 8)))
    k = poly(draw(st.integers(1, 12)))
    return F, k, draw(st.sampled_from([4, 6])), draw(st.floats(0.5, 2.0))


class TestBoundarySides:
    @given(boundary_inputs())
    # a trailing subnormal kernel coefficient c_t underflows in c_t/(t+1)
    @example((as_poly([1j]), as_poly([1j, 0.0, 5e-324j]), 4, 1.0))
    @example((as_poly([1j, 0.5]), as_poly([1.0, 1.0, 5e-324]), 6, 1.0))
    # a subnormal kernel: the relative bound underflows below one rounding
    @example((as_poly([0.25j]), as_poly([2.22507386e-313j]), 4, 0.5))
    @example((as_poly([0.5j]), as_poly([5e-324]), 4, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_every_entry_matches_polynomial_products(self, inputs):
        F, k, p, phi_norm = inputs
        lhs, rhs = _boundary_sides(F, p, rescaled(k.coeffs, phi_norm))
        assert len(lhs) == len(rhs)
        # bounds on every term either side sums, for a rounding tolerance
        f1 = float(np.sum(np.abs(F.coeffs)))
        k1 = float(np.sum(np.abs(k.coeffs)))
        lhs_scale = f1 ** p
        rhs_scale = (p / 2.0) * (k.degree + 2) * k1 * f1 / phi_norm
        # plus the absolute term of any floating-point error bound (Higham,
        # Accuracy and Stability of Numerical Algorithms, sec. 2.1): some
        # units of the smallest subnormal, which the relative term
        # underflows below at subnormal scales
        underflow = 2.0 ** -1074 * (p / phi_norm) * (k.degree + 2)
        # m runs past the kernel degree and past the spectrum's end
        for m in range(len(lhs) + 3):
            ref_lhs, ref_rhs = weighted_sides_reference(F, k, p, phi_norm, m)
            got_lhs = lhs[m] if m < len(lhs) else 0j
            got_rhs = rhs[m] if m < len(rhs) else 0j
            assert abs(got_lhs - ref_lhs) <= 1e-14 * lhs_scale + underflow, m
            assert abs(got_rhs - ref_rhs) <= 1e-14 * rhs_scale + underflow, m
            if m > k.degree:
                assert got_rhs == 0

    def test_general_h_on_certified_solution(self, one_plus_z_solution):
        # both sides are linear in h: the formula at h = sum_m h_m z^m is
        # the dot product of h with the arrays
        sol = one_plus_z_solution
        lhs, rhs = _boundary_sides(sol.F, 4,
                                   rescaled(sol.kernel.coeffs, sol.phi_norm))
        h = np.array([0.5, -1.0, 2.0j])
        lhs_h, rhs_h = np.dot(h, lhs[:3]), np.dot(h, rhs[:3])
        assert abs(lhs_h - rhs_h) / max(1.0, abs(lhs_h)) <= 1e-10


def check_coefficient_bound(F, k, p, phi_norm, m, tolerance=DEFAULT_SLACK_TOL):
    """One-sided bound on the Fourier coefficients of |F|^p.

    |b_m| <= (p / (2 ||phi||)) ||F||_{H^2} (sum_{t>=m} |c_t|^2)^{1/2};
    in particular b_m = 0 whenever m exceeds the kernel degree. Slack is
    rhs - |b_m|; verdict tolerates round-off dips to -tolerance. One
    frequency at a time, from its own F^{p/2}: ``coefficient_bound_sweep``
    evaluates all frequencies at once and is tested against this.
    """
    if m < 0:
        raise ValueError("frequency m must be nonnegative")
    bm = abs(fourier_coeff_abs_power(F, p, m))
    tail = math.fsum(np.abs(k.coeffs[m:]) ** 2)
    bound = (p / (2.0 * phi_norm)) * hardy_norm_even(F, 2) * math.sqrt(tail)
    slack = bound - bm
    return VerificationReport(
        check_name="coefficient_bound",
        lhs=bm,
        rhs=bound,
        residual=slack,
        tolerance=tolerance,
        verdict="pass" if slack >= -tolerance else "fail",
        context={"p": p, "m": m, "kernel_degree": k.degree},
    )


def sweep_report(solution, m_max):
    """The coefficient-bound sweep over m = 0..m_max, built from the left
    side of the weighted boundary formula, as ``check_table`` builds it."""
    F, k, p, phi_norm = (solution.F, solution.kernel, solution.p,
                         solution.phi_norm)
    scaled = rescaled(k.coeffs, phi_norm)
    return _coefficient_bound_report(F, k, p, scaled, m_max,
                                     _boundary_sides(F, p, scaled)[0])


class TestCoefficientBound:
    def test_constant_kernel_slack_one(self):
        report = check_coefficient_bound(as_poly([1.0]), as_poly([1.0]), 4,
                                         1.0, 0)
        assert report.lhs == pytest.approx(1.0, abs=1e-15)
        assert report.rhs == pytest.approx(2.0, abs=1e-15)
        assert report.residual == pytest.approx(1.0, abs=1e-14)
        assert report.passed

    def test_beyond_kernel_degree_forces_zero(self, one_plus_z_solution):
        sol = one_plus_z_solution
        report = check_coefficient_bound(sol.F, sol.kernel, 4, sol.phi_norm, 40)
        assert report.rhs == 0.0
        assert report.passed

    def test_sweep_over_certified_solution(self, one_plus_z_solution):
        report = coefficient_bound_sweep(one_plus_z_solution)
        assert report.residual >= -1e-12
        assert "worst_m" in report.context

    def test_random_kernel_sweep(self):
        from bergex.families import random_kernels

        _, kernel = random_kernels()[0]
        sol = solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=96))
        for m in range(17):
            report = check_coefficient_bound(sol.F, kernel, 4, sol.phi_norm, m)
            assert report.residual >= -1e-12, f"m={m}"

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            check_coefficient_bound(as_poly([1.0]), as_poly([1.0]), 4, 1.0, -2)


def reference_sweep(solution, m_max):
    """(worst m, its slack) from check_coefficient_bound one m at a time.

    ``min`` keeps the first of equal slacks, as the sweep must.
    """
    slacks = [check_coefficient_bound(solution.F, solution.kernel, solution.p,
                                      solution.phi_norm, m).residual
              for m in range(m_max + 1)]
    worst_m = min(range(m_max + 1), key=slacks.__getitem__)
    return worst_m, slacks[worst_m]


@st.composite
def sweep_inputs(draw):
    """F normalized to ||F||_{H^p} = 1 and k to unit l2 norm, so every
    |b_m| <= 1 and every bound <= 3 and 1e-15 is a few ulps of both."""
    p = draw(st.sampled_from([4, 6]))
    entry = st.floats(-1.0, 1.0, allow_subnormal=False)
    vectors = st.lists(st.tuples(entry, entry), min_size=1, max_size=25).map(
        lambda pairs: np.array([complex(*c) for c in pairs])).filter(
        lambda c: np.max(np.abs(c)) > 0.1)
    F = as_poly(draw(vectors))
    F = as_poly(F.coeffs / hardy_norm_even(F, p))
    kc = draw(vectors)
    kernel = as_poly(kc / np.linalg.norm(kc))
    m_max = draw(st.integers(0, (p // 2) * F.degree + 8))
    return ExtremalSolution(
        F=F, phi_norm=draw(st.floats(1.0, 2.0)), residual_max=0.0,
        iterations=0, trace=(), p=p, kernel=kernel, degree=F.degree,
    ), m_max


class TestCoefficientBoundSweep:
    """The vectorised sweep against check_coefficient_bound per m."""

    @given(sweep_inputs())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_loop(self, case):
        solution, m_max = case
        report = sweep_report(solution, m_max)
        worst_m, slack = reference_sweep(solution, m_max)
        assert report.context["worst_m"] == worst_m
        assert report.context["m_max"] == m_max
        assert report.residual == pytest.approx(slack, abs=1e-15)

    @pytest.mark.parametrize("p", [4, 6])
    def test_tie_picks_first_minimum(self, p):
        # constant kernel: F = 1, slack 1 at m = 0 and exactly 0 at every
        # m >= 1, so the first minimum is m = 1
        sol = solve_extremal(ExtremalProblem(p=p, kernel=as_poly([1.0]),
                                             degree=8))
        report = coefficient_bound_sweep(sol)
        assert reference_sweep(sol, 16) == (1, 0.0)
        assert report.context["worst_m"] == 1
        assert report.residual == 0.0

    def test_certified_solution_matches_reference(self, one_plus_z_solution):
        sol = one_plus_z_solution
        report = coefficient_bound_sweep(sol)
        worst_m, slack = reference_sweep(sol, 2 * sol.degree)
        assert report.context["worst_m"] == worst_m
        assert report.residual == pytest.approx(slack, abs=1e-15)
        assert sweep_report(sol, 2 * sol.degree) == report

    def test_table_sweeps_the_certificate_range(self):
        # the sweep covers m = 0..certificate_degree(p, n), max(2, p/2) n,
        # the certificate's range and the whole spectrum of |F_n|^p: past
        # 2n from p = 6 on, where it agrees with the per-m bound
        kernel, n = as_poly([1.0, 1.0]), 160
        for p in (2, 4, 6, 8):
            sol = solve_extremal(ExtremalProblem(p=p, kernel=kernel,
                                                 degree=n))
            sweep = check_table(sol.F, kernel, p, sol.phi_norm, n)[10]
            assert sweep.check_name == "coefficient_bound_sweep"
            m_max = solver.certificate_degree(p, n)
            assert sweep.context["m_max"] == m_max == max(2, p // 2) * n
            assert sweep == coefficient_bound_sweep(sol)
            if p == 6:
                worst_m, slack = reference_sweep(sol, m_max)
                assert sweep.context["worst_m"] == worst_m
                assert sweep.residual == pytest.approx(slack, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    def test_extreme_kernel_scale(self, one_plus_z_solution, scale):
        # the bound is homogeneous in (k, ||phi||); squaring the raw
        # coefficients would underflow the tails to 0 or overflow them to inf
        base = one_plus_z_solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_extremal(ExtremalProblem(
                p=4, kernel=as_poly(scale * base.kernel.coeffs), degree=160))
            reports = check_table(sol.F, sol.kernel, 4, sol.phi_norm, 160)
            assert all(r.passed for r in reports)
            for m_max in (0, 1):
                scaled, unscaled = sweep_report(sol, m_max), sweep_report(
                    base, m_max)
                assert scaled.context["worst_m"] == unscaled.context["worst_m"]
                assert scaled.rhs == pytest.approx(unscaled.rhs, rel=1e-12)

    def test_subnormal_kernel_scale(self, one_plus_z_solution):
        # NumPy promotes a real divisor d of a complex array to complex,
        # and its complex division multiplies by 1/d, which overflows at a
        # subnormal d; the solver, the certificate and every check divide
        # the kernel by an exact power of two first, so nothing here
        # divides by the kernel's scale
        base = one_plus_z_solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_extremal(ExtremalProblem(
                p=4, kernel=as_poly(2.0 ** -1030 * base.kernel.coeffs),
                degree=160))
            reports = check_table(sol.F, sol.kernel, 4, sol.phi_norm, 160)
        assert np.array_equal(sol.F.coeffs, base.F.coeffs)
        assert checks.certified(sol.residual_max, reports)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("count", [4, 64, 1025])
    def test_tails_are_fsum_of_every_suffix(self, count):
        # squares from 1 down to the subnormals, zeros among them, then
        # an inf and a NaN square, which fsum carries through every sum
        # that holds them
        rng = np.random.default_rng(count)
        squares = np.exp(rng.uniform(-745.0, 0.0, count)).tolist()
        squares[1:4] = [0.0, 5e-324, 2.0 ** -1022]
        for case in (squares, [math.inf, *squares[:3], math.nan, 1.0]):
            tails = _tails(case)
            assert len(tails) == len(case)
            for m, tail in enumerate(tails):
                assert repr(tail) == repr(math.fsum(case[m:])), m
        # finite squares whose sum is past the float range, where fsum
        # raises: inf
        big = [1.5e308, *squares[:3]]
        assert _tails([1e308, *big]) == [math.inf, *_tails(big)]

    def test_sweep_tails_take_linear_time(self):
        # a 4097-coefficient kernel over ten decades per coefficient: one
        # fsum per suffix took about a second, the sums of exact ints 5 ms
        rng = np.random.default_rng(4097)
        kernel = as_poly(10.0 ** rng.uniform(-150.0, 0.0, 4097))
        solution = ExtremalSolution(
            F=as_poly([1.0, 0.5]), phi_norm=1.0, residual_max=0.0,
            iterations=0, trace=(), p=4, kernel=kernel, degree=4096)
        coefficient_bound_sweep(solution)  # warm-up
        start = time.perf_counter()
        coefficient_bound_sweep(solution)
        assert time.perf_counter() - start < 0.1


class TestHinftyCriterion:
    def test_alpha_two_bounded(self):
        rows, trailers = check_hinfty_criterion(2.0, 4, [16, 32])
        assert trailers["verdict"] == "pass"
        assert [row["degree"] for row in rows] == [16, 32]
        assert all(row["sup"] > 0 for row in rows)
        assert all(row["l1_mass"] > 0 for row in rows)

    def test_large_alpha_approaches_constant(self):
        # c_n = (n+1)^{-50} is numerically the constant kernel: sup = 1
        rows, _ = check_hinfty_criterion(50.0, 4, [4, 8])
        for row in rows:
            assert row["sup"] == pytest.approx(1.0, abs=1e-6)

    def test_low_alpha_exploratory_withheld(self):
        # alpha <= 3/2 is outside the hypothesis: the sweep runs and alpha
        # alone withholds the verdict
        rows, trailers = check_hinfty_criterion(1.2, 4, [8, 12])
        assert trailers["verdict"] == "withheld"
        assert [row["degree"] for row in rows] == [8, 12]

    def test_single_degree_rejected(self):
        with pytest.raises(ValueError):
            check_hinfty_criterion(2.0, 4, [16])

    def test_repeated_degree_rejected(self):
        # a degree compared with itself would pass with zero growth
        with pytest.raises(ValueError, match="two distinct degrees"):
            check_hinfty_criterion(2.0, 4, [16, 16])

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0])
    def test_alpha_not_positive_rejected_before_any_solve(self, monkeypatch,
                                                          alpha):
        # NaN ran 100 NaN iterations into NonConvergenceError, and 0 and
        # -1 a sweep to a withheld verdict
        def unreachable(*args):
            raise AssertionError("a solve ran")
        monkeypatch.setattr(checks, "solve_ladder", unreachable)
        with pytest.raises(ValueError, match=r"^alpha must be positive "
                           r"and finite, got "):
            check_hinfty_criterion(alpha, 4, [8, 16])

    def test_sup_and_l1_mass_match_per_point_references(self):
        alpha, p, degrees = 2.0, 4, [8, 16]
        rows, _ = check_hinfty_criterion(alpha, p, degrees)
        k = as_poly((np.arange(17) + 1.0) ** (-alpha) + 0j)
        assert [row["degree"] for row in rows] == degrees
        for n, row in zip(degrees, rows):
            F = solve_extremal(ExtremalProblem(
                p=p, kernel=taylor_truncate(k, n), degree=n)).F
            spec = [abs(fourier_coeff_abs_power(F, p, m))
                    for m in range(p // 2 * F.degree + 1)]
            l1 = spec[0] + 2.0 * sum(spec[1:])
            assert row["l1_mass"] == pytest.approx(l1, rel=1e-14)
            grid = 1024  # the criterion's grid at these degrees
            horner = F(np.exp(2j * np.pi * np.arange(grid) / grid))
            assert row["sup"] == (
                pytest.approx(float(np.max(np.abs(horner))), rel=1e-14))


class TestGrowthStudy:
    def test_constant_kernel_all_ratios_one(self):
        family = [("const", as_poly([1.0]), 8)]
        rows, _ = growth_study(family, 4, [4.0 / 3.0, 2.0, 4.0])
        assert len(rows) == 3
        for row in rows:
            assert row["ratio"] == pytest.approx(1.0, rel=1e-10)
            assert row["p1"] == pytest.approx(3.0 * row["q1"])

    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_monomial_ratios_are_exact(self, p):
        # k = z^m has F = (mp/2 + 1)^{1/p} z^m, so at every q1 the ratio is
        # ((mp/2 + 1)/(mq/2 + 1))^{1/q}, rising to (p-1)^{1/q}: past [1/2, 2]
        # at p = 4, so that band is the standard family's, not the
        # theorem's. The constant kernel (m = 0) gives exactly 1.
        q = p / (p - 1.0)
        for m in (0, 1, 4, 16):
            rows, trailers = growth_study([(f"z^{m}", monomial(m), m)], p)
            exact = ((m * p / 2 + 1) / (m * q / 2 + 1)) ** (1 / q)
            assert [row["q1"] for row in rows] == [q, 2.0, 4.0]
            for row in rows:
                assert row["ratio"] == pytest.approx(exact, rel=1e-12, abs=0)
                if m == 0:
                    assert row["ratio"] == 1.0
            assert trailers["empirical_C"] == max(r["ratio"] for r in rows)

    def test_p2_q1_2_ratio_exactly_one(self):
        rng = np.random.default_rng(19)
        kernel = as_poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        rows, _ = growth_study([("rand", kernel, 8)], 2, [2.0])
        assert rows[0]["ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_scaling_invariance(self):
        kernel = as_poly([1.0, 0.5, 0.25])
        base, _ = growth_study([("k", kernel, 12)], 4, [2.0])
        scaled, _ = growth_study([("5k", as_poly(5.0 * kernel.coeffs), 12)],
                                 4, [2.0])
        assert scaled[0]["ratio"] == pytest.approx(base[0]["ratio"],
                                                   rel=1e-10)

    @pytest.mark.parametrize("q1_list", [[2.0], [4.0 / 3.0, 2.0, 4.0, 7.5]])
    def test_one_boundary_sample_per_polynomial(self, q1_list, monkeypatch):
        # one scale of F and one of k serve every q1
        calls = []
        boundary_sup = spaces._boundary_sup
        monkeypatch.setattr(spaces, "_boundary_sup",
                            lambda f: calls.append(f) or boundary_sup(f))
        growth_study([("k", as_poly([1.0, 0.5, 0.25]), 12)], 4, q1_list)
        assert len(calls) == 2

    def test_empty_family_gives_no_rows(self):
        # every ratio lies in [1/C, C] at C = 1, the least C >= 1
        assert growth_study([], 4, [2.0]) == ([], {"empirical_C": 1.0})

    def test_q1_below_conjugate_rejected(self):
        with pytest.raises(ValueError):
            growth_study([("k", as_poly([1.0]), 4)], 4, [1.0])

    def test_q1_past_the_largest_exponent_rejected(self):
        # p1 = 299 * 4 = 1196: the sup-scaled |F|^p1 would underflow to a
        # zero norm
        with pytest.raises(ValueError, match=r"outside \[.*, 1024/\(p-1\)\]"):
            growth_study([("k", as_poly([1.0, 0.3]), 8)], 300, [4.0])


class TestExtremalFirst:
    """Every polynomial F of degree N with ||F||_{A^p} = 1 is the extremal
    of its own kernel k = kernel_from_extremal(F, p, (p/2) N), with
    ||phi|| = 1. F = S_N (1 - z)^{-gamma}, whose mass sits at z = 1, gives
    growth ratios known without a solve, above the monomials' limit."""

    @pytest.mark.parametrize("p, gamma, N, pinned", [
        (4, 0.8, 64, 2.5815337), (4, 0.45, 64, None), (6, 1 / 3, 64, None),
        (6, 0.633, 128, 4.6867503)])
    def test_growth_ratios_of_a_chosen_extremal(self, p, gamma, N, pinned):
        c = np.ones(N + 1)
        for t in range(N):
            c[t + 1] = c[t] * (t + gamma) / (t + 1)
        F = as_poly(c / bergman_norm_even(as_poly(c), p))
        k = solver.kernel_from_extremal(F, p, p // 2 * N)
        sol = solve_extremal(ExtremalProblem(p, k, N))
        assert np.max(np.abs(sol.F.padded(N + 1) - F.padded(N + 1))) <= 1e-11
        assert abs(sol.phi_norm - 1.0) <= 1e-14
        assert checks.certified(sol.residual_max, check_table(
            sol.F, k, p, sol.phi_norm, N))
        # growth_study's ratios, over the default q1s, are the exact F's
        rows, _ = growth_study([(f"gamma={gamma}", k, N)], p)
        q = p / (p - 1.0)
        q1_list = [row["q1"] for row in rows]
        assert q1_list == [q, 2.0, 4.0]
        k_bergman = spaces.bergman_norm_general(k, q)
        F_norms = spaces.hardy_norms(F, [(p - 1) * q1 for q1 in q1_list])
        for row, F_hardy, k_hardy in zip(rows, F_norms,
                                         spaces.hardy_norms(k, q1_list)):
            exact = F_hardy ** (p - 1) * k_bergman / k_hardy
            assert row["ratio"] == pytest.approx(exact, rel=1e-12, abs=0)
        if pinned is not None:
            # past the monomial limit (p-1)^{1/q}: 2.2795 at p = 4 and
            # 3.8236 at p = 6
            assert rows[2]["ratio"] == pytest.approx(pinned, rel=1e-6, abs=0)
            assert rows[2]["ratio"] > (p - 1) ** (1 / q)


class TestConvergenceStudy:
    def test_polynomial_kernel_tail_shrinks(self):
        # the kernel is exact at every truncation past its degree, but
        # for p > 2 the extremal function still carries an infinite
        # coefficient tail, so raising the degree keeps improving it
        kernel = as_poly([1.0, 0.5, 0.25])
        rows, _ = convergence_study(kernel, 4, [4, 8, 16, 32])
        distances = [row["distance"] for row in rows]
        assert distances[0] > distances[1] > distances[2] > distances[3]
        assert distances[3] == 0.0
        assert distances[2] <= 1e-6

    def test_p2_closed_form_distance(self):
        rng = np.random.default_rng(29)
        k = as_poly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        rows, _ = convergence_study(k, 2, [2, 4, 6])
        # oracle: distances between normalized truncations, in closed form
        ref = k.coeffs / bergman_norm_even(k, 2)
        for row in rows:
            kn = as_poly(k.coeffs[:row["degree"] + 1])
            fn = kn.coeffs / bergman_norm_even(kn, 2)
            gap = np.zeros(7, dtype=complex)
            gap[:len(fn)] = fn
            gap -= ref
            expected = float(np.sqrt(np.sum(np.abs(gap) ** 2)))
            assert row["distance"] == pytest.approx(expected, abs=1e-10)

    def test_power_decay_strictly_decreasing(self):
        k = as_poly((np.arange(65) + 1.0) ** -2.0 + 0j)
        rows, _ = convergence_study(k, 4, [8, 16, 32, 64])
        distances = [row["distance"] for row in rows[:-1]]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    @pytest.mark.parametrize("alpha, p, degrees, expected", [
        (3.0, 64, [64, 96, 128], [1.3051e-08, 1.3918e-10]),
        (3.0, 48, [64, 96, 128], [1.6933e-08, 1.8054e-10]),
        (2.0, 32, [128, 192, 256], [5.1481e-09, 3.8559e-12]),
    ])
    def test_large_exponent_distances_do_not_underflow(self, alpha, p,
                                                       degrees, expected):
        # unscaled, |F_n - F_N|^p underflows to 0 in every row but the first
        # at p = 32; the expected values agree to 4e-5 with the mean of
        # |F_n - F_N|^p on 2^15 angles, summed in logarithms
        rows, _ = convergence_study(power_decay_kernel(alpha, 64), p, degrees)
        assert [row["degree"] for row in rows] == degrees
        distances = [row["distance"] for row in rows]
        assert distances[:-1] == pytest.approx(expected, rel=1e-4)
        assert distances[-1] == 0.0
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_one_newton_solve_per_rung(self, monkeypatch):
        # one ladder climbs the study's degrees: every degree is a rung,
        # and the rungs of _rungs(n) below n are degrees already solved
        degrees = list(range(8, 65, 8))
        calls = []
        newton = solver._newton

        def counting_newton(c_hat, *args):
            calls.append(len(c_hat) - 1)
            return newton(c_hat, *args)

        monkeypatch.setattr(solver, "_newton", counting_newton)
        rows, _ = convergence_study(power_decay_kernel(2.0, 65), 4, degrees)
        assert [row["degree"] for row in rows] == degrees
        assert calls == degrees

    def test_vanishing_truncation_raises(self):
        # the kernel z truncates to zero on P_0: no problem to solve there,
        # and the error names that space, not a zero kernel
        with pytest.raises(ValueError, match=r"vanishes on the working "
                           r"space P_0; raise the degree"):
            convergence_study(monomial(1), 4, [0, 4])


class TestNormEqualityDecay:
    def test_residuals_decrease_with_degree(self):
        kernel = as_poly([1.0, 1.0])
        ref_degree, rows = norm_equality_decay_study(kernel, 4, [16, 32, 64])
        assert ref_degree == 160
        residuals = [report.residual for _, report in rows]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-4

    @pytest.mark.parametrize("degrees, message", [
        ([], r"^need at least one degree, got \[\]$"),
        ([8, 4000], r"^degrees \[8, 4000\] need the reference degree "
                    r"2 max\(degrees\) \+ 32 = 8032, above 4096$"),
    ], ids=["empty", "reference-past-max"])
    def test_degrees_rejected_before_any_solve(self, degrees, message,
                                               monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(checks, "solve_ladder", no_solve)
        with pytest.raises(ValueError, match=message):
            norm_equality_decay_study(as_poly([1.0, 1.0]), 4, degrees)

    def test_largest_degree_with_a_reference(self, monkeypatch):
        # max(degrees) = 2032 puts the reference at MAX_DEGREE itself
        calls = []

        def reference_only(p, k, degrees):
            calls.append(degrees)
            return [SimpleNamespace(degree=max(degrees), phi_norm=1.0)]

        monkeypatch.setattr(checks, "solve_ladder", reference_only)
        assert norm_equality_decay_study(as_poly([1.0, 1.0]), 4, [2032]) == (
            MAX_DEGREE, [])
        assert calls == [[2032, MAX_DEGREE]]


@st.composite
def small_problems(draw):
    """(kernel coefficients, working degree n, p in {4, 6}), drawn as in
    test_solver: 1-5 coefficients, n up to 24, or 48 or 96."""
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    count = draw(st.integers(1, 5))
    c = np.array([complex(draw(parts), draw(parts)) for _ in range(count)])
    assume(np.max(np.abs(c)) >= 0.25)
    n = draw(st.one_of(st.integers(count - 1, 24), st.sampled_from([48, 96])))
    return c, n, draw(st.sampled_from([4, 6]))


class TestRyabykhBound:
    def test_constant_kernel_value(self):
        # F = 1, k = 1, p = 4: ||F||^3 ||phi|| = 1 = ||2k - K||_{H^{4/3}}
        report = check_ryabykh_bound(as_poly([1.0]), as_poly([1.0]), 4)
        assert report.lhs == 1.0
        assert report.rhs == 1.0
        assert report.residual == 0.0
        assert report.passed

    def test_p2_value_is_one(self):
        # at p = 2, G = k and F is proportional to k: Cauchy-Schwarz is
        # an equality, so lhs/rhs is one
        rng = np.random.default_rng(37)
        k = as_poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        F = as_poly(k.coeffs / bergman_norm_even(k, 2))
        report = check_ryabykh_bound(F, k, 2)
        assert abs(report.residual) <= 1e-15
        assert report.passed

    def test_doubled_extremal_fails(self, one_plus_z_solution):
        # 2F scales lhs by 2^p and leaves rhs alone
        sol = one_plus_z_solution
        report = check_ryabykh_bound(as_poly(2.0 * sol.F.coeffs), sol.kernel,
                                     4)
        assert report.residual > 10.0
        assert not report.passed

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_kernel_scale(self, one_plus_z_solution, scale):
        # the residual is scale invariant; norms of the raw kernel would
        # overflow or underflow in |G|^q
        sol = one_plus_z_solution
        base = check_ryabykh_bound(sol.F, sol.kernel, 4)
        scaled = check_ryabykh_bound(sol.F,
                                     as_poly(scale * sol.kernel.coeffs), 4)
        assert scaled.residual == pytest.approx(base.residual, abs=1e-14)
        doubled = check_ryabykh_bound(as_poly(2.0 * sol.F.coeffs),
                                      as_poly(scale * sol.kernel.coeffs), 4)
        assert not doubled.passed

    @given(small_problems())
    @settings(max_examples=25, deadline=None)
    def test_holds_on_solutions(self, problem):
        c, n, p = problem
        sol = solve_extremal(ExtremalProblem(p=p, kernel=as_poly(c), degree=n))
        report = check_ryabykh_bound(sol.F, sol.kernel, p)
        assert report.residual <= 1e-12
        assert report.lhs <= report.context["kernel_bound"]

    @pytest.mark.parametrize("p", [4, 6])
    def test_standard_family_passes_every_check(self, p):
        for name, kernel, degree in standard_family():
            sol = solve_extremal(ExtremalProblem(p=p, kernel=kernel,
                                                 degree=degree))
            # the degree ladder leaves at most two Newton steps at degree n
            assert sol.iterations <= 2, name
            reports = check_table(sol.F, kernel, p, sol.phi_norm, degree)
            assert all(r.passed for r in reports), name
            ryabykh = reports[-1]
            assert ryabykh.check_name == "ryabykh_bound"
            # the explicit constant: ||G||_{H^q} <= (p-1) ||k||_{H^q}
            assert ryabykh.rhs <= ryabykh.context["kernel_bound"], name
            assert ryabykh.lhs <= ryabykh.context["kernel_bound"], name


@st.composite
def dyadic_kernels(draw):
    """Kernels of one to three coefficients whose parts are multiples of
    1/8 in [-1, 1], not all zero: 2^j c_t is a normal float for every j in
    [-1000, 1022], and ||phi|| <= ||k||_{A^2} < 2."""
    part = st.integers(-8, 8).map(lambda i: i / 8.0)
    coeffs = draw(st.lists(st.builds(complex, part, part),
                           min_size=1, max_size=3))
    assume(any(coeffs))
    return coeffs


class TestScaleCovariance:
    # F depends on the kernel's direction alone and ||phi|| scales with
    # it; every kernel-side computation divides the kernel by an exact
    # power of two first, so both hold bit for bit
    @given(dyadic_kernels(), st.sampled_from([4, 6]),
           st.integers(-1000, 1022))
    # at the top of the range, norms of the raw kernel overflow
    @example([1.0, 1.0], 6, 1022)
    @example([0j, 0.5 + 1j, -1 - 0.75j], 4, 1022)
    @settings(max_examples=30, deadline=None)
    def test_solution_and_checks(self, coeffs, p, j):
        runs = []
        for c in (np.array(coeffs), np.ldexp(np.real(coeffs), j)
                  + 1j * np.ldexp(np.imag(coeffs), j)):
            sol = solve_extremal(ExtremalProblem(
                p=p, kernel=as_poly(c), degree=16))
            runs.append((sol, check_table(sol.F, sol.kernel, p, sol.phi_norm,
                                          16)))
        (base, base_reports), (scaled, scaled_reports) = runs
        assert scaled.F.coeffs.tobytes() == base.F.coeffs.tobytes()
        assert scaled.residual_max == base.residual_max
        assert scaled.phi_norm == np.ldexp(base.phi_norm, j)
        for got, want in zip(scaled_reports, base_reports):
            assert (got.residual, got.verdict) == (want.residual, want.verdict)
            if got.check_name != "ryabykh_bound":
                assert got == want
                continue
            # lhs, rhs and the kernel bound scale with the kernel, to inf
            # past the float range
            with np.errstate(over="ignore"):
                assert got.lhs == np.ldexp(want.lhs, j)
                assert got.rhs == np.ldexp(want.rhs, j)
                assert (got.context["kernel_bound"]
                        == np.ldexp(want.context["kernel_bound"], j))


class TestReportShape:
    def test_fields_present(self, one_plus_z_solution):
        sol = one_plus_z_solution
        report = check_norm_equality(sol.F, sol.kernel, 4, sol.phi_norm)
        assert report.check_name == "norm_equality"
        assert report.tolerance > 0
        assert report.context["p"] == 4
        assert report.verdict in ("pass", "fail")

    def test_verdict_consistent_with_residual(self, one_plus_z_solution):
        # 2F scales the left side by 2^p and the right side by 2
        sol = one_plus_z_solution
        doubled = check_norm_equality(as_poly(2.0 * sol.F.coeffs), sol.kernel,
                                      4, sol.phi_norm)
        assert doubled.residual > doubled.tolerance
        assert doubled.verdict == "fail"
        assert not doubled.passed


class TestCheckRecords:
    """``check_table``: the records every solve keeps."""

    def test_default_expansion(self, one_plus_z_solution):
        # the one table every solve records, whatever its config says
        sol = one_plus_z_solution
        reports = check_table(sol.F, sol.kernel, 4, sol.phi_norm, 40)
        assert [r.check_name for r in reports] == (
            ["norm_equality"] + ["fourier_formula"] * 9
            + ["coefficient_bound_sweep", "ryabykh_bound"])
        assert [r.context["m"] for r in reports[1:10]] == list(range(9))
        assert reports[10].context["m_max"] == 80

    def test_reports_match_single_checks(self, one_plus_z_solution):
        sol = one_plus_z_solution
        reports = check_table(sol.F, sol.kernel, 4, sol.phi_norm, sol.degree)
        assert reports[0] == check_norm_equality(sol.F, sol.kernel, 4,
                                                 sol.phi_norm)
        assert reports[1:10] == [
            check_fourier_formula(sol.F, sol.kernel, 4, sol.phi_norm, m)
            for m in range(9)]
        assert reports[10] == coefficient_bound_sweep(sol)
        assert reports[11] == check_ryabykh_bound(sol.F, sol.kernel, 4)
