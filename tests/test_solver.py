"""Tests for the extremal solver, its certificate, and the kernel inverse."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from bergex import _backend, checks, poly, solver, spaces
from bergex.checks import (check_hinfty_criterion, check_table,
                           convergence_study, growth_study)
from bergex.families import power_decay_kernel, standard_family
from bergex.kernelspec import MAX_DEGREE, MAX_EXPONENT
from bergex.poly import AnalyticPoly, as_poly, monomial, taylor_truncate
from bergex.solver import (
    ExtremalProblem,
    NonConvergenceError,
    _hessian,
    _newton_terms,
    _rungs,
    brute_force_oracle,
    extremality_residual,
    gradient_norm_p,
    kernel_from_extremal,
    solve_extremal,
    solve_ladder,
)
from bergex.spaces import bergman_inner, bergman_norm_even, functional_value


def random_poly(rng, degree):
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return as_poly(c)


@st.composite
def small_problems(draw):
    """(kernel coefficients, working degree n, p in {4, 6}).

    n is at most 24, a single Newton solve, or 48 or 96, which climb the
    degree ladder of ``solve_extremal``.
    """
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    count = draw(st.integers(1, 5))
    c = np.array([complex(draw(parts), draw(parts)) for _ in range(count)])
    assume(np.max(np.abs(c)) >= 0.25)
    n = draw(st.one_of(st.integers(count - 1, 24), st.sampled_from([48, 96])))
    return c, n, draw(st.sampled_from([4, 6]))


def solve_coeffs(c, n, p):
    """F's coefficients, padded to n + 1, for the kernel with coefficients c."""
    sol = solve_extremal(ExtremalProblem(p=p, kernel=as_poly(c), degree=n))
    return sol.F.padded(n + 1)


class TestProblemValidation:
    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            ExtremalProblem(p=3, kernel=as_poly([1.0]), degree=4)

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            ExtremalProblem(p=0, kernel=as_poly([1.0]), degree=4)

    def test_p_above_max_exponent_rejected(self):
        # past the bound ||f||_{A^p}^p underflows and Newton runs on NaN
        with pytest.raises(ValueError, match=r"p .*2\.\.1024, got 1026"):
            ExtremalProblem(p=MAX_EXPONENT + 2, kernel=as_poly([1.0]),
                            degree=4)

    def test_p_at_max_exponent_solves(self):
        sol = solve_extremal(ExtremalProblem(p=MAX_EXPONENT,
                                             kernel=as_poly([1.0]), degree=4))
        np.testing.assert_allclose(sol.F.padded(5), [1, 0, 0, 0, 0],
                                   atol=1e-12)
        assert sol.phi_norm == pytest.approx(1.0, rel=1e-12)

    def test_overflowing_trial_steps_are_backtracked_quietly(self):
        # at p = 1024 a long Armijo trial step overflows |f|^p; the line
        # search rejects it and backtracks with no RuntimeWarning (the
        # suite's filter makes one an error)
        kernel = as_poly([1.0, 0.5j])
        sol = solve_extremal(ExtremalProblem(p=MAX_EXPONENT, kernel=kernel,
                                             degree=1))
        oracle = brute_force_oracle(kernel, MAX_EXPONENT, degree=1)
        np.testing.assert_allclose(sol.F.padded(2), oracle.padded(2),
                                   rtol=0, atol=1e-14)

    def test_zero_kernel_rejected(self):
        with pytest.raises(ValueError):
            ExtremalProblem(p=4, kernel=as_poly([]), degree=4)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            ExtremalProblem(p=4, kernel=as_poly([1.0]), degree=-1)

    def test_fields_are_the_problem(self):
        # the problem alone is input: every solve stops at solver.TOLERANCE
        assert [f.name for f in dataclasses.fields(ExtremalProblem)] == [
            "p", "kernel", "degree"]

    def test_kernel_vanishing_on_working_space_rejected(self):
        # k = z^5 truncated to P_2 leaves no functional at all
        with pytest.raises(ValueError):
            ExtremalProblem(p=4, kernel=monomial(5), degree=2)

    @pytest.mark.parametrize("p, kernel, degree, message", [
        (3, as_poly([1.0]), 4, "p must be an even integer in 2..1024, got 3"),
        (4.0, as_poly([1.0]), 4,
         "p must be an even integer in 2..1024, got 4.0"),
        (MAX_EXPONENT + 2, as_poly([1.0]), 4,
         "p must be an even integer in 2..1024, got 1026"),
        (4, as_poly([]), 4, "kernel must not be identically zero"),
        (4, monomial(5), 2,
         "kernel vanishes on the working space P_2; raise the degree"),
        (4, as_poly([1.0]), -1,
         "degree must be an integer in 0..4096, got -1"),
        # past the bound the problem was accepted, and a ladder through
        # [8, 4097] solved degree 8 before it reached 4097; a float degree
        # raised TypeError
        (4, as_poly([1.0]), MAX_DEGREE + 1,
         "degree must be an integer in 0..4096, got 4097"),
        (4, as_poly([1.0]), 4.0,
         "degree must be an integer in 0..4096, got 4.0"),
    ])
    def test_ladder_rejects_what_the_problem_rejects(self, p, kernel, degree,
                                                     message):
        # solve_ladder checks its input as ExtremalProblem does, with the
        # same message, before any solve: each degree, wherever it stands
        # in the list, and the problem at the lowest
        with pytest.raises(ValueError) as direct:
            ExtremalProblem(p=p, kernel=kernel, degree=degree)
        assert str(direct.value) == message
        for degrees in ([degree], [8, degree]):
            with pytest.raises(ValueError) as ladder:
                next(solve_ladder(p, kernel, degrees))
            assert str(ladder.value) == message

    def test_degree_below_kernel_degree_warns_nothing(self):
        # on P_1 the functional reads c_0 and c_1 alone: the problem is
        # that of S_1 k, no error and no warning
        kernel = as_poly([1.0, 0.5, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=1))
        truncated = solve_extremal(ExtremalProblem(
            p=4, kernel=taylor_truncate(kernel, 1), degree=1))
        np.testing.assert_array_equal(sol.F.coeffs, truncated.F.coeffs)


@pytest.mark.parametrize("p", [0, 5, 4.0, MAX_EXPONENT + 2])
@pytest.mark.parametrize("call", [
    lambda p: gradient_norm_p(as_poly([1.0, 0.5]), p),
    lambda p: extremality_residual(as_poly([1.0]), as_poly([1.0]), p, 1.0, 2),
    lambda p: kernel_from_extremal(as_poly([1.0, 0.5]), p, 2),
    lambda p: brute_force_oracle(as_poly([1.0]), p, degree=0),
    lambda p: spaces.bergman_norm_even(as_poly([1.0, 0.5]), p),
    lambda p: spaces.hardy_norm_even(as_poly([1.0, 0.5]), p),
    lambda p: spaces.fourier_coeff_abs_power(as_poly([1.0, 0.5]), p, 1),
    lambda p: spaces.abs_power_spectrum(as_poly([1.0, 0.5]), p),
    lambda p: growth_study([], p, [2.0]),
    lambda p: convergence_study(as_poly([1.0]), p, [0, 1]),
    lambda p: check_hinfty_criterion(2.0, p, [0, 1]),
], ids=["gradient_norm_p", "extremality_residual", "kernel_from_extremal",
        "brute_force_oracle", "bergman_norm_even", "hardy_norm_even",
        "fourier_coeff_abs_power", "abs_power_spectrum", "growth_study",
        "convergence_study", "check_hinfty_criterion"])
def test_every_entry_point_takes_the_one_p_rule(call, p):
    # without the rule kernel_from_extremal at p = 5 returns the p = 4
    # kernel, the even norms take p = 4.0 and overflow past MAX_EXPONENT,
    # and growth_study of an empty family took every p
    with pytest.raises(ValueError,
                       match=rf"^p must be an even integer in 2\.\.1024, "
                             rf"got {p}$"):
        call(p)


def linear_threshold(p):
    """|c_1| below which the extremal of 1 + c_1 z is a root of a linear G."""
    return 2 * p / (3 * p - 2)


def linear_extremal(p, c1):
    """(g_0, g_1, N) for the kernel k = 1 + c_1 z at even p.

    With s = p/2, suppose F = G^{1/s} / N for G = g_0 + g_1 z, g_0 > 0,
    zero-free in the closed disc, and N = (g_0^2 + |g_1|^2/2)^{1/p}, so
    that ||F||_p^p = ||G||_2^2 / N^p = 1. Then F^{s-1} conj(F)^s pairs
    with 1 and z through the first two Taylor coefficients of
    G^{(s-1)/s} alone, and the extremality conditions for j = 0, 1 give
    g_1 = c_1 g_0^{-(s-1)/s} and, for Y = g_0^{(2s-1)/s},
    Y^2 - Y + ((s-1)/(2s)) |c_1|^2 = 0, whose larger root is taken.
    ||phi|| = N^{p-1}. G is zero-free in the closed disc, |g_1| < g_0,
    exactly when |c_1| < ``linear_threshold(p)``; at p = 2 the formula is
    the normalized kernel at every c_1.
    """
    s = p // 2
    y = (1.0 + math.sqrt(1.0 - 2.0 * (s - 1) * abs(c1) ** 2 / s)) / 2.0
    g0 = y ** (s / (2 * s - 1))
    g1 = c1 * g0 ** (-(s - 1) / s)
    return g0, g1, (g0 ** 2 + abs(g1) ** 2 / 2) ** (1.0 / p)


class TestClosedForms:
    def test_p2_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = random_poly(rng, 8)
            sol = solve_extremal(ExtremalProblem(p=2, kernel=k, degree=12))
            expected = k.coeffs / bergman_norm_even(k, 2)
            np.testing.assert_allclose(sol.F.padded(9), expected, atol=1e-10)

    def test_p2_one_plus_z(self):
        k = as_poly([1.0, 1.0])
        sol = solve_extremal(ExtremalProblem(p=2, kernel=k, degree=8))
        expected = np.array([1.0, 1.0]) / np.sqrt(1.5)
        np.testing.assert_allclose(sol.F.padded(2), expected, atol=1e-10)

    def test_constant_kernel_any_p(self):
        for p in (2, 4, 6):
            sol = solve_extremal(ExtremalProblem(p=p, kernel=as_poly([2.0]),
                                                 degree=6))
            np.testing.assert_allclose(sol.F.padded(1), [1.0], atol=1e-10)
            assert sol.residual_max <= 1e-10

    def test_monomial_kernel_p4(self):
        sol = solve_extremal(ExtremalProblem(p=4, kernel=monomial(1), degree=8))
        expected = np.zeros(2)
        expected[1] = 3.0 ** 0.25
        np.testing.assert_allclose(sol.F.padded(2), expected, atol=1e-8)

    @given(st.sampled_from([2, 4, 6, 8, 16]), st.floats(0.0, 0.9),
           st.floats(0.0, 2 * np.pi))
    # just below and just above the threshold 4/5 at p = 4
    @example(4, 0.76 / 0.8, 0.0)
    @example(4, 0.82 / 0.8, 0.0)
    @settings(max_examples=25, deadline=None)
    def test_linear_kernel(self, p, fraction, theta):
        # below the threshold, at a degree n past which F's Taylor
        # coefficients, of order (|g_1|/g_0)^n, are below the float floor,
        # the solve of 1 + c_1 z is the closed form; above it G would
        # vanish in the closed disc and the closed form is not the answer
        r = fraction * linear_threshold(p)
        c1 = r * np.exp(1j * theta) if theta else r
        g0, g1, N = linear_extremal(p, c1)
        rho = abs(g1) / g0
        assert (r < linear_threshold(p)) == (rho < 1)
        n = next((n for n in range(1, 1025) if rho ** n < 1e-17), 1024)
        sol = solve_extremal(ExtremalProblem(
            p=p, kernel=as_poly([1.0, c1]), degree=n))
        gap = sol.phi_norm / N ** (p - 1) - 1
        if rho >= 1:
            assert abs(gap) > 1e-9
            return
        assert abs(gap) <= 1e-14
        # the binomial series of (g_0 + g_1 z)^{2/p}, over N
        j = np.arange(1, n + 1)
        binomial = np.concatenate([[1.0], np.cumprod((2 / p - j + 1) / j)])
        series = g0 ** (2 / p) * binomial * (g1 / g0) ** np.arange(n + 1)
        np.testing.assert_allclose(sol.F.padded(n + 1), series / N, rtol=0,
                                   atol=1e-13)
        # sup|F| = (g_0 + |g_1|)^{2/p} / N, taken where g_1 z points along
        # g_0 > 0: at z = e^{-i arg c_1}, since arg g_1 = arg c_1. The
        # forward FFT samples F at the 8192nd roots of unity, and none is
        # larger.
        at_max = abs(sol.F(np.exp(-1j * np.angle(c1))))
        assert at_max == pytest.approx((g0 + abs(g1)) ** (2 / p) / N,
                                       rel=1e-13, abs=0)
        assert np.max(np.abs(np.fft.fft(sol.F.padded(8192)))) <= at_max * (
            1 + 1e-14)
        reports = check_table(sol.F, sol.kernel, p, sol.phi_norm, n)
        assert all(report.passed for report in reports)

    @pytest.mark.parametrize("p", [4, 6, 8])
    @pytest.mark.parametrize("a", [0.5, 0.7, 0.6 * np.exp(1j)])
    def test_point_evaluation(self, a, p):
        # phi(f) = f(a) is represented by (1 - conj(a) z)^-2, whose
        # coefficients are c_t = (t+1) conj(a)^t. The sharp bound
        # |f(a)| <= (1-|a|^2)^{-2/p} ||f||_{A^p} is attained by
        # F = (1-|a|^2)^{2/p} (1 - conj(a) z)^{-4/p} (Duren & Schuster,
        # Bergman Spaces, AMS 2004), whose Taylor coefficients past n = 256
        # are below the float floor
        n = 256
        t = np.arange(n + 1)
        kernel = as_poly((t + 1) * np.conj(a) ** t)
        sol = solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
        r = 1.0 - abs(a) ** 2
        assert sol.phi_norm == pytest.approx(r ** (-2 / p), rel=1e-14, abs=0)
        # the binomial series of (1 - conj(a) z)^{-4/p}
        series = np.concatenate([[1.0], np.cumprod(
            (t[:-1] + 4 / p) * np.conj(a) / (t[:-1] + 1))])
        np.testing.assert_allclose(sol.F.padded(n + 1), r ** (2 / p) * series,
                                   rtol=0, atol=1e-13)
        assert checks.certified(sol.residual_max, check_table(
            sol.F, kernel, p, sol.phi_norm, n))


@pytest.fixture(scope="module")
def solution():
    """A certified solve for a complex cubic kernel.

    The degree is large enough that the optimality residual clears 1e-8
    over twice the truncation degree; this kernel's coefficient tail
    decays slowly, so smaller degrees leave a visible gap.
    """
    kernel = as_poly([1.0, 0.5, -0.25, 0.1j])
    return solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=128))


class TestSolutionInvariants:
    def test_unit_norm(self, solution):
        assert abs(bergman_norm_even(solution.F, 4) - 1.0) <= 1e-10

    def test_phi_norm_real_positive(self, solution):
        value = functional_value(solution.kernel, solution.F)
        assert value.real > 0
        assert abs(value.imag) <= 1e-10

    def test_certificate(self, solution):
        assert solution.residual_max <= 1e-8
        assert checks.certified(solution.residual_max, [])

    def test_trace_monotone_objective(self, solution):
        values = [v for _, v, _ in solution.trace]
        # descent method: the objective J, negative near its minimum, never
        # increases beyond round-off
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12 * abs(earlier)

    def test_residuals_recomputable(self, solution):
        res = extremality_residual(solution.F, solution.kernel, 4,
                                   solution.phi_norm, 2 * solution.degree)
        assert float(np.max(np.abs(res))) == pytest.approx(
            solution.residual_max, rel=1e-12, abs=1e-15
        )

    @pytest.mark.parametrize("p, covered", [(2, 48), (4, 48), (6, 72),
                                            (8, 96)])
    def test_certificate_covers_every_nonzero_pairing(self, p, covered,
                                                      monkeypatch):
        # at n = 24 the pairings reach j = (p/2) n and the kernel side
        # deg k, so past max(2, p/2) n every residual is exactly zero
        ranges = []

        def recording(F, k, p, phi_norm, max_test_degree):
            ranges.append(max_test_degree)
            return extremality_residual(F, k, p, phi_norm, max_test_degree)

        monkeypatch.setattr(solver, "extremality_residual", recording)
        sol = solve_extremal(ExtremalProblem(
            p=p, kernel=as_poly([1.0, 0.5j, -0.25]), degree=24))
        assert ranges == [covered]
        res = extremality_residual(sol.F, sol.kernel, p, sol.phi_norm,
                                   covered + 8)
        assert np.all(res[covered + 1:] == 0)
        assert sol.residual_max == float(np.max(np.abs(res)))


class TestGradient:
    def test_constant_example(self):
        g = gradient_norm_p(as_poly([1.0]), 4)
        assert g[0] == pytest.approx(2.0, rel=1e-14)

    def test_monomial_quadratic_form(self):
        g = gradient_norm_p(monomial(1), 2)
        assert g[1] == pytest.approx(0.5, rel=1e-14)

    def test_matches_bergman_inner_definition(self):
        from bergex.poly import multiply, power

        rng = np.random.default_rng(5)
        f = random_poly(rng, 5)
        g = gradient_norm_p(f, 4)
        u, v = power(f, 2), power(f, 1)
        for m in range(len(f.coeffs)):
            direct = 2.0 * bergman_inner(u, multiply(monomial(m), v))
            assert g[m] == pytest.approx(direct, rel=1e-12)

    def test_finite_difference_match(self):
        rng = np.random.default_rng(17)
        f = random_poly(rng, 8)
        g = gradient_norm_p(f, 4)
        h = 1e-5
        for m in range(len(f.coeffs)):
            re_bump = f + monomial(m, h)
            re_drop = f + monomial(m, -h)
            im_bump = f + monomial(m, 1j * h)
            im_drop = f + monomial(m, -1j * h)
            d_re = (bergman_norm_even(re_bump, 4) ** 4
                    - bergman_norm_even(re_drop, 4) ** 4) / (2 * h)
            d_im = (bergman_norm_even(im_bump, 4) ** 4
                    - bergman_norm_even(im_drop, 4) ** 4) / (2 * h)
            # Wirtinger: d/d conj(a) = (d/d Re + i d/d Im) / 2
            fd = 0.5 * (d_re + 1j * d_im)
            assert abs(fd - g[m]) <= 1e-6 * max(1.0, abs(g[m]))

    def test_zero_input(self):
        assert len(gradient_norm_p(as_poly([]), 4)) == 0

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("c", [[1.0, 0.5, -0.25], [1.0, 0.5j, -0.25]],
                             ids=["real", "complex"])
    def test_objective_gradient_is_the_certificate(self, p, c):
        # J(f) = ||f||_{A^p}^p / p - Re phi(f) is least at ||phi||^{1/(p-1)} F,
        # where d J / d conj(a_j) = (||phi|| / 2) conj(res_j) for j <= n
        n = 24
        sol = solve_extremal(ExtremalProblem(p=p, kernel=as_poly(c), degree=n))
        f = as_poly(sol.phi_norm ** (1.0 / (p - 1)) * sol.F.coeffs)
        kernel_side = sol.kernel.padded(n + 1) / (2.0 * np.arange(1, n + 2))
        grad = gradient_norm_p(f, p)[:n + 1] / p - kernel_side
        res = extremality_residual(sol.F, sol.kernel, p, sol.phi_norm, n)
        np.testing.assert_allclose(
            grad, 0.5 * sol.phi_norm * np.conj(res), rtol=0,
            atol=1e-14 * np.max(np.abs(kernel_side)))

    @pytest.mark.parametrize("n1", [1, 17, 130, 300])
    @pytest.mark.parametrize("length", ["1", "n1/2", "n1", "2n1-1", "3n1-2"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_gram_matches_definition(self, n1, length, real):
        # v of length n1/2, f^{s-1} of an iterate padded from the rung
        # below, leaves a band of zero subdiagonals; one of length
        # 2n1 - 1 or 3n1 - 2 (p = 6 or 8) takes more than one band of the
        # m-sum
        count = {"1": 1, "n1/2": (n1 + 1) // 2, "n1": n1,
                 "2n1-1": 2 * n1 - 1, "3n1-2": 3 * n1 - 2}[length]
        rng = np.random.default_rng(n1 + count)
        v = rng.standard_normal(count)
        if not real:
            v = v + 1j * rng.standard_normal(count)
        rows = count + n1 - 1
        T = np.zeros((rows, n1), dtype=v.dtype)
        for i in range(n1):
            T[i:i + count, i] = v
        expected = T.conj().T @ np.diag(1.0 / (np.arange(rows) + 1.0)) @ T
        G = solver._gram(v, n1)
        # dpotrf factors the real Hessian, this array, in place
        assert G.dtype == v.dtype
        assert G.flags.f_contiguous
        # relative to sqrt(G_ii G_jj), which bounds |G_ij| and the sum of
        # the moduli of its terms: entries that cancel keep the round-off
        # of their terms; the lower triangle is the contract, the strict
        # upper one is left unspecified
        diag = np.diag(expected).real
        i, j = np.tril_indices(n1)
        assert np.all(np.abs(G - expected)[i, j]
                      <= 1e-13 * np.sqrt(diag[i] * diag[j]))

    @pytest.mark.parametrize("p, real, n1", [
        pytest.param(4, False, 8, id="4"), pytest.param(6, False, 8, id="6"),
        pytest.param(4, True, 8, id="4-real"),
        pytest.param(6, True, 8, id="6-real"),
        # v has 139 coefficients, two bands of _gram's m-sum
        pytest.param(6, False, 70, id="6-n70"),
        pytest.param(6, True, 70, id="6-real-n70"),
    ])
    def test_hessian_matches_gradient_differences(self, p, real, n1):
        # the coordinates are x = a.view(float): Re a alone for real
        # coefficients, Re a_j and Im a_j interleaved for complex ones
        rng = np.random.default_rng(61 + p)
        a = (rng.standard_normal(n1) if real
             else random_poly(rng, n1 - 1).coeffs)

        def real_gradient(x):
            f = as_poly(x.view(a.dtype))
            return (2.0 * gradient_norm_p(f, p)).view(float)

        _, grad, wu, v = _newton_terms(a, p)
        H = _hessian(a, p, wu, v)
        x = a.view(float)
        assert H.shape == (len(x), len(x))
        np.testing.assert_allclose(grad, real_gradient(x), rtol=1e-13, atol=0)
        h = 1e-6
        fd = np.column_stack([
            (real_gradient(x + h * e) - real_gradient(x - h * e)) / (2 * h)
            for e in np.eye(len(x))
        ])
        # _hessian builds the lower triangle of the Hessian of the
        # objective over p, the triangle the solver factors
        H = np.tril(p * H)
        assert np.max(np.abs(H - np.tril(fd))) <= 1e-6 * np.max(np.abs(H))
        if real:
            # the Re a rows and columns of the Hessian in complex
            # coordinates
            ac = a.astype(complex)
            H_complex = _hessian(ac, p, *_newton_terms(ac, p)[2:])
            np.testing.assert_allclose(H, np.tril(p * H_complex[0::2, 0::2]),
                                       rtol=0,
                                       atol=1e-13 * np.max(np.abs(H)))

    def test_gram_memory_stays_within_its_bound(self):
        # a complex v of length 2n1 - 1, a full iterate's f^2 at p = 6,
        # takes more than one band of the m-sum; _gram holds at most four
        # n1 x n1 complex arrays at once, its result included
        n1 = 300
        rng = np.random.default_rng(300)
        v = rng.standard_normal(2 * n1 - 1) + 1j * rng.standard_normal(
            2 * n1 - 1)
        tracemalloc.start()
        try:
            solver._gram(v, n1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n1 * n1 * v.itemsize <= peak <= 4 * n1 * n1 * v.itemsize

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            gradient_norm_p(as_poly([1.0]), 3)


class TestExtremalityResidual:
    def test_true_extremal_constant(self):
        res = extremality_residual(as_poly([1.0]), as_poly([1.0]), 4, 1.0, 6)
        np.testing.assert_allclose(np.abs(res), 0.0, atol=1e-15)

    def test_non_extremal_detection(self):
        # F=1 is not extremal for k=z; the j=1 residual is -phi(z)/phi_norm
        # and the j=0 residual is the unmatched unit pairing of F with itself
        res = extremality_residual(as_poly([1.0]), monomial(1), 4, 1.0, 3)
        assert res[1] == pytest.approx(-0.5, abs=1e-15)
        assert res[0] == pytest.approx(1.0, abs=1e-15)

    def test_p2_exact_at_closed_form(self):
        rng = np.random.default_rng(23)
        k = random_poly(rng, 6)
        F = as_poly(k.coeffs / bergman_norm_even(k, 2))
        phi_norm = functional_value(k, F).real
        res = extremality_residual(F, k, 2, phi_norm, 12)
        assert float(np.max(np.abs(res))) <= 1e-13


class TestKernelRoundTrip:
    def test_constant(self):
        k = kernel_from_extremal(as_poly([1.0]), 4, 3)
        assert k.degree == 0
        assert k.coeffs[0].real > 0

    def test_scaled_monomial(self):
        F = as_poly([0.0, 3.0 ** 0.25])
        k = kernel_from_extremal(F, 4, 3)
        # proportional to z: the only surviving coefficient sits at j=1
        c = k.padded(3)
        assert abs(c[0]) <= 1e-14
        assert c[1].real > 0
        assert abs(c[2]) <= 1e-14

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_extremal(as_poly([]), 4, 3)

    @pytest.mark.parametrize("bad", [-1, -5, 2.5, True, MAX_DEGREE + 1])
    def test_out_degree_takes_the_degree_rule(self, bad):
        # a negative degree, a float and a bool are no degree
        with pytest.raises(ValueError, match="out_degree must be an integer"):
            kernel_from_extremal(as_poly([1.0, 0.5]), 4, bad)

    def test_round_trip_cosine(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            k = random_poly(rng, 5)
            sol = solve_extremal(ExtremalProblem(p=4, kernel=k, degree=20))
            rec = kernel_from_extremal(sol.F, 4, 5)
            a, b = rec.padded(6), k.padded(6)
            cosine = np.real(np.vdot(a, b)) / (
                np.linalg.norm(a) * np.linalg.norm(b)
            )
            assert cosine >= 1.0 - 1e-6


def newton_from(kernel, p, start, tolerance):
    """Unit-norm F of one ``_newton`` solve at degree len(start) - 1 from
    the explicit start, which must have Re phi_hat > 0. A complex start
    takes the complex coordinates, whatever the kernel's dtype."""
    n1 = len(start)
    c = kernel.padded(n1).astype(np.result_type(kernel.coeffs, start))
    c_hat = c / np.sqrt(np.sum(np.abs(c) ** 2 / (np.arange(n1) + 1.0)))
    a, _, failure = solver._newton(c_hat, p, start, tolerance)
    assert failure is None
    f = AnalyticPoly(a)
    return f.coeffs / bergman_norm_even(f, p)


class TestSolverProperties:
    def test_uniqueness_from_random_starts(self):
        # J is strictly convex: every start on the side Re phi_hat > 0,
        # where the ladder's starts lie, reaches the same F
        kernel = as_poly([1.0, 0.5, 0.25])
        problem = ExtremalProblem(p=4, kernel=kernel, degree=10)
        reference = solve_extremal(problem)
        weights = 1.0 / (np.arange(11) + 1.0)
        rng = np.random.default_rng(41)
        for _ in range(16):
            start = random_poly(rng, 10).padded(11)
            start *= np.sign(np.real(np.vdot(kernel.padded(11) * weights,
                                             start)))
            F = newton_from(kernel, 4, start, 1e-11)
            gap = np.max(np.abs(F - reference.F.padded(11)))
            assert gap <= 1e-6

    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e100, 1e300])
    @pytest.mark.parametrize("c", [[1.0, 0.5, -0.25], [1.0, 0.5j, -0.25]],
                             ids=["real", "complex"])
    def test_start_at_any_scale(self, scale, c):
        # _newton rescales its start by a power of two and then to the
        # minimum of J on its ray, so the start's size does not matter
        kernel = as_poly(c)
        reference = solve_extremal(ExtremalProblem(p=4, kernel=kernel,
                                                   degree=12))
        F = newton_from(kernel, 4, scale * kernel.padded(13), 1e-12)
        np.testing.assert_allclose(F, reference.F.padded(13),
                                   rtol=0, atol=1e-12)

    def test_scaling_law(self):
        kernel = as_poly([1.0, -0.5, 0.2j])
        base = solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=12))
        scaled = solve_extremal(ExtremalProblem(
            p=4, kernel=as_poly(3.5 * kernel.coeffs), degree=12))
        np.testing.assert_allclose(scaled.F.padded(13), base.F.padded(13),
                                   atol=1e-8)
        assert scaled.phi_norm == pytest.approx(3.5 * base.phi_norm, rel=1e-9)

    def test_rotation_equivariance(self):
        kernel = as_poly([1.0, 0.7, 0.3])
        rho = 0.83
        twist = np.exp(-1j * rho * np.arange(3))
        rotated = as_poly(kernel.coeffs * twist)
        base = solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=12))
        rot = solve_extremal(ExtremalProblem(p=4, kernel=rotated, degree=12))
        expected = base.F.padded(13) * np.exp(-1j * rho * np.arange(13))
        np.testing.assert_allclose(rot.F.padded(13), expected, atol=1e-8)

    def test_midpoint_convexity_on_slice(self):
        kernel = as_poly([1.0, 0.5])
        rng = np.random.default_rng(47)
        degree = 8
        k_pad = kernel.padded(degree + 1)
        weights = 1.0 / (np.arange(degree + 1) + 1.0)

        def feasible(seed_vec):
            # shift along the kernel direction so that phi(f) = 1 exactly
            value = np.sum(seed_vec * np.conj(k_pad) * weights)
            base = k_pad / np.sum(np.abs(k_pad) ** 2 * weights)
            return seed_vec + (1.0 - value) * base

        for _ in range(10):
            f1 = feasible(rng.standard_normal(degree + 1)
                          + 1j * rng.standard_normal(degree + 1))
            f2 = feasible(rng.standard_normal(degree + 1)
                          + 1j * rng.standard_normal(degree + 1))
            mid = 0.5 * (f1 + f2)
            lhs = bergman_norm_even(as_poly(mid), 4) ** 4
            rhs = 0.5 * (bergman_norm_even(as_poly(f1), 4) ** 4
                         + bergman_norm_even(as_poly(f2), 4) ** 4)
            assert lhs <= rhs + 1e-10

    def test_extreme_kernel_scales(self):
        # the squared coefficients overflow at 1e300 and underflow at 1e-300
        kernel = as_poly([1.0, 0.5, -0.25, 0.1j])
        base = solve_coeffs(kernel.coeffs, 24, 4)
        for scale in (1e300, 1e-300):
            scaled = solve_coeffs(scale * kernel.coeffs, 24, 4)
            np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-12)

    @given(small_problems(), st.floats(-12.0, 12.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance_property(self, problem, log_scale):
        c, n, p = problem
        np.testing.assert_allclose(solve_coeffs(10.0 ** log_scale * c, n, p),
                                   solve_coeffs(c, n, p), rtol=0, atol=1e-12)

    @given(small_problems(), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_rotation_covariance_property(self, problem, theta):
        # k(e^{i theta} z) has extremal function F(e^{i theta} z)
        c, n, p = problem
        twist = np.exp(1j * theta * np.arange(n + 1))
        np.testing.assert_allclose(solve_coeffs(c * twist[:len(c)], n, p),
                                   solve_coeffs(c, n, p) * twist,
                                   rtol=0, atol=1e-12)

    @given(small_problems())
    @settings(max_examples=25, deadline=None)
    def test_conjugation_property(self, problem):
        c, n, p = problem
        np.testing.assert_allclose(solve_coeffs(np.conj(c), n, p),
                                   np.conj(solve_coeffs(c, n, p)),
                                   rtol=0, atol=1e-12)
        # the extremal function of a real kernel is real: float64, not
        # real to round-off, since the solve runs in x = Re a
        assert solve_coeffs(np.abs(c), n, p).dtype == np.float64

    @pytest.mark.parametrize("p", [4, 6])
    def test_real_and_complex_paths_agree(self, p):
        # e^{i theta} k has extremal function e^{i theta} F and the same
        # norm; degree 288 puts conv/xcorr on their FFT path, whose
        # round-off must not leak into F's imaginary parts
        kernel, theta, n = power_decay_kernel(1.6, 64), 0.7, 288
        real = solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
        turned = solve_extremal(ExtremalProblem(
            p=p, kernel=as_poly(np.exp(1j * theta) * kernel.coeffs), degree=n))
        np.testing.assert_allclose(turned.F.padded(n + 1),
                                   np.exp(1j * theta) * real.F.padded(n + 1),
                                   rtol=0, atol=1e-12)
        assert turned.phi_norm == pytest.approx(real.phi_norm, rel=1e-14, abs=0)
        assert turned.iterations == real.iterations
        assert real.F.coeffs.dtype == np.float64

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_real_kernel_solves_in_float64(self, p, monkeypatch):
        # a real kernel's solve hands the coefficient kernels float64
        # operands alone: the Newton objective, gradient, Hessian and line
        # search, and the certificate of the float64 F; at degree 288 conv
        # and xcorr take both paths
        kernels = [getattr(_backend, name) for name in ("conv", "power")]
        dtypes = []

        def recorded(fn):
            def call(*args):
                dtypes.extend(x.dtype for x in args
                              if isinstance(x, np.ndarray))
                return fn(*args)
            return call

        # every module-level name of the two kernels, xcorr's and
        # power's inner calls of conv included
        for module in (_backend, poly, solver):
            for name in ("conv", "power"):
                if getattr(module, name) in kernels:
                    monkeypatch.setattr(module, name,
                                        recorded(getattr(module, name)))
        solve_extremal(ExtremalProblem(p=p, kernel=power_decay_kernel(1.6, 64),
                                       degree=288))
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}

    def test_non_convergence_carries_trace(self, monkeypatch):
        # a budget of three Newton iterations, too few for this solve
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITERATIONS", 3)
        kernel = as_poly([1.0, 1.0, 0.5])
        with pytest.raises(NonConvergenceError) as exc_info:
            solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=16))
        trace = exc_info.value.trace
        assert len(trace) == 3
        assert all(len(entry) == 3 for entry in trace)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "TOLERANCE", 1e-30)
        kernel = as_poly([1.0, 1.0])
        with pytest.raises(NonConvergenceError):
            solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=12))

    def test_float_floor_stops_early(self, monkeypatch):
        # below the gradient's float floor nothing moves; stop, do not
        # spend the whole iteration budget. The last two inputs alternate
        # between two iterates there, one on the real and one on the
        # complex path.
        monkeypatch.setattr(solver, "TOLERANCE", 1e-30)
        for p, coeffs, degree in [(4, [1.0, 1.0], 12),
                                  (6, [1.0, 0.5, 0.25], 20),
                                  (6, [1j, 0.5j, 0.25j], 20)]:
            kernel = as_poly(coeffs)
            with pytest.raises(NonConvergenceError, match="no progress") as exc_info:
                solve_extremal(ExtremalProblem(p=p, kernel=kernel,
                                               degree=degree))
            assert len(exc_info.value.trace) <= 50


def true_iterates_infinite_trials(monkeypatch):
    """Patch the solver so that the start and every iterate have their
    true objective, through ``_newton_terms``, and every line-search trial
    point has J = +inf: ``_objective``, which the start and the line search
    call, gives inf after its first call. Returns the list of iterates
    that ``_newton_terms`` receives."""
    objective, newton_terms = solver._objective, solver._newton_terms
    calls, iterates = [], []

    def infinite_trials(a, s):
        value, wu, v = objective(a, s)
        calls.append(a)
        return (value if len(calls) == 1 else math.inf), wu, v

    def true_terms(a, p, evaluated=None):
        iterates.append(a.copy())
        return newton_terms(a, p, objective(a, p // 2))

    monkeypatch.setattr(solver, "_objective", infinite_trials)
    monkeypatch.setattr(solver, "_newton_terms", true_terms)
    return iterates


class TestFailureExits:
    """The exits of ``_newton`` and of the oracle that no converging solve
    reaches, each through a stub."""

    def test_line_search_without_a_step_ends_at_no_progress(self,
                                                            monkeypatch):
        # every trial is rejected, so the halving ends with no step; the
        # same iterate evaluates the same at iteration 1, which ends there
        iterates = true_iterates_infinite_trials(monkeypatch)
        with pytest.raises(NonConvergenceError,
                           match="no progress at iteration 1") as exc_info:
            solve_extremal(ExtremalProblem(p=4, kernel=as_poly([1.0, 0.5]),
                                           degree=2))
        trace = exc_info.value.trace
        assert [entry[0] for entry in trace] == [0, 1]
        assert trace[0][1:] == trace[1][1:]
        np.testing.assert_array_equal(iterates[0], iterates[1])

    def test_converged_iterate_without_a_step_is_kept(self, monkeypatch):
        # iteration 0 meets the tolerance, and its chord step finds no
        # acceptable trial: the iterate is returned as it was evaluated
        iterates = true_iterates_infinite_trials(monkeypatch)
        c_hat = as_poly([1.0, 0.5, 0.0]).padded(3)
        c_hat /= np.sqrt(np.sum(np.abs(c_hat) ** 2 / np.arange(1.0, 4.0)))
        a, trace, failure = solver._newton(c_hat, 4, c_hat, 1.0)
        assert failure is None
        assert len(trace) == 1 and len(iterates) == 1
        assert a.tobytes() == iterates[0].tobytes()

    def test_hessian_not_positive_definite(self, monkeypatch):
        # a negative definite Hessian makes dpotrf's info nonzero
        monkeypatch.setattr(
            solver, "_hessian",
            lambda a, p, wu, v: -np.eye(len(a.view(float)), order="F"))
        with pytest.raises(NonConvergenceError, match=(
                r"^degree 2: Hessian not positive definite at iteration 0$")
                ) as exc_info:
            solve_extremal(ExtremalProblem(p=4, kernel=as_poly([1.0, 0.5]),
                                           degree=2))
        assert [entry[0] for entry in exc_info.value.trace] == [0]

    def test_oracle_non_convergence(self, monkeypatch):
        # one Newton iteration does not reach the oracle's float floor
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError, match=(
                r"^oracle: no convergence in 1 iterations$")) as exc_info:
            brute_force_oracle(as_poly([1.0, 1.0]), 4, degree=3)
        assert [entry[0] for entry in exc_info.value.trace] == [0]


class TestDegreeLadder:
    """Solves at n >= 32 climb the ladder of degrees n >> j >= 16."""

    @pytest.mark.parametrize("call", [
        lambda: next(solve_ladder(4, as_poly([1.0]), [])),
        lambda: convergence_study(as_poly([1.0]), 4, []),
    ], ids=["solve_ladder", "convergence_study"])
    def test_empty_degree_list_rejected(self, call):
        # both raised IndexError on degrees[0] and solutions[-1]
        with pytest.raises(ValueError, match=r"^need at least "):
            call()

    def test_rungs(self):
        assert _rungs(16) == [16]
        assert _rungs(31) == [31]
        assert _rungs(32) == [16, 32]
        assert _rungs(352) == [22, 44, 88, 176, 352]

    def test_cubic_mix_needs_at_most_two_iterations(self):
        kernel, n = next((k, n) for name, k, n in standard_family()
                         if name == "cubic-mix")
        sol = solve_extremal(ExtremalProblem(p=6, kernel=kernel, degree=n))
        assert n == 352
        assert sol.iterations <= 2
        assert sol.residual_max <= 1e-14

    @pytest.mark.parametrize("p", [4, 6])
    def test_agrees_with_explicit_start(self, p, monkeypatch):
        # the ladder against one solve at degree n alone, from the
        # normalized kernel: MIN_RUNG_DEGREE above n leaves n the only
        # rung. That solve meets the tolerance at every step, while the
        # ladder's rungs below n stop at its square root; of the kernels
        # at n = 96, one vanishes on rung 24 (which is skipped) and one is
        # real there but not at degree 48; the family kernel climbs four
        # or five rungs
        vanishing = np.zeros(31, dtype=complex)
        vanishing[30] = 1.0
        turning = np.zeros(41, dtype=complex)
        turning[:2], turning[40] = [1.0, 0.5], 0.2j
        family = {4: "one-plus-z", 6: "cubic-mix"}[p]
        cases = [(as_poly(c), 96) for c in [[1.0, 0.5, -0.25, 0.1j],
                                            [0.3, -1.0, 0.2j, 0.0, 0.4],
                                            vanishing, turning]]
        cases += [(k, n) for name, k, n in standard_family() if name == family]
        for kernel, n in cases:
            problem = ExtremalProblem(p=p, kernel=kernel, degree=n)
            ladder = solve_extremal(problem)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "MIN_RUNG_DEGREE", n + 1)
                direct = solve_extremal(problem)
            np.testing.assert_allclose(ladder.F.padded(n + 1),
                                       direct.F.padded(n + 1),
                                       rtol=0, atol=1e-12)

    def test_unrequested_rungs_solve_to_sqrt_tolerance(self, monkeypatch):
        # a rung below the requested degrees only starts the one above it,
        # so it stops at the square root of the tolerance
        tolerances, newton = [], solver._newton

        def recording_newton(c_hat, p, a, tolerance):
            tolerances.append(tolerance)
            return newton(c_hat, p, a, tolerance)

        monkeypatch.setattr(solver, "_newton", recording_newton)
        kernel = as_poly([1.0, 1.0])
        solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=160))
        assert _rungs(160) == [20, 40, 80, 160]
        assert tolerances == [1e-6, 1e-6, 1e-6, 1e-12]

        # rungs 8, 24, 32 and 64, of which 32 alone is not requested
        tolerances.clear()
        ladder = list(solve_ladder(4, kernel, [8, 24, 64]))
        assert [sol.degree for sol in ladder] == [8, 24, 64]
        assert tolerances == [1e-12, 1e-12, 1e-6, 1e-12]

    def test_hessians_per_family_pass_bounded(self, monkeypatch):
        # the 18 family solves at the default seed build 126 Hessians, 168
        # when every rung solved to the full tolerance
        builds, gram = [0], solver._gram

        def counting_gram(*args):
            builds[0] += 1
            return gram(*args)

        monkeypatch.setattr(solver, "_gram", counting_gram)
        for p in (4, 6):
            for _, kernel, n in standard_family():
                solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
        assert 0 < builds[0] <= 130

    def test_unreachable_tolerance_raises_from_requested_degree(
            self, monkeypatch):
        # rungs 16 and 32 meet 1e-15, the square root of the tolerance,
        # and degree 64 fails at its float floor; the error carries the
        # trace of degree 64, which starts at the minimum of rung 32 and
        # ends at the minimum of degree 64
        kernel = as_poly([1.0, 1.0])

        def minimum(n):
            return solve_extremal(ExtremalProblem(
                p=4, kernel=kernel, degree=n)).trace[-1][1]

        with monkeypatch.context() as patch:
            patch.setattr(solver, "TOLERANCE", 1e-30)
            with pytest.raises(NonConvergenceError,
                               match="no progress") as exc_info:
                solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=64))
        trace = exc_info.value.trace
        assert trace[0][0] == 0
        assert minimum(32) - minimum(64) >= 1e-9
        assert trace[0][1] == pytest.approx(minimum(32), rel=1e-14)
        assert trace[-1][1] == pytest.approx(minimum(64), rel=1e-14)

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)])
    def test_ladder_agrees_with_per_degree_solves(self, p, phase):
        # one ladder through the degrees against a solve per degree, each
        # climbing its own ladder; 24 and 40 are rungs of neither 16 nor 64
        kernel = AnalyticPoly(phase * power_decay_kernel(1.6, 64).coeffs)
        degrees = [40, 8, 24, 64, 16, 24]
        ladder = list(solve_ladder(p, kernel, degrees))
        assert [sol.degree for sol in ladder] == sorted(set(degrees))
        for sol in ladder:
            alone = solve_extremal(ExtremalProblem(
                p=p, kernel=kernel, degree=sol.degree))
            np.testing.assert_allclose(sol.F.coeffs, alone.F.coeffs,
                                       rtol=0, atol=1e-13)
            assert sol.phi_norm == pytest.approx(alone.phi_norm, rel=1e-13)
            assert sol.residual_max == pytest.approx(alone.residual_max,
                                                     rel=1e-9, abs=1e-12)
            assert sol.kernel is kernel

    def test_failing_requested_degree_raises_with_its_trace(self,
                                                            monkeypatch):
        # degree 8 of the kernel 1 + z^40 is the constant kernel, solved at
        # once; degree 64 starts from it and runs out of a budget of two
        # iterations
        kernel = as_poly(np.eye(41)[0] + np.eye(41)[40])
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITERATIONS", 2)
        ladder = solve_ladder(4, kernel, [8, 64])
        assert next(ladder).degree == 8
        with pytest.raises(NonConvergenceError,
                           match="in 2 iterations") as exc_info:
            next(ladder)
        trace = exc_info.value.trace
        assert [entry[0] for entry in trace] == [0, 1]
        monkeypatch.undo()
        alone = solve_extremal(ExtremalProblem(p=4, kernel=kernel, degree=64))
        assert trace[0][1] == pytest.approx(alone.trace[0][1], rel=1e-12)

    def test_failure_names_the_requested_degree(self, monkeypatch):
        # one ladder serves several degrees, so its message says which
        # of them failed; the rung below it (32) is not requested
        kernel = as_poly(np.eye(41)[0] + np.eye(41)[40])
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITERATIONS", 2)
        ladder = solve_ladder(4, kernel, [8, 64])
        assert next(ladder).degree == 8
        with pytest.raises(NonConvergenceError) as exc_info:
            next(ladder)
        assert str(exc_info.value).startswith("degree 64: no convergence")


class TestFinalStep:
    """The step at a converged iterate reuses the previous Cholesky factor."""

    FAMILY = {name: (kernel, n) for name, kernel, n in standard_family()}

    # one-plus-z is real and steps on every rung; random-0 is complex and
    # its upper rungs converge at iteration 0; monomial-z is real and
    # converges at iteration 0 on both of its rungs
    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("name", ["one-plus-z", "monomial-z", "random-0"])
    def test_one_hessian_per_step_before_convergence(self, monkeypatch, name,
                                                     p):
        builds, calls = [0], []
        gram, newton = solver._gram, solver._newton

        def counting_gram(*args):
            builds[0] += 1
            return gram(*args)

        def counting_newton(*args):
            before = builds[0]
            a, trace, failure = newton(*args)
            calls.append((trace[-1][0], builds[0] - before, failure))
            return a, trace, failure

        monkeypatch.setattr(solver, "_gram", counting_gram)
        monkeypatch.setattr(solver, "_newton", counting_newton)
        kernel, n = self.FAMILY[name]
        solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
        assert len(calls) == len(_rungs(n))
        for last, hessians, failure in calls:
            # iterations 0..last - 1 stepped with a new Hessian; the
            # converged iteration builds one only when it is iteration 0
            assert failure is None
            assert hessians == max(last, 1)

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("name", ["one-plus-z", "cubic-mix",
                                      "power-decay-3.0", "random-0"])
    def test_reaches_the_float_floor(self, monkeypatch, name, p):
        # The last _newton_terms call of the solve is at degree n's
        # converged iterate, and the last dpotrs solve takes its final
        # step, whole, since its predicted decrease is below J's
        # resolution; the reference takes that step with a Hessian built
        # there.
        seen = {}
        lapack = solver._flapack()
        terms, solve = solver._newton_terms, lapack.dpotrs

        def recording_terms(a, *args):
            seen["a"] = a
            return terms(a, *args)

        def recording_solve(factor, grad, **kwargs):
            seen["grad"] = grad
            return solve(factor, grad, **kwargs)

        monkeypatch.setattr(solver, "_newton_terms", recording_terms)
        monkeypatch.setattr(lapack, "dpotrs", recording_solve)
        kernel, n = self.FAMILY[name]
        sol = solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))

        # the Hessian's lower triangle, the one _hessian builds
        a = seen["a"]
        H = _hessian(a, p, *_newton_terms(a, p)[2:])
        d = -cho_solve(cho_factor(H, lower=True, check_finite=False),
                       seen["grad"], check_finite=False)
        if np.iscomplexobj(a):
            d = d[:n + 1] + 1j * d[n + 1:]
        f = AnalyticPoly(a + d)
        F = f.coeffs / bergman_norm_even(f, p)
        np.testing.assert_allclose(sol.F.padded(n + 1), F, rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("name", ["one-plus-z", "random-0"])
    def test_never_reads_the_strict_upper_triangle(self, monkeypatch, name,
                                                    p):
        # _hessian builds the lower triangle alone, and the lower Cholesky
        # factorization and solves read nothing else: NaN above the
        # diagonal leaves every bit of the solve as it was
        kernel, n = self.FAMILY[name]
        problem = ExtremalProblem(p=p, kernel=kernel, degree=n)
        expected = solve_extremal(problem)
        hessian = solver._hessian

        def nan_above_diagonal(*args):
            H = hessian(*args)
            H[np.triu_indices(len(H), 1)] = np.nan
            return H

        monkeypatch.setattr(solver, "_hessian", nan_above_diagonal)
        sol = solve_extremal(problem)
        assert sol.F.coeffs.tobytes() == expected.F.coeffs.tobytes()
        assert sol.phi_norm == expected.phi_norm
        assert sol.iterations == expected.iterations
        assert sol.trace == expected.trace

    # one-plus-z is real, random-0 complex; both take damped steps on
    # their lowest rung
    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("name", ["one-plus-z", "random-0"])
    def test_each_point_evaluated_once(self, monkeypatch, name, p):
        # the trial point the line search accepts is the next iterate,
        # whose objective is not computed again
        calls, inside = [], [False]
        objective, newton = solver._objective, solver._newton

        def recording_objective(a, s):
            if inside[0]:
                calls[-1].append(a.tobytes())
            return objective(a, s)

        def recording_newton(*args):
            calls.append([])
            inside[0] = True
            try:
                return newton(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(solver, "_objective", recording_objective)
        monkeypatch.setattr(solver, "_newton", recording_newton)
        kernel, n = self.FAMILY[name]
        solve_extremal(ExtremalProblem(p=p, kernel=kernel, degree=n))
        assert len(calls) == len(_rungs(n))
        assert max(map(len, calls)) > 2
        for points in calls:
            assert len(set(points)) == len(points)


class TestTruncatedFamily:
    """Solves with the truncated kernel S_n k over P_n, level by level."""

    @staticmethod
    def solve_truncated(k, p, n):
        return solve_extremal(ExtremalProblem(
            p=p, kernel=taylor_truncate(k, n), degree=n))

    def test_constant_kernel(self):
        for n in [2, 4, 8]:
            F = self.solve_truncated(as_poly([1.0]), 4, n).F
            np.testing.assert_allclose(F.padded(1), [1.0], atol=1e-10)

    def test_p2_truncated_closed_form(self):
        rng = np.random.default_rng(53)
        k = random_poly(rng, 6)
        for n in [2, 4, 6]:
            F = self.solve_truncated(k, 2, n).F
            kn = as_poly(k.coeffs[:n + 1])
            expected = kn.coeffs / bergman_norm_even(kn, 2)
            np.testing.assert_allclose(
                F.padded(n + 1),
                np.concatenate([expected, np.zeros(n + 1 - len(expected))]),
                atol=1e-10,
            )

    def test_cauchy_differences_decrease(self):
        from bergex.spaces import hardy_norm_even

        k = as_poly((np.arange(33) + 1.0) ** -2.0 + 0j)
        f8, f16, f32 = (self.solve_truncated(k, 4, n).F
                        for n in [8, 16, 32])
        later = hardy_norm_even(f32 - f16, 4)
        earlier = hardy_norm_even(f16 - f8, 4)
        assert later < earlier


class TestBruteForceOracle:
    """The quadrature oracle against the solver, past criterion 2's p = 4
    and degree 3 up to the oracle's largest degree. J is strictly convex,
    so damped Newton from the one deterministic start finds its one
    minimum, to round-off."""

    @pytest.mark.parametrize("kernel", [[1.0, -0.6, 0.3],
                                        [1.0, 0.5j, -0.25 + 0.4j]],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("p, n", [(2, 8), (4, 3), (4, 8), (6, 5),
                                      (8, 5)])
    def test_matches_solver_from_two_seeds(self, p, n, kernel):
        # two calls give the same bits: the oracle draws nothing at random
        k = as_poly(kernel)
        F = solve_extremal(ExtremalProblem(p=p, kernel=k,
                                           degree=n)).F.padded(n + 1)
        one, two = (solver.brute_force_oracle(k, p, degree=n).padded(n + 1)
                    for _ in range(2))
        assert one.tobytes() == two.tobytes()
        assert np.max(np.abs(one - F)) <= 1e-12

    def test_shares_nothing_with_the_coefficient_machinery(self,
                                                          monkeypatch):
        # the oracle checks the solver only if it never calls the kernels
        # and the Newton solve that the solver is built from
        k = as_poly([1.0, 0.5j, -0.25 + 0.4j])
        F = solve_extremal(ExtremalProblem(p=6, kernel=k,
                                           degree=3)).F.padded(4)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the solver's machinery")
        for name in ("conv", "xcorr", "power", "_newton"):
            monkeypatch.setattr(solver, name, forbidden)
        oracle = solver.brute_force_oracle(k, 6, degree=3).padded(4)
        assert np.max(np.abs(oracle - F)) <= 1e-12

    def test_kernel_past_the_angular_grid(self):
        # at degree 3 the quadrature samples 16 angles, so c_16 z^16 would
        # alias onto c_0 if the oracle did not truncate the kernel to P_3
        k = power_decay_kernel(0.5, 40)
        F = solve_extremal(ExtremalProblem(p=4, kernel=k, degree=3)).F
        oracle = solver.brute_force_oracle(k, 4, degree=3)
        assert np.max(np.abs(oracle.padded(4) - F.padded(4))) <= 1e-8

    def test_kernel_vanishing_on_the_space_rejected(self):
        # the oracle takes the problem's rule, message and all
        with pytest.raises(ValueError, match="vanishes") as oracle:
            solver.brute_force_oracle(monomial(5), 4, degree=3)
        with pytest.raises(ValueError) as problem:
            ExtremalProblem(p=4, kernel=monomial(5), degree=3)
        assert str(oracle.value) == str(problem.value)

    @staticmethod
    def traced_peak(p):
        tracemalloc.start()
        try:
            solver.brute_force_oracle(as_poly([1.0, 1.0]), p, degree=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_at_large_p(self):
        # at p = 128 Gauss-Legendre in r^2 takes 98 radii of 512 angles,
        # half the radii a rule in r needs; with those the peak was 44 MB
        assert self.traced_peak(128) < 30e6

    def test_traced_peak_is_one_block(self):
        # at p = 256, 194 radii of 1024 angles, blocks of 64 radii: one
        # block's R and I are built at a time, where keeping every block's
        # took 44 MB
        assert self.traced_peak(256) < 30e6
