"""Tests for the polynomial carriers and coefficient operations."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergex import _backend, poly
from bergex.poly import (
    ZERO,
    AnalyticPoly,
    antiderivative,
    as_poly,
    derivative,
    monomial,
    multiply,
    power,
    shift,
    taylor_truncate,
    trimmed,
)


def coefficient_vectors(max_degree=16):
    """Strategy: complex coefficient vectors with bounded entries."""
    entry = st.tuples(
        st.floats(-4.0, 4.0, allow_nan=False),
        st.floats(-4.0, 4.0, allow_nan=False),
    ).map(lambda t: complex(*t))
    return st.lists(entry, min_size=0, max_size=max_degree + 1)


def assert_coeffs(f, expected):
    """f's stored coefficients are exactly ``expected``, trimmed."""
    np.testing.assert_array_equal(f.coeffs,
                                  np.asarray(expected, dtype=complex))


class TestAnalyticPoly:
    def test_trailing_zeros_trimmed(self):
        f = AnalyticPoly(np.array([1.0, 2.0, 0.0, 0.0], dtype=complex))
        assert f.degree == 1
        assert len(f.coeffs) == 2
        # exact zeros of either sign go; the smallest subnormal stays
        signed_zeros = np.array([1.0, -0.0, complex(0.0, -0.0)])
        assert AnalyticPoly(signed_zeros).degree == 0
        assert AnalyticPoly(np.array([1.0, 5e-324j])).degree == 1

    def test_zero_polynomial_conventions(self):
        assert ZERO.is_zero()
        assert ZERO.degree == -1
        assert AnalyticPoly(np.zeros(5, dtype=complex)).is_zero()
        assert_coeffs(AnalyticPoly(), [])

    def test_padded(self):
        f = as_poly([1.0, 2.0])
        padded = f.padded(4)
        assert padded.shape == (4,)
        assert padded[3] == 0j
        padded[0] = 99.0  # returned array is a private copy
        assert f.coeffs[0] == 1.0

    def test_coeffs_not_writable(self):
        f = as_poly([1.0, 2.0])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_evaluation_matches_horner(self):
        f = as_poly([1.0, -2.0, 3.0])
        z = 0.5 + 0.25j
        assert f(z) == pytest.approx(1.0 - 2.0 * z + 3.0 * z * z)

    def test_evaluation_vectorized(self):
        f = as_poly([1.0, 1.0])
        zs = np.array([0.0, 0.5, 1.0j])
        np.testing.assert_allclose(f(zs), 1.0 + zs)

    def test_zero_evaluation(self):
        assert ZERO(0.3) == 0j
        assert np.all(ZERO(np.array([0.1, 0.2])) == 0)

    def test_arithmetic(self):
        f = as_poly([1.0, 2.0])
        g = as_poly([0.0, 1.0, 1.0])
        assert_coeffs(f + g, [1.0, 3.0, 1.0])
        assert_coeffs(f + 2.0, [3.0, 2.0])
        assert (f - f).is_zero()

    def test_equality_ignores_representation(self):
        # trailing zeros do not reach the stored coefficients
        assert_coeffs(as_poly([1.0, 0.0]), as_poly([1.0]).coeffs)
        assert not np.array_equal(as_poly([1.0]).coeffs, as_poly([2.0]).coeffs)

    def test_high_degrees_need_no_setup(self):
        f = AnalyticPoly(np.ones(2000))
        assert f.degree == 1999
        assert power(f, 2).degree == 3998


class TestOperations:
    def test_monomial(self):
        assert_coeffs(monomial(3), [0.0, 0.0, 0.0, 1.0])
        assert_coeffs(monomial(0, 2.5), [2.5])

    def test_multiply_small(self):
        f = as_poly([1.0, 1.0])
        assert_coeffs(multiply(f, f), [1.0, 2.0, 1.0])

    def test_multiply_zero(self):
        assert multiply(ZERO, as_poly([1.0, 2.0])).is_zero()
        assert multiply(as_poly([1.0]), ZERO).is_zero()

    def test_power(self):
        f = as_poly([1.0, 1.0])
        assert_coeffs(power(f, 0), [1.0])
        assert_coeffs(power(f, 3), [1.0, 3.0, 3.0, 1.0])
        with pytest.raises(ValueError):
            power(f, -1)

    def test_derivative(self):
        f = as_poly([5.0, 1.0, 2.0, 4.0])
        assert_coeffs(derivative(f), [1.0, 4.0, 12.0])
        assert derivative(as_poly([1.0])).is_zero()
        assert derivative(ZERO).is_zero()

    def test_antiderivative_inverts_derivative(self):
        f = as_poly([1.0, 2.0, 3.0])
        assert_coeffs(derivative(antiderivative(f)), f.coeffs)
        assert antiderivative(f).coeffs[0] == 0j

    def test_taylor_truncate(self):
        f = as_poly([1.0, 2.0, 3.0, 4.0])
        assert_coeffs(taylor_truncate(f, 1), [1.0, 2.0])
        assert_coeffs(taylor_truncate(f, 10), f.coeffs)
        assert_coeffs(taylor_truncate(f, 0), [1.0])
        with pytest.raises(ValueError):
            taylor_truncate(f, -1)

    def test_shift(self):
        f = as_poly([1.0, 2.0])
        assert_coeffs(shift(f, 2), [0.0, 0.0, 1.0, 2.0])
        assert shift(ZERO, 3).is_zero()
        assert_coeffs(shift(f, 0), f.coeffs)

    @given(coefficient_vectors(12), coefficient_vectors(12))
    @settings(max_examples=60, deadline=None)
    def test_multiply_commutative(self, a, b):
        f, g = as_poly(a), as_poly(b)
        fg, gf = multiply(f, g), multiply(g, f)
        n = max(len(fg.coeffs), len(gf.coeffs))
        np.testing.assert_allclose(fg.padded(n), gf.padded(n),
                                   rtol=1e-12, atol=1e-12)

    @given(coefficient_vectors(8), coefficient_vectors(8), coefficient_vectors(8))
    @settings(max_examples=40, deadline=None)
    def test_multiply_associative(self, a, b, c):
        f, g, h = as_poly(a), as_poly(b), as_poly(c)
        left = multiply(multiply(f, g), h)
        right = multiply(f, multiply(g, h))
        n = max(len(left.coeffs), len(right.coeffs), 1)
        scale = max(1.0, np.max(np.abs(left.padded(n))))
        np.testing.assert_allclose(left.padded(n) / scale, right.padded(n) / scale,
                                   rtol=1e-12, atol=1e-12)

    @given(coefficient_vectors(10))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_consistent_with_product(self, a):
        f = as_poly(a)
        g = multiply(f, f)
        z = 0.37 - 0.21j
        assert abs(g(z) - f(z) ** 2) <= 1e-9 * max(1.0, abs(f(z)) ** 2)


def signed_zero_vectors(max_degree=12):
    """Strategy: complex vectors whose real parts include -0.0 and whose
    imaginary parts are +0.0, -0.0 or nonzero; in about half the draws
    every imaginary part is +0.0."""
    part = st.floats(-4.0, 4.0, allow_nan=False)
    real = st.sampled_from([0.0, -0.0]) | part
    imag = st.sampled_from([0.0, -0.0]) | part.filter(bool)
    entries = (st.builds(complex, real, st.just(0.0))
               | st.builds(complex, real, imag))
    return st.lists(entries, max_size=max_degree + 1) | st.lists(
        st.builds(complex, real, st.just(0.0)), max_size=max_degree + 1)


class TestRealness:
    """The one realness rule: float64 storage exactly when no imaginary
    bit is set, and no bit lost either way."""

    @given(signed_zero_vectors(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_float64_exactly_when_every_imaginary_part_is_plus_zero(
            self, values, extra):
        c = trimmed(np.array(values, dtype=complex))
        f = AnalyticPoly(np.array(values, dtype=complex))
        real = all(x.imag == 0.0 and math.copysign(1.0, x.imag) > 0
                   for x in c)
        assert f.coeffs.dtype == (np.float64 if real else complex)
        padded = f.padded(len(c) + extra)
        assert padded.dtype == f.coeffs.dtype
        expected = np.concatenate([c, np.zeros(extra, dtype=complex)])
        assert padded.astype(complex).tobytes() == expected.tobytes()

    def test_defaults_and_copies_keep_the_dtype(self):
        assert AnalyticPoly().coeffs.dtype == np.float64
        assert as_poly([1.0, 2.0]).coeffs.dtype == np.float64
        assert as_poly([1.0, complex(2.0, -0.0)]).coeffs.dtype == complex
        f = as_poly([1.0, 0.5])
        for g in (shift(f, 2), antiderivative(f), derivative(f),
                  taylor_truncate(f, 0), f + f, monomial(3)):
            assert g.coeffs.dtype == np.float64

    @pytest.mark.parametrize("threshold", [None, 0])
    def test_power_of_a_real_poly_is_float64(self, threshold, monkeypatch):
        # both paths, direct products and one transform, return real
        # coefficients, the imaginary part never rounded in
        if threshold is not None:
            monkeypatch.setattr(_backend, "FFT_THRESHOLD", threshold)
        f = as_poly(np.random.default_rng(5).standard_normal(40))
        expected = np.ones(1)
        for m in range(5):
            out = power(f, m).coeffs
            assert out.dtype == np.float64
            np.testing.assert_allclose(out, expected, rtol=0,
                                       atol=1e-14 * np.max(np.abs(expected)))
            expected = np.convolve(expected, f.coeffs)


def test_only_poly_decides_realness_by_value():
    # AnalyticPoly decides once whether coefficients are real; every other
    # module of the package reads the dtype instead of the imaginary parts
    by_value = re.compile(
        r"(np\.any|np\.all|count_nonzero|np\.isreal)\([^)]*\.imag"
        r"|\.imag\.(any|all)\(")
    package = Path(poly.__file__).parent
    assert by_value.search((package / "poly.py").read_text(encoding="utf-8"))
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "poly.py" and by_value.search(
                     path.read_text(encoding="utf-8"))]
    assert offenders == []
