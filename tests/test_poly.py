"""Tests for the polynomial carriers and coefficient operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergex.poly import (
    ZERO,
    AnalyticPoly,
    antiderivative,
    as_poly,
    derivative,
    k_transform,
    monomial,
    multiply,
    power,
    shift,
    taylor_truncate,
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

    def test_k_transform_defining_identity(self):
        # (z K)' = k, exact in coefficients
        k = as_poly([1.0, 0.5, -2.0, 1.0j])
        K = k_transform(k)
        assert_coeffs(derivative(shift(K, 1)), k.coeffs)

    def test_k_transform_coefficients(self):
        k = as_poly([1.0, 1.0, 1.0])
        K = k_transform(k)
        np.testing.assert_allclose(K.coeffs, [1.0, 0.5, 1.0 / 3.0])

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
