"""Tests for the square function and the disc-pairing toolkit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergex.analysis import (
    antiderivative_product,
    cauchy_green_gap,
    disc_pairing,
    lp_g_function,
)
from bergex.poly import as_poly, monomial, taylor_truncate


def small_polys(max_degree=8):
    entry = st.tuples(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.floats(-2.0, 2.0, allow_nan=False),
    ).map(lambda t: complex(*t))
    return st.lists(entry, min_size=1, max_size=max_degree + 1).map(as_poly)


class TestGFunction:
    def test_monomial_z(self):
        for theta in (0.0, 1.0, 3.0):
            assert lp_g_function(monomial(1), theta) == pytest.approx(
                math.sqrt(0.5), rel=1e-10
            )

    def test_constant_is_zero(self):
        assert lp_g_function(as_poly([5.0]), 0.7) == 0.0

    def test_monomial_z_squared(self):
        for theta in (0.0, 2.0):
            assert lp_g_function(monomial(2), theta) == pytest.approx(
                math.sqrt(1.0 / 3.0), rel=1e-10
            )

    @given(small_polys(), st.floats(0.1, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, f, scale):
        base = lp_g_function(f, 0.9)
        scaled = lp_g_function(scale * f, 0.9)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)


class TestAntiderivativeProduct:
    def test_constant_times_z(self):
        assert antiderivative_product(as_poly([1.0]), monomial(1)) == monomial(1)

    def test_z_times_z(self):
        h = antiderivative_product(monomial(1), monomial(1))
        assert h == as_poly([0.0, 0.0, 0.5])

    def test_one_plus_z_pair(self):
        f = as_poly([1.0, 1.0])
        h = antiderivative_product(f, f)
        assert h == as_poly([0.0, 1.0, 0.5])

    def test_vanishes_at_origin(self):
        rng = np.random.default_rng(67)
        f1 = as_poly(rng.standard_normal(4))
        f2 = as_poly(rng.standard_normal(5))
        assert antiderivative_product(f1, f2).coeff(0) == 0j


class TestDiscPairing:
    def test_orthogonality_example(self):
        assert disc_pairing(monomial(1), as_poly([1.0]), monomial(1)) == 0.0

    def test_area_example(self):
        assert disc_pairing(as_poly([1.0]), as_poly([1.0]), monomial(1)) == 1.0

    def test_derived_example(self):
        value = disc_pairing(monomial(2), monomial(1), monomial(2))
        assert value == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_conjugate_linear_in_first_slot(self):
        rng = np.random.default_rng(71)
        f1 = as_poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        g1 = as_poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        f2, f3 = as_poly([1.0, 0.5]), as_poly([0.0, 1.0, 0.25])
        lam = 0.7 - 0.2j
        combined = disc_pairing(as_poly(lam * f1.coeffs) + g1, f2, f3)
        split = np.conj(lam) * disc_pairing(f1, f2, f3) + disc_pairing(g1, f2, f3)
        assert combined == pytest.approx(split, rel=1e-12)

    def test_linear_in_second_slot(self):
        rng = np.random.default_rng(73)
        f2 = as_poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        g2 = as_poly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        f1, f3 = as_poly([1.0, 1.0]), as_poly([0.0, 0.5, 0.5])
        lam = -1.3 + 0.4j
        combined = disc_pairing(f1, as_poly(lam * f2.coeffs) + g2, f3)
        split = lam * disc_pairing(f1, f2, f3) + disc_pairing(f1, g2, f3)
        assert combined == pytest.approx(split, rel=1e-12)

    @given(small_polys(4), small_polys(4), small_polys(4))
    @settings(max_examples=40, deadline=None)
    def test_cauchy_green_consistency(self, f1, f2, f3):
        assert cauchy_green_gap(f1, f2, f3) <= 1e-10


class TestKlbTruncation:
    """Truncation of the disc pairing in its third slot."""

    def test_exact_at_adequate_truncation(self):
        rng = np.random.default_rng(79)
        f1 = as_poly(rng.standard_normal(5))
        f2 = as_poly(rng.standard_normal(5))
        f3 = as_poly(rng.standard_normal(9))
        full = disc_pairing(f1, f2, f3)
        for n in (8, 12):
            assert disc_pairing(f1, f2, taylor_truncate(f3, n)) == full

    def test_truncation_to_constant_kills_derivative(self):
        f3 = as_poly([1.0, 2.0, 3.0])
        value = disc_pairing(as_poly([1.0]), as_poly([1.0]),
                             as_poly(f3.coeffs[:1]))
        assert value == 0.0
