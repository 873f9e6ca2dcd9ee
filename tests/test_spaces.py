"""Tests for Bergman/Hardy norms, pairings, and Fourier coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergex import spaces
from bergex.poly import as_poly, monomial
from bergex.spaces import (
    _angular_count,
    _circle_means,
    _circle_values,
    bergman_inner,
    bergman_norm_even,
    bergman_norm_general,
    fourier_coeff_abs_power,
    functional_value,
    hardy_inner,
    hardy_norm_even,
    hardy_norm_general,
)


def nonzero_polys(max_degree=10):
    entry = st.tuples(
        st.floats(-3.0, 3.0, allow_nan=False),
        st.floats(-3.0, 3.0, allow_nan=False),
    ).map(lambda t: complex(*t))
    return (
        st.lists(entry, min_size=1, max_size=max_degree + 1)
        .map(as_poly)
        .filter(lambda f: not f.is_zero())
    )


def real_polys(max_degree=10):
    """Real coefficients, one of them at least 0.1 in size: |f|^p of a
    polynomial of subnormal size would underflow."""
    return (
        st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1,
                 max_size=max_degree + 1)
        .filter(lambda c: max(map(abs, c)) >= 0.1)
        .map(as_poly)
    )


class TestQuadratureGrid:
    def test_angular_count_power_of_two(self):
        count = _angular_count(16)
        assert count >= 4 * 16 + 4
        assert count & (count - 1) == 0


class TestBergmanInner:
    def test_monomial_orthogonality(self):
        for a in range(5):
            for b in range(5):
                expected = 1.0 / (a + 1) if a == b else 0.0
                assert bergman_inner(monomial(a), monomial(b)) == expected

    def test_z_with_z(self):
        assert bergman_inner(monomial(1), monomial(1)) == 0.5

    def test_kernel_one_gives_mean_value(self):
        f = as_poly([3.0, 1.0, -2.0j])
        assert functional_value(as_poly([1.0]), f) == f(0)

    def test_mixed_example(self):
        # <2z, 1+z>_A = 2 * conj(1) / 2
        assert bergman_inner(as_poly([0.0, 2.0]), as_poly([1.0, 1.0])) == 1.0

    def test_conjugate_symmetry(self):
        f = as_poly([1.0, 2.0j])
        g = as_poly([0.5, -1.0])
        assert bergman_inner(f, g) == np.conj(bergman_inner(g, f))


class TestHardyInner:
    def test_examples(self):
        z = monomial(1)
        one_plus_z = as_poly([1.0, 1.0])
        assert hardy_inner(z, z) == 1.0
        assert hardy_inner(as_poly([1.0]), z) == 0.0
        assert hardy_inner(one_plus_z, one_plus_z) == 2.0


class TestEvenNorms:
    def test_constant(self):
        one = as_poly([1.0])
        for p in (2, 4, 6):
            assert bergman_norm_even(one, p) == 1.0
            assert hardy_norm_even(one, p) == 1.0

    def test_one_plus_z_bergman(self):
        f = as_poly([1.0, 1.0])
        assert bergman_norm_even(f, 2) == pytest.approx(math.sqrt(1.5), rel=1e-14)
        assert bergman_norm_even(f, 4) == pytest.approx((10.0 / 3.0) ** 0.25,
                                                        rel=1e-14)

    def test_one_plus_z_hardy(self):
        f = as_poly([1.0, 1.0])
        assert hardy_norm_even(f, 2) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert hardy_norm_even(f, 4) == pytest.approx(6.0 ** 0.25, rel=1e-14)

    def test_monomials_hardy_norm_one(self):
        for m in range(4):
            for p in (2, 4, 6):
                assert hardy_norm_even(monomial(m), p) == 1.0

    def test_odd_exponent_rejected(self):
        f = as_poly([1.0, 1.0])
        for bad in (3, 1, 0, 2.5, -2):
            with pytest.raises(ValueError):
                bergman_norm_even(f, bad)
            with pytest.raises(ValueError):
                hardy_norm_even(f, bad)

    def test_zero_polynomial(self):
        zero = as_poly([])
        assert bergman_norm_even(zero, 4) == 0.0
        assert hardy_norm_even(zero, 4) == 0.0


class TestGeneralNorms:
    def test_constant_any_exponent(self):
        one = as_poly([1.0])
        assert bergman_norm_general(one, 4.0 / 3.0) == pytest.approx(1.0, rel=1e-12)
        assert hardy_norm_general(one, 2.7) == pytest.approx(1.0, rel=1e-12)

    def test_monomial_bergman_closed_form(self):
        # integral of |z|^p over the disc is 2/(p+2)
        p = 4.0 / 3.0
        expected = (2.0 / (p + 2.0)) ** (1.0 / p)
        assert bergman_norm_general(monomial(1), p) == pytest.approx(
            expected, rel=1e-10
        )
        assert expected == pytest.approx((3.0 / 5.0) ** 0.75, rel=1e-15)

    def test_monomial_hardy_is_one(self):
        assert hardy_norm_general(monomial(1), 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_even_exponent_cross_check(self):
        f = as_poly([1.0, 1.0])
        assert bergman_norm_general(f, 4.0) == pytest.approx(
            bergman_norm_even(f, 4), rel=1e-10
        )
        assert hardy_norm_general(f, 4.0) == pytest.approx(
            hardy_norm_even(f, 4), rel=1e-10
        )

    def test_nonpositive_exponent_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                hardy_norm_general(as_poly([1.0]), bad)

    def test_low_exponent_rejected_for_bergman(self):
        with pytest.raises(ValueError):
            bergman_norm_general(as_poly([1.0]), 1.0)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_agreement_on_random_polys(self, p):
        rng = np.random.default_rng(90 + p)
        for _ in range(3):
            c = rng.standard_normal(33) + 1j * rng.standard_normal(33)
            f = as_poly(c)
            assert bergman_norm_general(f, float(p)) == pytest.approx(
                bergman_norm_even(f, p), rel=1e-9
            )


class TestCircleValues:
    """FFT circle sampling against Horner evaluation at the same points."""

    @pytest.mark.parametrize("radius, count, degree", [
        (0.3, 64, 20),
        (0.97, 256, 100),
        (1.0, 64, 40),
        (0.8, 32, 30),     # count = len(coeffs) + 1
    ])
    def test_matches_horner(self, radius, count, degree):
        rng = np.random.default_rng(degree + count)
        f = as_poly(rng.standard_normal(degree + 1)
                    + 1j * rng.standard_normal(degree + 1))
        z = radius * np.exp(2j * np.pi * np.arange(count) / count)
        scale = float(np.sum(np.abs(f.coeffs)))
        np.testing.assert_allclose(_circle_values(f, radius, count), f(z),
                                   rtol=0, atol=1e-14 * scale)

    def test_zero_polynomial(self):
        vals = _circle_values(as_poly([]), 0.5, 8)
        assert vals.shape == (8,)
        assert not vals.any()


def horner_means(f, p, radii, count):
    """Mean of |f|^p over count equispaced points on each circle, with f
    evaluated by Horner: the oracle for the FFT quadrature."""
    angles = np.exp(2j * np.pi * np.arange(count) / count)
    return np.array([np.mean(np.abs(f(r * angles)) ** p) for r in radii])


def grid_count(f):
    return _angular_count(max(f.degree, spaces._GENERAL_MIN_BANDWIDTH))


class TestCircleMeans:
    """Batched circle quadrature: one FFT per block of radii, and the half
    circle for real coefficients."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [6.0 / 5.0, 4.0 / 3.0, 2.7])
    def test_norms_match_horner_on_the_same_grid(self, kind, p):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(41)
        if kind == "complex":
            c = c + 1j * rng.standard_normal(41)
        f = as_poly(c)
        count = grid_count(f)
        means = horner_means(f, p, spaces._RADII, count)
        assert bergman_norm_general(f, p) == pytest.approx(
            float(spaces._RADIAL_WEIGHTS @ means) ** (1.0 / p), rel=1e-13)
        assert hardy_norm_general(f, p) == pytest.approx(
            horner_means(f, p, [1.0], count)[0] ** (1.0 / p), rel=1e-13)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("count", [16, 64])
    def test_means_match_horner(self, kind, count):
        # 19 radii: two full blocks and a partial one; degree count/2
        rng = np.random.default_rng(count)
        c = rng.standard_normal(count // 2 + 1)
        if kind == "complex":
            c = c + 1j * rng.standard_normal(count // 2 + 1)
        f = as_poly(c)
        radii = np.sort(rng.uniform(0.05, 1.0, 19))
        np.testing.assert_allclose(_circle_means(f, 1.5, radii, count),
                                   horner_means(f, 1.5, radii, count),
                                   rtol=1e-13)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("length", [1, 5, 8, 19])
    def test_blocks_agree_with_single_radii(self, kind, length):
        assert 19 % spaces._RADIUS_BLOCK and 5 < spaces._RADIUS_BLOCK
        rng = np.random.default_rng(length)
        c = rng.standard_normal(30)
        if kind == "complex":
            c = c + 1j * rng.standard_normal(30)
        f = as_poly(c)
        radii = spaces._RADII[-length:]
        means = _circle_means(f, 4.0 / 3.0, radii, 256)
        assert means.shape == (length,)
        for radius, mean in zip(radii, means):
            alone = _circle_means(f, 4.0 / 3.0, [radius], 256)
            assert alone[0] == pytest.approx(mean, rel=1e-15)

    @pytest.mark.parametrize("p", [6.0 / 5.0, 4.0 / 3.0, 2.7, 5.0])
    def test_forward_transform_matches_the_inverse(self, p):
        # complex coefficients: the forward FFT samples f at the angles
        # -theta_j, which are the angles theta_j of count * ifft over again
        rng = np.random.default_rng(3)
        c = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        f = as_poly(c)
        count = grid_count(f)
        scaled = c * spaces._RADII[:, None] ** np.arange(len(c))
        inverse = np.mean(np.abs(count * np.fft.ifft(scaled, count)) ** p,
                          axis=1)
        means = _circle_means(f, p, spaces._RADII, count)
        assert np.max(np.abs(means - inverse) / inverse) <= 1e-15

    @given(real_polys(), st.integers(1, 1023), st.floats(1.05, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_rotation_invariance(self, f, step, p):
        # a rotation by a multiple of the angular step maps the grid onto
        # itself; f(e^{i theta} z) has complex coefficients, so its norms
        # take the full circle where f's take the half circle
        count = grid_count(f)
        theta = 2.0 * np.pi * step / count
        g = as_poly(f.coeffs * np.exp(1j * theta * np.arange(len(f.coeffs))))
        assert bergman_norm_general(g, p) == pytest.approx(
            bergman_norm_general(f, p), rel=1e-13)
        assert hardy_norm_general(g, p) == pytest.approx(
            hardy_norm_general(f, p), rel=1e-13)


class TestFourierCoeffAbsPower:
    def test_constant(self):
        one = as_poly([1.0])
        assert fourier_coeff_abs_power(one, 4, 0) == 1.0
        assert fourier_coeff_abs_power(one, 4, 1) == 0.0
        assert fourier_coeff_abs_power(one, 4, -3) == 0.0

    def test_scaled_monomial(self):
        # |3^{1/4} z|^4 is identically 3 on the circle
        f = as_poly([0.0, 3.0 ** 0.25])
        assert fourier_coeff_abs_power(f, 4, 0) == pytest.approx(3.0, rel=1e-14)

    def test_hermitian_symmetry(self):
        f = as_poly([1.0, 2.0j, -0.5])
        for m in range(5):
            assert fourier_coeff_abs_power(f, 4, -m) == np.conj(
                fourier_coeff_abs_power(f, 4, m)
            )

    def test_zero_frequency_is_hardy_power(self):
        f = as_poly([1.0, 0.3j, 0.2])
        b0 = fourier_coeff_abs_power(f, 6, 0)
        assert b0.imag == 0.0
        # same sum of |coefficient|^2 on both sides; only the p-th root
        # round-trip separates them
        assert b0.real == pytest.approx(hardy_norm_even(f, 6) ** 6, rel=1e-13)

    def test_matches_direct_circle_integral(self):
        f = as_poly([1.0, 0.5, 0.25j])
        count = 64
        thetas = 2.0 * np.pi * np.arange(count) / count
        vals = np.abs(f(np.exp(1j * thetas))) ** 4
        for m in range(4):
            direct = np.mean(vals * np.exp(-1j * m * thetas))
            assert fourier_coeff_abs_power(f, 4, m) == pytest.approx(
                direct, abs=1e-12
            )


class TestNormProperties:
    @given(nonzero_polys())
    @settings(max_examples=60, deadline=None)
    def test_bergman_below_hardy(self, f):
        for p in (2, 4):
            assert bergman_norm_even(f, p) <= hardy_norm_even(f, p) * (1 + 1e-12)

    @given(nonzero_polys(), st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, f, scale):
        g = as_poly(scale * f.coeffs)
        for p in (2, 4):
            assert bergman_norm_even(g, p) == pytest.approx(
                scale * bergman_norm_even(f, p), rel=1e-12
            )
            assert hardy_norm_even(g, p) == pytest.approx(
                scale * hardy_norm_even(f, p), rel=1e-12
            )

    @given(nonzero_polys(max_degree=6))
    @settings(max_examples=30, deadline=None)
    def test_fourier_zero_equals_hardy_power(self, f):
        b0 = fourier_coeff_abs_power(f, 4, 0).real
        assert b0 == pytest.approx(hardy_norm_even(f, 4) ** 4, rel=1e-13)
