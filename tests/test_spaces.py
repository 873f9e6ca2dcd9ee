"""Tests for Bergman/Hardy norms, pairings, and Fourier coefficients."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergex import _backend, spaces
from bergex.poly import as_poly, monomial
from bergex.spaces import (
    _angular_count,
    _boundary_sup,
    _circle_means,
    _product_means,
    _sup_scaled,
    abs_power_spectrum,
    bergman_inner,
    bergman_norm_even,
    bergman_norm_general,
    fourier_coeff_abs_power,
    functional_value,
    hardy_inner,
    hardy_norm_even,
    hardy_norm_general,
    hardy_norms,
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
        # hardy_norm_general takes the exact route at an even p, so the
        # circle rule is called directly
        f = as_poly([1.0, 1.0])
        assert bergman_norm_general(f, 4.0) == pytest.approx(
            bergman_norm_even(f, 4), rel=1e-10
        )
        assert _circle_means(f, 4.0, [1.0], grid_count(f))[0] ** 0.25 == (
            pytest.approx(hardy_norm_even(f, 4), rel=1e-10))

    @pytest.mark.parametrize("p", [2, 4, 4.0 + 1e-12, 1024])
    def test_even_exponent_takes_the_exact_route(self, p):
        # within 1e-9 of an even integer up to MAX_EXPONENT: Parseval,
        # bit for bit
        f = as_poly([0.5, 0.25j, -0.125])
        assert hardy_norm_general(f, p) == hardy_norm_even(f, round(p))

    @pytest.mark.parametrize("p", [2.7, 2048.0])
    def test_other_exponents_take_quadrature(self, p):
        # 2048 is even but past MAX_EXPONENT, where hardy_norm_even raises
        f = as_poly([0.5, 0.25j, -0.125])
        expected = _circle_means(f, p, [1.0], grid_count(f))[0] ** (1.0 / p)
        assert 0.0 < hardy_norm_general(f, p) == expected

    def test_nonpositive_exponent_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                hardy_norm_general(as_poly([1.0]), bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, bad):
        # the route's rounding needs a finite p
        with pytest.raises(ValueError, match="positive and finite"):
            hardy_norm_general(as_poly([1.0, 1.0]), bad)

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


def horner_means(f, p, radii, count):
    """Mean of |f|^p over count equispaced points on each circle, with f
    evaluated by Horner: the oracle for the FFT quadrature."""
    angles = np.exp(2j * np.pi * np.arange(count) / count)
    return np.array([np.mean(np.abs(f(r * angles)) ** p) for r in radii])


def grid_count(f):
    return _angular_count(max(f.degree, spaces._GENERAL_MIN_BANDWIDTH))


def random_poly(rng, degree, kind):
    c = rng.standard_normal(degree + 1)
    if kind == "complex":
        c = c + 1j * rng.standard_normal(degree + 1)
    return as_poly(c)


def disc_norm(means, p):
    """The disc rule's norm from the means on its circles."""
    return float(spaces._RADIAL_WEIGHTS @ means) ** (1.0 / p)


# values of spaces._PRODUCT_THRESHOLD that force either route of
# bergman_norm_general at every degree
PRODUCT_ROUTE, FFT_ROUTE = math.inf, 0


class TestCircleMeans:
    """Batched circle quadrature: one FFT per block of radii, or below
    _PRODUCT_THRESHOLD one matrix product per block, and the half circle
    for real coefficients."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [6.0 / 5.0, 4.0 / 3.0, 2.7])
    def test_norms_match_horner_on_the_same_grid(self, kind, p):
        # one degree on each side of the threshold, so both routes of the
        # disc rule meet the oracle
        rng = np.random.default_rng(7)
        threshold = spaces._PRODUCT_THRESHOLD
        for degree in (threshold - 1, max(threshold, 40)):
            f = random_poly(rng, degree, kind)
            count = grid_count(f)
            means = horner_means(f, p, spaces._RADII, count)
            assert bergman_norm_general(f, p) == pytest.approx(
                disc_norm(means, p), rel=1e-13)
            assert hardy_norm_general(f, p) == pytest.approx(
                horner_means(f, p, [1.0], count)[0] ** (1.0 / p), rel=1e-13)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [6.0 / 5.0, 4.0 / 3.0, 2.7])
    def test_routes_agree_below_the_threshold(self, kind, p, monkeypatch):
        rng = np.random.default_rng(11)
        for degree in range(spaces._PRODUCT_THRESHOLD):
            f = random_poly(rng, degree, kind)
            norms = []
            for route in (PRODUCT_ROUTE, FFT_ROUTE):
                monkeypatch.setattr(spaces, "_PRODUCT_THRESHOLD", route)
                norms.append(bergman_norm_general(f, p))
            assert norms[0] == pytest.approx(norms[1], rel=1e-14), degree

    @pytest.mark.parametrize("route", [PRODUCT_ROUTE, FFT_ROUTE])
    @pytest.mark.parametrize("angle", [0, 5])
    def test_zero_on_a_node(self, route, angle, monkeypatch):
        # z - r_i e^{i theta_j} vanishes at a point of the rule, where |f|^2
        # by the product rounds below 0 for some radii r_i (a real f at
        # angle 0, a complex one at angle 5 of the 2048)
        monkeypatch.setattr(spaces, "_PRODUCT_THRESHOLD", route)
        p = 4.0 / 3.0
        for radius in spaces._RADII:
            f = as_poly([-radius * np.exp(2j * np.pi * angle / 2048), 1.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                norm = bergman_norm_general(f, p)
            assert math.isfinite(norm)
            means = horner_means(f, p, spaces._RADII, grid_count(f))
            assert norm == pytest.approx(disc_norm(means, p), rel=1e-13)

    @pytest.mark.parametrize("route", [PRODUCT_ROUTE, FFT_ROUTE])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("scale", [-1000, -700, 700, 1020])
    def test_scale_by_a_power_of_two(self, route, kind, scale, monkeypatch):
        # |f|^2 of f at 2^-700 underflows and at 2^700 overflows, and
        # |f|^p past 2^1020 overflows, but the norm of 2^k f is 2^k times
        # that of f, bit for bit: the samples are those of the same f
        monkeypatch.setattr(spaces, "_PRODUCT_THRESHOLD", route)
        f = random_poly(np.random.default_rng(5), 6, kind)
        f = as_poly(f.coeffs / np.max(np.abs(f.coeffs.view(float))))
        g = as_poly(np.ldexp(f.coeffs.view(float), scale).view(
            f.coeffs.dtype))
        expected = math.ldexp(bergman_norm_general(f, 1.5), scale)
        assert bergman_norm_general(g, 1.5) == expected

    @pytest.mark.parametrize("route", [PRODUCT_ROUTE, FFT_ROUTE])
    def test_zero_polynomial(self, route, monkeypatch):
        monkeypatch.setattr(spaces, "_PRODUCT_THRESHOLD", route)
        zero = as_poly([])
        assert bergman_norm_general(zero, 4.0 / 3.0) == 0.0
        assert hardy_norm_general(zero, 2.7) == 0.0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("count", [16, 64])
    def test_product_means_match_horner(self, kind, count):
        # 19 radii: two full blocks and a partial one; degree count/2
        rng = np.random.default_rng(count)
        f = random_poly(rng, count // 2, kind)
        radii = np.sort(rng.uniform(0.05, 1.0, 19))
        np.testing.assert_allclose(_product_means(f, 1.5, radii, count),
                                   horner_means(f, 1.5, radii, count),
                                   rtol=1e-13)

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


class TestSupScaled:
    """One scale for Hardy norms at any exponent: f = 2^e g with the
    sampled boundary sup of g in (1/2, 1]."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("scale", [-1000, -700, 700, 1023])
    def test_scale_by_a_power_of_two(self, kind, scale):
        # f's largest coefficient part is 1 and its sup above 2, so the
        # boundary sup of 2^1023 f overflows; |f|^p at p = 1000 overflows
        # or underflows at every scale but the sup's. 2^k f gives the g of
        # f and e + k
        f = random_poly(np.random.default_rng(7), 6, kind)
        f = as_poly(f.coeffs / np.max(np.abs(f.coeffs.view(float))))
        g, e = _sup_scaled(f)
        assert _boundary_sup(f) > 2.0
        assert 0.5 < _boundary_sup(g) <= 1.0
        scaled = as_poly(np.ldexp(f.coeffs.view(float), scale).view(
            f.coeffs.dtype))
        g_scaled, e_scaled = _sup_scaled(scaled)
        np.testing.assert_array_equal(g_scaled.coeffs, g.coeffs)
        assert e_scaled == e + scale
        assert 0.0 < hardy_norm_general(g, 1000.5) <= 1.0

    def test_zero_polynomial(self):
        # the convergence study's reference row, F_N - F_N, reads exactly 0
        g, e = _sup_scaled(as_poly([]))
        assert g.is_zero() and e == 0
        assert hardy_norms(as_poly([]), [64, 2.7]) == [0.0, 0.0]

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("scale", [-1000, 700, 1023])
    def test_norms_scale_by_a_power_of_two(self, kind, scale):
        # the exact route, quadrature and a p = 1000.5 at which |f|^p
        # leaves the float range unscaled: hardy_norms(2^k f) is ldexp of
        # hardy_norms(f), inf where that passes the float maximum
        f = random_poly(np.random.default_rng(7), 6, kind)
        f = as_poly(f.coeffs / np.max(np.abs(f.coeffs.view(float))))
        exponents = [2, 4.0, 2.7, 1000.5, 1024]
        scaled = as_poly(np.ldexp(f.coeffs.view(float), scale).view(
            f.coeffs.dtype))
        with np.errstate(over="ignore"):
            expected = [float(np.ldexp(norm, scale))
                        for norm in hardy_norms(f, exponents)]
        assert hardy_norms(scaled, exponents) == expected
        assert all(0.0 < norm for norm in expected)
        # f's norms at p = 1000.5 and 1024 lie above 2
        assert (math.inf in expected) == (scale == 1023)


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

    @pytest.mark.parametrize("threshold", [None, 0])
    def test_spectrum_of_a_real_poly_is_float64(self, threshold,
                                                monkeypatch):
        # a real f has a real |f|^p spectrum on both paths, the direct
        # correlation and one transform, the imaginary part never rounded in
        if threshold is not None:
            monkeypatch.setattr(_backend, "FFT_THRESHOLD", threshold)
        f = as_poly(np.random.default_rng(9).standard_normal(40))
        for p in (2, 4, 6):
            spectrum = abs_power_spectrum(f, p)
            assert spectrum.dtype == np.float64
            expected = [fourier_coeff_abs_power(f, p, m)
                        for m in range(len(spectrum))]
            np.testing.assert_allclose(spectrum, expected, rtol=0,
                                       atol=1e-14 * spectrum[0])


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
