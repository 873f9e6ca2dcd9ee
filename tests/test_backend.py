"""The coefficient kernels against their definitions, on both dispatch paths.

``conv``, ``xcorr``, ``power`` and ``abs_power_xcorr`` evaluate directly
below ``FFT_THRESHOLD`` and by FFT above it; both paths must return the
defining sums to round-off.
"""

import numpy as np
import pytest

from bergex import _backend


def random_vectors(rng, n, m):
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return a, v


def xcorr_by_definition(a, v):
    """out[j] = sum_t a[t+j] * conj(v[t]), written out term by term."""
    return np.array([
        sum(a[t + j] * np.conj(v[t]) for t in range(min(len(a) - j, len(v))))
        for j in range(len(a))
    ])


class TestPythonKernels:
    def test_conv_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = random_vectors(rng, 9, 5)
        np.testing.assert_allclose(
            _backend.conv(a, b), np.convolve(a, b), rtol=1e-13
        )

    def test_xcorr_definition(self):
        rng = np.random.default_rng(1)
        a, v = random_vectors(rng, 8, 6)
        out = _backend.xcorr(a, v)
        assert np.max(np.abs(out - xcorr_by_definition(a, v))) <= 1e-12

    def test_xcorr_v_longer_than_a(self):
        rng = np.random.default_rng(2)
        a, v = random_vectors(rng, 4, 10)
        out = _backend.xcorr(a, v)
        assert len(out) == 4
        expected = sum(a[t] * np.conj(v[t]) for t in range(4))
        assert abs(out[0] - expected) <= 1e-12

    def test_empty_inputs(self):
        empty = np.zeros(0, dtype=complex)
        one = np.ones(1, dtype=complex)
        assert len(_backend.conv(empty, one)) == 0
        assert len(_backend.conv(one, empty)) == 0
        assert len(_backend.xcorr(empty, one)) == 0


class TestDispatch:
    def test_small_conv_uses_direct_result(self):
        rng = np.random.default_rng(3)
        a, b = random_vectors(rng, 10, 10)
        np.testing.assert_allclose(
            _backend.conv(a, b), np.convolve(a, b), rtol=1e-12
        )

    def test_large_conv_matches_direct(self):
        # output degree above the FFT threshold: both paths must agree
        rng = np.random.default_rng(4)
        half = _backend.FFT_THRESHOLD // 2 + 20
        a, b = random_vectors(rng, half, half)
        direct = np.convolve(a, b)
        dispatched = _backend.conv(a, b)
        scale = np.max(np.abs(direct))
        np.testing.assert_allclose(
            dispatched / scale, direct / scale, rtol=1e-12, atol=1e-12
        )

    def test_large_xcorr_matches_direct(self):
        rng = np.random.default_rng(5)
        big = _backend.FFT_THRESHOLD + 40
        a, v = random_vectors(rng, big, big - 30)
        direct = xcorr_by_definition(a, v)
        dispatched = _backend.xcorr(a, v)
        scale = np.max(np.abs(direct))
        np.testing.assert_allclose(
            dispatched / scale, direct / scale, rtol=1e-12, atol=1e-12
        )

    def test_xcorr_empty_v(self):
        a = np.ones(5, dtype=complex)
        out = _backend.xcorr(a, np.zeros(0, dtype=complex))
        assert np.all(out == 0)
        assert len(out) == 5

    def test_backend_name_is_known(self):
        assert _backend.backend_name() == "numpy"


def chained_power(a, m):
    """a^m as m chained np.convolve products, the constant 1 first."""
    out = np.ones(1, dtype=complex)
    for _ in range(m):
        out = np.convolve(out, a)
    return out


# one length whose powers m >= 2 stay below FFT_THRESHOLD, one whose
# powers and |f|^p spectra all go through one transform
SMALL, LARGE = 11, _backend.FFT_THRESHOLD // 2 + 11


def coefficient_vector(rng, n, real):
    a = rng.standard_normal(n) + 0j
    if not real:
        a += 1j * rng.standard_normal(n)
    return a


class TestTransformKernels:
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [SMALL, LARGE])
    @pytest.mark.parametrize("m", range(5))
    def test_power_matches_chained_products(self, m, n, real):
        a = coefficient_vector(np.random.default_rng(10 * m + n), n, real)
        expected = chained_power(a, m)
        out = _backend.power(a, m)
        assert out.dtype == complex and len(out) == len(expected)
        if m * (n - 1) < _backend.FFT_THRESHOLD:
            # the direct path takes the same products
            assert np.array_equal(out, expected)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out - expected)) <= 1e-14 * scale
        if not real and m >= 1:
            # sensitive to a conjugated result
            assert np.max(np.abs(np.conj(out) - expected)) > 0.1 * scale

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [SMALL, LARGE])
    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_abs_power_matches_correlated_power(self, p, n, real):
        a = coefficient_vector(np.random.default_rng(10 * p + n), n, real)
        u = chained_power(a, p // 2)
        expected = np.correlate(u, u, "full")[len(u) - 1:]
        out = _backend.abs_power_xcorr(a, p)
        assert out.dtype == complex and len(out) == len(u)
        if 2 * (len(u) - 1) < _backend.FFT_THRESHOLD:
            assert np.array_equal(out, expected)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out - expected)) <= 1e-14 * scale
        if not real:
            assert np.max(np.abs(np.conj(out) - expected)) > 0.1 * scale

    @pytest.mark.parametrize("n", [SMALL, LARGE])
    def test_real_input_gives_zero_imaginary_parts(self, n):
        a = coefficient_vector(np.random.default_rng(n), n, True)
        for m in range(5):
            assert not np.any(_backend.power(a, m).imag)
        for p in (2, 4, 6):
            assert not np.any(_backend.abs_power_xcorr(a, p).imag)

    def test_edge_cases(self):
        empty = np.zeros(0, dtype=complex)
        a = np.array([2.0, 1.0j])
        assert np.array_equal(_backend.power(empty, 0), [1.0])
        assert len(_backend.power(empty, 3)) == 0
        assert len(_backend.abs_power_xcorr(empty, 4)) == 0
        # m = 1 is a copy, not the caller's array
        out = _backend.power(a, 1)
        assert np.array_equal(out, a) and out is not a
        with pytest.raises(ValueError):
            _backend.power(a, -1)
