"""The coefficient kernels against their definitions, on both dispatch paths.

``conv`` and ``xcorr`` evaluate directly below ``FFT_THRESHOLD`` and by
FFT above it; both paths must return the defining sums to round-off.
"""

import numpy as np

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
