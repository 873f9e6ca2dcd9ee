"""The coefficient kernels against their definitions, on both dispatch paths.

``conv``, ``xcorr``, ``power`` and ``abs_power_xcorr`` evaluate directly
below ``FFT_THRESHOLD`` and by FFT above it; both paths must return the
defining sums to round-off. The direct path of all four is ``conv``'s
``np.convolve``, which the tests compare with NumPy's own correlation
and chained products bit for bit.
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


def operand_pairs(rng, n, m):
    """Complex operands, then two float64 ones, then a float64 and a
    complex one."""
    a, v = random_vectors(rng, n, m)
    return [(a, v), (a.real, v.real), (a.real, v)]


def assert_path_result(dispatched, direct, a, b):
    """``dispatched`` is ``direct`` to round-off. Two float64 operands
    give a float64 result; a float64 and a complex one take complex
    transforms, which keep the imaginary parts."""
    scale = np.max(np.abs(direct))
    np.testing.assert_allclose(
        dispatched / scale, direct / scale, rtol=1e-12, atol=1e-12
    )
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        assert dispatched.dtype == np.float64
    else:
        assert np.max(np.abs(dispatched.imag)) > 0.1 * scale


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
        # every lag, on the direct path and on the FFT path
        big = _backend.FFT_THRESHOLD
        for n, m in [(4, 10), (big // 2, big)]:
            for a, v in operand_pairs(np.random.default_rng(2), n, m):
                out = _backend.xcorr(a, v)
                assert len(out) == n
                assert_path_result(out, xcorr_by_definition(a, v), a, v)

    def test_small_xcorr_is_numpy_correlate(self):
        # below the threshold and with len(v) <= len(a), the convolution
        # with the reversed conjugate is NumPy's correlation bit for bit
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(1, _backend.FFT_THRESHOLD // 2))
            m = int(rng.integers(1, n + 1))
            for a, v in operand_pairs(rng, n, m):
                expected = np.correlate(a, v, "full")[m - 1:]
                assert _backend.xcorr(a, v).tobytes() == expected.tobytes()

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
        half = _backend.FFT_THRESHOLD // 2 + 20
        for a, b in operand_pairs(np.random.default_rng(4), half, half):
            direct = np.convolve(a, b)
            dispatched = _backend.conv(a, b)
            assert_path_result(dispatched, direct, a, b)

    def test_large_xcorr_matches_direct(self):
        big = _backend.FFT_THRESHOLD + 40
        for a, v in operand_pairs(np.random.default_rng(5), big, big - 30):
            direct = xcorr_by_definition(a, v)
            dispatched = _backend.xcorr(a, v)
            assert_path_result(dispatched, direct, a, v)

    def test_xcorr_empty_v(self):
        a = np.ones(5, dtype=complex)
        out = _backend.xcorr(a, np.zeros(0, dtype=complex))
        assert np.all(out == 0)
        assert len(out) == 5

    def test_backend_name_is_known(self):
        assert _backend.backend_name() == "numpy"


def chained_power(a, m):
    """a^m as m chained np.convolve products, the constant 1 first."""
    out = np.ones(1, dtype=a.dtype)
    for _ in range(m):
        out = np.convolve(out, a)
    return out


# Two operand lengths. Each test below runs at FFT_THRESHOLD as it is
# and again with every power and |f|^p spectrum forced through one
# transform (threshold 0), so both paths are covered whatever the
# threshold.
SMALL, LARGE = 11, 139
PINNED = (None, 0)


def pinned(monkeypatch, threshold):
    """Set FFT_THRESHOLD to ``threshold``, or leave it when None."""
    if threshold is not None:
        monkeypatch.setattr(_backend, "FFT_THRESHOLD", threshold)


def coefficient_vector(rng, n, real):
    """Float64 coefficients if ``real``, else complex ones."""
    a = rng.standard_normal(n)
    return a if real else a + 1j * rng.standard_normal(n)


class TestTransformKernels:
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [SMALL, LARGE])
    @pytest.mark.parametrize("m", range(5))
    def test_power_matches_chained_products(self, m, n, real, monkeypatch):
        a = coefficient_vector(np.random.default_rng(10 * m + n), n, real)
        expected = chained_power(a, m)
        scale = np.max(np.abs(expected))
        for threshold in PINNED:
            pinned(monkeypatch, threshold)
            out = _backend.power(a, m)
            assert out.dtype == a.dtype and len(out) == len(expected)
            if m * (n - 1) < _backend.FFT_THRESHOLD:
                # the direct path takes the same products
                assert np.array_equal(out, expected)
            assert np.max(np.abs(out - expected)) <= 1e-14 * scale
            if not real and m >= 1:
                # sensitive to a conjugated result
                assert np.max(np.abs(np.conj(out) - expected)) > 0.1 * scale

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [SMALL, LARGE])
    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_abs_power_matches_correlated_power(self, p, n, real,
                                                monkeypatch):
        a = coefficient_vector(np.random.default_rng(10 * p + n), n, real)
        u = chained_power(a, p // 2)
        expected = np.correlate(u, u, "full")[len(u) - 1:]
        scale = np.max(np.abs(expected))
        for threshold in PINNED:
            pinned(monkeypatch, threshold)
            out = _backend.abs_power_xcorr(a, p)
            assert out.dtype == a.dtype and len(out) == len(u)
            if 2 * (len(u) - 1) < _backend.FFT_THRESHOLD:
                assert np.array_equal(out, expected)
            assert np.max(np.abs(out - expected)) <= 1e-14 * scale
            if not real:
                assert np.max(np.abs(np.conj(out) - expected)) > 0.1 * scale

    @pytest.mark.parametrize("n", [SMALL, LARGE])
    def test_real_input_gives_zero_imaginary_parts(self, n, monkeypatch):
        # float64 in, float64 out: no imaginary part to round
        a = coefficient_vector(np.random.default_rng(n), n, True)
        for threshold in PINNED:
            pinned(monkeypatch, threshold)
            for m in range(5):
                assert _backend.power(a, m).dtype == np.float64
            for p in (2, 4, 6):
                assert _backend.abs_power_xcorr(a, p).dtype == np.float64

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


# conv, xcorr and power as calls on one or two operands of one length:
# all three run directly at the first, through a transform at the second
BOTH_PATHS = [pytest.param(SMALL, id="direct"),
              pytest.param(_backend.FFT_THRESHOLD // 2 + 11, id="fft")]
DTYPE_CALLS = [
    pytest.param(_backend.conv, 2, id="conv"),
    pytest.param(_backend.xcorr, 2, id="xcorr"),
    pytest.param(lambda a: _backend.power(a, 3), 1, id="power"),
]


class TestDtypes:
    """Float64 operands stay float64, and complex-typed or mixed ones
    give complex: the kernels read the dtype, never the values."""

    @pytest.mark.parametrize("n", BOTH_PATHS)
    @pytest.mark.parametrize("fn, arity", DTYPE_CALLS)
    def test_real_operands_give_float64(self, fn, arity, n):
        rng = np.random.default_rng(n + arity)
        args = [rng.standard_normal(n) for _ in range(arity)]
        out = fn(*args)
        assert out.dtype == np.float64
        # the same values complex-typed take the complex path
        typed = fn(*[x + 0j for x in args])
        assert typed.dtype == complex and len(out) == len(typed)
        scale = np.max(np.abs(typed))
        assert np.max(np.abs(out - typed)) <= 1e-15 * scale

    @pytest.mark.parametrize("n", BOTH_PATHS)
    @pytest.mark.parametrize("fn, arity", DTYPE_CALLS)
    def test_complex_and_mixed_operands_give_complex(self, fn, arity, n):
        rng = np.random.default_rng(n + arity)
        real = [rng.standard_normal(n) for _ in range(arity)]
        cplx = [x + 1j * rng.standard_normal(n) for x in real]
        cases = [cplx]
        if arity == 2:
            cases += [[cplx[0], real[1]], [real[0], cplx[1]]]
        for args in cases:
            out = fn(*args)
            assert out.dtype == complex
            expected = fn(*[x + 0j for x in args])
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(out - expected)) <= 1e-12 * scale
            assert np.max(np.abs(out.imag)) > 0.1 * scale

    def test_integer_operands_give_float64(self):
        assert _backend.conv([1, 2], [3]).dtype == np.float64
        assert _backend.power(np.arange(3), 2).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, complex])
    def test_edge_cases_keep_their_dtypes(self, dtype):
        empty, one = np.zeros(0, dtype), np.full(1, 2.0, dtype)
        for out in (_backend.conv(empty, one), _backend.conv(one, empty),
                    _backend.conv(one, one), _backend.xcorr(empty, one),
                    _backend.xcorr(one, empty), _backend.xcorr(one, one),
                    _backend.abs_power_xcorr(empty, 4),
                    _backend.abs_power_xcorr(one, 4),
                    *(_backend.power(x, m) for x in (empty, one)
                      for m in range(4))):
            assert out.dtype == dtype
        assert np.array_equal(_backend.conv(one, one), [4.0])
        assert np.array_equal(_backend.power(one, 3), [8.0])

    def test_mixed_edge_cases_give_complex(self):
        real, cplx = np.ones(1), np.ones(1, dtype=complex)
        for out in (_backend.conv(real[:0], cplx), _backend.conv(cplx, real),
                    _backend.xcorr(real, cplx[:0]),
                    _backend.xcorr(real, cplx)):
            assert out.dtype == complex
