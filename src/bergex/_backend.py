"""The four coefficient kernels every exact identity in bergex reduces to.

``conv`` is Cauchy convolution of coefficient vectors (polynomial
products) and ``xcorr`` is one-sided cross-correlation (gradients).
``power`` is the m-th power of a polynomial, and ``abs_power_xcorr``
the nonnegative-frequency Fourier coefficients of |f|^p on the circle,
p even: the autocorrelation of f^{p/2}. All four evaluate directly with
NumPy for small operands and switch to FFT-based evaluation above a
degree threshold, where the O(n^2) direct sums start to lose. The FFT
path of ``conv`` and ``xcorr`` has ``scipy.signal.fftconvolve``'s
arithmetic without its slow import.

``power`` and ``abs_power_xcorr`` take one forward transform of f
whatever the exponent: f^m and |f|^p are pointwise in the samples of f
on the circle, so one transform, a pointwise power and one inverse
replace m - 1 products (and for |f|^p one more correlation). The
transform is long enough that nothing wraps around: f^m has degree
m deg f, and |f|^p has frequencies -(p/2) deg f..(p/2) deg f. Real
coefficients take real transforms and give results whose imaginary
parts are exactly zero.
"""

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

# Operations whose full output degree (len(a) + len(b) - 2) is below this
# run directly. benchmarks/bench_kernels.py times both paths: on equal
# operand lengths the direct NumPy path stays ahead of the transform until
# an output degree of roughly 900 for both kernels, so 256 switches early.
FFT_THRESHOLD = 256


def backend_name():
    """Name of the kernel implementation; always "numpy"."""
    return "numpy"


def _fft_conv(a, b):
    """Full convolution of non-empty vectors, as fftconvolve computes it."""
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    size = next_fast_len(n, real=False)
    return ifft(fft(a, size) * fft(b, size))[:n]


def conv(a, b):
    """Cauchy convolution, dispatching direct vs FFT on output size."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=complex)
    if len(a) + len(b) - 2 < FFT_THRESHOLD:
        return np.convolve(a, b)
    return _fft_conv(a, b)


def xcorr(a, v):
    """Nonnegative-lag cross-correlation out[j] = sum_t a[t+j]*conj(v[t]).

    Lags run from 0 to len(a)-1; terms with t+j beyond the end of ``a``
    are dropped, so ``v`` may be shorter or longer than ``a``. Same
    dispatch rule as ``conv``; the FFT path uses the identity
    xcorr(a, v) = conv(a, reverse(conj(v)))[len(v)-1:].
    """
    a = np.asarray(a, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if len(a) == 0:
        return np.zeros(0, dtype=complex)
    if len(v) == 0:
        return np.zeros(len(a), dtype=complex)
    lo = len(v) - 1
    if len(a) + len(v) - 2 < FFT_THRESHOLD:
        return np.correlate(a, v, "full")[lo:lo + len(a)]
    return _fft_conv(a, np.conj(v)[::-1])[lo:lo + len(a)]


def _direct_power(a, m):
    """a^m for m >= 1 by m - 1 direct products, lowest power first."""
    out = a.copy()
    for _ in range(m - 1):
        out = np.convolve(out, a)
    return out


def _pointwise(a, count, length, fn):
    """First ``count`` coefficients of the inverse transform of fn(samples),
    for the samples of f on at least ``length`` points of the circle.

    Real ``a`` takes ``rfft``, the samples of the half circle, and the
    result's imaginary parts are exactly zero.
    """
    real = not np.any(a.imag)
    size = next_fast_len(length, real=real)
    if real:
        return irfft(fn(rfft(a.real, size)), size)[:count].astype(complex)
    return ifft(fn(fft(a, size)))[:count]


def power(a, m):
    """Coefficients of f^m for f = sum a_t z^t; the constant 1 at m = 0.

    Direct when the output degree m (len(a) - 1) is below FFT_THRESHOLD,
    as are m = 0 and 1, which take no product. Otherwise one transform of
    length at least m deg f + 1, raised to the m-th power and inverted.
    """
    a = np.asarray(a, dtype=complex)
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return np.ones(1, dtype=complex)
    if len(a) == 0:
        return np.zeros(0, dtype=complex)
    count = m * (len(a) - 1) + 1
    if m == 1 or count - 1 < FFT_THRESHOLD:
        return _direct_power(a, m)
    return _pointwise(a, count, count, lambda x: x ** m)


def abs_power_xcorr(a, p):
    """Fourier coefficients b_0..b_{(p/2) deg f} of |f|^p on the circle.

    For even p and u = f^{p/2}, b_m = sum_t u_{t+m} conj(u_t), which is
    xcorr(u, u). The full autocorrelation has degree p deg f, and the
    dispatch follows ``xcorr``'s rule on it: below FFT_THRESHOLD u comes
    from direct products and the sums from ``np.correlate``; otherwise one
    transform of length at least p deg f + 1 gives |f|^p at as many
    points on the circle, and its inverse the b_m.
    """
    a = np.asarray(a, dtype=complex)
    s = p // 2
    if len(a) == 0:
        return np.zeros(0, dtype=complex)
    count = s * (len(a) - 1) + 1
    if 2 * (count - 1) < FFT_THRESHOLD:
        u = _direct_power(a, s)
        return np.correlate(u, u, "full")[count - 1:]
    return _pointwise(a, count, 2 * count - 1,
                      lambda x: (x.real ** 2 + x.imag ** 2) ** s)
