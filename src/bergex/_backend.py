"""The four coefficient kernels every exact identity in bergex reduces to.

``conv`` is Cauchy convolution of coefficient vectors (polynomial
products) and ``xcorr`` is one-sided cross-correlation (gradients).
``power`` is the m-th power of a polynomial, and ``abs_power_xcorr``
the nonnegative-frequency Fourier coefficients of |f|^p on the circle,
p even: the autocorrelation of f^{p/2}. Below a degree threshold all
four evaluate by ``conv``'s ``np.convolve``, the one direct evaluator,
and above it through one routine, ``_pointwise``: ``numpy.fft``
transforms at a power of two long enough that nothing wraps around, a
pointwise function of the samples and one inverse. f^m and |f|^p are
pointwise in the samples of f, so one transform replaces m - 1 products
(and for |f|^p a correlation).
"""

import numpy as np

# Operations whose full output degree (len(a) + len(b) - 2) is below this
# run directly. benchmarks/bench_kernels.py times both paths: on equal
# operand lengths the direct NumPy path stays ahead of the transform, for
# both kernels, until an output degree near 750 for complex and 650 for
# real operands. End to end the gap is small: in one process alternating
# the thresholds over 30 whole passes of the perfbench family workload
# (seed 1, one BLAS thread, 2-CPU x86-64 VM), 512 and 768 took 0.968 and
# 0.972 of the time at 256 (medians of the per-pass ratios, lower in 26
# and 25 of 30 passes).
FFT_THRESHOLD = 256


def backend_name():
    """Name of the kernel implementation; always "numpy"."""
    return "numpy"


def fft_length(length):
    """Smallest power of two >= length: the length of every transform."""
    return 1 << (length - 1).bit_length()


def _pointwise(arrays, count, length, fn):
    """First ``count`` coefficients of the inverse transform of
    fn(*samples), the samples of each of ``arrays`` on fft_length(length)
    points of the circle. All-real operands take real transforms, half
    the size, and give imaginary parts exactly zero.
    """
    size = fft_length(length)
    if not any(np.count_nonzero(a.imag) for a in arrays):
        samples = [np.fft.rfft(a.real, size) for a in arrays]
        return np.fft.irfft(fn(*samples), size)[:count].astype(complex)
    return np.fft.ifft(fn(*[np.fft.fft(a, size) for a in arrays]))[:count]


def conv(a, b):
    """Cauchy convolution, dispatching direct vs FFT on output size."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=complex)
    n = len(a) + len(b) - 1
    if n - 1 < FFT_THRESHOLD:
        return np.convolve(a, b)
    return _pointwise((a, b), n, n, np.multiply)


def xcorr(a, v):
    """Nonnegative-lag cross-correlation out[j] = sum_t a[t+j]*conj(v[t]).

    Lags run from 0 to len(a)-1; terms with t+j beyond the end of ``a``
    are dropped, so ``v`` may be shorter or longer than ``a``. It is
    conv(a, reverse(conj(v)))[len(v)-1:], which for len(v) <= len(a) is
    bit for bit NumPy's full correlation below the threshold.
    """
    v = np.asarray(v, dtype=complex)
    if len(v) == 0:
        return np.zeros(len(a), dtype=complex)
    return conv(a, np.conj(v)[::-1])[len(v) - 1:]


def power(a, m):
    """Coefficients of f^m for f = sum a_t z^t; the constant 1 at m = 0.

    m - 1 direct ``conv`` products while the output degree m (len(a) - 1)
    is below FFT_THRESHOLD, and at m = 1. Otherwise one transform of
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
        out = a.copy()
        for _ in range(m - 1):
            out = conv(out, a)
        return out
    return _pointwise((a,), count, count, lambda x: x ** m)


def abs_power_xcorr(a, p):
    """Fourier coefficients b_0..b_{(p/2) deg f} of |f|^p on the circle.

    For even p and u = f^{p/2}, b_m = sum_t u_{t+m} conj(u_t), which is
    xcorr(u, u). The full autocorrelation has degree p deg f, and the
    dispatch follows ``xcorr``'s rule on it: below FFT_THRESHOLD it is
    xcorr(u, u) of u = power(a, p/2), both direct; otherwise one
    transform of length at least p deg f + 1 gives |f|^p at as many
    points on the circle, and its inverse the b_m.
    """
    a = np.asarray(a, dtype=complex)
    s = p // 2
    if len(a) == 0:
        return np.zeros(0, dtype=complex)
    count = s * (len(a) - 1) + 1
    if 2 * (count - 1) < FFT_THRESHOLD:
        u = power(a, s)
        return xcorr(u, u)
    return _pointwise((a,), count, 2 * count - 1,
                      lambda x: (x.real ** 2 + x.imag ** 2) ** s)
