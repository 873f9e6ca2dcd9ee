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

Real operands stay real. Each kernel takes a complex-typed operand as
complex and any other as float64, and returns float64 when no operand
is complex-typed: the direct path is then a real ``np.convolve``, with a
quarter of the multiplications of a complex one, and the FFT path real
transforms of half the size (Frigo & Johnson, "The Design and
Implementation of FFTW3", Proc. IEEE 93, 2005). A complex-typed operand,
alone or mixed with a real one, gives a complex result. The kernels read
the dtype alone, never the values: ``AnalyticPoly`` stores a real
polynomial as float64 (``poly``), so its callers pass real coefficients
as float64.
"""

import numpy as np

# Operations whose full output degree (len(a) + len(b) - 2, p deg f for
# |f|^p, m deg f for f^m) is below this run directly. The tables of
# benchmarks/bench_kernels.py time both paths (2-CPU x86-64 VM, NumPy 2.4,
# one BLAS thread, 200 repeats). In one run their crossover lines read
#   conv:  crossover, fft ahead: complex from n = 384 (output degree 766);
#          real from n = 768 (output degree 1534)
#   xcorr: crossover, fft ahead: complex from n = 384 (output degree 766);
#          real from n = 768 (output degree 1534)
#   power: p = 4: crossover, fft ahead: complex from n = 112 (output
#          degree 444); real from n = 128 (output degree 508)
#          p = 6: crossover, fft ahead: complex from n = 64 (output
#          degree 378); real from n = 112 (output degree 666)
# and over three runs: conv and xcorr complex 766-894, real 1534; |f|^p
# complex 378-444, real 508 (p = 4) and 474-666 (p = 6). One transform of
# f replaces a chain of products and a correlation, so |f|^p leads near
# 500 where a single real product waits for 1534; 512 sits at the real
# |f|^p crossovers. End to end, 512 and 768 are level on the perfbench
# family workload, and its certify workload, mostly |f|^p spectra,
# favours 512: alternating the thresholds over whole passes in one
# process, 768 and 1024 took 0.997 and 1.005 of the time at 512 on family
# (seed 1, 60 passes each) and 1.043 and 1.070 on certify (seed 1, 40
# passes each; medians of the per-pass ratios).
FFT_THRESHOLD = 512


def backend_name():
    """Name of the kernel implementation; always "numpy"."""
    return "numpy"


def fft_length(length):
    """Smallest power of two >= length: the length of every transform."""
    return 1 << (length - 1).bit_length()


_KEPT_DTYPES = (np.dtype(float), np.dtype(complex))


def _operand(a):
    """``a`` as a complex array if it is complex-typed, else as float64;
    an array of either dtype already is returned as it is."""
    a = np.asarray(a)
    if a.dtype in _KEPT_DTYPES:
        return a
    return a.astype(complex if a.dtype.kind == "c" else float)


def _pointwise(arrays, count, length, fn):
    """First ``count`` coefficients of the inverse transform of
    fn(*samples), the samples of each of ``arrays`` on fft_length(length)
    points of the circle. Without a complex-typed operand the transforms
    are real, half the size, and the result is float64.
    """
    size = fft_length(length)
    if not any(np.iscomplexobj(a) for a in arrays):
        samples = [np.fft.rfft(a, size) for a in arrays]
        return np.fft.irfft(fn(*samples), size)[:count]
    return np.fft.ifft(fn(*[np.fft.fft(a, size) for a in arrays]))[:count]


def conv(a, b):
    """Cauchy convolution, dispatching direct vs FFT on output size."""
    a, b = _operand(a), _operand(b)
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.result_type(a, b))
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
    v = _operand(v)
    if len(v) == 0:
        return np.zeros(len(a), dtype=np.result_type(_operand(a), v))
    return conv(a, np.conj(v)[::-1])[len(v) - 1:]


def power(a, m):
    """Coefficients of f^m for f = sum a_t z^t; the constant 1 at m = 0.

    m - 1 direct ``conv`` products while the output degree m (len(a) - 1)
    is below FFT_THRESHOLD, and at m = 1. Otherwise one transform of
    length at least m deg f + 1, raised to the m-th power and inverted.
    """
    a = _operand(a)
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return np.ones(1, dtype=a.dtype)
    if len(a) == 0:
        return np.zeros(0, dtype=a.dtype)
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
    a = _operand(a)
    s = p // 2
    if len(a) == 0:
        return np.zeros(0, dtype=a.dtype)
    count = s * (len(a) - 1) + 1
    if 2 * (count - 1) < FFT_THRESHOLD:
        u = power(a, s)
        return xcorr(u, u)
    return _pointwise((a,), count, 2 * count - 1,
                      lambda x: (x.real ** 2 + x.imag ** 2) ** s)
