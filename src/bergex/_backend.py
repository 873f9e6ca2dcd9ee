"""The two coefficient kernels every exact identity in bergex reduces to.

``conv`` is Cauchy convolution of coefficient vectors (polynomial
products, powers) and ``xcorr`` is one-sided cross-correlation
(gradients, Fourier coefficients of |f|^p). Both evaluate directly with
NumPy for small operands and switch to FFT-based evaluation above a
degree threshold, where the O(n^2) direct sums start to lose. The FFT
path has ``scipy.signal.fftconvolve``'s arithmetic without its slow import.
"""

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

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
