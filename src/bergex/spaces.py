"""Bergman and Hardy norms and pairings on the unit disc.

For even exponents everything reduces to exact coefficient identities:
with u = f^{p/2} and b its coefficient vector,

    ||f||_{A^p}^p = sum_m |b_m|^2 / (m+1)      (area measure, normalized)
    ||f||_{H^p}^p = sum_m |b_m|^2              (Parseval at r = 1)

so no quadrature error enters the even-p route at all, and every Fourier
coefficient of |f|^p on the circle comes out of one autocorrelation of b
(``abs_power_spectrum``). Above the FFT threshold of ``_backend``
neither u nor that autocorrelation is built from products: u is a
polynomial of degree (p/2) deg f and |f|^p a trigonometric polynomial of
that bandwidth, so one transform of f on enough points of the circle,
its pointwise power and one inverse give either of them to round-off
(``_backend.power``, ``_backend.abs_power_xcorr``).

General exponents fall back to tensor quadrature on the disc (64
Gauss-Legendre radii from NumPy's ``leggauss``, uniform angles) or to
quadrature on the unit circle. The circles are sampled by ``numpy.fft``
of the scaled coefficients a_t r^t, at the power-of-two angle counts of
``_angular_count``, one transform per block of 8 radii
(``_circle_means``). Real coefficients are conjugate symmetric on each
circle, f(r e^{-i theta}) = conj f(r e^{i theta}), so their real FFT
samples the half circle 0..pi and the mean of |f|^p counts the inner
angles twice; complex coefficients take the full FFT, which samples f at
the angles -theta_j, the same set of points.
"""

import numpy as np
from numpy.fft import fft, ifft, rfft
from numpy.polynomial.legendre import leggauss

from ._backend import abs_power_xcorr, fft_length
from .poly import AnalyticPoly, power, rescaled


def _angular_count(max_degree):
    """Smallest power of two >= 4*max_degree + 4.

    Uniform sampling with that many points integrates trigonometric
    polynomials of bandwidth 2*max_degree exactly (the worst case arising
    from |f|^p with p even and headroom for general-p integrands).
    """
    return fft_length(4 * max(max_degree, 0) + 4)


def bergman_inner(f, g):
    """Exact Bergman pairing integral_D f conj(g) dsigma for polynomials.

    Monomial orthogonality gives sum_t a_t conj(b_t) / (t+1).
    """
    n = min(len(f.coeffs), len(g.coeffs))
    if n == 0:
        return 0j
    t = np.arange(n) + 1.0
    return complex(np.sum(f.coeffs[:n] * np.conj(g.coeffs[:n]) / t))


def functional_value(k, f):
    """phi(f) = integral f conj(k), summed on the ``rescaled`` kernel and
    restored by ldexp: past the float range its parts are inf, not NaN."""
    c, _, e = rescaled(k.coeffs)
    value = bergman_inner(f, AnalyticPoly(c))
    with np.errstate(over="ignore"):
        return complex(*np.ldexp([value.real, value.imag], e))


def hardy_inner(f, g):
    """Exact boundary pairing (1/2pi) integral f conj(g) dtheta = sum a_t conj(b_t)."""
    n = min(len(f.coeffs), len(g.coeffs))
    if n == 0:
        return 0j
    return complex(np.sum(f.coeffs[:n] * np.conj(g.coeffs[:n])))


def _require_even(p):
    if p < 2 or p != int(p) or int(p) % 2 != 0:
        raise ValueError(f"exponent must be an even integer >= 2, got {p}")
    return int(p)


def bergman_norm_even(f, p):
    """||f||_{A^p} for even p via the exact coefficient identity."""
    p = _require_even(p)
    u = power(f, p // 2)
    if u.is_zero():
        return 0.0
    t = np.arange(len(u.coeffs)) + 1.0
    return float(np.sum(np.abs(u.coeffs) ** 2 / t)) ** (1.0 / p)


def hardy_norm_even(f, p):
    """||f||_{H^p} for even p via Parseval on the boundary."""
    p = _require_even(p)
    u = power(f, p // 2)
    if u.is_zero():
        return 0.0
    return float(np.sum(np.abs(u.coeffs) ** 2)) ** (1.0 / p)


def _circle_values(f, radius, count):
    """f at the ``count`` points radius * e^{2 pi i j / count}, j = 0..count-1.

    f(r e^{i theta_j}) = sum_t a_t r^t e^{2 pi i j t / count} is ``count``
    times the inverse DFT of a_t r^t, zero-padded to length ``count``,
    which must be at least deg f + 1. Every caller takes ``count`` from
    ``_angular_count``, at least 4 deg f + 4.
    """
    scaled = f.coeffs * radius ** np.arange(len(f.coeffs))
    return count * ifft(scaled, count)


# Floor on the grid bandwidth for non-even exponents: |f|^p is then not a
# trigonometric polynomial, so convergence is spectral at best (zeros of f
# off the circle) and algebraic at worst (zeros on it). The floor keeps
# the default grid honest for low-degree inputs.
_GENERAL_MIN_BANDWIDTH = 256
_RADIAL_COUNT = 64
# Radii per FFT in _circle_means. On the 2048 angles of every degree below
# 512, a block's largest temporary (8 circles of complex samples) is 256 kB.
_RADIUS_BLOCK = 8


def _radial_rule(count):
    """Gauss-Legendre radii on (0, 1) and weights with the area weight 2r
    folded in, so that the weights sum to the area 1. Read-only arrays."""
    x, w = leggauss(count)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w * 2.0 * r
    r.setflags(write=False)
    wr.setflags(write=False)
    return r, wr


_RADII, _RADIAL_WEIGHTS = _radial_rule(_RADIAL_COUNT)


def _circle_means(f, p, radii, count):
    """Mean of |f|^p over the ``count`` points r e^{2 pi i j / count}, for
    each radius r in ``radii`` and an even ``count`` of at least deg f + 1.

    Each block of _RADIUS_BLOCK radii is one FFT along the rows of the
    scaled coefficients a_t r^t, one row per radius, zero-padded to length
    ``count``. The forward FFT gives f at the angles -2 pi j / count, which
    run over the same points as _circle_values' angles, so the mean over
    them is the same without the inverse's scaling. Real coefficients give
    f(r e^{-i theta}) = conj f(r e^{i theta}), so |f| on the circle is
    |rfft| at the count/2 + 1 angles 0..pi: the mean weights the angles 0
    and pi by 1/count and the others by 2/count.
    """
    coeffs = f.coeffs
    real = not np.any(coeffs.imag)
    if real:
        coeffs = coeffs.real
        weights = np.full(count // 2 + 1, 2.0 / count)
        weights[[0, -1]] = 1.0 / count
    powers = np.arange(len(coeffs))
    means = []
    for start in range(0, len(radii), _RADIUS_BLOCK):
        block = np.asarray(radii[start:start + _RADIUS_BLOCK], dtype=float)
        scaled = coeffs * block[:, None] ** powers
        if real:
            means.append(np.abs(rfft(scaled, count)) ** p @ weights)
        else:
            means.append(np.mean(np.abs(fft(scaled, count)) ** p, axis=1))
    return np.concatenate(means)


def bergman_norm_general(f, p):
    """||f||_{A^p} for real p > 1 by tensor quadrature over the disc."""
    if p <= 1:
        raise ValueError("Bergman exponent must exceed 1")
    if f.is_zero():
        return 0.0
    count = _angular_count(max(f.degree, _GENERAL_MIN_BANDWIDTH))
    means = _circle_means(f, p, _RADII, count)
    return float(_RADIAL_WEIGHTS @ means) ** (1.0 / p)


def hardy_norm_general(f, p):
    """||f||_{H^p} for real p > 0 by quadrature on the unit circle.

    For polynomials the integral means M_p(f, r) increase with r, so the
    supremum over radii is the boundary mean.
    """
    if p <= 0:
        raise ValueError("Hardy exponent must be positive")
    if f.is_zero():
        return 0.0
    count = _angular_count(max(f.degree, _GENERAL_MIN_BANDWIDTH))
    return float(_circle_means(f, p, [1.0], count)[0]) ** (1.0 / p)


def fourier_coeff_abs_power(f, p, m):
    """Fourier coefficient of |f|^p on the circle at frequency m, p even.

    Returns (1/2pi) integral |f(e^{it})|^p e^{-imt} dt. Writing
    u = f^{p/2} this is the exact autocorrelation sum_t u_{t+m} conj(u_t)
    for m >= 0, and the conjugate of that for m < 0, since |f|^p is real.
    """
    p = _require_even(p)
    m = int(m)
    u = power(f, p // 2)
    if u.is_zero() or abs(m) >= len(u.coeffs):
        return 0j
    if m >= 0:
        tail = np.dot(u.coeffs[m:], np.conj(u.coeffs[:len(u.coeffs) - m]))
        return complex(tail)
    return complex(np.conj(fourier_coeff_abs_power(f, p, -m)))


def abs_power_spectrum(f, p):
    """All nonnegative-frequency Fourier coefficients of |f|^p at once.

    Index m of the result equals fourier_coeff_abs_power(f, p, m), for
    m = 0..(p/2) deg f; the zero polynomial gives an empty array. One
    autocorrelation of f^{p/2} replaces the per-frequency sums
    (``_backend.abs_power_xcorr``): above the FFT threshold it is one
    transform of f, the pointwise |.|^p and one inverse.
    """
    return abs_power_xcorr(f.coeffs, _require_even(p))
