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
quadrature on the unit circle, at the power-of-two angle counts of
``_angular_count``. A real f, one whose coefficients ``AnalyticPoly``
stores as float64, is conjugate symmetric on each circle,
f(r e^{-i theta}) = conj f(r e^{i theta}), so its samples on the half
circle 0..pi give the mean of |f|^p with the inner angles counted twice;
complex coefficients take the full circle. Two routes compute the
samples of the same rule. ``_circle_means`` takes ``numpy.fft`` of the
scaled coefficients a_t r^t, one transform per block of 8 radii: the
unit circle of the Hardy norm and the disc rule from degree
``_PRODUCT_THRESHOLD`` up take it. Below that degree the disc rule
takes ``_product_means``: |f|^2 is a trigonometric polynomial of
bandwidth deg f on every circle, so a table of its radial
autocorrelations times a table of cosines and sines gives it on all
circles by matrix products, with no transform.

This module makes both choices a Hardy norm needs, and its callers make
neither. The route: ``hardy_norm_general`` takes Parseval at an even
exponent up to MAX_EXPONENT and circle quadrature at any other. The
scale: the disc rule samples f divided by the power of two of its
largest coefficient part (``poly.rescaled``); Hardy norms at exponents
up to MAX_EXPONENT need more, so ``hardy_norms`` divides f further by
the power of two at or above its boundary sup, sampled by one forward
FFT (``_boundary_sup``), which keeps |f|^p inside the float range, and
restores each norm by one ldexp. The growth and convergence studies take
their Hardy norms from ``hardy_norms``, and the hinfty criterion reads
``_boundary_sup``.
"""

import numpy as np
from numpy.fft import fft, rfft
from numpy.polynomial.legendre import leggauss

from ._backend import abs_power_xcorr, fft_length
from .kernelspec import MAX_EXPONENT, _check_exponent
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


def bergman_norm_even(f, p):
    """||f||_{A^p} for even p via the exact coefficient identity.

    It works on the coefficients as given, with no rescale: f = 1e200 (1 + z)
    gives inf at p = 4 and 1e-200 (1 + z) gives 0.0, where the norm is
    1.35e200 and 1.35e-200."""
    _check_exponent(p)
    u = power(f, p // 2)
    if u.is_zero():
        return 0.0
    t = np.arange(len(u.coeffs)) + 1.0
    return float(np.sum(np.abs(u.coeffs) ** 2 / t)) ** (1.0 / p)


def hardy_norm_even(f, p):
    """||f||_{H^p} for even p via Parseval on the boundary.

    It works on the coefficients as given, with no rescale: f = 1e200 (1 + z)
    gives inf at p = 4 and 1e-200 (1 + z) gives 0.0, where the norm is
    1.57e200 and 1.57e-200 (``hardy_norms`` avoids both)."""
    _check_exponent(p)
    u = power(f, p // 2)
    if u.is_zero():
        return 0.0
    return float(np.sum(np.abs(u.coeffs) ** 2)) ** (1.0 / p)


# Floor on the grid bandwidth for non-even exponents: |f|^p is then not a
# trigonometric polynomial, so convergence is spectral at best (zeros of f
# off the circle) and algebraic at worst (zeros on it). The floor keeps
# the default grid honest for low-degree inputs.
_GENERAL_MIN_BANDWIDTH = 256
_RADIAL_COUNT = 64
# Radii per block in _circle_means and _product_means. On the 2048 angles
# of every degree below 512, a block's largest temporary (8 circles of
# complex samples) is 256 kB.
_RADIUS_BLOCK = 8
# Degrees below this take the disc rule's samples from _product_means,
# the others from _circle_means. The quadrature table of
# benchmarks/bench_kernels.py times both routes on random polynomials of
# degree 8 to 255 (2-CPU x86-64 VM, NumPy 2.4, one BLAS thread, q = 4/3).
# In one run its crossover line read
#   complex from n = 37 (degree 36); real from n = 65 (degree 64)
# and over three runs: complex from degree 36-64, real 64-128. The
# product's tables grow with the degree and the FFTs hardly do, and from
# degree 45 the radial powers r^e hold subnormals. One threshold serves
# both kinds, so it sits below the earliest complex crossover; at degree
# 32 the complex product was still ahead in all three runs.
_PRODUCT_THRESHOLD = 32


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


def _half_circle_weights(count):
    """Weights of the count/2 + 1 angles 0..pi that give the mean over
    all ``count`` angles of a function even in the angle: 1/count at 0
    and pi, which occur once, and 2/count at the others."""
    weights = np.full(count // 2 + 1, 2.0 / count)
    weights[[0, -1]] = 1.0 / count
    return weights


def _circle_means(f, p, radii, count):
    """Mean of |f|^p over the ``count`` points r e^{2 pi i j / count}, for
    each radius r in ``radii`` and an even ``count`` of at least deg f + 1.

    Each block of _RADIUS_BLOCK radii is one FFT along the rows of the
    scaled coefficients a_t r^t, one row per radius, zero-padded to length
    ``count``. The forward FFT gives f at the angles -2 pi j / count, which
    run over the same points as the angles 2 pi j / count. Real
    (float64) coefficients give f(r e^{-i theta}) = conj f(r e^{i theta}),
    so |f| on the circle is |rfft| at the count/2 + 1 angles 0..pi,
    weighted by ``_half_circle_weights``.
    """
    coeffs = f.coeffs
    real = not np.iscomplexobj(coeffs)
    if real:
        weights = _half_circle_weights(count)
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


def _product_means(f, p, radii, count):
    """``_circle_means`` of the same arguments, for a ``count`` that is a
    power of two, from |f|^2 as a trigonometric polynomial in the angle,
    by matrix products:

        |f(r e^{i theta})|^2 = R_0(r) + 2 sum_{m>=1} Re(R_m(r) e^{i m theta}),
        R_m(r) = r^m sum_t a_{t+m} conj(a_t) r^{2t}.

    A table of the coefficients of R_0 and 2 R_m by power of r gives them
    at every radius in one product. A table of cos(m theta_j) at the
    count/2 + 1 angles 0..pi, gathered from one cosine vector, turns the
    real parts into |f|^2 on the circles, one product per block of
    _RADIUS_BLOCK radii. Real coefficients make every R_m real and |f|^2
    even in the angle, so the half circle and ``_half_circle_weights``
    give the mean. Complex ones stack [Re | Im] of the R_m over a table
    of cos(m theta_j) and sin(m theta_j): with -Im, the rows give |f|^2
    at theta_j, with +Im at -theta_j, and the mean over the circle is
    half the sum of the two halves' weighted sums. Round-off near a zero
    of f can leave |f|^2 below 0, so it is clipped at 0 before its p/2-th
    power. The radial powers r^e, e <= 2 deg f, are normal floats on the
    rule's radii up to degree 44, and |f|^2 neither under- nor overflows
    for the coefficients of size near 1 that ``bergman_norm_general``
    passes.
    """
    a = f.coeffs
    n = len(a)
    # table[e, m]: the coefficient of r^e in R_m, doubled for m >= 1
    table = np.zeros((2 * n - 1, n), a.dtype)
    for m in range(n):  # a_{t+m} conj(a_t) at e = 2t + m
        table[m:2 * n - 1 - m:2, m] = a[m:] * np.conj(a[:n - m])
    table[:, 1:] *= 2.0
    # np.dot, not @: matmul takes a slow loop at an inner dimension of 1
    radial = np.dot(np.asarray(radii, dtype=float)[:, None]
                    ** np.arange(2 * n - 1), table)
    real = not np.iscomplexobj(a)
    cosine = np.cos(2.0 * np.pi / count * np.arange(count))
    # the index of m theta_j in ``cosine``, m < n, j <= count/2, in place
    phase = np.multiply.outer(np.arange(n), np.arange(count // 2 + 1))
    phase &= count - 1
    trig = np.empty((n if real else 2 * n, count // 2 + 1))
    np.take(cosine, phase, out=trig[:n])
    weights = _half_circle_weights(count)
    if not real:
        # sin x = cos(x - pi/2); rows 2i and 2i + 1 are radius i at theta_j
        # and at -theta_j
        phase -= count // 4
        phase &= count - 1
        np.take(cosine, phase, out=trig[n:])
        radial = np.stack([np.hstack([radial.real, -radial.imag]),
                           np.hstack([radial.real, radial.imag])],
                          axis=1).reshape(-1, 2 * n)
        weights *= 0.5
    rows = _RADIUS_BLOCK if real else 2 * _RADIUS_BLOCK
    square = np.empty((rows, trig.shape[1]))  # one buffer for every block
    sums = np.empty(len(radial))
    for start in range(0, len(radial), rows):
        block = square[:len(radial[start:start + rows])]
        np.dot(radial[start:start + rows], trig, out=block)
        np.maximum(block, 0.0, out=block)
        np.power(block, p / 2.0, out=block)
        sums[start:start + rows] = block @ weights
    return sums if real else sums[0::2] + sums[1::2]


def bergman_norm_general(f, p):
    """||f||_{A^p} for real p > 1 by tensor quadrature over the disc.

    The samples are those of f divided by the power of two of its largest
    coefficient part (``rescaled``), and the norm is scaled back by
    ``ldexp``, so that neither |f|^p nor the |f|^2 of ``_product_means``
    leaves the float range at any scale of f.
    """
    if p <= 1:
        raise ValueError("Bergman exponent must exceed 1")
    if f.is_zero():
        return 0.0
    count = _angular_count(max(f.degree, _GENERAL_MIN_BANDWIDTH))
    means_of = (_product_means if f.degree < _PRODUCT_THRESHOLD
                else _circle_means)
    c, _, e = rescaled(f.coeffs)
    means = means_of(AnalyticPoly(c), p, _RADII, count)
    with np.errstate(over="ignore"):  # inf past the float range
        return float(np.ldexp(float(_RADIAL_WEIGHTS @ means) ** (1.0 / p),
                              e))


def hardy_norm_general(f, p):
    """||f||_{H^p} for finite real p > 0: exact at an even p, else by
    quadrature on the unit circle.

    A p within 1e-9 of an even integer in 2..MAX_EXPONENT takes Parseval,
    ``hardy_norm_even`` at that integer; any other p, an even one above
    MAX_EXPONENT included, takes the mean of |f|^p on the circle. For
    polynomials the integral means M_p(f, r) increase with r, so the
    supremum over radii is the boundary mean. Neither route rescales f
    (``hardy_norms`` does).
    """
    if not 0 < p < np.inf:
        raise ValueError("Hardy exponent must be positive and finite")
    even = round(p)
    if abs(p - even) < 1e-9 and even % 2 == 0 and 2 <= even <= MAX_EXPONENT:
        return hardy_norm_even(f, even)
    if f.is_zero():
        return 0.0
    count = _angular_count(max(f.degree, _GENERAL_MIN_BANDWIDTH))
    return float(_circle_means(f, p, [1.0], count)[0]) ** (1.0 / p)


def _boundary_sup(f):
    """max |f| sampled on the unit circle by one forward FFT.

    At least 1024 angles; the forward FFT samples f at the angles
    -2 pi j / grid, the same points as ``_circle_means``'."""
    grid = _angular_count(max(f.degree, 255))
    return float(np.max(np.abs(fft(f.coeffs, grid))))


def _sup_scaled(f):
    """(g, e) with f = 2^e g, for Hardy norms at any exponent: f divided
    by the power of two of its largest coefficient part (``rescaled``),
    where its samples cannot overflow, then by the power of two at or
    above the sampled boundary sup of that (``_boundary_sup``), so that
    |g|^p stays near or below 1. A norm of g scaled back by one ldexp of
    e is that of f; the zero polynomial gives itself and e = 0."""
    c, _, e = rescaled(f.coeffs)
    c, _, e_sup = rescaled(c, _boundary_sup(AnalyticPoly(c)))
    return AnalyticPoly(c), e + e_sup


def hardy_norms(f, exponents):
    """[||f||_{H^p} for p in exponents] at any scale of f, from one
    ``_sup_scaled`` sample: each is ``hardy_norm_general`` of the scaled
    polynomial, restored by one ldexp, and inf past the float range."""
    g, e = _sup_scaled(f)
    with np.errstate(over="ignore"):
        return [float(np.ldexp(hardy_norm_general(g, p), e))
                for p in exponents]


def fourier_coeff_abs_power(f, p, m):
    """Fourier coefficient of |f|^p on the circle at frequency m, p even.

    Returns (1/2pi) integral |f(e^{it})|^p e^{-imt} dt. Writing
    u = f^{p/2} this is the exact autocorrelation sum_t u_{t+m} conj(u_t)
    for m >= 0, and the conjugate of that for m < 0, since |f|^p is real.
    """
    _check_exponent(p)
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
    _check_exponent(p)
    return abs_power_xcorr(f.coeffs, p)
