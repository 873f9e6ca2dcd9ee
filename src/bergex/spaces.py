"""Bergman and Hardy norms and pairings on the unit disc.

For even exponents everything reduces to exact coefficient identities:
with u = f^{p/2} and b its coefficient vector,

    ||f||_{A^p}^p = sum_m |b_m|^2 / (m+1)      (area measure, normalized)
    ||f||_{H^p}^p = sum_m |b_m|^2              (Parseval at r = 1)

so no quadrature error enters the even-p route at all, and every Fourier
coefficient of |f|^p on the circle comes out of one autocorrelation of b
(``abs_power_spectrum``). General exponents fall back to tensor quadrature
on the disc (Gauss-Legendre radially, uniform angularly) or to boundary
quadrature on the circle; each circle of samples is one inverse FFT of the
scaled coefficients a_t r^t.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import ifft
from scipy.special import roots_legendre

from ._backend import xcorr
from .poly import AnalyticPoly, power


def _angular_count(max_degree):
    """Smallest power of two >= 4*max_degree + 4.

    Uniform sampling with that many points integrates trigonometric
    polynomials of bandwidth 2*max_degree exactly (the worst case arising
    from |f|^p with p even and headroom for general-p integrands).
    """
    need = 4 * max(max_degree, 0) + 4
    return 1 << max(2, (need - 1).bit_length())


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor quadrature for integrals over the disc in polar form.

    ``radial_nodes`` holds (r, w) pairs on (0, 1) including the area
    factor, so sum w approximates integral_0^1 2r dr = 1 and a disc
    integral of g is sum_i w_i * mean_theta g(r_i e^{i theta}).
    """

    angular_count: int
    radial_nodes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.angular_count < 1 or not self.radial_nodes:
            raise ValueError("degenerate quadrature grid")

    @property
    def thetas(self):
        return 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count

    @property
    def radii(self):
        return np.array([r for r, _ in self.radial_nodes])

    @property
    def radial_weights(self):
        return np.array([w for _, w in self.radial_nodes])


def default_grid(max_degree, radial_count=64):
    """Grid exact for |poly|^p integrands up to the given degree.

    Radially: Gauss-Legendre mapped to (0, 1) with the 2r area weight
    folded into the returned weights. Angularly: power-of-two uniform
    sampling sized by ``_angular_count``.
    """
    x, w = roots_legendre(radial_count)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w * 2.0 * r
    nodes = tuple(zip(r.tolist(), wr.tolist()))
    return QuadratureGrid(_angular_count(max_degree), nodes)


@dataclass(frozen=True)
class HardyNormRequest:
    """Evaluation policy for general-exponent Hardy norms.

    For polynomials the integral means M_p(f, r) increase with r, so the
    supremum over radii is attained on the boundary and ``boundary_only``
    is exact. ``radial_sweep`` evaluates means on interior circles too,
    which is useful as a diagnostic of that monotonicity.
    """

    exponent: float
    radius_policy: str = "boundary_only"
    sweep_radii: tuple = ()

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("Hardy exponent must be positive")
        if self.radius_policy not in ("boundary_only", "radial_sweep"):
            raise ValueError(f"unknown radius policy {self.radius_policy!r}")


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
    """phi(f) for the functional represented by kernel k: integral f conj(k)."""
    return bergman_inner(f, k)


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
    times the inverse DFT of a_t r^t, with coefficients past ``count``
    folded onto t mod count (the samples cannot tell them apart).
    """
    scaled = f.coeffs * radius ** np.arange(len(f.coeffs))
    folded = np.zeros(-(-len(scaled) // count) * count, dtype=complex)
    folded[:len(scaled)] = scaled
    return count * ifft(folded.reshape(-1, count).sum(axis=0))


# Floor on the grid bandwidth for non-even exponents: |f|^p is then not a
# trigonometric polynomial, so convergence is spectral at best (zeros of f
# off the circle) and algebraic at worst (zeros on it). The floor keeps
# the default grid honest for low-degree inputs.
_GENERAL_MIN_BANDWIDTH = 256


def bergman_norm_general(f, p, grid=None):
    """||f||_{A^p} for real p > 1 by tensor quadrature over the disc."""
    if p <= 1:
        raise ValueError("Bergman exponent must exceed 1")
    if f.is_zero():
        return 0.0
    if grid is None:
        grid = default_grid(max(f.degree, _GENERAL_MIN_BANDWIDTH))
    total = 0.0
    for r, w in grid.radial_nodes:
        vals = _circle_values(f, r, grid.angular_count)
        total += w * float(np.mean(np.abs(vals) ** p))
    return total ** (1.0 / p)


def hardy_norm_general(f, p, request=None, grid=None):
    """||f||_{H^p} for real p > 0 by circle quadrature.

    With the default boundary_only policy this is a single mean over the
    unit circle; radial_sweep takes the max of means over the requested
    interior radii and the boundary.
    """
    if request is None:
        request = HardyNormRequest(exponent=p)
    if abs(request.exponent - p) > 0:
        raise ValueError("request exponent disagrees with p")
    if f.is_zero():
        return 0.0
    if grid is None:
        grid = default_grid(max(f.degree, _GENERAL_MIN_BANDWIDTH))
    radii = [1.0]
    if request.radius_policy == "radial_sweep":
        radii = sorted(set(request.sweep_radii) | {1.0})
    best = 0.0
    for r in radii:
        vals = _circle_values(f, r, grid.angular_count)
        best = max(best, float(np.mean(np.abs(vals) ** p)))
    return best ** (1.0 / p)


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

    Index m of the result equals fourier_coeff_abs_power(f, p, m); one
    cross-correlation replaces the per-frequency sums.
    """
    p = _require_even(p)
    u = power(f, p // 2)
    if u.is_zero():
        return np.zeros(0, dtype=complex)
    return xcorr(u.coeffs, u.coeffs)
