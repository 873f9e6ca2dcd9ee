"""Analytic polynomials on the unit disc.

``AnalyticPoly`` carries a finite Taylor coefficient vector a_0..a_n for
f(z) = sum a_n z^n on the unit disc. It is the function carrier every
other module consumes: kernels, extremal candidates, derivatives, all of
it is coefficient arithmetic here.

Coefficient storage is dense from index zero. Construction trims trailing
zeros, so the degree is well defined and the zero polynomial is the
canonical empty vector.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import _backend
from ._backend import conv

# Trailing coefficients at or below this magnitude are treated as zero
# when trimming. Exact zeros are the common case; the tiny absolute
# threshold only guards against -0.0 style artifacts.
_TRIM_TOL = 0.0


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and abs(coeffs[end - 1]) <= _TRIM_TOL:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class AnalyticPoly:
    """Finite Taylor series f(z) = sum_{t=0}^{n} coeffs[t] z^t.

    Immutable. The zero polynomial has an empty coefficient vector and
    degree -1 by convention, which keeps degree queries total.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        arr = _trim(np.asarray(self.coeffs, dtype=complex))
        arr = np.array(arr, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 0

    def coeff(self, t):
        """Coefficient a_t, zero beyond the stored range."""
        if 0 <= t < len(self.coeffs):
            return complex(self.coeffs[t])
        return 0j

    def padded(self, length):
        """Coefficients as a writable array of the given length."""
        out = np.zeros(length, dtype=complex)
        m = min(length, len(self.coeffs))
        out[:m] = self.coeffs[:m]
        return out

    def __call__(self, z):
        """Evaluate by Horner at a point or an array of points."""
        if self.is_zero():
            return np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0j
        return np.polyval(self.coeffs[::-1], z)

    def __add__(self, other):
        other = as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return AnalyticPoly(self.padded(n) + other.padded(n))

    def __sub__(self, other):
        other = as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return AnalyticPoly(self.padded(n) - other.padded(n))

    def __neg__(self):
        return AnalyticPoly(-self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return AnalyticPoly(self.coeffs * other)
        return multiply(self, as_poly(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AnalyticPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __repr__(self):
        if self.is_zero():
            return "AnalyticPoly(0)"
        return f"AnalyticPoly(degree={self.degree})"


ZERO = AnalyticPoly()
ONE = AnalyticPoly(np.array([1.0 + 0j]))


def as_poly(value):
    """Coerce a scalar or coefficient sequence into an AnalyticPoly."""
    if isinstance(value, AnalyticPoly):
        return value
    if np.isscalar(value):
        return AnalyticPoly(np.array([value], dtype=complex))
    return AnalyticPoly(np.asarray(value, dtype=complex))


def monomial(t, coefficient=1.0):
    """The polynomial coefficient * z^t."""
    c = np.zeros(t + 1, dtype=complex)
    c[t] = coefficient
    return AnalyticPoly(c)


def multiply(f, g):
    """Product of two polynomials via coefficient convolution."""
    if f.is_zero() or g.is_zero():
        return ZERO
    return AnalyticPoly(conv(f.coeffs, g.coeffs))


def power(f, m):
    """f^m; power(f, 0) is the constant 1.

    ``_backend.power``: m - 1 direct products while the degree m deg f is
    below the FFT threshold, one transform of f above it.
    """
    return AnalyticPoly(_backend.power(f.coeffs, m))


def derivative(f):
    """Termwise derivative: coefficient t of f' is (t+1) a_{t+1}."""
    if f.degree < 1:
        return ZERO
    t = np.arange(1, len(f.coeffs))
    return AnalyticPoly(f.coeffs[1:] * t)


def antiderivative(f):
    """The primitive of f vanishing at 0: coefficient t+1 is a_t/(t+1)."""
    if f.is_zero():
        return ZERO
    out = np.zeros(len(f.coeffs) + 1, dtype=complex)
    out[1:] = f.coeffs / (np.arange(len(f.coeffs)) + 1.0)
    return AnalyticPoly(out)


def k_transform(k):
    """K with K(z) = (1/z) * integral of k from 0 to z.

    Coefficientwise this divides c_t by t+1, and the defining identity
    (z K)' = k holds exactly in coefficients.
    """
    if k.is_zero():
        return ZERO
    return AnalyticPoly(k.coeffs / (np.arange(len(k.coeffs)) + 1.0))


def taylor_truncate(f, n):
    """The n-th Taylor polynomial S_n f (coefficients above n dropped)."""
    if n < 0:
        raise ValueError("truncation order must be nonnegative")
    return AnalyticPoly(f.coeffs[:n + 1].copy())


def shift(f, m):
    """Multiply by z^m, shifting coefficients up by m slots."""
    if f.is_zero():
        return ZERO
    out = np.zeros(len(f.coeffs) + m, dtype=complex)
    out[m:] = f.coeffs
    return AnalyticPoly(out)


def get_max_degree():
    """Always infinite; kept only because perfbench/workloads.py imports it."""
    return math.inf


@contextlib.contextmanager
def degree_cap(n):
    """Does nothing; kept only because perfbench/workloads.py imports it."""
    yield
