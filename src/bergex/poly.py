"""Analytic polynomials on the unit disc.

``AnalyticPoly`` carries a finite Taylor coefficient vector a_0..a_n for
f(z) = sum a_n z^n on the unit disc. It is the function carrier every
other module consumes: kernels, extremal candidates, derivatives, all of
it is coefficient arithmetic here.

Coefficient storage is dense from index zero. Construction trims trailing
coefficients that are exactly zero, so the degree is well defined and the
zero polynomial is the canonical empty vector. Construction also decides,
once for bergex, whether a polynomial is real: it stores float64 when
every imaginary part is +0.0, so that no bit is dropped, and complex128
otherwise (-0.0 included). Every other module reads that dtype. The class
itself only evaluates, pads, adds and subtracts; products, powers and the
other coefficient maps are the module's functions. Two polynomials are
compared by their ``coeffs`` or ``padded`` arrays: the class defines no
equality.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import _backend
from ._backend import conv


def trimmed(coeffs):
    """The coefficient array without its trailing zeros, as a view."""
    if len(coeffs) == 0 or coeffs[-1] != 0:
        return coeffs
    nonzero = np.flatnonzero(coeffs)
    return coeffs[:nonzero[-1] + 1 if len(nonzero) else 0]


@dataclass(frozen=True, eq=False)
class AnalyticPoly:
    """Finite Taylor series f(z) = sum_{t=0}^{n} coeffs[t] z^t.

    Immutable. The zero polynomial has an empty coefficient vector and
    degree -1 by convention, which keeps degree queries total.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.dtype != np.float64:
            arr = trimmed(np.asarray(arr, dtype=complex))
            # +0.0 is the one float whose bits are all zero
            if not np.any(arr.imag.view(np.int64)):
                arr = arr.real
        arr = np.array(trimmed(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 0

    def padded(self, length):
        """Coefficients as a writable array of the given length, same dtype."""
        out = np.zeros(length, dtype=self.coeffs.dtype)
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


ZERO = AnalyticPoly()


def as_poly(value):
    """Coerce a scalar or coefficient sequence into an AnalyticPoly."""
    if isinstance(value, AnalyticPoly):
        return value
    return AnalyticPoly(np.atleast_1d(value))


def monomial(t, coefficient=1.0):
    """The polynomial coefficient * z^t."""
    c = np.zeros(t + 1, dtype=complex)
    c[t] = coefficient
    return AnalyticPoly(c)


def multiply(f, g):
    """Product of two polynomials via coefficient convolution."""
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
    out = np.zeros(len(f.coeffs) + 1, dtype=f.coeffs.dtype)
    out[1:] = f.coeffs / (np.arange(len(f.coeffs)) + 1.0)
    return AnalyticPoly(out)


def rescaled(c, d=None):
    """(c / 2^e, d / 2^e, e) for the power of two with |d| in (2^(e-1), 2^e].

    The extremal problem is homogeneous in the kernel, so every kernel-side
    computation divides the kernel by this power of two before it sums
    anything: with d = ||phi|| where it has one, else the default d, the
    largest |Re c_t| or |Im c_t|, which is finite where |c_t| may not be.
    A d past the float range has no exponent, so c's largest part stands
    in for it there, and d / 2^e stays inf. Each part of c is scaled by
    ldexp, since 2^-e itself can overflow, and exactly wherever it does
    not underflow; c keeps its dtype.
    """
    c = np.ascontiguousarray(c)
    parts = c.view(np.float64)  # Re, Im interleaved
    if d is None:
        d = float(np.max(np.abs(parts), initial=0.0))
    mantissa, e = math.frexp(d if math.isfinite(d) else
                             float(np.max(np.abs(parts), initial=0.0)))
    if abs(mantissa) == 0.5:  # a power of two keeps its scale
        e -= 1
    return np.ldexp(parts, -e).view(c.dtype), math.ldexp(d, -e), e


def taylor_truncate(f, n):
    """The n-th Taylor polynomial S_n f (coefficients above n dropped)."""
    if n < 0:
        raise ValueError("truncation order must be nonnegative")
    return AnalyticPoly(f.coeffs[:n + 1].copy())


def shift(f, m):
    """Multiply by z^m, shifting coefficients up by m slots."""
    if f.is_zero():
        return ZERO
    out = np.zeros(len(f.coeffs) + m, dtype=f.coeffs.dtype)
    out[m:] = f.coeffs
    return AnalyticPoly(out)


def get_max_degree():
    """Always infinite; kept only because perfbench/workloads.py imports it."""
    return math.inf


@contextlib.contextmanager
def degree_cap(n):
    """Does nothing; kept only because perfbench/workloads.py imports it."""
    yield
