"""Kernel recipes: declarative descriptions of functional kernels.

A KernelSpec is what configs and reports carry instead of raw coefficient
dumps: an explicit coefficient list, the power-decay family
c_t = (t+1)^(-alpha), or a truncation of another spec. ``realize``
produces the AnalyticPoly; ``describe`` gives a stable human-readable id
used to key study rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .families import power_decay_kernel
from .poly import AnalyticPoly, taylor_truncate


@dataclass(frozen=True)
class KernelSpec:
    type: str
    values: tuple = ()          # for type="coeffs": ((re, im), ...)
    alpha: float = None         # for type="power_decay"
    count: int = None           # for type="power_decay"
    inner: "KernelSpec" = None  # for type="truncate"
    n: int = None               # for type="truncate"

    def __post_init__(self):
        if self.type not in ("coeffs", "power_decay", "truncate"):
            raise ValueError(f"unknown kernel spec type {self.type!r}")
        if self.type == "coeffs":
            if not self.values:
                raise ValueError("coeffs spec needs at least one value")
            if not np.all(np.isfinite(self.values)):
                raise ValueError("coeffs spec values must be finite")
        elif self.type == "power_decay":
            if self.alpha is None or self.count is None or self.count < 1:
                raise ValueError("power_decay spec needs alpha and count >= 1")
            if not math.isfinite(self.alpha):
                raise ValueError("power_decay alpha must be finite")
        else:
            if self.inner is None or self.n is None or self.n < 0:
                raise ValueError("truncate spec needs an inner spec and n >= 0")


def coeffs_spec(values):
    """Spec from complex coefficients (or (re, im) pairs)."""
    pairs = []
    for v in values:
        if isinstance(v, (tuple, list)):
            pairs.append((float(v[0]), float(v[1])))
        else:
            v = complex(v)
            pairs.append((v.real, v.imag))
    return KernelSpec(type="coeffs", values=tuple(pairs))


def power_decay_spec(alpha, count):
    return KernelSpec(type="power_decay", alpha=float(alpha), count=int(count))


def truncate_spec(inner, n):
    return KernelSpec(type="truncate", inner=inner, n=int(n))


def realize(spec):
    """Produce the kernel polynomial a spec describes.

    Raises ValueError when the result is identically zero, which no
    functional kernel may be.
    """
    if spec.type == "coeffs":
        c = np.array([re + 1j * im for re, im in spec.values], dtype=complex)
        k = AnalyticPoly(c)
    elif spec.type == "power_decay":
        k = power_decay_kernel(spec.alpha, spec.count)
    else:
        k = taylor_truncate(realize(spec.inner), spec.n)
    if k.is_zero():
        raise ValueError(f"kernel spec {describe(spec)} realizes to zero")
    return k


def describe(spec):
    """Stable short identifier for reports."""
    if spec.type == "coeffs":
        return f"coeffs[{len(spec.values)}]"
    if spec.type == "power_decay":
        return f"power_decay(alpha={spec.alpha:g}, count={spec.count})"
    return f"truncate({describe(spec.inner)}, n={spec.n})"


def to_dict(spec):
    if spec.type == "coeffs":
        return {"type": "coeffs", "values": [list(v) for v in spec.values]}
    if spec.type == "power_decay":
        return {"type": "power_decay", "alpha": spec.alpha, "count": spec.count}
    return {"type": "truncate", "inner": to_dict(spec.inner), "n": spec.n}


def from_dict(data):
    """Parse a spec from JSON-shaped data, rejecting malformed input."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("kernel spec must be an object with a 'type' field")
    t = data["type"]
    if t == "coeffs":
        values = data.get("values")
        if not isinstance(values, list) or not values:
            raise ValueError("coeffs spec needs a nonempty 'values' list")
        for v in values:
            if not (isinstance(v, (list, tuple)) and len(v) == 2):
                raise ValueError("each coefficient must be an [re, im] pair")
        try:
            pairs = tuple((float(v[0]), float(v[1])) for v in values)
        except TypeError as exc:
            raise ValueError(f"malformed coeffs spec: {exc}") from exc
        return KernelSpec(type="coeffs", values=pairs)
    if t == "power_decay":
        try:
            return KernelSpec(
                type="power_decay",
                alpha=float(data["alpha"]),
                count=int(data["count"]),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed power_decay spec: {exc}") from exc
    if t == "truncate":
        try:
            return KernelSpec(
                type="truncate",
                inner=from_dict(data["inner"]),
                n=int(data["n"]),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed truncate spec: {exc}") from exc
    raise ValueError(f"unknown kernel spec type {t!r}")
