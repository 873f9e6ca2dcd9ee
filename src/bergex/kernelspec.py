"""Kernel recipes: declarative descriptions of functional kernels.

A KernelSpec is what configs and reports carry instead of raw coefficient
dumps: an explicit coefficient list, the power-decay family
c_t = (t+1)^(-alpha), or a truncation of another spec. ``realize``
produces the AnalyticPoly; ``describe`` gives a stable human-readable id
used to key study rows. ``_field``, the type rule of every JSON config
field, lives here so that spec fields and the CLI's fields share it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .families import power_decay_kernel
from .poly import AnalyticPoly, taylor_truncate


class ConfigError(ValueError):
    """Malformed input from a config or a kernel spec."""


_REQUIRED = object()


def _field(config, key, kind, predicate=None, message="", default=_REQUIRED):
    """config[key] checked for its JSON type and by ``predicate``.

    ``int`` takes JSON integers only; ``float`` takes any JSON number and
    converts it. A JSON true/false is neither, although Python's bool is
    an int. An absent key gives ``default``, or an error when there is none.
    """
    if key not in config:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing {key!r}")
        return default
    value = config[key]
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"config field {key!r} has the wrong type")
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"config field {key!r} is out of range") from None
    if not isinstance(value, kind):
        raise ConfigError(f"config field {key!r} has the wrong type")
    if predicate is not None and not predicate(value):
        raise ConfigError(f"config field {key!r} is invalid: {message}")
    return value


def _finite_number(value):
    """A JSON number that fits a finite float; true/false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _finite_pairs(values):
    """A non-empty list of [re, im] pairs of finite JSON numbers."""
    return values and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2
        and all(map(_finite_number, pair)) for pair in values)


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
    """Parse a spec from JSON-shaped data, rejecting malformed input.

    Every field is read by ``_field``, the rule the config's own numeric
    fields follow, so a wrong type or value raises ``ConfigError`` naming
    the field instead of being coerced.
    """
    if not isinstance(data, dict):
        raise ConfigError("kernel spec must be an object with a 'type' field")
    t = _field(data, "type", str)
    if t == "coeffs":
        values = _field(data, "values", list, _finite_pairs,
                        "need a non-empty list of [re, im] pairs of finite "
                        "numbers")
        return KernelSpec(type="coeffs", values=tuple(
            (float(re), float(im)) for re, im in values))
    if t == "power_decay":
        return KernelSpec(
            type="power_decay",
            alpha=_field(data, "alpha", float, math.isfinite,
                         "alpha must be finite"),
            count=_field(data, "count", int, lambda v: v >= 1,
                         "count must be >= 1"),
        )
    if t == "truncate":
        return KernelSpec(
            type="truncate",
            inner=from_dict(_field(data, "inner", dict)),
            n=_field(data, "n", int, lambda v: v >= 0, "n must be >= 0"),
        )
    raise ConfigError(f"unknown kernel spec type {t!r}")
