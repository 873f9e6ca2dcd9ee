"""Kernel recipes: declarative descriptions of functional kernels.

A kernel spec is the JSON object that configs and reports carry instead
of raw coefficient dumps: an explicit coefficient list, the power-decay
family c_t = (t+1)^(-alpha), or a truncation of another spec. Every spec,
the Python builders' too, is the canonical object ``from_dict`` returns.
``realize`` produces the AnalyticPoly; ``describe`` gives a stable
human-readable id used to key study rows. ``_field``, the type rule of
every JSON config field, lives here so that spec fields and the CLI's
fields share it.
"""

import math

import numpy as np

from .families import power_decay_kernel
from .poly import AnalyticPoly, taylor_truncate


class ConfigError(ValueError):
    """Malformed input from a config or a kernel spec."""


# The largest working degree a config may ask for, and the largest degree
# of a kernel, explicit or power-decay. The solver's dense Hessian has
# 2(n+1) rows for a complex kernel, 0.5 GB at this degree.
MAX_DEGREE = 4096
# The largest Lebesgue exponent a config or an ExtremalProblem may ask
# for: p, and the growth study's (p - 1) q1. At p = 1100 ||f||_{A^p}^p
# underflows in the solver.
MAX_EXPONENT = 1024


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


def _pairs_field(data, key, limit):
    """data[key]: a non-empty list of at most ``limit`` [re, im] pairs of
    finite numbers. The length is checked before any pair is."""
    return _field(data, key, list, lambda values: (
        0 < len(values) <= limit and all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(map(_finite_number, pair)) for pair in values)),
        f"need a non-empty list of at most {limit} [re, im] pairs of "
        f"finite numbers")


def _complex_pairs(pairs):
    """[re, im] pairs as complex numbers, bit for bit: a row viewed as one
    complex keeps the sign of a zero, which re + 1j * im turns to +0.0."""
    return np.array(pairs, dtype=float).view(complex)[:, 0]


def coeffs_spec(values):
    """Spec from complex coefficients."""
    values = [[v.real, v.imag] for v in map(complex, values)]
    return from_dict({"type": "coeffs", "values": values})


def power_decay_spec(alpha, count):
    return from_dict({"type": "power_decay", "alpha": alpha, "count": count})


def realize(spec):
    """Produce the kernel polynomial a spec describes.

    Raises ValueError when the result is identically zero, which no
    functional kernel may be, and ConfigError when a coefficient is not
    finite, as (t+1)^(-alpha) is past the float range for alpha << 0.
    """
    if spec["type"] == "coeffs":
        k = AnalyticPoly(_complex_pairs(spec["values"]))
    elif spec["type"] == "power_decay":
        with np.errstate(over="ignore"):
            k = power_decay_kernel(spec["alpha"], spec["count"])
    else:
        k = taylor_truncate(realize(spec["inner"]), spec["n"])
    if not np.all(np.isfinite(k.coeffs)):
        raise ConfigError(f"kernel spec {describe(spec)} has coefficients "
                          f"past the float range; raise alpha")
    if k.is_zero():
        raise ValueError(f"kernel spec {describe(spec)} realizes to zero")
    return k


def describe(spec):
    """Stable short identifier for reports."""
    if spec["type"] == "coeffs":
        return f"coeffs[{len(spec['values'])}]"
    if spec["type"] == "power_decay":
        return f"power_decay(alpha={spec['alpha']:g}, count={spec['count']})"
    return f"truncate({describe(spec['inner'])}, n={spec['n']})"


def to_dict(spec):
    """Identity; kept only because perfbench/workloads.py calls it."""
    return spec


def from_dict(data):
    """The canonical spec of JSON-shaped data: known fields only, and
    every number a float but ``count`` and ``n``.

    Every field is read by ``_field``, the rule the config's own numeric
    fields follow, so a wrong type or value raises ``ConfigError`` naming
    the field instead of being coerced.
    """
    if not isinstance(data, dict):
        raise ConfigError("kernel spec must be an object with a 'type' field")
    t = _field(data, "type", str)
    if t == "coeffs":
        # a kernel of degree at most MAX_DEGREE, as power_decay's count
        values = _pairs_field(data, "values", MAX_DEGREE + 1)
        return {"type": t,
                "values": [[float(re), float(im)] for re, im in values]}
    if t == "power_decay":
        return {"type": t,
                "alpha": _field(data, "alpha", float, math.isfinite,
                                "alpha must be finite"),
                "count": _field(data, "count", int,
                                lambda v: 1 <= v <= MAX_DEGREE + 1,
                                f"count must be in 1..{MAX_DEGREE + 1}")}
    if t == "truncate":
        try:
            inner = from_dict(_field(data, "inner", dict))
        except RecursionError:
            raise ConfigError("kernel spec field 'inner' is nested too "
                              "deeply") from None
        return {"type": t, "inner": inner,
                "n": _field(data, "n", int, lambda v: v >= 0,
                            "n must be >= 0")}
    raise ConfigError(f"unknown kernel spec type {t!r}")
