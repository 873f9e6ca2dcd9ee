"""Kernel recipes: declarative descriptions of functional kernels.

A kernel spec is the JSON object that configs and reports carry instead
of raw coefficient dumps: an explicit coefficient list, or the
power-decay family c_t = (t+1)^(-alpha). A truncation is written with
fewer ``values`` or a smaller ``count``. Every spec, the Python builders'
too, is the canonical object ``from_dict`` returns.
``realize`` produces the AnalyticPoly; ``describe`` gives a stable
human-readable id used to key study rows. ``_field``, the type rule of
every JSON config field, lives here so that spec fields and the CLI's
fields share it, and ``_check_exponent``, the rule for p, so that the
solver and ``spaces``, which cannot import the solver, share it.
"""

import math
import numbers
from itertools import chain, repeat

import numpy as np

from .families import power_decay_kernel
from .poly import AnalyticPoly


class ConfigError(ValueError):
    """Malformed input from a config or a kernel spec."""


# The largest working degree a config may ask for, and the largest degree
# of a kernel, explicit or power-decay. The solver's dense Hessian has
# 2(n+1) rows for a complex kernel, 0.5 GB at this degree.
MAX_DEGREE = 4096
# The largest Lebesgue exponent a config, an ExtremalProblem or an
# even-exponent norm of ``spaces`` may ask for: p, and the growth study's
# (p - 1) q1. At p = 1100 ||f||_{A^p}^p underflows in the solver.
MAX_EXPONENT = 1024


def _check_exponent(p):
    """Raise ValueError unless p is an even integer in 2..MAX_EXPONENT, the
    one rule for p of the solver and of the even-exponent routines of
    ``spaces``. A float such as 4.0 is no integer: the powers f^{p/2}
    need an int."""
    if (not isinstance(p, numbers.Integral) or not 2 <= p <= MAX_EXPONENT
            or p % 2 != 0):
        raise ValueError(f"p must be an even integer in 2..{MAX_EXPONENT}, "
                         f"got {p}")


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


def _finite_pairs(values, limit):
    """``values`` as an (n, 2) float64 array when it holds 1..limit [re, im]
    pairs of finite numbers, each as ``_finite_number`` takes it, else
    None. Passes in C over the pairs and the types of the numbers, and one
    conversion to a float array (which raises OverflowError for an integer
    past the float range), check them instead of a call per number. The
    length is checked before any pair is."""
    if not 0 < len(values) <= limit or not all(
            map(isinstance, values, repeat((list, tuple)))) or set(
            map(len, values)) != {2}:
        return None
    kinds = set(map(type, chain.from_iterable(values)))
    if not all(issubclass(kind, (int, float)) and kind is not bool
               for kind in kinds):
        return None
    try:
        pairs = np.fromiter(chain.from_iterable(values), float,
                            2 * len(values)).reshape(-1, 2)
    except OverflowError:
        return None
    return pairs if np.isfinite(pairs).all() else None


def _pairs_field(data, key, limit):
    """data[key], a non-empty list of at most ``limit`` [re, im] pairs of
    finite numbers, as the (n, 2) float64 array of those pairs."""
    pairs = _finite_pairs(_field(data, key, list), limit)
    if pairs is None:
        raise ConfigError(
            f"config field {key!r} is invalid: need a non-empty list of at "
            f"most {limit} [re, im] pairs of finite numbers")
    return pairs


def _complex_pairs(pairs):
    """[re, im] pairs, a list or ``_pairs_field``'s array, as complex
    numbers, bit for bit: a row viewed as one complex keeps the sign of a
    zero, which re + 1j * im turns to +0.0."""
    return np.asarray(pairs, dtype=float).view(complex)[:, 0]


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
    else:
        with np.errstate(over="ignore"):
            k = power_decay_kernel(spec["alpha"], spec["count"])
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
    return f"power_decay(alpha={spec['alpha']:g}, count={spec['count']})"


def to_dict(spec):
    """Identity; kept only because perfbench/workloads.py calls it."""
    return spec


def from_dict(data):
    """The canonical spec of JSON-shaped data: known fields only, and
    every number a float but ``count``.

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
        return {"type": t, "values": values.tolist()}
    if t == "power_decay":
        return {"type": t,
                "alpha": _field(data, "alpha", float, math.isfinite,
                                "alpha must be finite"),
                "count": _field(data, "count", int,
                                lambda v: 1 <= v <= MAX_DEGREE + 1,
                                f"count must be in 1..{MAX_DEGREE + 1}")}
    raise ConfigError(f"unknown kernel spec type {t!r}")
