"""Kernel recipes: declarative descriptions of functional kernels.

A kernel spec is the JSON object that configs and reports carry instead
of raw coefficient dumps: an explicit coefficient list, or the
power-decay family c_t = (t+1)^(-alpha). A truncation is written with
fewer ``values`` or a smaller ``count``. Every spec, the Python builders'
too, is the canonical object ``from_dict`` returns.
``realize`` produces the AnalyticPoly; ``describe`` gives a stable
human-readable id used to key study rows. ``_field``, the type rule of
every JSON field of a config or a solution file, lives here so that spec
fields and the CLI's fields share it; so do ``_pairs`` and
``_pairs_field``, the one writer and the one reader of the [re, im] pairs
in which a spec's values and a report's coefficients are written; and so
do the input rules, each a ``_check_*`` function
that raises ValueError naming its parameter: p, a working degree, a
nonnegative index (a frequency m or a monomial degree), a study's degree
list, the growth study's q1, a positive number (the hinfty study's
alpha) and a kernel nonzero on its working space. The
solver, the checks, ``spaces`` (which cannot import the solver) and the
CLI's readers call them, and state them nowhere else.
"""

import math
import numbers
from contextlib import suppress
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


def _require(ok, message):
    """Raise ValueError(message) unless ``ok``: the form of every rule."""
    if not ok:
        raise ValueError(message)


def _check_exponent(p):
    """Raise ValueError unless p is an even integer in 2..MAX_EXPONENT. A
    float such as 4.0 is no integer: the powers f^{p/2} need an int."""
    _require(isinstance(p, numbers.Integral) and 2 <= p <= MAX_EXPONENT
             and p % 2 == 0,
             f"p must be an even integer in 2..{MAX_EXPONENT}, got {p!r}")


def _check_degree(n, name="degree"):
    """Raise ValueError unless n, a working degree or the kernel degree
    that ``name`` names, is an integer in 0..MAX_DEGREE. true and false are
    no integers, as in a JSON config."""
    _require(not isinstance(n, bool) and isinstance(n, numbers.Integral)
             and 0 <= n <= MAX_DEGREE,
             f"{name} must be an integer in 0..{MAX_DEGREE}, got {n!r}")


def _check_index(m, name):
    """Raise ValueError unless m, the frequency or monomial degree that
    ``name`` names, is a nonnegative integer; true and false are no
    integers."""
    _require(not isinstance(m, bool) and isinstance(m, numbers.Integral)
             and m >= 0, f"{name} must be a nonnegative integer, got {m!r}")


def _check_degrees(degrees, least=2):
    """Raise ValueError unless ``degrees`` is a list of working degrees
    (``_check_degree``), at least ``least`` of them distinct: two for a
    study, which compares them, and one for a degree ladder. A repeated
    degree is allowed, and solved once."""
    for n in degrees:
        _check_degree(n)
    need = "two distinct degrees" if least == 2 else "one degree"
    _require(len(set(degrees)) >= least,
             f"need at least {need}, got {degrees!r}")


def _growth_exponent(q1, p):
    """Whether q1 is a finite number in [q, MAX_EXPONENT/(p-1)], q =
    p/(p-1), with room for a q rounded below by 1e-12: the range of the
    H^{(p-1) q1} theorem, where past MAX_EXPONENT the growth study's
    sup-scaled |F|^{(p-1) q1} underflows to norm 0."""
    return (_finite_number(q1) and p / (p - 1.0) - 1e-12 <= q1
            and (p - 1) * q1 <= MAX_EXPONENT)


def _check_growth_exponents(q1_list, p):
    """Raise ValueError unless p passes ``_check_exponent`` and ``q1_list``
    is a non-empty list of q1 that ``_growth_exponent`` takes."""
    _check_exponent(p)
    _require(q1_list, "need at least one q1")
    for q1 in q1_list:
        _require(_growth_exponent(q1, p), f"q1 = {q1!r} outside "
                 f"[{p / (p - 1.0)!r}, {MAX_EXPONENT}/(p-1)]")


def _check_positive(value, name="alpha"):
    """Raise ValueError unless ``value``, the hinfty study's alpha or the
    parameter that ``name`` names, is a positive finite number."""
    _require(_finite_number(value) and value > 0,
             f"{name} must be positive and finite, got {value!r}")


def _check_kernel(kernel, degree):
    """Raise ValueError unless the kernel is nonzero on the working space
    P_degree, where the functional reads c_0..c_degree alone."""
    _require(not kernel.is_zero(), "kernel must not be identically zero")
    _require(kernel.coeffs[:degree + 1].any(), f"kernel vanishes on the "
             f"working space P_{degree}; raise the degree")


_REQUIRED = object()


def _field(config, key, kind, check=None, default=_REQUIRED, what="config"):
    """config[key] checked for its JSON type and then by ``check``, one of
    the ``_check_*`` rules or a ``_require``, whose ValueError becomes the
    field's: ``<what> field '<key>' is invalid: <its message>``, where
    ``what`` names the document read, a config or a solution file.

    ``int`` takes JSON integers only; ``float`` takes any JSON number and
    converts it. A JSON true/false is neither, although Python's bool is
    an int. An absent key gives ``default``, or an error when there is none.
    """
    if key not in config:
        if default is _REQUIRED:
            raise ConfigError(f"{what} is missing {key!r}")
        return default
    value = config[key]
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"{what} field {key!r} has the wrong type")
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{what} field {key!r} is out of range") from None
    if not isinstance(value, kind):
        raise ConfigError(f"{what} field {key!r} has the wrong type")
    if check is not None:
        try:
            check(value)
        except ValueError as exc:
            raise ConfigError(
                f"{what} field {key!r} is invalid: {exc}") from None
    return value


def _finite_number(value):
    """A JSON number that fits a finite float; true/false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _pairs(coeffs):
    """Complex coefficients as [re, im] pairs of Python floats: the JSON
    form of a kernel spec's values and of every coefficient list a report
    records, which ``_pairs_field`` reads back bit for bit."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return np.column_stack([coeffs.real, coeffs.imag]).tolist()


def _pairs_field(data, key, limit, what="config"):
    """data[key], a non-empty list of at most ``limit`` [re, im] pairs of
    finite numbers, each as ``_finite_number`` takes it, as the complex
    numbers they write, bit for bit: each pair is viewed as one complex,
    which keeps the sign of a zero that re + 1j * im turns to +0.0.
    ``what`` names the document as for ``_field``.

    Passes in C over the pairs and the types of the numbers, and one
    conversion to a float array (which raises OverflowError for an
    integer past the float range), check them instead of a call per
    number. The length is checked before any pair is."""
    values = _field(data, key, list, what=what)
    pairs = None
    if 0 < len(values) <= limit and all(
            map(isinstance, values, repeat((list, tuple)))) and set(
            map(len, values)) == {2} and all(
            issubclass(kind, (int, float)) and kind is not bool
            for kind in set(map(type, chain.from_iterable(values)))):
        with suppress(OverflowError):
            pairs = np.fromiter(chain.from_iterable(values), float,
                                2 * len(values))
    if pairs is None or not np.isfinite(pairs).all():
        raise ConfigError(
            f"{what} field {key!r} is invalid: need a non-empty list of at "
            f"most {limit} [re, im] pairs of finite numbers")
    return pairs.view(complex)


def coeffs_spec(values):
    """Spec from complex coefficients."""
    return from_dict({"type": "coeffs", "values": _pairs(values)})


def power_decay_spec(alpha, count):
    return from_dict({"type": "power_decay", "alpha": alpha, "count": count})


def realize(spec):
    """Produce the kernel polynomial a spec describes.

    Raises ValueError when the result is identically zero, which no
    functional kernel may be, and ConfigError when a coefficient is not
    finite, as (t+1)^(-alpha) is past the float range for alpha << 0.
    """
    if spec["type"] == "coeffs":
        k = AnalyticPoly(_pairs_field(spec, "values", MAX_DEGREE + 1,
                                      "kernel spec"))
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


def from_dict(data, what="config"):
    """The canonical spec of JSON-shaped data: known fields only, and
    every number a float but ``count``.

    Every field is read by ``_field``, the rule the config's own numeric
    fields follow, so a wrong type or value raises ``ConfigError`` naming
    the field, and ``what``, the document that holds the spec, instead of
    being coerced.
    """
    if not isinstance(data, dict):
        raise ConfigError("kernel spec must be an object with a 'type' field")
    t = _field(data, "type", str, what=what)
    if t == "coeffs":
        # a kernel of degree at most MAX_DEGREE, as power_decay's count
        return {"type": t, "values": _pairs(
            _pairs_field(data, "values", MAX_DEGREE + 1, what))}
    if t == "power_decay":
        return {"type": t,
                "alpha": _field(data, "alpha", float, lambda v: _require(
                    math.isfinite(v), "alpha must be finite"), what=what),
                # the kernel's degree count - 1 is a working degree
                "count": _field(data, "count", int,
                                lambda v: _check_degree(v - 1, "count - 1"),
                                what=what)}
    raise ConfigError(f"unknown kernel spec type {t!r}")
