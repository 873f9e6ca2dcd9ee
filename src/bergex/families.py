"""The standard kernel family used by certification runs and studies.

Three groups, mirroring the kinds of functionals the theory speaks about:

* explicit low-degree polynomials (including one with a boundary zero),
* the power-decay family c_t = (t+1)^(-alpha) for alpha in {1.6, 2, 3},
* seeded random kernels with a geometric decay envelope.

Each member carries a production degree: the working degree at which its
solve is certified. The degrees are calibrated so that the extremality
certificate clears 1e-8 over test degrees up to 2n and the Fourier
coefficients of |F|^p beyond the kernel degree sit at the solver's
round-off floor. Slowly decaying extremal functions need visibly more
degree than fast ones, which is why the table is per-kernel.

Random coefficients get the decay envelope on purpose: a kernel whose
extremal function decays too slowly would need degrees in the thousands
before its truncation tails clear certification thresholds, which is
outside desk scale.
"""

import numpy as np

from .poly import AnalyticPoly

DEFAULT_SEED = 20240901

# kernel id -> (coefficient builder, production degree)
_EXPLICIT = [
    ("const", [1.0], 32),
    ("monomial-z", [0.0, 1.0], 32),
    ("one-plus-z", [1.0, 1.0], 160),
    ("cubic-mix", [1.0, 2.0, 0.0, -1.0], 352),
]

_POWER_DECAY = [
    ("power-decay-1.6", 1.6, 288),
    ("power-decay-2.0", 2.0, 224),
    ("power-decay-3.0", 3.0, 128),
]

_RANDOM_COUNT = 2
_RANDOM_DEGREE = 8
_RANDOM_ENVELOPE = 3.0  # coefficient t damped by envelope^-t
_RANDOM_PRODUCTION_DEGREE = 96


def power_decay_kernel(alpha, count):
    """c_t = (t+1)^(-alpha) for t = 0..count-1."""
    return AnalyticPoly((np.arange(count) + 1.0) ** (-alpha))


def random_kernels(seed=DEFAULT_SEED):
    """Seeded complex Gaussian coefficients under a geometric envelope."""
    rng = np.random.default_rng(seed)
    size = _RANDOM_DEGREE + 1
    out = []
    for i in range(_RANDOM_COUNT):
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        out.append((f"random-{i}", AnalyticPoly(
            g * _RANDOM_ENVELOPE ** -np.arange(float(size)))))
    return out


def standard_family(seed=DEFAULT_SEED):
    """The full certification family: [(kernel_id, kernel, degree), ...]."""
    family = [
        (name, AnalyticPoly(c), degree)
        for name, c, degree in _EXPLICIT
    ]
    family += [
        (name, power_decay_kernel(alpha, 64), degree)
        for name, alpha, degree in _POWER_DECAY
    ]
    family += [
        (name, kernel, _RANDOM_PRODUCTION_DEGREE)
        for name, kernel in random_kernels(seed)
    ]
    return family

