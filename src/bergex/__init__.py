"""Linear extremal problems over Bergman spaces of the unit disc.

The package solves, certifies, and studies the problem of maximizing
Re phi over the unit sphere of A^p for even integers p, where phi is an
integral functional with polynomial kernel. Coefficient arithmetic is
exact throughout: norms, pairings, and gradients reduce to convolutions
and cross-correlations of Taylor coefficients, evaluated by NumPy
directly for small operands and by FFT for large ones.

The package exports only the names below; everything else is imported
from its module (``bergex.checks``, ``bergex.kernelspec``, ...).
"""

__version__ = "0.1.0"

from ._backend import backend_name
from .poly import as_poly, monomial
from .solver import ExtremalProblem, kernel_from_extremal, solve_extremal
from .spaces import bergman_norm_even

__all__ = [
    "__version__",
    "backend_name",
    "ExtremalProblem",
    "solve_extremal",
    "as_poly",
    "bergman_norm_even",
    "kernel_from_extremal",
    "monomial",
]
