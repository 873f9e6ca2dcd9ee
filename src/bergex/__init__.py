"""Linear extremal problems over Bergman spaces of the unit disc.

The package solves, certifies, and studies the problem of maximizing
Re phi over the unit sphere of A^p for even integers p, where phi is an
integral functional with polynomial kernel. Coefficient arithmetic is
exact throughout: norms, pairings, and gradients reduce to convolutions
and cross-correlations of Taylor coefficients, evaluated by NumPy
directly for small operands and by FFT for large ones.
"""

__version__ = "0.1.0"

from ._backend import backend_name
from .poly import (
    ONE,
    ZERO,
    AnalyticPoly,
    antiderivative,
    as_poly,
    derivative,
    k_transform,
    monomial,
    multiply,
    power,
    shift,
    taylor_truncate,
)
from .spaces import (
    bergman_inner,
    bergman_norm_even,
    bergman_norm_general,
    fourier_coeff_abs_power,
    functional_value,
    hardy_inner,
    hardy_norm_even,
    hardy_norm_general,
)
from .solver import (
    ExtremalProblem,
    ExtremalSolution,
    NonConvergenceError,
    brute_force_oracle,
    extremality_residual,
    gradient_norm_p,
    kernel_from_extremal,
    solve_extremal,
)
from .checks import (
    GrowthStudyRow,
    VerificationReport,
    check_fourier_formula,
    check_hinfty_criterion,
    check_norm_equality,
    check_ryabykh_bound,
    coefficient_bound_sweep,
    convergence_study,
    growth_study,
    norm_equality_decay_study,
)
from .analysis import (
    antiderivative_product,
    disc_pairing,
    lp_g_function,
)
from .kernelspec import coeffs_spec, power_decay_spec
from .families import standard_family

__all__ = [
    "__version__",
    "backend_name",
    "ONE",
    "ZERO",
    "AnalyticPoly",
    "antiderivative",
    "as_poly",
    "derivative",
    "k_transform",
    "monomial",
    "multiply",
    "power",
    "shift",
    "taylor_truncate",
    "bergman_inner",
    "bergman_norm_even",
    "bergman_norm_general",
    "fourier_coeff_abs_power",
    "functional_value",
    "hardy_inner",
    "hardy_norm_even",
    "hardy_norm_general",
    "ExtremalProblem",
    "ExtremalSolution",
    "NonConvergenceError",
    "brute_force_oracle",
    "extremality_residual",
    "gradient_norm_p",
    "kernel_from_extremal",
    "solve_extremal",
    "GrowthStudyRow",
    "VerificationReport",
    "check_fourier_formula",
    "check_hinfty_criterion",
    "check_norm_equality",
    "check_ryabykh_bound",
    "coefficient_bound_sweep",
    "convergence_study",
    "growth_study",
    "norm_equality_decay_study",
    "antiderivative_product",
    "disc_pairing",
    "lp_g_function",
    "coeffs_spec",
    "power_decay_spec",
    "standard_family",
]
