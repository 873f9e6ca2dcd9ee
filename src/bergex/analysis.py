"""Littlewood-Paley square function and disc pairings.

The radial square function g(theta, f), and the mixed pairings
integral_D conj(f1) f2 f3' dsigma that connect area integrals to
boundary integrals through the Cauchy-Green identity. For polynomial
inputs every integral here is proper and exact coefficient arithmetic or
exact Gauss-Legendre quadrature.
"""

import math

import numpy as np
from scipy.special import roots_legendre

from .poly import antiderivative, derivative, multiply, shift
from .spaces import bergman_inner, hardy_inner

_G_NODES_DEFAULT = 128


def lp_g_function(f, theta, nodes=_G_NODES_DEFAULT):
    """Square function g(theta, f) = (int_0^1 (1-r) |f'(r e^{i theta})|^2 dr)^{1/2}.

    The integrand is a polynomial in r of degree 2 deg(f') + 1, so
    Gauss-Legendre with the default node count is exact for any input
    this library produces.
    """
    fp = derivative(f)
    if fp.is_zero():
        return 0.0
    x, w = roots_legendre(nodes)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    vals = np.abs(fp(r * np.exp(1j * theta))) ** 2
    return math.sqrt(float(np.sum(wr * (1.0 - r) * vals)))


def antiderivative_product(f1, f2):
    """h(z) = int_0^z f1 f2' dzeta, exact in coefficients, h(0) = 0."""
    return antiderivative(multiply(f1, derivative(f2)))


def disc_pairing(f1, f2, f3):
    """integral_D conj(f1) f2 f3' dsigma, exact for polynomials.

    Monomial matching gives bergman_inner(f2 * f3', f1); for polynomial
    inputs the principal-value reading coincides with the plain integral.
    """
    return bergman_inner(multiply(f2, derivative(f3)), f1)


def cauchy_green_gap(f1, f2, f3):
    """Residual of the area-to-boundary identity for the disc pairing.

    Integration by parts on the disc turns the area pairing into a
    boundary pairing with the antiderivative:

        integral_D conj(f1) f2 f3' dsigma
            = (1/2pi) int_0^{2pi} h(e^{it}) conj(e^{it} f1(e^{it})) dt,
        h = antiderivative_product(f2, f3).

    Returns the absolute difference of the two evaluations.
    """
    area = disc_pairing(f1, f2, f3)
    boundary = hardy_inner(antiderivative_product(f2, f3), shift(f1, 1))
    return abs(area - boundary)
