"""Solver for the linear extremal problem over the Bergman space A^p.

For an even integer p and a polynomial kernel k representing the
functional phi(f) = integral_D f conj(k) dsigma, the problem solved here
is

    minimize J(f) = ||f||_{A^p}^p / p - Re phi(f)  over  f in P_n.

J is smooth and strictly convex because p is even, and by homogeneity its
minimizer is ||phi||^{1/(p-1)} F, where F maximizes Re phi on the unit
sphere of P_n. Its Wirtinger gradient there is (||phi||/2) conj(res_j),
for the residuals res_j that ``extremality_residual`` measures. It is
minimized without constraints by damped Newton in the real coordinates
x = a.view(float64), Re a_j and Im a_j interleaved, with the exact
Hessian and a backtracking line search (Nocedal & Wright, Numerical
Optimization, 2nd ed., ch. 3). Each Newton system is built as
the lower triangle of the Hessian of J alone, and LAPACK's Cholesky
factorization of that triangle overwrites it in place: the
factorization and the solves with its factor read one triangle
(Golub & Van Loan, Matrix Computations, 4th ed., sec. 4.2), so the
strict upper one is left unspecified.

Every solve stops at one rule, TOLERANCE = 1e-12 on the Euclidean norm
of J's gradient in real coordinates; no caller chooses it. Once the
gradient meets it, one more step puts the gradient at its float floor,
and that step reuses the Cholesky factor of the step before it instead
of building the Hessian at the converged iterate (a chord step; Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003, ch. 5). The
Hessian is Lipschitz, so the reused factor multiplies the error by a
factor of order ||x_k - x_{k-1}||, the length of the step before, where
a fresh Hessian would square it. After that Newton step the error is
already of order ||x_k - x_{k-1}||^2, so the final step leaves one of
order ||x_k - x_{k-1}||^3, below round-off: on the standard family the
step before was at most 5e-6 long, for unknowns of size about 1, and the
reused and the fresh factor gave the same F to 1e-18. A solve that
converges at its first iterate has no earlier factor and builds one.

When the kernel's coefficients on P_n are all real, conj(F(conj z)) is
extremal too, so by uniqueness F has real coefficients. ``AnalyticPoly``
stores such a truncated kernel as float64 (``poly``), and the solve then
runs in x = Re a alone: n+1 unknowns, a Gram matrix in real arithmetic
and a Cholesky factorization of size n+1 instead of 2(n+1). The
coefficient kernels keep float64 operands real (``_backend``), so the
objective, its gradient and Hessian and the line search all run in real
arithmetic too, and only ``_hessian`` branches on the dtype. In exact
arithmetic these are the iterates of the full system, which never leave
the real coefficients from a real start; in floating point F is then
float64 as well.

The truncated solutions F_n settle as n grows, so solves climb a degree
ladder (``solve_ladder``): to n through the degrees n >> j that are at
least MIN_RUNG_DEGREE (one rung, n itself, below degree 32), and through
a study's degrees on one ladder, whose rung m solves S_m k over P_m. The
lowest rung starts from the normalized truncated kernel, which is
already optimal for p = 2; each higher rung starts from the iterate of
the rung below, zero-padded. Every start is scaled to the minimum of J
on its ray. Each rung is the same Newton solve (``_newton``), with at
most DEFAULT_MAX_ITERATIONS iterations, in real arithmetic whenever its
truncated kernel is float64. A requested degree then typically needs one
or two iterations instead of the whole damped phase at full size; only the
requested degrees can fail, have their certificate measured, and report
their iterations and trace.

Only the requested degrees solve to TOLERANCE. The other rungs exist to
start the rung above, which makes the ladder a continuation method, and
a continuation method does not need its intermediate solves converged to
full accuracy (Allgower & Georg, Introduction to Numerical Continuation
Methods, SIAM 2003, ch. 2). So an unrequested rung stops at
sqrt(TOLERANCE) = 1e-6, and its chord final step still follows and takes
the gradient well below that. The start it passes up is then in error
mostly by the truncation to the lower degree. On the standard family at
p = 4 and 6, the gradient at the start of a higher rung was 1e-4 to
1e-10 wherever it exceeded 1e-8, the same to two digits as with every
rung solved to 1e-12, and each requested degree took as many iterations
as it did then.

TOLERANCE is no input because no value of it improves the certified F:
the chord final step already takes the gradient to its float floor. On
the 36 standard-family solves (seeds 20240901 and 1, p = 4 and 6), a
stop at 1e-10 gave the same iterations and certificates as 1e-12, with
F within 2.2e-14; a stop at 1e-4, 1e-6 or 1e-8 certified 28, 32 or 34
of them, for at most 12% less solve time.

Everything the optimizer touches is exact coefficient arithmetic: with
s = p/2, u = f^s and v = f^{s-1}, the Wirtinger gradient of the objective
is

    d/d conj(a_j) ||f||_p^p = s * <u, z^j v>_A = s * sum_t u_{t+j} conj(v_t)/(t+j+1),

a single weighted cross-correlation (``_newton_terms``); the exact
Hessian adds one more and a banded Gram matrix (``_hessian``), whose
subdiagonals are the rows of one product with a Hilbert matrix
(``_gram``). The same
pairings at the optimum reproduce the extremality characterization

    integral_D z^j F^{s-1} conj(F)^s dsigma = phi(z^j) / ||phi||,

which is what ``extremality_residual`` measures and what
``kernel_from_extremal`` inverts.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._backend import conv, power, xcorr
from .kernelspec import (_check_degree, _check_degrees, _check_exponent,
                         _check_index, _check_kernel, _require)
from .poly import AnalyticPoly, rescaled, taylor_truncate, trimmed
from .spaces import bergman_norm_even, functional_value

TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 100
# lowest degree of the ladder that solve_extremal climbs to degree n
MIN_RUNG_DEGREE = 16


class NonConvergenceError(RuntimeError):
    """Solver failed to meet tolerance; carries the iteration trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ExtremalProblem:
    """One solve: exponent p, kernel k and working degree n.

    Constructing one checks the solve's input and has no other effect: it
    raises ValueError unless p passes ``_check_exponent``, n
    ``_check_degree`` (an integer in 0..MAX_DEGREE) and k ``_check_kernel``
    (nonzero on P_n), the rules of ``kernelspec``. A degree n below deg k
    is no error: on P_n the functional reads c_0..c_n alone, so the
    problem is that of S_n k, and the certificate, taken against the whole
    kernel, reports the rest.
    """

    p: int
    kernel: AnalyticPoly
    degree: int

    def __post_init__(self):
        _check_exponent(self.p)
        _check_degree(self.degree)
        _check_kernel(self.kernel, self.degree)


@dataclass(frozen=True)
class ExtremalSolution:
    """Output of a solve, with its certificate measured and not judged.

    ``phi_norm`` is the norm of the functional restricted to P_n (it
    approaches the full-space norm from below as n grows). ``residual_max``
    is the largest extremality-characterization residual over the
    monomials z^j, j = 0..``certificate_degree(p, n)``; whether the answer
    is certified is ``checks.certified``'s verdict on it and the fixed
    table. ``iterations`` and ``trace`` belong to the Newton solve at degree
    n alone, not to the lower rungs of the ladder.
    """

    F: AnalyticPoly
    phi_norm: float
    residual_max: float
    iterations: int
    trace: tuple
    p: int
    kernel: AnalyticPoly
    degree: int


def certificate_degree(p, degree):
    """The highest monomial degree j the certificate tests, max(2, p/2) n:
    the pairings vanish past j = (p/2) n, and the kernel side past deg k.
    The coefficient-bound sweep of ``checks`` covers the same m, the whole
    spectrum of |F_n|^p. Raises ValueError unless ``degree`` passes
    ``_check_degree``."""
    _check_degree(degree)
    return max(2, p // 2) * degree


def _pairings(F, p, count):
    """<u, z^j v>_A for j = 0..count-1, with u = F^{p/2}, v = F^{p/2-1}."""
    wu, v = _objective(F.coeffs, p // 2)[1:]
    if len(wu) < count:
        wu = np.concatenate([wu, np.zeros(count - len(wu), dtype=wu.dtype)])
    return xcorr(wu, v)[:count]


def gradient_norm_p(f, p):
    """Wirtinger gradient of ||f||_{A^p}^p with respect to conj(a_j).

    Component j equals (p/2) * <f^{p/2}, z^j f^{p/2-1}>_A. Exact in
    coefficients; the solver's ``_newton_terms`` evaluates the same
    expression.
    """
    _check_exponent(p)
    if f.is_zero():
        return np.zeros(0, dtype=f.coeffs.dtype)
    s = p // 2
    return s * _pairings(f, p, len(f.coeffs))


def extremality_residual(F, k, p, phi_norm, max_test_degree):
    """Characterization residuals against the monomials z^j.

    Entry j is integral_D z^j F^{s-1} conj(F)^s dsigma - phi(z^j)/phi_norm
    for j = 0..max_test_degree, all integrals exact in coefficients. For
    a true extremal function every entry vanishes; the maximum modulus is
    the certificate the solver reports. Raises ValueError unless p passes
    ``_check_exponent`` and ``max_test_degree`` ``_check_index``.
    """
    _check_exponent(p)
    _check_index(max_test_degree, "max_test_degree")
    count = max_test_degree + 1
    pair = np.conj(_pairings(F, p, count))
    conj_c, phi_norm, _ = rescaled(np.conj(k.padded(count)), phi_norm)
    rhs = conj_c / ((np.arange(count) + 1.0) * phi_norm)
    return pair - rhs


def _certificate(F, k, p, phi_norm, degree):
    """The residual_max of F at working degree n: the largest modulus of
    ``extremality_residual`` over j = 0..``certificate_degree(p, n)``."""
    return float(np.max(np.abs(extremality_residual(
        F, k, p, phi_norm, certificate_degree(p, degree)))))


def kernel_from_extremal(F, p, out_degree):
    """Recover the representing kernel of a unit-norm extremal function.

    Inverts the characterization: c_j = (j+1) * conj(pairing_j) with the
    normalization ||phi|| = 1. The kernel of the original problem is this
    one up to a positive scalar. Raises ValueError unless ``out_degree``
    passes ``_check_degree``.
    """
    _check_exponent(p)
    _check_degree(out_degree, "out_degree")
    if F.is_zero():
        raise ValueError("extremal function must not be zero")
    pair = _pairings(F, p, out_degree + 1)
    c = (np.arange(out_degree + 1) + 1.0) * pair
    return AnalyticPoly(c)


def _strided(base, shape, steps, start=0):
    """The view of the 1-d contiguous ``base`` whose entry (i, j) is
    base[start + i * steps[0] + j * steps[1]]. ``np.ndarray`` over base's
    buffer checks that every entry lies inside it, and takes a tenth of
    the time of ``as_strided``, which matters to the small Hessians of
    the lowest rungs."""
    size = base.itemsize
    return np.ndarray(shape, base.dtype, base, start * size,
                      (steps[0] * size, steps[1] * size))


def _gram(v, n1, scale=1.0):
    """Lower triangle of scale T_v^H W T_v, for the convolution matrix T_v
    of v cut to n1 columns and W = diag(1/(m+1)).

    Entry (j+d, j) is scale sum_m conj(v_{m-d}) v_m / (m+j+1), so the d-th
    subdiagonal is row d of one product Z = B^T Hilb: B[m, d] =
    conj(v_{m-d}) v_m, m < len(v), is v times a Toeplitz view of conj(v),
    and the Hilbert matrix Hilb[m, j] = scale/(m+j+1) is a Hankel view of
    one vector. Hilb is real, so for complex v the real and imaginary
    parts of B go through one real product, half the arithmetic of a
    complex one. Rows d >= len(v) of Z vanish (the Gram matrix is banded);
    of the others, row d is needed for j < n1 - d alone and meets
    B[m, d] != 0 for m >= d alone, so Z is built in two halves of its
    rows, each cut to those ranges. Z is written onto the subdiagonals
    through one skewed view of the Fortran-order result, whose entry
    (d, j) is entry (j+d, j); the strict upper triangle is left
    unspecified.

    Each half sums over m in bands that hold at most n1 x n1 entries of
    Hilb, so that no temporary is larger than n1 x n1 and at most four
    n1 x n1 arrays of v's dtype are held at once: the result, a band of B,
    a band of Hilb and, past the first band, a product. The result has
    the dtype of v (real v, real arithmetic) and Fortran order, so that
    ``dpotrf`` can factor it in place.
    """
    count, rows = len(v), min(len(v), n1)
    # T[m, d] = conj(v_{m-d}) = conj_v[rows - 1 + m - d]: conj(v) after
    # rows - 1 zeros, rows stepping forward and columns back
    conj_v = np.zeros(count + rows - 1, dtype=v.dtype)
    np.conjugate(v, out=conj_v[rows - 1:])
    T = _strided(conj_v, (count, rows), (1, -1), rows - 1)
    weights = scale / np.arange(1.0, count + n1)
    hilbert = _strided(weights, (count, n1), (1, 1))
    # zeros: the rows d >= len(v) of the band, which Z leaves out. Entry
    # (d, j) of the skewed view is entry (j+d, j) of the result, or past
    # the lower triangle when j+d >= n1 (into the strict upper triangle
    # or the n1 spare entries at the end). A complex entry is two rows of
    # the real view, its real part over its imaginary one.
    flat = np.zeros(n1 * (n1 + 1), dtype=v.dtype)
    parts = flat.itemsize // 8
    skew = _strided(flat.view(float), (parts * rows, n1),
                    (1, parts * (n1 + 1)))
    half = (rows + 1) // 2
    for d0, d1 in ((0, half), (half, rows)):
        if d0 == d1:
            continue
        # B[m, d] vanishes for m < d, and j < n1 - d in the triangle; a
        # band of the m-sum holds at most n1 x n1 entries of Hilb
        width = n1 - d0
        step = n1 * n1 // width
        out = skew[parts * d0:parts * d1, :width]
        for m0 in range(d0, count, step):
            B = np.array(T[m0:m0 + step, d0:d1])
            B *= v[m0:m0 + step, None]
            # real and imaginary parts in alternate columns
            terms = B.view(float).T, hilbert[m0:m0 + step, :width]
            if m0 == d0:
                np.matmul(*terms, out=out)
            else:
                out += np.matmul(*terms)
    return flat[:n1 * n1].reshape((n1, n1), order="F")


def _objective(a, s):
    """||f||_{A^p}^p for f = sum a_t z^t, with W f^s and f^{s-1}, both of
    a's dtype: real coefficients stay real (``_backend``). The power is of
    ``a`` less its trailing zeros, which a padded rung start has."""
    v = power(trimmed(a), s - 1)
    u = conv(v, a)
    wu = u / (np.arange(len(u)) + 1.0)
    return float(np.real(np.vdot(u, wu))), wu, v


def _newton_terms(a, p, evaluated=None):
    """Objective and gradient of ||f||_{A^p}^p in real coordinates.

    Returns them with W f^s and f^{s-1} (s = p/2), which ``_hessian``
    takes so that the Hessian at ``a`` shares them. ``evaluated`` is
    ``_objective(a, p // 2)`` when the caller has it already. The
    coordinates are x = a.view(float), and the gradient is the float view
    of 2 g for the Wirtinger gradient g: 2 g itself for real ``a``, and
    2 Re g_j, 2 Im g_j interleaved for complex ``a``.
    """
    s = p // 2
    value, wu, v = _objective(a, s) if evaluated is None else evaluated
    grad = 2.0 * s * xcorr(wu, v)[:len(a)]
    return value, grad.view(float), wu, v


def _hessian(a, p, wu, v):
    """Lower triangle of the Hessian of ||f||_{A^p}^p / p at ``a``, from
    ``_newton_terms``' W f^s and v.

    With s = p/2, P = (2s^2/p) T_v^H W T_v for v = f^{s-1} and
    Q = (2s(s-1)/p) conj(Hank(h)) for h = xcorr(W f^s, f^{s-2}), the
    Hessian in x = a.view(float) has, in the rows of Re a_i and Im a_i
    and the columns of Re a_j and Im a_j, the 2 x 2 block
    [[Re(P+Q), -Im(P+Q)], [Im(P-Q), Re(P-Q)]] of entries (i, j). For real
    ``a`` the coordinates are x = Re a alone: f, v and h are then float64
    arrays, so the Hessian is P + Q, built in real arithmetic.
    Only the lower triangle is built, and the strict upper triangle is
    left unspecified: LAPACK's lower Cholesky factorization reads none of
    it. In interleaved order the lower triangle of the complex Hessian
    reads the lower triangle of P alone, the only one ``_gram`` builds.
    Either Hessian is in Fortran order, so that its factorization can
    overwrite it.
    """
    s, n1 = p // 2, len(a)
    P = _gram(v, n1, 2.0 * s * s / p)
    if s > 1:
        # zero tail so that h reaches index 2n when f^s is shorter; f^s
        # has len(wu) >= n1 coefficients (u = conv(v, a), a untrimmed), so
        # h has the 2n1 - 1 entries the Hankel view reads
        padded = np.zeros(len(wu) + n1, dtype=wu.dtype)
        padded[:len(wu)] = wu
        h = xcorr(padded, power(trimmed(a), s - 2))
        h *= 2.0 * s * (s - 1) / p
    else:
        h = np.zeros(2 * n1 - 1, dtype=a.dtype)  # Q = 0 at p = 2
    # hank[i, j] = h_{i+j}, a view of h[:2n1-1]
    hank = _strided(h, (n1, n1), (1, 1))
    if not np.iscomplexobj(a):
        P += hank
        return P

    H = np.empty((2 * n1, 2 * n1), order="F")
    # blocks[k, i, l, j] is H[2i + k, 2j + l]: Re a_i is row 2i, Im a_i 2i + 1
    blocks = H.reshape((2, n1, 2, n1), order="F")
    np.add(P.real, hank.real, out=blocks[0, :, 0])
    np.subtract(P.real, hank.real, out=blocks[1, :, 1])
    np.add(P.imag, hank.imag, out=blocks[1, :, 0])
    np.subtract(hank.imag, P.imag, out=blocks[0, :, 1])
    return H


_FLAPACK = "scipy.linalg._flapack"


def _flapack():
    """SciPy's compiled LAPACK module, without the ``scipy.linalg`` package.

    ``_newton`` needs two of its routines, ``dpotrf`` and ``dpotrs``, but
    importing ``scipy.linalg`` takes about half of a whole-process
    ``bergex solve`` and pulls in SciPy's array-API layer and
    ``numpy.f2py``. So only the top-level ``scipy`` package is imported,
    whose ``__init__`` is lazy and sets up the wheel's library path, and
    the f2py extension ``scipy/linalg/_flapack`` is loaded from the file
    that Python's path finder finds for it in that directory.
    It is registered in ``sys.modules`` under its own name, so a later
    ``import scipy.linalg`` reuses it, and ``scipy.linalg.lapack``
    re-exports these same routine objects; when ``scipy.linalg`` came
    first, its module is returned.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, [directory])
    if spec is None:
        raise ImportError(
            f"no compiled LAPACK module _flapack in {directory} "
            f"(SciPy {scipy.__version__})")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def _newton(c_hat, p, a, tolerance):
    """Damped Newton on J(f) = ||f||_{A^p}^p / p - Re phi_hat(f).

    ``c_hat`` is the kernel scaled so that Re phi_hat(c_hat) = 1, and ``a``
    is the start, first scaled to the minimum of J on its ray. That needs
    Re phi_hat(a) > 0, which every start ``solve_ladder`` passes has: the
    lowest rung starts at ``c_hat``, and each higher one at an iterate of
    the rung below, where J < 0 (the line search only lowers J from the
    negative minimum on the start's ray). The iterate is x = a.view(float)
    for coefficients a of ``c_hat``'s dtype. Each iteration that steps
    before meeting the tolerance builds and factors the Hessian; the
    iteration that meets it takes its final step with the last factor, and
    builds one only when it is iteration 0 (see the module docstring). A
    rung that is not requested builds that Hessian too, although its step
    only refines the start of the rung above: without it, the 18
    standard-family solves (default seed, p = 4 and 6)
    built 118 Hessians instead of 126, but their requested degrees took
    more iterations, each with a full-size Hessian (cubic-mix at n = 352 2
    instead of 1, random-0 1 instead of 0 at both p, random-1 1 instead of
    0 at p = 6).

    Returns the coefficients, the trace of (iteration, J, gradient norm)
    floats and a failure message: None on convergence, when the last
    trace entry is the iteration that met the tolerance; otherwise the
    coefficients are the last iterate. The budget is
    DEFAULT_MAX_ITERATIONS iterations: on the standard family and the
    random kernels of seeds 1-40, at p = 4..32, no rung took more than
    25.
    """
    # loaded here, its only user: bergex verify and the checks never factor
    lapack = _flapack()
    dpotrf, dpotrs = lapack.dpotrf, lapack.dpotrs

    s, dtype = p // 2, c_hat.dtype
    # b is the gradient of Re phi_hat(f) = b @ x. A start from a real rung
    # below a complex one takes c_hat's dtype.
    b = (c_hat / (np.arange(len(c_hat)) + 1.0)).view(float)
    # J(t x) = t^p N/p - t b @ x is least at t^(p-1) = b @ x / N, for
    # N = ||x||_{A^p}^p; an exact power-of-two rescale first keeps N finite.
    # A start already at its minimum (a converged rung below, padded) keeps
    # its evaluation for iteration 0, as does every accepted trial point.
    x = rescaled(a.astype(dtype, copy=False))[0].view(float)
    evaluated = _objective(x.view(dtype), s)
    scale = (b @ x / evaluated[0]) ** (1.0 / (p - 1))
    if scale != 1.0:
        x, evaluated = x * scale, None

    trace = []
    gnorm = best_value = best_gnorm = np.inf
    factor = None
    for it in range(DEFAULT_MAX_ITERATIONS):
        value, grad, wu, v = _newton_terms(x.view(dtype), p, evaluated)
        value, grad = value / p - b @ x, grad / p - b
        gnorm = float(np.linalg.norm(grad))
        trace.append((it, float(value), gnorm))
        converged = gnorm <= tolerance
        # Only a step at the float floor, or no step (the line search's
        # exit below), leaves the objective flat; if the iterate beats
        # neither the best value nor the best gradient so far (which also
        # catches a 2-cycle), no further step can help.
        if not converged and value >= best_value and gnorm >= best_gnorm:
            return x.view(dtype), tuple(trace), (
                f"no progress at iteration {it}: gradient norm {gnorm:.3e} is "
                f"at its float floor, tolerance {tolerance:.1e}")
        best_value, best_gnorm = min(best_value, value), min(best_gnorm, gnorm)
        # the final step reuses the last factor (module docstring)
        if not converged or factor is None:
            # LAPACK directly: scipy.linalg's cho_factor and cho_solve
            # call these same routines behind a per-call batching layer.
            # Iteration 0 always factors, so the load at the top of this
            # function comes just before a process's first factorization.
            # The lower triangle, the one _hessian builds, is factored in
            # place and the strict upper triangle is never read.
            factor, info = dpotrf(_hessian(x.view(dtype), p, wu, v),
                                  lower=1, overwrite_a=1, clean=0)
            if info != 0:
                return x.view(dtype), tuple(trace), (
                    f"Hessian not positive definite at iteration {it}")
        d = -dpotrs(factor, grad, lower=1)[0]
        slope = float(grad @ d)

        # Armijo backtracking. J is negative near its minimum, so the float
        # resolution is taken relative to |J|. A predicted decrease |slope|
        # below it cannot be resolved, so the full step is taken; otherwise
        # equality within round-off counts as acceptance.
        t, evaluated = 1.0, None
        while abs(slope) > 1e-15 * abs(value):
            y = x + t * d
            # a long step at large p can overflow |f|^p; its J is then
            # inf or NaN, which fails both tests below and backtracks
            with np.errstate(over="ignore", invalid="ignore"):
                trial = _objective(y.view(dtype), s)
            new_value = trial[0] / p - b @ y
            if (new_value <= value + 1e-4 * t * slope
                    or new_value <= value + 1e-15 * abs(value)):
                evaluated = trial
                break
            t *= 0.5
            if t < 1e-16:
                # no step: a converged iterate is kept, and any other one
                # evaluates the same at the next iteration, which ends it
                # at the no-progress test
                t = 0.0
                break
        x = x + t * d
        if converged:
            return x.view(dtype), tuple(trace), None
    return x.view(dtype), tuple(trace), (
        f"no convergence in {DEFAULT_MAX_ITERATIONS} iterations "
        f"(last gradient norm {gnorm:.3e})")


def _rungs(n):
    """The degrees n >> j that are at least MIN_RUNG_DEGREE, then n itself."""
    rungs = [n]
    while rungs[0] // 2 >= MIN_RUNG_DEGREE:
        rungs.insert(0, rungs[0] // 2)
    return rungs


def solve_ladder(p, kernel, degrees):
    """One degree ladder through ``degrees`` (see the module docstring).

    Yields, once per distinct degree d in ascending order, the
    ``ExtremalSolution`` of ``ExtremalProblem(p, kernel, d)``. For each d
    the ladder appends the rungs of ``_rungs(d)`` above its last rung,
    skipping those on which the truncated kernel vanishes. A requested
    degree solves to TOLERANCE, read as the ladder runs. A rung that is
    not requested solves to sqrt(TOLERANCE), its chord final step
    included (see the module docstring), and passes its last iterate up,
    even one that failed; a requested degree that fails raises
    ``NonConvergenceError`` with its own trace. Before any solve it raises
    ValueError unless ``degrees`` is a non-empty list of working degrees
    (``_check_degrees`` with ``least=1``) and ``ExtremalProblem(p, kernel,
    d)`` takes the lowest d, with that problem's message. The lowest rung
    starts from the normalized truncated kernel, every higher one from the
    iterate of the rung below. A degree below the kernel's solves S_d k, as
    the studies and oracle-compare do on purpose.
    """
    _check_degrees(degrees, least=1)
    degrees = sorted(set(degrees))
    # the problem at the lowest degree checks the rest: S_d k contains S_m k
    # for m <= d
    ExtremalProblem(p, kernel, degrees[0])
    rungs = []
    for d in degrees:
        # a rung on which the truncated kernel vanishes has no functional
        rungs += [m for m in _rungs(d) if m > max(rungs, default=-1)
                  and kernel.coeffs[:m + 1].any()]
    a = None
    for m in rungs:
        # F depends on the kernel's direction alone: the A^2 norm of the
        # rescaled kernel is finite at any scale, and c_hat, with
        # Re phi_hat(c_hat) = 1, keeps the objective O(1).
        c_hat = rescaled(taylor_truncate(kernel, m).padded(m + 1))[0]
        c_hat /= np.sqrt(np.sum(np.abs(c_hat) ** 2 / (np.arange(m + 1) + 1.0)))
        # c_hat on the lowest rung, then the rung below's iterate,
        # zero-filled (np.pad costs far more per call)
        if a is None:
            a = c_hat
        else:
            start = np.zeros(m + 1, a.dtype)
            start[:len(a)] = a
            a = start
        # a rung that is not requested only starts the one above it
        requested = m in degrees
        tolerance = TOLERANCE if requested else math.sqrt(TOLERANCE)
        a, trace, failure = _newton(c_hat, p, a, tolerance)
        if not requested:
            continue
        if failure is not None:
            raise NonConvergenceError(f"degree {m}: {failure}", trace)
        f = AnalyticPoly(a)
        F = AnalyticPoly(f.coeffs / bergman_norm_even(f, p))
        phi_norm = float(functional_value(kernel, F).real)
        yield ExtremalSolution(
            F=F, phi_norm=phi_norm,
            residual_max=_certificate(F, kernel, p, phi_norm, m),
            iterations=trace[-1][0], trace=trace, p=p, kernel=kernel,
            degree=m)


def solve_extremal(problem):
    """Solve the extremal problem over P_n and measure its certificate.

    Returns an ``ExtremalSolution`` whose F has unit A^p norm and whose
    phi_norm equals Re phi(F) for the original kernel. Newton steps on J,
    for the kernel scaled to unit A^2 norm, run until the Euclidean norm
    of J's gradient in real coordinates is at most TOLERANCE; one more
    step, with the Cholesky factor of the step before it, is applied
    before returning and puts the gradient at its float floor. Raises
    ``NonConvergenceError`` (trace of J values attached) if TOLERANCE is
    not met within DEFAULT_MAX_ITERATIONS Newton iterations, or if an
    iterate improves neither the best objective value nor the best
    gradient norm before it, as at the gradient's float floor or after a
    line search that finds no acceptable step.

    This is ``solve_ladder`` at the one degree n, which climbs
    ``_rungs(n)`` from the normalized kernel; ``iterations`` and ``trace``
    describe degree n alone.

    A kernel whose truncation to P_n is float64 is solved in the real
    coordinates x = Re a (see the module docstring). Any other kernel is
    solved in x = a.view(float64), Re a_j and Im a_j interleaved.
    """
    return next(solve_ladder(problem.p, problem.kernel, [problem.degree]))


def brute_force_oracle(k, p, degree):
    """Independent solve over a small space by Newton on disc quadrature.

    Returns the unit-norm extremal F as an ``AnalyticPoly``. Minimizes the
    same convex objective as ``solve_extremal``, J(f) = ||f||_{A^p}^p / p
    - Re phi(f), whose minimizer is ||phi||^{1/(p-1)} F, by point sums on
    a disc quadrature (Gauss-Legendre in r^2 times uniform angles, exact
    for |f|^p at every degree allowed here, summed over blocks of radii),
    sharing nothing with the solver's coefficient machinery so that the
    two check each other. With V the Vandermonde matrix at the nodes, w
    the weights, y = V a, x = (Re a, Im a), R = [Re V, -Im V] and
    I = [Im V, Re V] (so Re y = R x, Im y = I x), alpha = w |y|^{p-2} and
    beta = (p-2) w |y|^{p-4}, J has

        gradient  R^T (alpha Re y) + I^T (alpha Im y) - b,
        Hessian   R^T diag(alpha) R + I^T diag(alpha) I + M^T diag(beta) M,

    for b the gradient of Re phi and M = diag(Re y) R + diag(Im y) I; the
    beta term vanishes at p = 2. Each power |y|^e is taken as ((Re y)^2 +
    (Im y)^2)^(e/2), with no square root. The grid is a tensor product of
    radii and angles, so on a block of radii y is one small product of the
    radii's powers r^t x_t by a table of e^{i t theta} at the angles,
    which J needs alone; R and I are built for one block at a time where
    the gradient and the Hessian sum over it, so the memory is one block's
    at every p. Damped Newton with Armijo backtracking (Nocedal & Wright,
    Numerical Optimization, 2nd ed., ch. 3) starts from the truncated
    kernel scaled to the minimum of J on its ray, the p = 2 answer. One
    deterministic start suffices: J is strictly convex, so its minimum is
    its only stationary point. A trial point whose |y|^p overflows has J =
    inf and is rejected. Once the predicted decrease -g^T d is below the
    float resolution of |J|, one full step ends the solve; after
    DEFAULT_MAX_ITERATIONS steps without that, ``NonConvergenceError``
    carries the trace of (iteration, J, gradient norm). phi reads c_0..c_n
    alone, divided by ``rescaled``'s power of two, since F does not depend
    on the kernel's scale. Raises ValueError as ``ExtremalProblem(p, k,
    degree)`` does, and for a degree above 8.
    """
    ExtremalProblem(p, k, degree)
    _require(degree <= 8, "oracle is meant for small spaces (degree <= 8)")
    n1 = degree + 1
    c = rescaled(k.padded(n1))[0]
    # angles above the bandwidth p n of |f|^p, and Gauss-Legendre in rho =
    # r^2, in which every integrand's angular mean has degree (p/2) n; the
    # area measure is d rho dtheta / 2pi
    x_gl, w_gl = leggauss(max(8, p * degree // 4 + 2))
    angular = 1 << max(3, (p * degree + 1).bit_length())
    # the rows of R and I on the unit circle, from e^{i t theta}, t <= n, at
    # every angle; on the circle r = sqrt(rho) they are r^t times these
    circle = np.exp(2j * np.pi * np.arange(angular) / angular)[:, None]
    circle = circle ** np.arange(n1)
    unit = np.stack([np.hstack([circle.real, -circle.imag]),
                     np.hstack([circle.imag, circle.real])])
    powers = np.tile(np.sqrt(0.5 * (x_gl + 1.0))[:, None] ** np.arange(n1), 2)
    radii = max(1, (1 << 16) // angular)

    def at(x, rows=False):
        """Per block of radii, at most 2^16 points: R and I (None unless
        ``rows``), w, Re y and Im y. Re y and Im y are one small product
        of the block's r^t x_t by ``unit``; R and I, contiguous (BLAS reads
        strided parts 3x slower), are built for one block at a time."""
        for i in range(0, len(x_gl), radii):
            re, im = (powers[i:i + radii] * x) @ unit.transpose(0, 2, 1)
            R, I = ((powers[i:i + radii, None] * unit[:, None]).reshape(
                2, -1, 2 * n1) if rows else (None, None))
            yield (R, I, np.repeat(w_gl[i:i + radii] / (2 * angular), angular),
                   re.ravel(), im.ravel())

    def norm_p(x):  # sum w |y|^p, inf once |y|^p overflows
        with np.errstate(over="ignore"):
            return sum(w @ (re * re + im * im) ** (p // 2)
                       for _, _, w, re, im in at(x))

    def J(x):
        return float(norm_p(x) / p - b @ x)
    # b = R^T (w Re k) + I^T (w Im k) at the nodes. J(t x) is least at
    # t^(p-1) = b @ x / N, N = sum w |y|^p, in (0, 1] once max |y| = 1
    x = np.concatenate([c.real, c.imag])
    b = sum(R.T @ (w * re) + I.T @ (w * im)
            for R, I, w, re, im in at(x, rows=True))
    x /= max(np.max(np.hypot(re, im)) for *_, re, im in at(x))
    x *= (b @ x / norm_p(x)) ** (1.0 / (p - 1))
    value, trace = J(x), []
    for it in range(DEFAULT_MAX_ITERATIONS):
        grad, hess = -b, 0.0
        for R, I, w, re, im in at(x, rows=True):
            square = re * re + im * im
            alpha = w * square ** (p // 2 - 1)
            grad = grad + R.T @ (alpha * re) + I.T @ (alpha * im)
            hess = (hess + R.T @ (alpha[:, None] * R)
                    + I.T @ (alpha[:, None] * I))
            if p > 2:
                M = re[:, None] * R + im[:, None] * I
                beta = (p - 2) * w * square ** (p // 2 - 2)
                hess = hess + M.T @ (beta[:, None] * M)
        d = np.linalg.solve(hess, -grad)
        slope = float(grad @ d)
        trace.append((it, value, float(np.linalg.norm(grad))))
        if -slope <= 1e-15 * abs(value):
            x += d
            scale = float(norm_p(x)) ** (1.0 / p)
            return AnalyticPoly((x[:n1] + 1j * x[n1:]) / scale)
        # Armijo; as t shrinks, x + t d rounds to x, which ends the loop
        t = 1.0
        while (trial := J(x + t * d)) > value + 1e-4 * t * slope:
            t *= 0.5
        x, value = x + t * d, trial
    raise NonConvergenceError(
        f"oracle: no convergence in {DEFAULT_MAX_ITERATIONS} iterations",
        tuple(trace))
