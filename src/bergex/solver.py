"""Solver for the linear extremal problem over the Bergman space A^p.

For an even integer p and a polynomial kernel k representing the
functional phi(f) = integral_D f conj(k) dsigma, the problem solved here
is

    minimize ||f||_{A^p}^p  over  {f in P_n : phi(f) = 1},

whose normalized minimizer F = f / ||f|| maximizes Re phi on the unit
sphere of P_n. In real coordinates x = (Re a, Im a) the two constraints
Re phi(f) = 1, Im phi(f) = 0 are two linear rows A x = (1, 0), and the
objective is smooth and strictly convex because p is even. It is
minimized by damped Newton on the KKT system [[H, A^T], [A, 0]] with the
exact Hessian H and a backtracking line search (Nocedal & Wright,
Numerical Optimization, 2nd ed., ch. 16 and 18).

When the kernel's coefficients on P_n are all real, conj(F(conj z)) is
extremal too, so by uniqueness F has real coefficients. The solve then
runs in x = Re a alone: n+1 unknowns, the one row Re phi(f) = 1 (the
imaginary row holds identically), a Gram matrix in real arithmetic and a
Cholesky factorization of size n+1 instead of 2(n+1). In exact arithmetic
these are the iterates of the full system, which never leave the real
slice from a real start; in floating point F's imaginary parts are then
exactly zero.

The truncated solutions F_n settle as n grows, so the solve starts by
degree continuation: it climbs the ladder of degrees n >> j that are at
least MIN_RUNG_DEGREE (one rung, n itself, below degree 32). The lowest
rung starts from the normalized truncated kernel; each higher rung starts
from the iterate of the rung below, zero-padded and divided by its value
of Re phi_hat so that it lies on the new slice. Each rung is the same
Newton solve (``_newton``) with the problem's tolerance and iteration
budget, in real coordinates whenever its truncated kernel is real. The
requested degree then typically needs one or two iterations instead of
the whole damped phase at full size; only it can fail the solve, and
only its iterations and trace are reported.

Everything the optimizer touches is exact coefficient arithmetic: with
s = p/2, u = f^s and v = f^{s-1}, the Wirtinger gradient of the objective
is

    d/d conj(a_j) ||f||_p^p = s * <u, z^j v>_A = s * sum_t u_{t+j} conj(v_t)/(t+j+1),

a single weighted cross-correlation; the exact Hessian adds one more and
a banded Gram matrix (``_newton_terms``). The same pairings at the
optimum reproduce the extremality characterization

    integral_D z^j F^{s-1} conj(F)^s dsigma = phi(z^j) / ||phi||,

which is what ``extremality_residual`` certifies and what
``kernel_from_extremal`` inverts.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve
from scipy.special import roots_legendre

from ._backend import conv, xcorr
from .poly import AnalyticPoly, power, taylor_truncate
from .spaces import bergman_norm_even, functional_value

DEFAULT_TOLERANCE = 1e-10
DEFAULT_CERTIFICATE_TOL = 1e-8
DEFAULT_MAX_ITERATIONS = 100
# lowest degree of the ladder that solve_extremal climbs to degree n
MIN_RUNG_DEGREE = 16
# derivative-free restarts of brute_force_oracle, the first from zero
_ORACLE_STARTS = 3


class NonConvergenceError(RuntimeError):
    """Solver failed to meet tolerance; carries the iteration trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ExtremalProblem:
    """One solve: exponent p, kernel k, working degree n, and tolerances."""

    p: int
    kernel: AnalyticPoly
    degree: int
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.p < 2 or self.p % 2 != 0:
            raise ValueError(f"p must be an even integer >= 2, got {self.p}")
        if self.kernel.is_zero():
            raise ValueError("kernel must not be identically zero")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if taylor_truncate(self.kernel, self.degree).is_zero():
            raise ValueError(
                "kernel vanishes on the working space P_n; raise the degree"
            )
        if self.degree < self.kernel.degree:
            warnings.warn(
                "working degree below kernel degree: the functional is "
                "truncated to P_n",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ExtremalSolution:
    """Certified output of a solve.

    ``phi_norm`` is the norm of the functional restricted to P_n (it
    approaches the full-space norm from below as n grows). ``residual_max``
    is the largest extremality-characterization residual over the
    monomials z^j, j = 0..max(2, p/2) n: the pairings vanish past
    j = (p/2) n, and the kernel side past deg k. ``iterations`` and ``trace`` belong to the
    Newton solve at degree n alone, not to the lower rungs of the ladder.
    """

    F: AnalyticPoly
    phi_norm: float
    residual_max: float
    iterations: int
    trace: tuple
    p: int
    kernel: AnalyticPoly
    degree: int

    @property
    def certified(self):
        return self.residual_max <= DEFAULT_CERTIFICATE_TOL


def _pairings(F, p, count):
    """<u, z^j v>_A for j = 0..count-1, with u = F^{p/2}, v = F^{p/2-1}."""
    s = p // 2
    u = power(F, s).coeffs
    v = power(F, s - 1).coeffs
    wu = u / (np.arange(len(u)) + 1.0)
    if len(wu) < count:
        wu = np.concatenate([wu, np.zeros(count - len(wu), dtype=complex)])
    out = xcorr(wu, v)[:count]
    if len(out) < count:
        out = np.concatenate([out, np.zeros(count - len(out), dtype=complex)])
    return out


def gradient_norm_p(f, p):
    """Wirtinger gradient of ||f||_{A^p}^p with respect to conj(a_j).

    Component j equals (p/2) * <f^{p/2}, z^j f^{p/2-1}>_A. Exact in
    coefficients; the solver's ``_newton_terms`` evaluates the same
    expression.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    if f.is_zero():
        return np.zeros(0, dtype=complex)
    s = p // 2
    return s * _pairings(f, p, len(f.coeffs))


def extremality_residual(F, k, p, phi_norm, max_test_degree):
    """Characterization residuals against the monomials z^j.

    Entry j is integral_D z^j F^{s-1} conj(F)^s dsigma - phi(z^j)/phi_norm
    for j = 0..max_test_degree, all integrals exact in coefficients. For
    a true extremal function every entry vanishes; the maximum modulus is
    the certificate the solver reports.
    """
    count = max_test_degree + 1
    pair = np.conj(_pairings(F, p, count))
    c = k.padded(count)
    rhs = np.conj(c) / ((np.arange(count) + 1.0) * phi_norm)
    return pair - rhs


def kernel_from_extremal(F, p, out_degree):
    """Recover the representing kernel of a unit-norm extremal function.

    Inverts the characterization: c_j = (j+1) * conj(pairing_j) with the
    normalization ||phi|| = 1. The kernel of the original problem is this
    one up to a positive scalar.
    """
    if F.is_zero():
        raise ValueError("extremal function must not be zero")
    pair = _pairings(F, p, out_degree + 1)
    c = (np.arange(out_degree + 1) + 1.0) * pair
    return AnalyticPoly(c)


def _gram(v, n1):
    """T_v^H W T_v for the convolution matrix T_v of v cut to n1 columns.

    Entry (i, j) is sum_m conj(v_{m-i}) v_{m-j} / (m+1). The sum runs over
    row blocks of T_v, each cut to the band where it is nonzero, so that no
    temporary is larger than the n1 x n1 result. The result has the dtype
    of v (real v, real arithmetic) and Fortran order.
    """
    rows = len(v) + n1 - 1
    # T[m, i] = v_{m-i}, a strided view of the zero-padded v
    T = sliding_window_view(np.pad(v, n1 - 1), n1)[:, ::-1]
    root_w = 1.0 / np.sqrt(np.arange(rows) + 1.0)
    out = np.zeros((n1, n1), dtype=v.dtype, order="F")
    block = n1 // 2 + 1
    for m0 in range(0, rows, block):
        c0, c1 = max(0, m0 - len(v) + 1), min(n1, m0 + block)
        b = T[m0:m0 + block, c0:c1] * root_w[m0:m0 + block, None]
        out[c0:c1, c0:c1] += b.conj().T @ b
    return out


def _objective(a, s):
    """||f||_{A^p}^p for f = sum a_t z^t, with W f^s and f^{s-1}."""
    v = power(AnalyticPoly(a), s - 1).coeffs
    u = conv(v, a)
    wu = u / (np.arange(len(u)) + 1.0)
    return float(np.real(np.vdot(u, wu))), wu, v


def _newton_terms(a, p):
    """Objective, gradient and Hessian of ||f||_{A^p}^p in real coordinates.

    With s = p/2, P = s^2 T_v^H W T_v for v = f^{s-1} and
    Q = s(s-1) conj(Hank(h)) for h = xcorr(W f^s, f^{s-2}), the Hessian in
    x = (Re a, Im a) is 2 [[Re(P+Q), -Im(P+Q)], [Im(P-Q), Re(P-Q)]]. For
    real ``a`` the coordinates are x = Re a alone: f, v and h are then real
    (up to FFT round-off, which is dropped), so the gradient is 2 Re g and
    the Hessian is the upper-left block 2 (P+Q), built in real arithmetic.
    Either Hessian is in Fortran order, so that its Cholesky factorization
    can overwrite it.
    """
    s, n1 = p // 2, len(a)
    real = not np.iscomplexobj(a)
    value, wu, v = _objective(a, s)
    g = s * xcorr(wu, v)[:n1]
    P = _gram(v.real if real else v, n1)
    P *= 2.0 * s * s
    if s > 1:
        # zero tail so that h reaches index 2n when f^s is shorter
        h = xcorr(np.pad(wu, (0, n1)), power(AnalyticPoly(a), s - 2).coeffs)
        hank = sliding_window_view(h[:2 * n1 - 1], n1)
    if real:
        if s > 1:
            P += 2.0 * s * (s - 1) * hank.real
        return value, 2.0 * g.real, P

    grad = np.concatenate([2.0 * g.real, 2.0 * g.imag])
    H = np.empty((2 * n1, 2 * n1), order="F")
    H[:n1, :n1] = P.real
    np.negative(P.imag, out=H[:n1, n1:])
    H[n1:, :n1] = P.imag
    H[n1:, n1:] = P.real
    if s > 1:
        P[...] = hank
        P *= 2.0 * s * (s - 1)
        H[:n1, :n1] += P.real
        H[:n1, n1:] += P.imag
        H[n1:, :n1] += P.imag
        H[n1:, n1:] -= P.real
    return value, grad, H


def _newton(c_hat, p, a, tolerance, max_iterations):
    """Damped Newton on the slice Re phi_hat(f) = 1, Im phi_hat(f) = 0.

    ``c_hat`` is the kernel scaled so that Re phi_hat(c_hat) = 1, and ``a``
    is the start, projected onto the slice first. A real ``c_hat`` runs in
    x = Re a with the one row Re phi_hat(f) = 1. Returns the coefficients,
    the trace and a failure message: None on convergence, when the last
    trace entry is the iteration that met the tolerance; otherwise the
    coefficients are the last iterate.
    """
    s, n1 = p // 2, len(c_hat)
    real = not np.any(c_hat.imag)
    # Rows of A x = (1, 0) in x = (Re a, Im a): Re phi(f) = 1 and
    # Im phi(f) = 0. They are orthogonal with equal norms r, so
    # A A^T = r I and x0 = A_0 / r is the particular point. A real kernel
    # has a real extremal function, so x = Re a and the one row
    # Re phi(f) = 1 suffice: Im phi(f) = 0 holds identically there.
    cw = c_hat / (np.arange(n1) + 1.0)
    if real:
        A = cw.real[None, :]

        def coeffs(x):
            return x
    else:
        A = np.array([np.concatenate([cw.real, cw.imag]),
                      np.concatenate([-cw.imag, cw.real])])

        def coeffs(x):
            return x[:n1] + 1j * x[n1:]
    r = A[0] @ A[0]

    def project(y):
        return y - A.T @ (A @ y) / r

    x = A[0] / r + project(a.real if real else np.concatenate([a.real, a.imag]))

    trace = []
    gnorm = best_value = best_gnorm = np.inf
    for it in range(max_iterations):
        value, grad, H = _newton_terms(coeffs(x), p)
        gnorm = float(np.linalg.norm(project(grad)))
        trace.append((it, value, gnorm))
        converged = gnorm <= tolerance
        # Only a step at the float floor leaves the objective flat; if the
        # iterate beats neither the best value nor the best gradient so far
        # (which also catches a 2-cycle), no further step can help.
        if not converged and value >= best_value and gnorm >= best_gnorm:
            return coeffs(x), tuple(trace), (
                f"no progress at iteration {it}: gradient norm {gnorm:.3e} is "
                f"at its float floor, tolerance {tolerance:.1e}")
        best_value, best_gnorm = min(best_value, value), min(best_gnorm, gnorm)
        # KKT system [[H, A^T], [A, 0]] [d; lam] = [-grad; 0]: Cholesky of
        # H (overwritten) and the Schur complement A H^-1 A^T (1 x 1 or 2 x 2)
        try:
            factor = cho_factor(H, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            return coeffs(x), tuple(trace), (
                f"Hessian not positive definite at iteration {it}")
        Y = cho_solve(factor, np.column_stack([grad, A.T]), check_finite=False)
        d = Y[:, 1:] @ np.linalg.solve(A @ Y[:, 1:], A @ Y[:, 0]) - Y[:, 0]
        slope = float(grad @ d)

        # Armijo backtracking. A predicted decrease |slope| below the
        # objective's float resolution cannot be resolved, so the full step
        # is taken; otherwise equality within round-off counts as
        # acceptance.
        t = 1.0
        while abs(slope) > 1e-15 * value:
            new_value = _objective(coeffs(x + t * d), s)[0]
            if new_value <= value + 1e-4 * t * slope or new_value <= value * (1 + 1e-15):
                break
            t *= 0.5
            if t < 1e-16:
                if converged:
                    t = 0.0  # keep the converged iterate
                    break
                return coeffs(x), tuple(trace), (
                    f"line search stalled at iteration {it} "
                    f"(gradient norm {gnorm:.3e}, tolerance {tolerance:.1e})")
        x = x + t * d
        if converged:
            return coeffs(x), tuple(trace), None
    return coeffs(x), tuple(trace), (
        f"no convergence in {max_iterations} iterations "
        f"(last gradient norm {gnorm:.3e})")


def _rungs(n):
    """The degrees n >> j that are at least MIN_RUNG_DEGREE, then n itself."""
    rungs = [n]
    while rungs[0] // 2 >= MIN_RUNG_DEGREE:
        rungs.insert(0, rungs[0] // 2)
    return rungs


def solve_extremal(problem, start=None):
    """Solve the extremal problem over P_n and certify the result.

    Returns an ``ExtremalSolution`` whose F has unit A^p norm and whose
    phi_norm equals Re phi(F) for the original kernel. Newton steps run
    until the gradient projected onto the slice is at most the tolerance;
    the step already computed there is applied before returning. Raises
    ``NonConvergenceError`` (trace attached) if the tolerance is not met
    within ``max_iterations``, or if the line search or the gradient
    stalls (at its float floor) before it.

    Without a ``start`` the solve climbs the degree ladder ``_rungs(n)``
    (see the module docstring): the lowest rung starts from the normalized
    truncated kernel, which is already optimal for p = 2, and each higher
    rung from the zero-padded solution of the rung below. Every rung has
    the problem's tolerance and iteration budget; a rung below n that
    fails passes its last iterate up, and only degree n raises.
    ``iterations`` and ``trace`` describe degree n alone.

    ``start`` instead seeds one solve at degree n with a candidate
    polynomial; it is orthogonally projected onto the feasible affine
    slice, so any polynomial of degree <= n works. The minimized objective
    is strictly convex on the slice, so every start reaches the same
    solution.

    A kernel whose coefficients on P_n are all real is solved in the real
    coordinates x = Re a (see the module docstring), where the slice is the
    real one: the projection of ``start`` onto it drops its imaginary part.
    Any other kernel is solved in x = (Re a, Im a).
    """
    p, n = problem.p, problem.degree
    c = problem.kernel.padded(n + 1)
    # a rung on which the truncated kernel vanishes has no functional
    rungs = [n] if start is not None else [m for m in _rungs(n)
                                           if np.any(c[:m + 1])]
    a = None
    for m in rungs:
        # Scale invariance: dividing by max|c_t| before the A^2 norm keeps
        # any kernel scale finite, and c_hat, with Re phi_hat(c_hat) = 1,
        # keeps the objective O(1).
        c_hat = c[:m + 1] / np.max(np.abs(c[:m + 1]))
        c_hat /= np.sqrt(np.sum(np.abs(c_hat) ** 2 / (np.arange(m + 1) + 1.0)))
        if a is None:
            a = c_hat if start is None else start.padded(m + 1)
        else:
            # the rung below's iterate, zero-padded and scaled onto this slice
            a = np.pad(a, (0, m + 1 - len(a)))
            a = a / np.real(np.vdot(c_hat / (np.arange(m + 1) + 1.0), a))
        a, trace, failure = _newton(c_hat, p, a, problem.tolerance,
                                    problem.max_iterations)
    if failure is not None:
        raise NonConvergenceError(failure, trace)

    f = AnalyticPoly(a)
    F = AnalyticPoly(f.coeffs / bergman_norm_even(f, p))
    phi_norm = float(functional_value(problem.kernel, F).real)
    residuals = extremality_residual(F, problem.kernel, p, phi_norm,
                                     max(2, p // 2) * n)
    return ExtremalSolution(
        F=F,
        phi_norm=phi_norm,
        residual_max=float(np.max(np.abs(residuals))),
        iterations=trace[-1][0],
        trace=trace,
        p=p,
        kernel=problem.kernel,
        degree=n,
    )


def brute_force_oracle(k, p, degree=3, seed=7):
    """Independent solve over a small space by derivative-free search.

    Minimizes the unconstrained convex surrogate

        J(f) = ||f||_{A^p}^p / p - Re phi(f)

    whose minimizer is ||phi||^{1/(p-1)} F, using disc quadrature for the
    objective (no coefficient identities, no analytic gradients) and
    Nelder-Mead/Powell restarts followed by a finite-difference Newton
    polish. Everything here is deliberately disjoint from the production
    solver's machinery so the two can check each other.

    Returns the unit-norm extremal candidate as an ``AnalyticPoly``.
    """
    # imported here, its only user: scipy.optimize is slow to import
    from scipy.optimize import minimize

    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    if degree < 0 or degree > 8:
        raise ValueError("oracle is meant for small spaces (degree <= 8)")
    n1 = degree + 1

    # quadrature exact for |poly of degree n|^p: radial Gauss-Legendre,
    # uniform angular sampling above the integrand bandwidth
    radial = max(16, p * degree // 2 + 4)
    x_gl, w_gl = roots_legendre(radial)
    r = 0.5 * (x_gl + 1.0)
    wr = 0.5 * w_gl * 2.0 * r
    angular = 1 << max(3, (p * degree + 1).bit_length())
    zs = np.exp(2j * np.pi * np.arange(angular) / angular)
    pts = np.outer(r, zs).ravel()
    wts = np.repeat(wr / angular, angular)
    V = pts[:, None] ** np.arange(n1)
    kv = np.polyval(k.coeffs[::-1], pts) if not k.is_zero() else np.zeros_like(pts)
    wk = wts * np.conj(kv)

    def J(x):
        a = x[:n1] + 1j * x[n1:]
        va = V @ a
        return float(wts @ np.abs(va) ** p) / p - float(np.real(wk @ va))

    rng = np.random.default_rng(seed)
    best_x, best_f = None, np.inf
    for i in range(_ORACLE_STARTS):
        x = rng.standard_normal(2 * n1) * (0.5 if i else 0.0)
        for _ in range(2):
            res = minimize(J, x, method="Nelder-Mead",
                           options=dict(xatol=1e-13, fatol=1e-16,
                                        maxiter=4000, adaptive=True))
            x = res.x
            res = minimize(J, x, method="Powell",
                           options=dict(xtol=1e-13, ftol=1e-16, maxiter=4000))
            x = res.x
        if res.fun < best_f:
            best_x, best_f = x, res.fun

    # Function-value-only quadratic model: central differences for
    # gradient and Hessian, then Newton steps. Breaks through the
    # sqrt(eps) accuracy wall that simplex and line-search methods hit.
    x = best_x
    dim = 2 * n1
    hg, hh = 5e-6, 1e-4
    eye = np.eye(dim)
    for _ in range(3):
        g = np.array([(J(x + hg * e) - J(x - hg * e)) / (2 * hg) for e in eye])
        Hm = np.zeros((dim, dim))
        j0 = J(x)
        for i in range(dim):
            Hm[i, i] = (J(x + hh * eye[i]) - 2 * j0 + J(x - hh * eye[i])) / hh ** 2
            for jj in range(i):
                Hm[i, jj] = Hm[jj, i] = (
                    J(x + hh * (eye[i] + eye[jj]))
                    - J(x + hh * (eye[i] - eye[jj]))
                    - J(x - hh * (eye[i] - eye[jj]))
                    + J(x - hh * (eye[i] + eye[jj]))
                ) / (4 * hh ** 2)
        try:
            step = np.linalg.solve(Hm, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1.0:
            break
        x = x + step
        if np.linalg.norm(step) < 1e-12:
            break

    a = x[:n1] + 1j * x[n1:]
    scale = float(wts @ np.abs(V @ a) ** p) ** (1.0 / p)
    return AnalyticPoly(a / scale)
