"""Machine-checkable reports for the identities an extremal function obeys.

Each check compares an exactly computed left side against an exactly
computed right side and reports the residual with a verdict. The central
identity family is the weighted boundary formula: for the extremal F of a
kernel k, any analytic polynomial h, and K the coefficientwise c_t/(t+1)
transform of k,

    (1/2pi) int |F|^p h dtheta
        = (1/(2pi ||phi||)) int F [ (p/2) h conj(k) + (1-p/2) (zh)' conj(K) ] dtheta.

Taking h = 1 gives the norm-equality for ||F||_{H^p}^p; taking h = z^m
gives the Fourier-coefficient formula for |F|^p. Both sides are linear in
h, so ``_boundary_sides`` computes them at every h = z^m at once, as two
arrays that depend on the solution alone; every check reads its entries.
A single check and a batch give the same floats, and the m = 0 Fourier
residual equals the norm-equality residual, by construction.

The left sides are the Fourier coefficients b_0..b_{(p/2) n} of |F|^p,
from one autocorrelation of F^{p/2} (``abs_power_spectrum``), and the
coefficient-bound sweep reads the same array.

The solver works over P_n while the identities hold for the full-space
extremal function, so residuals measure truncation quality: they shrink
as n grows when compared against a reference functional norm from a
higher-degree solve. ``norm_equality_decay_study`` packages that.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import xcorr
from .poly import AnalyticPoly, k_transform, taylor_truncate
from .solver import ExtremalProblem, solve_extremal
from .spaces import (
    _circle_values,
    abs_power_spectrum,
    bergman_norm_general,
    fourier_coeff_abs_power,
    hardy_norm_even,
    hardy_norm_general,
)

DEFAULT_EQUALITY_TOL = 1e-4
DEFAULT_SLACK_TOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    For equality checks ``residual`` is |lhs - rhs| relative to
    max(1, |lhs|) and the verdict is pass iff residual <= tolerance. For
    inequality checks ``residual`` carries the slack (rhs - lhs, negative
    means violated) and the verdict is pass iff slack >= -tolerance,
    the tolerance absorbing solver round-off. Informational checks use
    the verdicts "inequality_slack" (recorded, not thresholded) or
    "withheld" (exploratory run outside the hypothesis range).
    """

    check_name: str
    lhs: complex
    rhs: complex
    residual: float
    tolerance: float
    verdict: str
    context: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "pass"


def _boundary_sides(F, k, p, phi_norm):
    """Both sides of the weighted boundary formula at h = z^m, every m.

    Two arrays of one length, zero past it: lhs[m] = conj(b_m), and
    rhs[m] = conj((p/2) xcorr(c, a) + (1-p/2)(m+1) xcorr(K, a))[m] / ||phi||
    for kernel coefficients c, K = k_transform(k) and F's coefficients a.
    The kernel side vanishes past deg k, so only a_0..a_{deg k} enter it.
    """
    b = abs_power_spectrum(F, p)
    count = len(k.coeffs)
    a = F.coeffs[:count]
    kernel_side = ((p / 2.0) * xcorr(k.coeffs, a)
                   + (1.0 - p / 2.0) * np.arange(1.0, count + 1.0)
                   * xcorr(k_transform(k).coeffs, a))
    lhs = np.zeros(max(len(b), count), dtype=complex)
    rhs = np.zeros_like(lhs)
    lhs[:len(b)] = np.conj(b)
    rhs[:count] = np.conj(kernel_side) / phi_norm
    return lhs, rhs


def _side_report(name, sides, m, context, tolerance=DEFAULT_EQUALITY_TOL):
    """The equality report at frequency m, read from ``_boundary_sides``."""
    if m < 0:
        raise ValueError("frequency m must be nonnegative")
    lhs, rhs = (complex(side[m]) if m < len(side) else 0j for side in sides)
    return _equality_report(name, lhs, rhs, tolerance, context)


def _equality_report(name, lhs, rhs, tolerance, context):
    residual = abs(lhs - rhs) / max(1.0, abs(lhs))
    return VerificationReport(
        check_name=name,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=tolerance,
        verdict="pass" if residual <= tolerance else "fail",
        context=context,
    )


def check_weighted_norm_formula(F, k, p, phi_norm, h,
                                tolerance=DEFAULT_EQUALITY_TOL):
    """Weighted boundary formula for an arbitrary analytic polynomial h."""
    lhs, rhs = _boundary_sides(F, k, p, phi_norm)
    n = min(len(h.coeffs), len(lhs))
    return _equality_report(
        "weighted_norm_formula",
        complex(np.dot(h.coeffs[:n], lhs[:n])),
        complex(np.dot(h.coeffs[:n], rhs[:n])),
        tolerance,
        {"p": p, "h_degree": h.degree, "kernel_degree": k.degree},
    )


def check_norm_equality(F, k, p, phi_norm, tolerance=DEFAULT_EQUALITY_TOL):
    """Norm-equality: ||F||_{H^p}^p against the kernel-side pairing.

    The h = 1 specialization of the weighted formula; the left side is
    the zeroth Fourier coefficient of |F|^p, which equals
    hardy_norm_even(F, p)^p.
    """
    return _side_report(
        "norm_equality", _boundary_sides(F, k, p, phi_norm), 0,
        {"p": p, "kernel_degree": k.degree}, tolerance,
    )


def check_fourier_formula(F, k, p, phi_norm, m, tolerance=DEFAULT_EQUALITY_TOL):
    """Fourier coefficient of |F|^p at frequency m against the kernel side.

    The h = z^m specialization; at m = 0 this reproduces the
    norm-equality residual exactly (same arrays, same entry).
    """
    return _side_report(
        "fourier_formula", _boundary_sides(F, k, p, phi_norm), m,
        {"p": p, "m": m, "kernel_degree": k.degree}, tolerance,
    )


def check_coefficient_bound(F, k, p, phi_norm, m, tolerance=DEFAULT_SLACK_TOL):
    """One-sided bound on the Fourier coefficients of |F|^p.

    |b_m| <= (p / (2 ||phi||)) ||F||_{H^2} (sum_{t>=m} |c_t|^2)^{1/2};
    in particular b_m = 0 whenever m exceeds the kernel degree. Slack is
    rhs - |b_m|; verdict tolerates round-off dips to -tolerance. One
    frequency at a time, from its own F^{p/2}: ``coefficient_bound_sweep``
    evaluates all frequencies at once and is tested against this.
    """
    if m < 0:
        raise ValueError("frequency m must be nonnegative")
    bm = abs(fourier_coeff_abs_power(F, p, m))
    tail = math.fsum(np.abs(k.coeffs[m:]) ** 2)
    bound = (p / (2.0 * phi_norm)) * hardy_norm_even(F, 2) * math.sqrt(tail)
    slack = bound - bm
    return VerificationReport(
        check_name="coefficient_bound",
        lhs=bm,
        rhs=bound,
        residual=slack,
        tolerance=tolerance,
        verdict="pass" if slack >= -tolerance else "fail",
        context={"p": p, "m": m, "kernel_degree": k.degree},
    )


def coefficient_bound_sweep(solution, m_max=None, tolerance=DEFAULT_SLACK_TOL):
    """check_coefficient_bound over m = 0..m_max (default 2n); worst slack.

    Returns the single report with the smallest slack, context noting the
    frequency where it occurred.
    """
    if m_max is None:
        m_max = 2 * solution.degree
    return _coefficient_bound_worst(
        solution.F, solution.kernel, solution.p, solution.phi_norm, m_max,
        abs_power_spectrum(solution.F, solution.p), tolerance)


def _coefficient_bound_worst(F, k, p, phi_norm, m_max, spectrum,
                             tolerance=DEFAULT_SLACK_TOL):
    """The coefficient bound at every m = 0..m_max at once; worst report.

    ``spectrum`` holds the Fourier coefficients b_0, b_1, ... of |F|^p, or
    their conjugates; only |b_m| is read, and it is zero past the array's
    end. The kernel tails sum_{t>=m} |c_t|^2 are correctly rounded sums
    (``math.fsum``), as in ``check_coefficient_bound``, so both give the
    same bound at every m whatever the summation order; ||F||_{H^2} is
    computed once. The worst m is the first minimum of the slack, as a
    loop keeping the strictly smaller slack would pick.
    """
    bm = np.zeros(m_max + 1)
    magnitudes = np.abs(spectrum)[:m_max + 1]
    bm[:len(magnitudes)] = magnitudes
    squares = np.abs(k.coeffs) ** 2
    tails = np.zeros(m_max + 1)
    count = min(m_max + 1, len(squares))
    tails[:count] = [math.fsum(squares[m:]) for m in range(count)]
    bound = (p / (2.0 * phi_norm)) * hardy_norm_even(F, 2) * np.sqrt(tails)
    slack = bound - bm
    m = int(np.argmin(slack))
    return VerificationReport(
        check_name="coefficient_bound_sweep",
        lhs=float(bm[m]),
        rhs=float(bound[m]),
        residual=float(slack[m]),
        tolerance=tolerance,
        verdict="pass" if slack[m] >= -tolerance else "fail",
        context={"p": p, "kernel_degree": k.degree, "worst_m": m,
                 "m_max": m_max},
    )


def check_hinfty_criterion(alpha, p, degrees, growth_threshold=0.01,
                           exploratory=False, tolerance=None,
                           solver_tolerance=1e-12):
    """Boundedness probe for kernels with c_t = (t+1)^(-alpha), alpha > 3/2.

    Such decay forces the extremal function into H-infinity, so the
    boundary sup of the truncated solutions must stabilize as the degree
    grows. The desk-scale proxy: relative growth of sup|F_n| between the
    two largest degrees at most ``growth_threshold``. The report also
    records the l1 mass of the Fourier coefficients of |F_n|^p at each
    degree, the quantity whose summability drives the boundedness
    argument.

    alpha <= 3/2 is outside the hypothesis; exploratory=True still runs
    the sweep but withholds the verdict.
    """
    if len(degrees) < 2:
        raise ValueError("need at least two degrees to compare")
    if alpha <= 1.5 and not exploratory:
        raise ValueError("criterion requires alpha > 3/2; "
                         "pass exploratory=True to run anyway")
    degrees = sorted(degrees)
    count = max(degrees) + 1
    k = AnalyticPoly((np.arange(count) + 1.0) ** (-alpha) + 0j)
    sups = {}
    l1 = {}
    for n in degrees:
        F = solve_extremal(ExtremalProblem(
            p=p, kernel=taylor_truncate(k, n), degree=n,
            tolerance=solver_tolerance)).F
        grid = 1 << max(10, (4 * F.degree + 4 - 1).bit_length())
        boundary = _circle_values(F, 1.0, grid)
        sups[n] = float(np.max(np.abs(boundary)))
        spec = np.abs(abs_power_spectrum(F, p))
        l1[n] = float(spec[0] + 2.0 * np.sum(spec[1:]))
    n_hi, n_lo = degrees[-1], degrees[-2]
    growth = sups[n_hi] / sups[n_lo] - 1.0
    verdict = "withheld" if alpha <= 1.5 else (
        "pass" if growth <= growth_threshold else "fail")
    return VerificationReport(
        check_name="hinfty_criterion",
        lhs=sups[n_hi],
        rhs=sups[n_lo],
        residual=growth,
        tolerance=growth_threshold,
        verdict=verdict,
        context={"p": p, "alpha": alpha, "degrees": list(degrees),
                 "sup_by_degree": sups, "l1_by_degree": l1},
    )


@dataclass(frozen=True)
class GrowthStudyRow:
    """One (kernel, q1) entry of the Hardy-growth ratio study."""

    kernel_id: str
    q1: float
    p1: float
    k_hardy: float
    k_bergman: float
    F_hardy: float
    ratio: float


def _hardy_norm_auto(f, exponent):
    """Exact even-integer route when available, else circle quadrature."""
    rounded = round(exponent)
    if abs(exponent - rounded) < 1e-9 and rounded >= 2 and rounded % 2 == 0:
        return hardy_norm_even(f, rounded)
    return hardy_norm_general(f, exponent)


def growth_study(family, p, q1_list):
    """Two-sided Hardy-growth ratios over a kernel family.

    ``family`` is a sequence of (kernel_id, kernel, solve_degree). For
    each kernel and each q1 >= q = p/(p-1) the row records

        ratio = ||F||_{H^{p1}}^{p-1} * ||k||_{A^q} / ||k||_{H^{q1}},
        p1 = (p-1) * q1.

    F lies in H^{p1} precisely when k lies in H^{q1}, with two-sided
    norm bounds, so the ratios stay inside a fixed band [1/C, C]; C is
    recorded empirically by the caller, not asserted here.
    """
    q = p / (p - 1.0)
    for q1 in q1_list:
        if q1 < q - 1e-12:
            raise ValueError(f"q1 = {q1} below the conjugate exponent {q}")
    rows = []
    for kernel_id, kernel, degree in family:
        solution = solve_extremal(ExtremalProblem(
            p=p, kernel=kernel, degree=degree, tolerance=1e-12,
        ))
        k_bergman = bergman_norm_general(kernel, q)
        for q1 in q1_list:
            p1 = (p - 1.0) * q1
            F_hardy = _hardy_norm_auto(solution.F, p1)
            k_hardy = _hardy_norm_auto(kernel, q1)
            rows.append(GrowthStudyRow(
                kernel_id=kernel_id,
                q1=float(q1),
                p1=float(p1),
                k_hardy=k_hardy,
                k_bergman=k_bergman,
                F_hardy=F_hardy,
                ratio=F_hardy ** (p - 1) * k_bergman / k_hardy,
            ))
    return rows


def convergence_study(k, p, degrees, solver_tolerance=1e-12):
    """Distances ||F_n - F_N||_{H^p} to the largest-degree solution.

    F_n solves the problem with the truncated kernel S_n k over P_n;
    N = max(degrees) serves as the reference. Distances decrease as n
    grows once past the small-n regime.
    """
    solutions = [(n, solve_extremal(ExtremalProblem(
        p=p, kernel=taylor_truncate(k, n), degree=n,
        tolerance=solver_tolerance)).F) for n in sorted(degrees)]
    F_ref = solutions[-1][1]
    return [(n, hardy_norm_even(F - F_ref, p)) for n, F in solutions]


def norm_equality_decay_study(k, p, degrees, ref_degree=None,
                              tolerance=DEFAULT_EQUALITY_TOL,
                              solver_tolerance=1e-12):
    """Norm-equality residuals against a reference functional norm.

    At the P_n optimum the identity holds exactly with the restricted
    norm ||phi restricted to P_n||, so measuring truncation error needs
    the better estimate of the full-space ||phi|| that a higher-degree
    solve provides. Since the restricted norms increase with n, the
    relative residual (phi_ref - phi_n)/phi_ref decreases monotonically,
    which is the decay this study exhibits.

    Returns (ref_degree, [(n, VerificationReport), ...]).
    """
    if ref_degree is None:
        ref_degree = 2 * max(degrees) + 32
    ref = solve_extremal(ExtremalProblem(
        p=p, kernel=k, degree=ref_degree, tolerance=solver_tolerance,
    ))
    rows = []
    for n in sorted(degrees):
        sol = solve_extremal(ExtremalProblem(
            p=p, kernel=k, degree=n, tolerance=solver_tolerance,
        ))
        rows.append((n, check_norm_equality(
            sol.F, k, p, ref.phi_norm, tolerance=tolerance,
        )))
    return ref.degree, rows


def check_ryabykh_bound(F, k, p, empirical_cp=None):
    """Finiteness probe for the Hardy-norm lower-bound constant.

    Records ||F||_{H^p}^{p-1} ||k||_{A^q} / (max(p-1, 1) ||k||_{H^q}),
    the implied lower bound on the constant relating the two norms. No
    sharp constant exists to compare against; the verdict asserts
    finiteness, and additionally quantity <= empirical_cp when a
    family-wide empirical extreme is supplied.
    """
    q = p / (p - 1.0)
    quantity = (
        hardy_norm_even(F, p) ** (p - 1)
        * bergman_norm_general(k, q)
        / (max(p - 1.0, 1.0) * _hardy_norm_auto(k, q))
    )
    ok = math.isfinite(quantity)
    if empirical_cp is not None:
        ok = ok and quantity <= empirical_cp * (1.0 + 1e-10)
    return VerificationReport(
        check_name="ryabykh_bound",
        lhs=quantity,
        rhs=float("nan") if empirical_cp is None else empirical_cp,
        residual=quantity,
        tolerance=float("inf"),
        verdict="pass" if ok else "fail",
        context={"p": p, "q": q, "kernel_degree": k.degree,
                 "kind": "informational"},
    )
