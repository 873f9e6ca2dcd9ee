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
``check_reports`` builds the reports of a list of ``check_records`` from
one pair of arrays, with the single-check functions' builders, so a single
check and a batch give the same floats, and the m = 0 Fourier residual
equals the norm-equality residual, by construction.

The left sides are the Fourier coefficients b_0..b_{(p/2) n} of |F|^p,
from one autocorrelation of F^{p/2} (``abs_power_spectrum``), and the
coefficient-bound sweep and the Ryabykh check read the same array.

At h = 1 the right side is Re (1/2pi) int F conj(G) dtheta / ||phi||, with
G = (p/2) k + (1-p/2) K, so Hoelder's inequality gives Ryabykh's bound
||F||_{H^p}^{p-1} ||phi|| <= ||G||_{H^q} <= (p-1) ||k||_{H^q}, q = p/(p-1):
the theorem's q1 = q case, the second step since K contracts H^q.
``check_ryabykh_bound`` gates on the first step.

The solver works over P_n while the identities hold for the full-space
extremal function, so residuals measure truncation quality: they shrink
as n grows when compared against a reference functional norm from a
higher-degree solve. ``norm_equality_decay_study`` packages that.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import xcorr
from .families import power_decay_kernel
from .poly import AnalyticPoly, rescaled
from .solver import ExtremalProblem, solve_extremal, solve_ladder
from .spaces import (
    _angular_count,
    _circle_values,
    abs_power_spectrum,
    bergman_norm_general,
    functional_value,
    hardy_norm_even,
    hardy_norm_general,
)

DEFAULT_EQUALITY_TOL = 1e-4
DEFAULT_SLACK_TOL = 1e-12
# the solver tolerance of every solve in a study: growth, convergence,
# hinfty and norm-equality decay
STUDY_TOLERANCE = 1e-12

# the check names a solve config may ask for, and asks for by default
DEFAULT_CHECKS = ("norm_equality", "fourier_formula", "coefficient_bound",
                  "ryabykh_bound")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    Equalities (norm equality, Fourier formula): ``residual`` is |lhs - rhs|
    relative to max(1, |lhs|), pass iff <= tolerance. Coefficient bound: the
    slack rhs - lhs, pass iff >= -tolerance (solver round-off). Ryabykh
    bound lhs <= rhs: lhs/rhs - 1, pass iff <= tolerance. H-infinity
    criterion: the relative growth of the boundary sup, pass iff <=
    tolerance, or "withheld" when alpha <= 3/2 puts the run outside the
    hypothesis.
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
    for kernel coefficients c, K_t = c_t/(t+1) and F's coefficients a.
    The kernel side vanishes past deg k, so only a_0..a_{deg k} enter it.
    c and ||phi|| are ``rescaled`` before the sums.
    """
    b = abs_power_spectrum(F, p)
    c, phi_norm, _ = rescaled(k.coeffs, phi_norm)
    count = len(c)
    a = F.coeffs[:count]
    t1 = np.arange(1.0, count + 1.0)
    kernel_side = ((p / 2.0) * xcorr(c, a)
                   + (1.0 - p / 2.0) * t1 * xcorr(c / t1, a))
    lhs = np.zeros(max(len(b), count), dtype=complex)
    rhs = np.zeros_like(lhs)
    lhs[:len(b)] = np.conj(b)
    rhs[:count] = np.conj(kernel_side) / phi_norm
    return lhs, rhs


def _equality_report(name, sides, m, k, p):
    """The ``name`` report at frequency m (0 for "norm_equality"), read
    from ``_boundary_sides``."""
    if m < 0:
        raise ValueError("frequency m must be nonnegative")
    lhs, rhs = (complex(side[m]) if m < len(side) else 0j for side in sides)
    residual = abs(lhs - rhs) / max(1.0, abs(lhs))
    context = {"p": p, "kernel_degree": k.degree}
    if name == "fourier_formula":
        context["m"] = m
    return VerificationReport(
        check_name=name,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=DEFAULT_EQUALITY_TOL,
        verdict="pass" if residual <= DEFAULT_EQUALITY_TOL else "fail",
        context=context,
    )


def check_norm_equality(F, k, p, phi_norm):
    """Norm-equality: ||F||_{H^p}^p against the kernel-side pairing.

    The h = 1 specialization of the weighted formula; the left side is
    the zeroth Fourier coefficient of |F|^p, which equals
    hardy_norm_even(F, p)^p.
    """
    return _equality_report("norm_equality", _boundary_sides(F, k, p, phi_norm),
                            0, k, p)


def check_fourier_formula(F, k, p, phi_norm, m):
    """Fourier coefficient of |F|^p at frequency m against the kernel side.

    The h = z^m specialization; at m = 0 this reproduces the
    norm-equality residual exactly (same arrays, same entry).
    """
    return _equality_report("fourier_formula",
                            _boundary_sides(F, k, p, phi_norm), m, k, p)


def coefficient_bound_sweep(solution):
    """The coefficient bound over m = 0..2n; the report of the worst slack.

    |b_m| <= (p / (2 ||phi||)) ||F||_{H^2} (sum_{t>=m} |c_t|^2)^{1/2}; in
    particular b_m = 0 whenever m exceeds the kernel degree. Slack is
    rhs - |b_m|, and the verdict tolerates round-off dips to
    -DEFAULT_SLACK_TOL. The context notes the frequency of the worst slack.
    """
    return _coefficient_bound_report(
        solution.F, solution.kernel, solution.p, solution.phi_norm,
        2 * solution.degree, abs_power_spectrum(solution.F, solution.p))


def _coefficient_bound_report(F, k, p, phi_norm, m_max, spectrum):
    """The coefficient bound at every m = 0..m_max at once; worst report.

    ``spectrum`` holds the Fourier coefficients b_0, b_1, ... of |F|^p, or
    their conjugates; only |b_m| is read, and it is zero past the array's
    end. The kernel tails sum_{t>=m} |c_t|^2 are correctly rounded sums
    (``math.fsum``), independent of the summation order. The bound is
    homogeneous in (k, ||phi||), so both are ``rescaled`` by ||phi|| first:
    the squares neither overflow nor underflow at extreme kernel scales.
    The worst m is the first minimum of the slack.
    """
    bm = np.zeros(m_max + 1)
    magnitudes = np.abs(spectrum)[:m_max + 1]
    bm[:len(magnitudes)] = magnitudes
    c, phi_norm, _ = rescaled(k.coeffs, phi_norm)
    # fsum over a list: the same sums as over NumPy slices, without a
    # NumPy scalar per term
    squares = (np.abs(c) ** 2).tolist()
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
        tolerance=DEFAULT_SLACK_TOL,
        verdict="pass" if slack[m] >= -DEFAULT_SLACK_TOL else "fail",
        context={"p": p, "kernel_degree": k.degree, "worst_m": m,
                 "m_max": m_max},
    )


def check_ryabykh_bound(F, k, p):
    """Ryabykh's inequality ||F||_{H^p}^{p-1} ||phi|| <= ||G||_{H^q}.

    G = (p/2) k + (1-p/2) K, q = p/(p-1) and ||phi|| = Re phi(F), as
    ``solve_extremal`` computes it. ``residual`` is lhs/rhs - 1, at most 0
    when the inequality holds; pass iff it is <= DEFAULT_EQUALITY_TOL, since
    on F_n the inequality holds only up to the norm-equality residual. The
    context's ``kernel_bound`` is the explicit bound (p-1) ||k||_{H^q} on rhs.
    """
    return _ryabykh_report(k, p, functional_value(k, F).real,
                           abs_power_spectrum(F, p))


def _ryabykh_report(k, p, phi_norm, spectrum):
    """``check_ryabykh_bound``, with ||F||_{H^p}^p = b_0 read from
    ``spectrum``: the Fourier coefficients of |F|^p or their conjugates.

    The residual is taken at the ``rescaled`` scale; lhs, rhs and
    ``kernel_bound`` are restored to the kernel's own, where a value past
    the float range is inf and a report records it as null."""
    q = p / (p - 1.0)
    # homogeneous in (k, ||phi||): the rescaled pair keeps |G|^q from a
    # vacuous inf at extreme scales. G_t = c_t ((p/2) + (1-p/2)/(t+1)).
    c, phi_norm, e = rescaled(k.coeffs, phi_norm)
    t = np.arange(len(c))
    G = AnalyticPoly(c * (p * t + 2.0) / (2.0 * t + 2.0))
    b0 = float(spectrum[0].real) if len(spectrum) else 0.0
    lhs = b0 ** ((p - 1.0) / p) * phi_norm
    rhs = _hardy_norm_auto(G, q)
    residual = lhs / rhs - 1.0
    kernel_bound = (p - 1.0) * _hardy_norm_auto(AnalyticPoly(c), q)
    with np.errstate(over="ignore"):
        lhs, rhs, kernel_bound = np.ldexp([lhs, rhs, kernel_bound], e)
    return VerificationReport(
        check_name="ryabykh_bound",
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=DEFAULT_EQUALITY_TOL,
        verdict="pass" if residual <= DEFAULT_EQUALITY_TOL else "fail",
        context={"p": p, "q": q, "kernel_degree": k.degree,
                 "kernel_bound": kernel_bound},
    )


def check_records(names, degree, fourier_m_max):
    """The records a solution file keeps for the checks ``names`` asks for.

    "fourier_formula" asks for one record per m = 0..fourier_m_max, and
    "coefficient_bound" for the sweep over m = 0..2*degree; any other name
    in DEFAULT_CHECKS is one record. Other names raise ValueError.
    """
    records = []
    for name in names:
        if name == "fourier_formula":
            records += [{"check_name": name, "context": {"m": m}}
                        for m in range(fourier_m_max + 1)]
        elif name == "coefficient_bound":
            records.append({"check_name": "coefficient_bound_sweep",
                            "context": {"m_max": 2 * degree}})
        elif name in DEFAULT_CHECKS:
            records.append({"check_name": name})
        else:
            raise ValueError(f"unknown check {name!r}")
    return records


def check_reports(records, F, k, p, phi_norm):
    """One report per check record, or None for a record not known here.

    ``bergex solve`` passes the records of ``check_records``, and ``bergex
    verify`` the ones a solution file holds; a record's name and context
    pick the report, built as the single-check functions build it. The two
    sides of the weighted boundary formula, and with them the spectrum of
    |F|^p, are computed once for all of them. A ``ryabykh_bound`` record
    whose context says "informational" predates the check's gate and is
    skipped.
    """
    sides = _boundary_sides(F, k, p, phi_norm)
    reports = []
    for record in records:
        name = record["check_name"]
        context = record.get("context", {})
        if name == "norm_equality":
            report = _equality_report(name, sides, 0, k, p)
        elif name == "fourier_formula":
            report = _equality_report(name, sides, context["m"], k, p)
        elif name == "coefficient_bound_sweep":
            report = _coefficient_bound_report(
                F, k, p, phi_norm, context["m_max"], sides[0])
        elif (name == "ryabykh_bound"
              and context.get("kind") != "informational"):
            report = _ryabykh_report(k, p, phi_norm, sides[0])
        else:
            report = None
        reports.append(report)
    return reports


def check_hinfty_criterion(alpha, p, degrees, growth_threshold=0.01):
    """Boundedness probe for kernels with c_t = (t+1)^(-alpha), alpha > 3/2.

    Such decay forces the extremal function into H-infinity, so the
    boundary sup of the truncated solutions must stabilize as the degree
    grows. The desk-scale proxy: relative growth of sup|F_n| between the
    two largest degrees at most ``growth_threshold``. One degree ladder
    (``solve_ladder``) solves S_n k over P_n once per distinct degree n,
    and there must be two. The report also records the l1 mass of the
    Fourier coefficients of |F_n|^p at each degree, the quantity whose
    summability drives the boundedness argument.

    alpha <= 3/2 is outside the hypothesis: the sweep still runs, but the
    verdict is withheld.
    """
    degrees = sorted(set(degrees))
    if len(degrees) < 2:
        raise ValueError("need at least two distinct degrees to compare")
    k = power_decay_kernel(alpha, degrees[-1] + 1)
    sups = {}
    l1 = {}
    for solution in solve_ladder(p, k, degrees, STUDY_TOLERANCE):
        n, F = solution.degree, solution.F
        grid = _angular_count(max(F.degree, 255))  # at least 1024 angles
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
            p=p, kernel=kernel, degree=degree, tolerance=STUDY_TOLERANCE,
        ))
        # The ratio is homogeneous of degree 0 in k, so both kernel norms
        # are taken of the ``rescaled`` kernel, where |c_t|^q neither
        # overflows nor underflows, and the columns are restored by ldexp.
        c, _, exponent = rescaled(kernel.coeffs)
        unit = AnalyticPoly(c)
        k_bergman = bergman_norm_general(unit, q)
        for q1 in q1_list:
            p1 = (p - 1.0) * q1
            F_hardy = _hardy_norm_auto(solution.F, p1)
            k_hardy = _hardy_norm_auto(unit, q1)
            with np.errstate(over="ignore"):  # inf past the float range
                k_norms = np.ldexp([k_hardy, k_bergman], exponent)
            rows.append(GrowthStudyRow(
                kernel_id=kernel_id,
                q1=float(q1),
                p1=float(p1),
                k_hardy=float(k_norms[0]),
                k_bergman=float(k_norms[1]),
                F_hardy=F_hardy,
                ratio=F_hardy ** (p - 1) * k_bergman / k_hardy,
            ))
    return rows


def convergence_study(k, p, degrees):
    """Distances ||F_n - F_N||_{H^p} to the largest-degree solution.

    F_n solves the problem with the truncated kernel S_n k over P_n, on
    one degree ladder (``solve_ladder``) that yields one row per distinct
    degree, ascending; N = max(degrees) serves as the reference. Distances
    decrease as n grows once past the small-n regime.
    """
    solutions = list(solve_ladder(p, k, degrees, STUDY_TOLERANCE))
    F_ref = solutions[-1].F
    return [(s.degree, hardy_norm_even(s.F - F_ref, p)) for s in solutions]


def norm_equality_decay_study(k, p, degrees):
    """Norm-equality residuals against a reference functional norm.

    At the P_n optimum the identity holds exactly with the restricted
    norm ||phi restricted to P_n||, so measuring truncation error needs
    the better estimate of the full-space ||phi|| that a higher-degree
    solve provides. Since the restricted norms increase with n, the
    relative residual (phi_ref - phi_n)/phi_ref decreases monotonically,
    which is the decay this study exhibits. One degree ladder
    (``solve_ladder``) climbs the distinct degrees, one row each, to the
    reference degree 2 max(degrees) + 32.

    Returns (reference degree, [(n, VerificationReport), ...]).
    """
    *solutions, ref = solve_ladder(p, k, [*degrees, 2 * max(degrees) + 32],
                                   STUDY_TOLERANCE)
    rows = [(s.degree, check_norm_equality(s.F, k, p, ref.phi_norm))
            for s in solutions]
    return ref.degree, rows
