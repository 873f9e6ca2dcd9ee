"""Spans and counters around bergex's layer boundaries, from outside the package.

``Tracer.install`` wraps public functions of each layer and rebinds every
module-level name in the package that refers to the original, so callers
such as ``bergex.solver.xcorr``, ``bergex.poly.conv`` or
``bergex.cli.solve_extremal`` reach the wrapper. Nothing under
``src/bergex`` is edited; ``uninstall`` puts the originals back.

A span records its label, its inclusive time and the part of that time
not covered by child spans (self time). Each call also notes its direct
parent span and the layers (label prefixes) above it, which is what the
per-layer ratios in ``layer_metrics`` are built from.
"""

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# Fixed in the benchmark, not read from bergex._backend, so the size buckets
# stay put when the dispatch threshold moves. An operation is "small" when
# its full output degree (len(a) + len(b) - 2) is below this.
SIZE_SPLIT = 256

BYTES_PER_COEFF = 16  # complex128


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    parents: Counter = field(default_factory=Counter)
    under: Counter = field(default_factory=Counter)


def _layer(label):
    return label.split(".", 1)[0]


def _sized(kind):
    """Label a backend call by its output size and count the bytes it touches."""

    def label(tracer, args):
        a, b = args[0], args[1]
        full = len(a) + len(b) - 1
        out = full if kind == "conv" else len(a)
        tracer.counters["backend.bytes_computed"] += BYTES_PER_COEFF * (
            len(a) + len(b) + out)
        size = "small" if full - 1 < SIZE_SPLIT else "large"
        return f"backend.{kind}.{size}"

    return label


# (module name, attribute, label or labelling function)
TARGETS = (
    ("bergex._backend", "conv", _sized("conv")),
    ("bergex._backend", "xcorr", _sized("xcorr")),
    ("bergex.poly", "power", "poly.power"),
    ("bergex.solver", "solve_extremal", "solver.solve"),
    ("bergex.solver", "extremality_residual", "solver.certificate"),
    ("bergex.solver", "kernel_from_extremal", "solver.kernel_recovery"),
    ("bergex.spaces", "bergman_norm_even", "spaces.norm_even"),
    ("bergex.spaces", "hardy_norm_even", "spaces.norm_even"),
    ("bergex.spaces", "bergman_norm_general", "spaces.norm_general"),
    ("bergex.spaces", "hardy_norm_general", "spaces.norm_general"),
    ("bergex.spaces", "fourier_coeff_abs_power", "spaces.fourier_coeff"),
    ("bergex.checks", "check_norm_equality", "checks.norm_equality"),
    ("bergex.checks", "check_fourier_formula", "checks.fourier_formula"),
    ("bergex.checks", "coefficient_bound_sweep", "checks.sweep"),
    # verify's own copy of the sweep
    ("bergex.cli", "check_coefficient_sweep_for_verify", "checks.sweep"),
    ("bergex.checks", "check_ryabykh_bound", "checks.ryabykh"),
    ("bergex.checks", "convergence_study", "checks.study"),
    ("bergex.checks", "growth_study", "checks.study"),
    ("bergex.checks", "check_hinfty_criterion", "checks.study"),
    ("bergex.cli", "run_solve", "cli.solve"),
    ("bergex.cli", "run_verify", "cli.verify"),
    ("bergex.cli", "run_convergence_study", "cli.study"),
    ("bergex.cli", "run_growth_study", "cli.study"),
    ("bergex.cli", "run_hinfty_study", "cli.study"),
)

CHECK_SUITE = ("checks.norm_equality", "checks.fourier_formula",
               "checks.sweep", "checks.ryabykh")


class Tracer:
    def __init__(self):
        self.stack = []  # [label, child_time] per open span
        self.stats = defaultdict(SpanStats)
        self.counters = Counter()
        self._rebound = []

    def reset(self):
        self.stats = defaultdict(SpanStats)
        self.counters = Counter()

    def wrap(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(tracer, args) if callable(label) else label
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                # self-recursion (fourier_coeff_abs_power at m < 0) folds
                # into the outer span
                return fn(*args, **kwargs)
            st = tracer.stats[name]
            st.calls += 1
            if stack:
                st.parents[stack[-1][0]] += 1
                for layer in {_layer(f[0]) for f in stack}:
                    st.under[layer] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.total += dt
                st.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if name == "solver.solve":
                tracer.counters["solver.iterations"] += result.iterations
            return result

        return traced

    def install(self, modules):
        """Wrap every target and rebind it in each of ``modules``."""
        by_name = {m.__name__: m for m in modules}
        for mod_name, attr, label in TARGETS:
            orig = getattr(by_name[mod_name], attr)
            wrapped = self.wrap(orig, label)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
                        self._rebound.append((mod, name, orig))

    def uninstall(self):
        for mod, name, orig in reversed(self._rebound):
            setattr(mod, name, orig)
        self._rebound = []


def layer_metrics(tracer, solutions_checked):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    s = tracer.stats

    def calls(*labels):
        return sum(s[x].calls for x in labels if x in s)

    def total(*labels):
        return sum((s[x].total for x in labels if x in s), 0.0)

    def self_time(*labels):
        return sum((s[x].self_time for x in labels if x in s), 0.0)

    conv = ("backend.conv.small", "backend.conv.large")
    xcorr = ("backend.xcorr.small", "backend.xcorr.large")
    iterations = tracer.counters["solver.iterations"]
    # every objective evaluation (line-search backtracks included) is one
    # xcorr issued directly from the solve span
    objective_evals = sum(s[x].parents["solver.solve"] for x in xcorr if x in s)
    power_in_checks = s["poly.power"].under["checks"] if "poly.power" in s else 0
    cli_spans = ("cli.solve", "cli.verify", "cli.study")
    return {
        "backend.conv.calls": (calls(*conv), "count"),
        "backend.xcorr.calls": (calls(*xcorr), "count"),
        "backend.conv.small_s": (total("backend.conv.small"), "s"),
        "backend.conv.large_s": (total("backend.conv.large"), "s"),
        "backend.xcorr.small_s": (total("backend.xcorr.small"), "s"),
        "backend.xcorr.large_s": (total("backend.xcorr.large"), "s"),
        "backend.bytes_computed": (tracer.counters["backend.bytes_computed"], "B"),
        "poly.power.calls": (calls("poly.power"), "count"),
        "poly.power.self_s": (self_time("poly.power"), "s"),
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "solver.iterations": (iterations, "count"),
        "solver.self_s": (self_time("solver.solve"), "s"),
        "solver.certificate_s": (total("solver.certificate"), "s"),
        "solver.xcorr_per_iteration": (
            objective_evals / iterations if iterations else 0.0, "1/iteration"),
        "spaces.norm_even_s": (total("spaces.norm_even"), "s"),
        "spaces.norm_general_s": (total("spaces.norm_general"), "s"),
        "spaces.fourier_coeff.calls": (calls("spaces.fourier_coeff"), "count"),
        "spaces.fourier_coeff_s": (total("spaces.fourier_coeff"), "s"),
        "checks.suite_s": (total(*CHECK_SUITE), "s"),
        "checks.sweep_s": (total("checks.sweep"), "s"),
        "checks.power_per_solution": (
            power_in_checks / solutions_checked if solutions_checked else 0.0,
            "1/solution"),
        "cli.solve_s": (total("cli.solve"), "s"),
        "cli.verify_s": (total("cli.verify"), "s"),
        "cli.self_s": (self_time(*cli_spans), "s"),
    }


def span_table(tracer):
    """Rows (label, calls, inclusive s, self s), slowest self time first."""
    rows = [(label, st.calls, st.total, st.self_time)
            for label, st in tracer.stats.items()]
    return sorted(rows, key=lambda r: -r[3])
