"""bergex benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload family --seed 1 --seconds 15 --trace 0

Run from the repository root. The workload's inputs come from ``--seed``
alone. After set-up the client runs whole passes over the workload's jobs,
one job at a time, until ``--seconds`` have elapsed (at least one pass),
and checks every job's output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced pass, then traced passes, and
reports the per-layer metrics and the tracing overhead. Every metric is
printed with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, both ways, each in a fresh
interpreter. NOTES.md explains the workloads and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("family", "studies", "certify")
DEFAULT_SEED = 20240901  # bergex.families.DEFAULT_SEED
IMPORT_SAMPLES = 3

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import bergex.cli; "
                "print(time.perf_counter() - t)")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def import_samples(first):
    """Import time of bergex.cli: this process's, plus fresh interpreters'."""
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=120, cwd=ROOT)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(jobs, results):
    """One job at a time; returns the pass's program time."""
    out = [job.run() for job in jobs]
    results.append(out)
    return sum(r.seconds for r in out)


def run_passes(jobs, seconds, results, after_pass=None):
    """Whole passes until ``seconds`` have elapsed; at least one."""
    times = []
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        times.append(run_pass(jobs, results))
        if after_pass is not None:
            after_pass()
    return times


def typical_pass(results, time_of=lambda r: r.seconds):
    """Sum over jobs of each job's median time across passes.

    A pass's time, robust to a neighbour's burst landing on a few jobs of
    one pass; failed jobs count, since a user waited for them too.
    """
    per_job = zip(*[[time_of(r) for r in out] for out in results])
    return sum(statistics.median(times) for times in per_job)


def traced_run(jobs, seconds, results, modules):
    """One untraced pass, then traced passes; per-layer metrics per pass."""
    import tracer as tracing

    base = run_pass(jobs, results)
    trc = tracing.Tracer()
    checked = sum(job.solutions_checked for job in jobs)
    layers, spans = [], []

    def collect():
        layers.append(tracing.layer_metrics(trc, checked))
        spans[:] = tracing.span_table(trc)
        trc.reset()

    trc.install(modules)
    try:
        traced = run_passes(jobs, max(seconds - base, 0.0), results,
                            after_pass=collect)
    finally:
        trc.uninstall()
    metrics = {}
    for name, (_, unit) in layers[0].items():
        metrics[name] = {"value": statistics.median(l[name][0] for l in layers),
                         "unit": unit}
    metrics["trace_overhead_frac"] = {
        "value": statistics.median(traced) / base - 1.0, "unit": "frac"}
    notes = [f"(untraced pass {base:.4f} s; traced passes "
             f"{', '.join(f'{t:.4f}' for t in traced)} s)",
             "spans of the last traced pass (label, calls, inclusive s, self s):"]
    notes += [f"  {label:26s} {calls:9d} {total:12.6f} {self_s:12.6f}"
              for label, calls, total, self_s in spans]
    return metrics, notes


def _fmt(value):
    return "" if value is None else f"{value:.2e}"


def print_jobs(results):
    """Per-job table over all passes: median seconds of passing runs."""
    by_name = {}
    for pass_results in results:
        for r in pass_results:
            by_name.setdefault(r.name, []).append(r)
    print(f"{'job':30s} {'status':7s} {'median_s':>9s} {'iter':>5s} "
          f"{'residual_max':>12s} {'slack':>10s}  misses")
    for name, runs in by_name.items():
        last = runs[-1]
        ok = [r.seconds for r in runs if r.status in ("ok", "xpass")]
        median = f"{statistics.median(ok):9.4f}" if ok else f"{'-':>9s}"
        info = last.info
        print(f"{name:30s} {last.status:7s} {median} "
              f"{info.get('iterations', ''):>5} "
              f"{_fmt(info.get('residual_max')):>12s} "
              f"{_fmt(info.get('slack')):>10s}  {','.join(last.misses)}")


def print_metric(name, value, unit, extra=""):
    print(f"  {name:30s} {value!r:>24} {unit:12s} {extra}")


def run_workload(args):
    # One client, one thread: on a 2-CPU box a second BLAS thread only
    # stalls behind a busy neighbour. Must be set before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "bergex" / "__init__.py").is_file():
        print(f"error: no bergex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import bergex.cli  # noqa: F401  (the import a user pays for)
    first_import = perf_counter() - t0

    import environment
    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment.record(args.seed)
    imports = import_samples(first_import)
    reference = workloads.load_reference()

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    results = []
    try:
        prep_times = []
        for _ in range(workload.prepare_repeats):
            t0 = perf_counter()
            jobs = workload.prepare(args.seed, workdir, reference)
            prep_times.append(perf_counter() - t0)
        if args.trace:
            modules = [m for name, m in sorted(sys.modules.items())
                       if name == "bergex" or name.startswith("bergex.")]
            metrics, notes = traced_run(jobs, args.seconds, results, modules)
        else:
            speed.enable()
            pass_times = run_passes(jobs, args.seconds, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory here

    flat = [r for pass_results in results for r in pass_results]
    failed = sum(r.status == "failed" for r in flat)
    correct = not any(r.silent for r in flat)

    print(f"bergex benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"jobs ({len(results)} passes, {len(jobs)} jobs each):")
    print_jobs(results)
    print("metrics:")
    if args.trace:
        for name, m in metrics.items():
            print_metric(name, m["value"], m["unit"], "per pass")
    else:
        import_s = statistics.median(imports)
        prep_s = statistics.median(prep_times)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            # each job's seconds at the reference speed (see speed.py)
            "wall_norm_s": {"value": typical_pass(
                results, lambda r: r.seconds / r.speed * speed.REFERENCE_S),
                "unit": "s"},
            "setup_s": {"value": import_s + prep_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        speeds = [r.speed for out in results for r in out]
        print_metric("wall_norm_s", metrics["wall_norm_s"]["value"], "s",
                     "sum of job medians at the reference speed; calibration "
                     f"{statistics.median(speeds) * 1e3:.3f} ms (median) vs "
                     f"{speed.REFERENCE_S * 1e3:.3f} ms reference")
        q1, q3 = quartiles(pass_times)
        print_metric("wall_s", typical_pass(results), "s",
                     f"sum of job medians over n={len(pass_times)} passes; "
                     f"pass median {statistics.median(pass_times):.4f} "
                     f"q1={q1:.4f} q3={q3:.4f}")
        print_metric("setup_s", metrics["setup_s"]["value"], "s",
                     f"import {import_s:.4f} (median of {len(imports)}) + "
                     f"set-up {prep_s:.4f} (median of {len(prep_times)})")
        print_metric("peak_rss_mb", rss, "MB", "ru_maxrss of this process")
    print_metric("failed_frac", failed / len(flat), "frac",
                 f"{failed} failed of {len(flat)} attempted")
    if workload.certifies:
        residual_margin, slack_margin = workloads.certificate_margins(flat)
        print_metric("residual_margin_decades", residual_margin, "decades",
                     "log10(1e-8 / worst residual_max), passing jobs")
        print_metric("slack_margin_frac", slack_margin, "frac",
                     "1 + worst slack / 1e-12, passing jobs")
    if args.trace:
        print("\n".join(notes))
    statuses = [r.status for r in flat]
    print(f"verdict: {'correct' if correct else 'WRONG OUTPUT'}; "
          + ", ".join(f"{s} {statuses.count(s)}"
                      for s in ("ok", "failed", "xfail", "xpass")))
    print(json.dumps({"correct": correct, "attempted": len(flat),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh interpreter."""
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
