"""ppcf benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload mc_w1_poisson --seed 1 --seconds 20 --trace 0

Runs the workload's operations through ppcf's public entry points for about
``--seconds`` seconds, checks every output against ``reference.json``, prints a
readable summary and, as its last line, one JSON object.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` spends half the time running the
operations untraced and half running them again traced, and reports the
per-layer metrics.  See README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy loads; forked pool workers inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import ppcf.cli; print(time.perf_counter() - t)"

END_TO_END = (("ops_per_s", "op/s"), ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# name, unit, how it is computed from the traced totals (see per_layer_metrics)
PER_LAYER = (
    ("fields.simulate_grf.self_s", "s/op", ("self_s", "fields.simulate_grf")),
    ("fields.evaluate_points.calls", "calls/op", ("calls", "fields.GridField.evaluate_points")),
    ("fields.evaluate_points.points", "points/op", ("count", "fields.evaluate_points.points")),
    ("fields.evaluate_points.self_s", "s/op", ("self_s", "fields.GridField.evaluate_points")),
    ("fields.read_grid_file.self_s", "s/op", ("self_s", "fields.read_grid_file")),
    ("process.simulate_poisson.self_s", "s/op", ("self_s", "process.simulate_poisson")),
    ("process.simulate_lgcp.self_s", "s/op", ("self_s", "process.simulate_lgcp")),
    ("process.read_pattern_file.self_s", "s/op", ("self_s", "process.read_pattern_file")),
    ("process.points", "points/op", ("points",)),
    ("model.build_quadrature.calls", "calls/op", ("calls", "model.build_quadrature")),
    ("model.build_quadrature.nodes", "nodes/op", ("count", "model.build_quadrature.nodes")),
    ("model.build_quadrature.self_s", "s/op", ("self_s", "model.build_quadrature")),
    ("model.profile_maximize.self_s", "s/op", ("self_s", "model.profile_maximize")),
    ("model.profile_maximize.calls", "calls/op", ("calls", "model.profile_maximize")),
    ("model.profile_maximize.score_evals", "evals/op", ("count", "model.profile_maximize.score_evals")),
    ("model.profile_maximize.value_evals", "evals/op", ("count", "model.profile_maximize.value_evals")),
    ("model.fit_parametric_baseline_full.self_s", "s/op",
     ("self_s", "model.fit_parametric_baseline_full")),
    ("nuisance.NuisanceFit.self_s", "s/op", ("self_s", "nuisance.NuisanceFit")),
    ("nuisance.NuisanceFit.calls", "calls/op", ("calls", "nuisance.NuisanceFit")),
    ("nuisance.eta_all.self_s", "s/op", ("self_s", "nuisance.NuisanceFit.eta_all")),
    ("nuisance.eta_all.calls", "calls/op", ("calls", "nuisance.NuisanceFit.eta_all")),
    ("nuisance.eta_at.self_s", "s/op", ("self_s", "nuisance.NuisanceFit.eta_at")),
    ("nuisance.eta_at.calls", "calls/op", ("calls", "nuisance.NuisanceFit.eta_at")),
    ("crossfit.cross_fit.self_s", "s/op", ("self_s", "crossfit.cross_fit")),
    ("crossfit.cross_fit.calls", "calls/op", ("calls", "crossfit.cross_fit")),
    ("crossfit.folds_ok_ratio", "ratio", ("ratio", "crossfit.folds_ok", "crossfit.folds_attempted")),
    ("crossfit.folds_ok", "folds/op", ("count", "crossfit.folds_ok")),
    ("crossfit.folds_attempted", "folds/op", ("count", "crossfit.folds_attempted")),
    ("inference.pcf_correction.self_s", "s/op", ("self_s", "inference.pcf_correction")),
    ("inference.pcf_correction.calls", "calls/op", ("calls", "inference.pcf_correction")),
    ("inference.pcf_correction.pair_evals", "computed-pair/op",
     ("count", "inference.pcf_correction.pair_evals")),
    ("inference.estimate_pcf.self_s", "s/op", ("self_s", "inference.estimate_pcf")),
    ("inference.estimate_pcf.calls", "calls/op", ("calls", "inference.estimate_pcf")),
    ("inference.estimate_pcf.poisson_fallback_ratio", "ratio",
     ("ratio", "inference.estimate_pcf.poisson_fallbacks", "inference.estimate_pcf.returned")),
    ("inference.estimate_pcf.degenerate_warnings", "warnings/op", ("warnings",)),
    ("inference.lfd_values.self_s", "s/op", ("self_s", "inference.lfd_values")),
    ("inference.wald_report.calls", "calls/op", ("calls", "inference.wald_report")),
    ("harness.simulate_scenario_inputs.self_s", "s/op", ("self_s", "harness.simulate_scenario_inputs")),
    ("harness.run_replication.self_s", "s/op", ("self_s", "harness.run_replication")),
    ("harness.fit_file.self_s", "s/op", ("self_s", "harness.fit_file")),
    ("cli.main.self_s", "s/op", ("self_s", "cli.main")),
    ("trace.overhead_frac", "ratio", ("overhead",)),
    ("trace.unattributed_frac", "ratio", ("unattributed",)),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time to measure; 0 runs one smoke-sized pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its largest reaped child's peak RSS (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def fresh_import_seconds() -> float:
    """Time to import ppcf in a new interpreter, as this one did at start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def timed_pass(wl, inputs, seconds: float, outdir: Path) -> dict:
    """Closed loop over whole passes of the inputs.

    Another pass runs only if the workload allows repeats and, at the last
    pass's speed, it would end by the deadline; so every run measures each
    operation equally often.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for batch in inputs:
            outcomes.extend(wl.run(batch, outdir))
        now = time.perf_counter()
        if not wl.repeatable or now - t0 + (now - p0) > seconds:
            break
    wall = time.perf_counter() - t0
    return {"outcomes": outcomes, "wall": wall, "cpu": cpu_seconds() - cpu0}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def per_layer_metrics(totals: spans.Totals, ops: int, points: int, warnings_n: int,
                      overhead: float, unattributed: float) -> dict:
    def value(how):
        kind = how[0]
        if kind == "self_s":
            return totals.self_s[how[1]] / ops
        if kind == "calls":
            return totals.calls[how[1]] / ops
        if kind == "count":
            return totals.counts[how[1]] / ops
        if kind == "ratio":
            den = totals.counts[how[2]]
            return totals.counts[how[1]] / den if den else 0.0
        if kind == "points":
            return points / ops
        if kind == "warnings":
            return warnings_n / ops
        if kind == "overhead":
            return overhead
        if kind == "unattributed":
            return unattributed
        raise ValueError(kind)

    return {name: {"value": value(how), "unit": unit} for name, unit, how in PER_LAYER}


def share_table(totals: spans.Totals) -> list:
    total = sum(totals.self_s.values()) or 1.0
    rows = sorted(totals.self_s.items(), key=lambda kv: -kv[1])
    return [f"  {v / total:7.2%}  {v:9.3f} s  {totals.calls[k]:>8d} calls  {k}" for k, v in rows]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ppcf" / "__init__.py").is_file():
        print(f"perfbench: no ppcf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PPCF_SEED", None)   # it would override the workload's fit seeds

    t0 = time.perf_counter()
    import ppcf.cli  # noqa: F401  (the import is part of set-up time)
    import_s = time.perf_counter() - t0
    if not Path(ppcf.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported ppcf from {ppcf.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    reference = workloads.load_reference(wl.name)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        setup_times = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed, tmp / f"inputs{i}", smoke=args.seconds == 0)
            setup_times.append(time.perf_counter() - t0)

        # a traced run splits its time: the same operations untraced, then traced
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = timed_pass(wl, inputs, seconds, tmp / "out-plain")
        passes = [plain]
        if args.trace:
            spool = tmp / "spool"
            spool.mkdir()
            tracer = spans.Tracer(spool_dir=spool)
            patched = spans.install(tracer)
            try:
                traced = timed_pass(wl, inputs, seconds, tmp / "out-traced")
            finally:
                spans.uninstall(tracer, patched)
            passes.append(traced)
            main_side = tracer.snapshot()
            # self times of the processes that ran the operations
            if wl.parallelism > 1:
                totals = spans.Totals.from_spool(spool)
            else:
                totals = spans.Totals()
                totals.add(main_side)

    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = Counter()
    for o in outcomes:
        why = workloads.failure(o, reference)
        if why is not None:
            failures[why] += 1
    attempted, failed = len(outcomes), sum(failures.values())
    ops = len(plain["outcomes"])
    env = environment()

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fail_frac {failed / attempted:.6f} ratio ({failed} failed of {attempted} attempted); "
          f"by type {dict(failures)}")

    if not args.trace:
        import_times = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        metrics = {
            "ops_per_s": ops / plain["wall"],
            "cpu_s_per_op": plain["cpu"] / ops,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        print(f"ops {ops} in {plain['wall']:.3f} s wall; setup: median import of "
              f"{[round(t, 3) for t in import_times]} s + median inputs of "
              f"{[round(t, 4) for t in setup_times]} s")
    else:
        t_ops = len(traced["outcomes"])
        overhead = 1.0 - (t_ops / traced["wall"]) / (ops / plain["wall"])
        unattributed = 1.0 - totals.root_s / (traced["wall"] * wl.parallelism)
        points = sum(o.points for o in traced["outcomes"])
        degenerate = sum("degenerate PCF fit" in w for o in traced["outcomes"] for w in o.warnings)
        metrics = per_layer_metrics(totals, t_ops, points, degenerate, overhead, unattributed)
        print(f"traced ops {t_ops} in {traced['wall']:.3f} s; untraced ops {ops} in "
              f"{plain['wall']:.3f} s; self time by span:")
        print("\n".join(share_table(totals)))
        if wl.parallelism > 1:
            print(f"  main process, waiting on the pool: "
                  f"{main_side['self_s'].get('harness.run_scenario_records', 0.0):.3f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
