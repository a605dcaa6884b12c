"""crnsim benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload paired --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the simulator is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with no
tracing installed. With ``--trace 1`` it runs a fixed set of units twice,
untraced and then traced, and reports the per-layer metrics. Either way it
checks every epoch's outputs, prints a report with one metric per line, and
ends with a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A result file with the machine record goes to ``bench/out/``.

All load comes from this one process: a closed batch job, one unit after
the other, with BLAS held to one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 50

# a short epoch run before timing, so first-call costs land outside it
WARM_UP_STEPS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rmse_median_m": "m",
}

ALL_STATS = ("calls", "busy_s", "self_s")
# layer -> the span statistics reported for it
LAYER_STATS = {
    "engine.run_experiment": ("busy_s",),
    "dynamics.step_motion": ALL_STATS,
    "dynamics.step_signal": ALL_STATS,
    "markov.sample_next": ("calls", "busy_s"),
    "classlib.update_library": ALL_STATS,
    "classlib.kmeans_distributions": ALL_STATS,
    "classlib.pool_log_likelihood": ("busy_s",),
    "classlib.assign_class": ("calls", "busy_s"),
    "engine.attempt_assignments": ("self_s",),
    "engine.track_parameter_vector": ALL_STATS,
    "tracking.imm_predict_arrays": ALL_STATS,
    "tracking.kalman_update_arrays": ALL_STATS,
    "tracking.start_track": ("calls",),
    "tracking.omega_log_evidence": ALL_STATS,
    "engine.predict_tracks": ("self_s",),
    "engine.fuse_radar": ("self_s",),
    "sensing.radar_measure_batch": ("busy_s",),
    "sensing.passive_detect_batch": ("busy_s",),
    "engine.apply_passive": ("self_s",),
    "engine.track_uncertainties": ("busy_s",),
    "engine.select_modes": ("self_s",),
    "bandit.ucb_select": ALL_STATS,
    "bandit.record_reward": ALL_STATS,
    "scenario.make_world": ("busy_s",),
    "engine.run_step": ("self_s",),
    "engine.run_epoch": ("self_s",),
    "tracking.track_rmse": ("busy_s",),
}
COUNTERS = (
    "classlib.pool_vectors",
    "tracking.predict_rows",
    "tracking.update_rows",
    "sensing.radar_returns",
    "sensing.passive_intercepts",
    "scenario.nodes",
    "scenario.targets",
)
# ratio -> (numerator, denominator); 0 when the denominator is 0
RATIOS = {
    "classlib.assign_hit_ratio": ("classlib.assign_matched", "classlib.assign_class.calls"),
    "engine.radar_used_ratio": ("tracking.update_rows", "sensing.radar_returns"),
    "engine.passive_logged_ratio": ("engine.passive_logged", "sensing.passive_intercepts"),
}
# class-learning quality of the traced units, 0 where no class is learned
CLASSLIB_QUALITY = ("formation_accuracy", "association_accuracy")


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports when all hooks exist."""
    names = [f"{layer}.{stat}" for layer, stats in LAYER_STATS.items() for stat in stats]
    names += list(COUNTERS) + list(RATIOS)
    names += [f"classlib.{q}" for q in CLASSLIB_QUALITY]
    return names + ["engine.run_experiment.cpu_s", "trace.overhead_s"]


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_accuracy")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ[THREAD_VARS[0]],
    }


def measure_setup(workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import crnsim and build the
    workload's config and policies: what a user pays before the first epoch."""
    code = (
        "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
        "w = workloads.WORKLOADS[{name!r}]; w.unit_config({seed}, 0); w.policies"
    ).format(src=str(SRC), bench=str(BENCH_DIR), name=workload, seed=seed)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S
    )
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Runner:
    """Runs units of one workload and tallies attempted and failed epochs."""

    def __init__(self, workload, seed: int):
        from crnsim import engine

        self.engine = engine
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def warm_up(self) -> None:
        config = self.workload.unit_config(self.seed, 0)
        small = dataclasses.replace(
            config, num_epochs=1, epoch_duration_s=WARM_UP_STEPS * config.dt_s
        )
        self.engine.run_experiment(small, self.workload.policies)

    def run(self, unit: int):
        """(result or None, wall seconds) for one unit; the result's epochs
        are checked and counted. A unit that raises fails all its epochs."""
        import workloads

        config = self.workload.unit_config(self.seed, unit)
        epochs = len(self.workload.policies) * config.num_epochs * config.num_runs
        self.attempted += epochs
        start = time.perf_counter()
        try:
            result = self.engine.run_experiment(config, self.workload.policies)
        except Exception:
            traceback.print_exc()
            self.failed += epochs
            self.problems.append(f"unit {unit} raised")
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        found = workloads.result_problems(result)
        self.failed += len(found)
        self.problems += [f"unit {unit} {key}: {'; '.join(v)}" for key, v in found.items()]
        return result, elapsed


def run_untraced(workload, seed: int, seconds: float):
    """End-to-end metrics: setup, then core units plus as many more as fit
    in ``seconds`` of measured time."""
    import workloads

    setups = [measure_setup(workload.name, seed) for _ in range(SETUP_REPEATS)]
    runner = Runner(workload, seed)
    runner.warm_up()
    results, times = [], []
    while len(times) < workload.core_units or sum(times) + statistics.mean(times) <= seconds:
        result, elapsed = runner.run(len(times))
        results.append(result)
        times.append(elapsed)
    core = [r for r in results[: workload.core_units] if r is not None]
    if not core:
        raise SystemExit("no core unit completed")
    combined = workloads.combine(core)
    quality = workloads.quality(workload, combined)
    metrics = {
        "wall_s": statistics.mean(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rmse_median_m": quality["rmse_median_m"],
    }
    report = {
        "core_units": len(core),
        "unit_wall_s": times,
        "setup_samples_s": setups,
        "quality": quality,
        "metrics_digest": workloads.metrics_digest(combined),
        "truth_digest": workloads.truth_digest(combined),
    }
    return runner, metrics, report


def run_traced(workload, seed: int):
    """Per-layer metrics over ``trace_units`` units, each run untraced and
    then traced; the traced outputs must match the untraced ones."""
    import workloads
    from tracer import Tracer

    runner = Runner(workload, seed)
    runner.warm_up()
    tracer = Tracer()
    plain_s = traced_s = cpu_s = 0.0
    traced_results = []
    for unit in range(workload.trace_units):
        plain, elapsed = runner.run(unit)
        plain_s += elapsed
        cpu0 = cpu_seconds()
        with tracer.installed():
            traced, elapsed = runner.run(unit)
        cpu_s += cpu_seconds() - cpu0
        traced_s += elapsed
        if plain is None or traced is None:
            continue
        traced_results.append(traced)
        if workloads.metrics_digest(plain) != workloads.metrics_digest(traced):
            runner.failed += workloads.epochs_in(traced)
            runner.problems.append(f"unit {unit}: tracing changed the outputs")
    if not traced_results:
        raise SystemExit("no traced unit completed")
    combined = workloads.combine(traced_results)
    quality = workloads.quality(workload, combined)

    metrics = {}
    for layer, stats in tracer.layer_stats().items():
        for stat in LAYER_STATS.get(layer, ()):
            metrics[f"{layer}.{stat}"] = stats[stat]
    counters = dict(tracer.counters)
    counters.update({k: v for k, v in metrics.items() if k.endswith(".calls")})
    for name in COUNTERS:
        if name in counters:
            metrics[name] = counters[name]
    for name, (num, den) in RATIOS.items():
        if num in counters and den in counters:
            metrics[name] = counters[num] / counters[den] if counters[den] else 0.0
    for name in CLASSLIB_QUALITY:
        metrics[f"classlib.{name}"] = quality.get(name, 0.0)
    if "engine.run_experiment" not in tracer.missing:
        metrics["engine.run_experiment.cpu_s"] = cpu_s
    metrics["trace.overhead_s"] = traced_s - plain_s

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{workload.name}-spans.npz"
    tracer.write_spans(spans)
    report = {
        "trace_units": workload.trace_units,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "missing_hooks": tracer.missing,
        "spans_file": str(spans.relative_to(ROOT)),
        "quality": quality,
        "metrics_digest": workloads.metrics_digest(combined),
        "truth_digest": workloads.truth_digest(combined),
    }
    return runner, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crnsim" / "engine.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        runner, metrics, report = run_traced(workload, args.seed)
    else:
        runner, metrics, report = run_untraced(workload, args.seed, args.seconds)

    machine = machine_record()
    failed_frac = runner.failed / runner.attempted
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}  trace {args.trace}  machine {json.dumps(machine)}")
    for key, value in report.items():
        if key != "quality":
            print(f"{key} = {value}")
    for name, value in report["quality"].items():
        print(f"quality {name} = {value:.6g}")
    print(f"failed_frac = {failed_frac:.6g} ({runner.failed} of {runner.attempted} epochs)")
    for problem in runner.problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {metric_unit(name)}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": metric_unit(name)}
            for name, value in metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  machine=machine, report=report, problems=runner.problems,
                  failed_frac=failed_frac)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
