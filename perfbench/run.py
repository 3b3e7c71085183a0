"""Repo benchmark: the archive sweep, bulk scoring and sharded serving end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload archive-sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same work twice, untraced then traced, and prints every per-layer
metric with the tracing overhead.  Informational lines (machine block,
operation counts, sample sizes) come first; the last line of standard
output is the result object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the program forks two workers onto two cores, and
# both sides of any comparison must run under the same setting.  Set
# before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# setup_s is the median of the input builds spread over the run (1 at
# the start, 1 after each bulk job), so one slow stretch of the host
# moves it no more than it moves the other timings.

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_s": "s",
    "fit_s": "s",
    "detect_s": "s",
    "pak_f1_auc": "score",
    "affiliation_f1": "score",
    "bulk_pps": "points/s",
    "serve_capacity_pps": "points/s",
    "serve_event_recall": "ratio",
}


def blas_info() -> dict:
    """Name, version and live thread count of numpy's BLAS."""
    import ctypes

    import numpy as np

    info = {"env_threads": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def machine_block() -> dict:
    import numpy as np

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=False), flush=True)


def counts_block(results) -> dict:
    sweep, bulk, serve = results.sweep, results.bulk, results.serve
    return {
        "sweep": {"slices": len(sweep.sweep_s), "units": sweep.units,
                  "failure_reports": len(sweep.failures), "quality_units": len(sweep.pak_f1_auc)},
        "bulk": {"jobs": len(bulk.states), "states": sorted(set(bulk.states)),
                 "chunks": bulk.chunks, "chunks_failed": bulk.chunks_failed,
                 "chunks_retried": bulk.chunks_retried},
        "serve": {"bursts": len(serve.capacity_pps), "points_submitted": serve.points_submitted,
                  "points_acked": serve.points_acked, "windows_shed": serve.windows_shed,
                  "respawns": serve.respawns, "events": serve.events,
                  "latency_samples": serve.latency_samples, "open_rounds": serve.rounds},
    }


def attempted_failed(home: str, results) -> tuple[int, int]:
    """Operations of the home path: sweep units or serving points."""
    if home == "sweep":
        return results.sweep.units, len(results.sweep.failures)
    serve = results.serve
    return serve.points_submitted, serve.points_submitted - serve.points_acked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"program source not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import workloads

    if args.workload not in workloads.PLANS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.PLANS)}", file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload]

    rundir = WORKDIR / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    emit({"machine": machine_block()})
    try:
        if args.trace:
            return traced(args, plan, rundir)
        return untraced(args, plan, rundir)
    except workloads.CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def untraced(args, plan, rundir: Path) -> int:
    import workloads

    setups = []

    def build():
        start = time.perf_counter()
        inputs = workloads.Inputs(args.seed, plan)
        setups.append(time.perf_counter() - start)
        return inputs

    inputs = build()
    results = workloads.run_schedule(inputs, rundir, args.seconds, after_job=build)
    if workloads.problems(results):
        return report(plan, results, {})
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": workloads.peak_rss_mb()}
    values.update(workloads.end_to_end(results))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    emit({"serve_latency": workloads.latency(results.serve)})
    return report(plan, results, metrics)


def traced(args, plan, rundir: Path) -> int:
    """Untraced pass, then the same work traced; per-layer metrics.

    Each pass runs one slice, so both fit well inside the time a run may
    take.
    """
    import layers
    import workloads
    from repro import obs
    from repro.pipeline import default_pipeline
    from tracer import Tracer

    inputs = workloads.Inputs(args.seed, plan, slices=1)
    workloads.reset_program_caches()
    start = time.perf_counter()
    plain = workloads.run_schedule(inputs, rundir / "untraced", 0.0)
    untraced_wall = time.perf_counter() - start

    workloads.reset_program_caches()
    tracer = Tracer(layers.SPAN_NAMES, rundir / "trace.lock")
    patcher = layers.install(tracer)
    session = obs.install()
    cache = default_pipeline().cache.stats
    before = (cache.hits, cache.misses)
    try:
        start = time.perf_counter()
        results = tracer.wrap(workloads.run_schedule, layers.ROOT)(
            inputs, rundir / "traced", 0.0
        )
        traced_wall = time.perf_counter() - start
    finally:
        obs.uninstall()
        patcher.restore()
    cache_delta = (cache.hits - before[0], cache.misses - before[1])
    if workloads.problems(plain) or workloads.problems(results):
        tracer.close()
        return report(plan, results, {})
    overhead = traced_wall / untraced_wall - 1.0
    metrics = layers.layer_metrics(tracer, session, results, cache_delta, overhead,
                                   workloads.latency(plain.serve))
    spans = tracer.collect()
    dropped = tracer.dropped
    tracer.close()

    trace_path = WORKDIR / f"trace-{args.workload}.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "dropped": dropped,
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "spans": [[s.name, s.start, s.end, s.span_id, s.parent_id, s.pid] for s in spans],
        }, handle)
    emit({"trace_file": str(trace_path.relative_to(ROOT)), "spans": len(spans),
          "dropped_spans": dropped})
    print_layer_table(metrics)
    if dropped:
        print(f"trace: {dropped} worker span(s) dropped; shared buffer too small", file=sys.stderr)
        metrics = {}
    return report(plan, results, metrics)


def report(plan, results, metrics: dict) -> int:
    """Print counts and the result line; a failed check voids the metrics."""
    import workloads

    emit({"counts": counts_block(results)})
    attempted, failed = attempted_failed(plan.home, results)
    problems = workloads.problems(results)
    for problem in problems:
        print(problem, file=sys.stderr)
    correct = not problems and bool(metrics)
    emit({"correct": correct, "attempted": attempted, "failed": failed,
          "metrics": metrics if correct else {}})
    return 0 if correct else 1


def print_layer_table(metrics: dict) -> None:
    print(f"{'layer metric':34s} {'value':>14s}  unit")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g}  {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
