"""The three user paths the benchmark drives, and its workloads.

Every workload runs all three paths over the public API, so every
end-to-end metric is measured on every workload.  A run is a sequence
of sweep *slices*.  A slice runs 6 sweep datasets and 2 bulk jobs in
``SLICE_ORDER``, with a serving burst before each of those 8 steps, so
the samples of every path are spread evenly through the run and each
timing is a median over them; a slice's sweep time sums its 6 dataset
steps.  A run does whole slices, at least ``MIN_SLICES``, and more while
the next one fits in ``--seconds``.  The workload's *home* path gets
the larger share (``PLANS``):

- ``sweep``: ``repro.eval.run_on_archive("triad", ...)`` with a
  ``SweepCheckpoint`` and an isolating ``RetryPolicy(max_retries=0)``,
  wired as ``repro compare --retries 0 --checkpoint`` wires it.
  archive-sweep runs each dataset under the repo's two bench seeds
  (``repro.eval.BENCH_SEEDS``); the second seed reuses the feature
  cache.
- ``bulk``: ``repro.jobs.JobManager(workers=2).submit_and_run`` with
  the ``triad`` scorer on one long series, then ``result()``, as
  ``repro submit --workers 2`` drives it.
- ``serve``: ``repro.serve.ShardRouter(workers=1)`` with the
  ``spectral-residual`` scorer and the in-memory store, the defaults of
  ``repro serve-shard``: a closed-loop saturated phase, then an
  open-loop phase at a fixed offered rate, per burst.  The open loop
  drives the 64 streams ``repro serve-shard`` simulates by default,
  which run through the whole run.

Inputs come from the archive layout ``repro compare`` and ``repro
serve-shard`` build (``make_archive(seed=7)``: families, anomaly
types, periods, anomaly positions); ``--seed`` re-draws every series'
waveform and noise through ``DatasetSpec.seed``.  A fixed layout keeps
the quality guards steady across seeds: whether TriAD finds an event
depends mostly on the event's type and placement, and with the layout
re-drawn per seed ``pak_f1_auc`` over a slice moved by a third.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from repro import TriAD, TriADConfig, obs
from repro.data import make_archive, make_dataset
from repro.eval import BENCH_SEEDS, SweepCheckpoint, run_on_archive
from repro.jobs import SUCCEEDED, JobManager, JobSpec, JobStore
from repro.jobs.registry import resolve_plan
from repro.pipeline import default_pipeline
from repro.runtime import FailureReport, RetryPolicy
from repro.serve import InMemoryStore, ShardRouter, WorkerSpec

from loadgen import due_times, run_open_loop, window_percentiles
from stats import supported_percentile

__all__ = ["PLANS", "MIN_SLICES", "CheckFailed", "Inputs", "run_schedule", "problems",
           "end_to_end", "latency", "peak_rss_mb", "reset_program_caches"]

ARCHIVE_SEED = 7  # the archive layout `repro compare` / `serve-shard` build
TRAIN_LENGTH = 1600
TEST_LENGTH = 2000
WORKERS = 2  # bulk pool workers: the usable cores of the reference box
# One shard worker.  A serving round is a chain of hand-offs (router to
# workers and back); with two workers every round needs both vCPUs at
# once, and when the host took vCPU time away, latency grew 2-3x where
# training slowed 25%.  With one worker the router and the worker take
# turns, and in one process, interleaved with two-worker bursts, the
# per-burst p50 and p99 varied 35-45% less (see perfbench/README.md).
SERVE_WORKERS = 1

# A slice: a serving burst before each step.  Timings are medians over
# every slice a run does; the quality guards and event recall come from
# the first MIN_SLICES slices, so every run judges the same inputs.
SLICE_ORDER = ("sweep", "sweep", "sweep", "bulk", "sweep", "sweep", "sweep", "bulk")
MIN_SLICES = 2

# sweep: one full family x anomaly-type cycle of make_archive per slice,
# one dataset per step, paper architecture (depth 6, h_d 32, K=3,
# batch 8) at one epoch.  The quality guards average MIN_SLICES slices:
# 12 datasets, about the fewest that keep pak_f1_auc steady from seed
# to seed.
SLICE_DATASETS = SLICE_ORDER.count("sweep")
SLICE_JOBS = SLICE_ORDER.count("bulk")
SWEEP_CONFIG = {"epochs": 1, "max_window": 256}

# bulk: one long archive series per job, `repro submit --epochs 1`.
BULK_POINTS = 20_000
BULK_PARAMS = {"epochs": 1, "seed": 0, "max_window": 256}

# serve: `repro serve-shard` defaults (max_window 128, chunk 128).
SERVE_DETECTOR = "spectral-residual"
SERVE_PARAMS = {"max_window": 128, "seed": 0}
CHUNK = 128
SATURATED_CHUNKS = 8
SATURATED_POINTS = CHUNK * SATURATED_CHUNKS
WARMUP_POINTS = 768  # normal history before each event: > one window + 16 baseline scores
SERVE_LAYOUTS = 48
# open loop: the `repro serve-shard --streams` default, at 500 points/s
# each.  32 000 points/s is about 5% of the saturated capacity, but
# every open-loop round touches every stream, so latency follows round
# time; at lower rates it follows the hand-offs between processes and
# varied twice as much (see perfbench/README.md).
OPEN_STREAMS = 64
OFFERED_PPS = 32_000
# Latency percentiles are taken per window of due times (3 200 points,
# so p99 has 32 beyond it) and reported as the median over the run's
# windows: a host stall of 10-20 ms sets the tail of the one or two
# windows it touches, not that of a whole burst, and the median holds
# while stalls touch fewer than half the windows.
LATENCY_WINDOW_S = 0.1

_SWEEP, _BULK, _SATURATED, _OPEN, _SERVE_TRAIN = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Plan:
    """One workload's shares."""

    home: str  # "sweep" or "serve"
    sweep_seeds: tuple[int, ...]
    saturated_streams: int  # per serving burst
    open_seconds: float  # per serving burst


PLANS = {
    "archive-sweep": Plan("sweep", tuple(BENCH_SEEDS), 128, 0.5),
    "shard-stream": Plan("serve", (0,), 192, 1.0),
}


class CheckFailed(RuntimeError):
    """The program produced output the benchmark must not report on."""


def derive_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed % (1 << 64), *keys]).generate_state(1)[0])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reset_program_caches() -> None:
    """Empty the process-wide feature cache, as a fresh CLI process has it."""
    default_pipeline().cache.clear()


@dataclass(frozen=True)
class Stream:
    values: np.ndarray
    event: tuple[int, int]  # labelled event, half-open, in stream positions


@dataclass(frozen=True)
class Burst:
    saturated: list[Stream]
    open: list[np.ndarray]


def _layout(size: int, test_length: int = TEST_LENGTH):
    return [
        d.spec
        for d in make_archive(size=size, seed=ARCHIVE_SEED,
                              train_length=TRAIN_LENGTH, test_length=test_length)
    ]


class Inputs:
    """Seeded inputs for one run; the program sees only what this builds.

    The first ``slices`` slices' units are built up front (the run's
    set-up); units of later slices are built when the run reaches them.
    """

    def __init__(self, seed: int, plan: Plan, slices: int = MIN_SLICES) -> None:
        self.seed = seed
        self.plan = plan
        self.slices = slices
        self._sweep_layout = _layout(SLICE_DATASETS)
        self._bulk_layout = _layout(1, BULK_POINTS)[0]
        self._serve_layout = _layout(SERVE_LAYOUTS)
        self.serve_train = self._realize(self._serve_layout[0], _SERVE_TRAIN).train
        # the open-loop streams run through the whole run: a warm-up,
        # then the next open_points of each stream in every burst
        self.open_points = round(plan.open_seconds * OFFERED_PPS / OPEN_STREAMS)
        length = WARMUP_POINTS + slices * len(SLICE_ORDER) * self.open_points
        self._open = [self._open_series(i, length, _OPEN) for i in range(OPEN_STREAMS)]
        self.open_warmup = [series[:WARMUP_POINTS] for series in self._open]
        self._sweep = [self._sweep_slice(k) for k in range(slices)]
        self._bulk = [self._bulk_dataset(k) for k in range(slices * SLICE_JOBS)]
        self._bursts = [self._burst(k) for k in range(slices * len(SLICE_ORDER))]

    def sweep_slice(self, index: int):
        return self._sweep[index] if index < len(self._sweep) else self._sweep_slice(index)

    def bulk_dataset(self, index: int):
        return self._bulk[index] if index < len(self._bulk) else self._bulk_dataset(index)

    def burst(self, index: int) -> Burst:
        return self._bursts[index] if index < len(self._bursts) else self._burst(index)

    def _realize(self, spec, *keys):
        return make_dataset(replace(spec, seed=derive_seed(self.seed, *keys)))

    def _sweep_slice(self, index: int):
        return [self._realize(spec, _SWEEP, index, i) for i, spec in enumerate(self._sweep_layout)]

    def _bulk_dataset(self, index: int):
        return self._realize(self._bulk_layout, _BULK, index)

    def _burst(self, index: int) -> Burst:
        saturated = []
        for i in range(self.plan.saturated_streams):
            # a cut of the dataset's continuous series: normal history,
            # then the test split's labelled event
            spec = self._serve_layout[i % SERVE_LAYOUTS]
            dataset = self._realize(spec, _SATURATED, index, i)
            series = np.concatenate([dataset.train, dataset.test])
            onset = len(dataset.train) + spec.anomaly_start
            start = min(onset - WARMUP_POINTS, len(series) - SATURATED_POINTS)
            end = min(onset + spec.anomaly_length, start + SATURATED_POINTS)
            saturated.append(
                Stream(series[start : start + SATURATED_POINTS], (onset - start, end - start))
            )
        points = self.open_points
        start = WARMUP_POINTS + index * points
        if start + points <= len(self._open[0]):
            open_streams = [series[start : start + points] for series in self._open]
        else:  # past the set-up's bursts: fresh values
            open_streams = [self._open_series(i, points, _OPEN, index) for i in range(OPEN_STREAMS)]
        return Burst(saturated, open_streams)

    def _open_series(self, i: int, length: int, *keys):
        spec = replace(self._serve_layout[i % SERVE_LAYOUTS], test_length=max(length, TEST_LENGTH))
        return self._realize(spec, *keys, i).test[:length]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class TimedTriAD(TriAD):
    """TriAD that adds the wall time of ``fit`` and ``detect`` to ``times``."""

    def __init__(self, config: TriADConfig, times: dict) -> None:
        super().__init__(config)
        self._times = times

    def fit(self, train_series):
        start = time.perf_counter()
        try:
            return super().fit(train_series)
        finally:
            self._times["fit"] += time.perf_counter() - start

    def detect(self, test_series):
        start = time.perf_counter()
        try:
            return super().detect(test_series)
        finally:
            self._times["detect"] += time.perf_counter() - start


@dataclass
class SweepResult:
    sweep_s: list[float] = field(default_factory=list)
    fit_s: list[float] = field(default_factory=list)
    detect_s: list[float] = field(default_factory=list)
    pak_f1_auc: list[float] = field(default_factory=list)  # per unit, scheduled slices
    affiliation_f1: list[float] = field(default_factory=list)
    units: int = 0
    failures: list[FailureReport] = field(default_factory=list)


class SweepPath:
    """Each step runs the next dataset; a slice's times sum its steps."""

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.result = SweepResult()
        self._steps = 0
        self._slice = {"sweep": 0.0, "fit": 0.0, "detect": 0.0}

    def step(self) -> float:
        index, position = divmod(self._steps, SLICE_DATASETS)
        dataset = self.inputs.sweep_slice(index)[position]
        seeds = self.inputs.plan.sweep_seeds
        times = self._slice
        start = time.perf_counter()
        aggregate = run_on_archive(
            "triad",
            lambda s: TimedTriAD(TriADConfig(seed=s, **SWEEP_CONFIG), times),
            [dataset],
            seeds=seeds,
            policy=RetryPolicy(max_retries=0),
            checkpoint=SweepCheckpoint(self.workdir / f"sweep-{index}.{position}.jsonl"),
        )
        wall = time.perf_counter() - start
        times["sweep"] += wall
        self._steps += 1
        result = self.result
        result.units += len(seeds)
        result.failures.extend(aggregate.failures)
        if len(aggregate.per_run) + len(aggregate.failures) != len(seeds):
            raise CheckFailed(f"sweep slice {index}: a unit was neither scored nor failed")
        if index < self.inputs.slices:
            for run in aggregate.per_run:
                result.pak_f1_auc.append(run.metrics["pak_f1_auc"])
                result.affiliation_f1.append(run.metrics["affiliation_f1"])
        if position == SLICE_DATASETS - 1:
            result.sweep_s.append(times["sweep"])
            result.fit_s.append(times["fit"])
            result.detect_s.append(times["detect"])
            self._slice = {"sweep": 0.0, "fit": 0.0, "detect": 0.0}
        return wall


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------
@dataclass
class BulkResult:
    pps: list[float] = field(default_factory=list)
    chunks: int = 0
    chunks_failed: int = 0
    chunks_retried: int = 0  # serial retries plus pool failures retried in the parent
    states: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _retried(session) -> int:
    counters = session.metrics.counters
    return int(sum(counters[name].value for name in ("jobs.chunks.retried",
                                                     "jobs.chunks.pool_failures")
                   if name in counters))


class BulkPath:
    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.result = BulkResult()

    def step(self) -> float:
        index = len(self.result.states)
        dataset = self.inputs.bulk_dataset(index)
        manager = JobManager(JobStore(self.workdir / f"jobs-{index}"), workers=WORKERS)
        # the executor counts retried chunks only into an obs session;
        # reuse the traced run's session when one is installed
        with obs.observed(session=obs.active()) as session:
            retried = _retried(session)
            start = time.perf_counter()
            record = manager.submit_and_run(
                JobSpec("triad", params=dict(BULK_PARAMS)), dataset.test, train=dataset.train
            )
            scores = manager.result(record.job_id) if record.state == SUCCEEDED else None
            wall = time.perf_counter() - start
            retried = _retried(session) - retried
        result = self.result
        result.states.append(record.state)
        result.chunks += record.chunks_total
        result.chunks_failed += record.chunks_total - record.chunks_done
        result.chunks_retried += retried
        if scores is None:
            result.problems.append(f"bulk job {index} ended {record.state}: {record.error}")
        elif scores.shape != (len(dataset.test),) or not np.all(np.isfinite(scores)):
            result.problems.append(
                f"bulk job {index}: stitched scores {scores.shape} for {len(dataset.test)} "
                f"points, finite={bool(np.all(np.isfinite(scores)))}"
            )
        else:
            result.pps.append(len(dataset.test) / wall)
        return wall


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
@dataclass
class ServeResult:
    capacity_pps: list[float] = field(default_factory=list)  # per burst
    p50_ms: list[float] = field(default_factory=list)  # per latency window
    p99_ms: list[float] = field(default_factory=list)  # per latency window
    latency_samples: int = 0
    lags_ms: list[float] = field(default_factory=list)  # per open-loop round
    rounds: int = 0  # open-loop rounds
    events: int = 0
    events_alerted: int = 0
    points_submitted: int = 0
    points_acked: int = 0
    windows_scored: int = 0
    windows_shed: int = 0
    engine_batches: int = 0
    respawns: int = 0


def _event_hit(alerts, event: tuple[int, int], window_length: int) -> bool:
    lo, hi = event
    return any(alert.index > lo and alert.index - window_length < hi for alert in alerts)


class ServePath:
    """One shard fabric for the run.

    Each step is one burst: new streams saturate the fabric, then the
    run's open-loop streams send their next points on schedule.  Those
    streams are warmed up here, untimed, so every open-loop phase finds
    them scoring: a new stream scores nothing until it has a window.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.result = ServeResult()
        self._length, _ = resolve_plan(SERVE_DETECTOR, inputs.serve_train, SERVE_PARAMS)
        spec = WorkerSpec(
            detector=SERVE_DETECTOR, params=dict(SERVE_PARAMS), train=inputs.serve_train
        )
        self.router = ShardRouter(spec, workers=SERVE_WORKERS, store=InMemoryStore())
        self.router.report()  # the workers have built their engines
        self._open_ids = [f"o{s}" for s in range(OPEN_STREAMS)]
        for k in range(0, WARMUP_POINTS, CHUNK):
            self._submit(
                [(sid, warm[k : k + CHUNK]) for sid, warm in zip(self._open_ids, inputs.open_warmup)]
            )
        self.result.points_submitted += OPEN_STREAMS * WARMUP_POINTS

    def _submit(self, items) -> dict[str, list]:
        alerts: dict[str, list] = {}
        for alert in self.router.submit(items):
            alerts.setdefault(alert.stream_id, []).append(alert)
        return alerts

    def step(self) -> float:
        index = len(self.result.capacity_pps)
        burst = self.inputs.burst(index)
        result = self.result
        started = time.perf_counter()

        alerts: dict[str, list] = {}
        for k in range(SATURATED_CHUNKS):
            piece = slice(k * CHUNK, (k + 1) * CHUNK)
            round_alerts = self._submit(
                [(f"s{index}.{i}", stream.values[piece]) for i, stream in enumerate(burst.saturated)]
            )
            for stream_id, found in round_alerts.items():
                alerts.setdefault(stream_id, []).extend(found)
        saturated_points = len(burst.saturated) * SATURATED_POINTS
        result.capacity_pps.append(saturated_points / (time.perf_counter() - started))
        if index < self.inputs.slices * len(SLICE_ORDER):  # the set-up's bursts only
            result.events += len(burst.saturated)
            result.events_alerted += sum(
                _event_hit(alerts.get(f"s{index}.{i}", ()), stream.event, self._length)
                for i, stream in enumerate(burst.saturated)
            )

        rng = np.random.default_rng(derive_seed(self.inputs.seed, _OPEN, index, 1 << 20))
        due = due_times(len(burst.open), len(burst.open[0]), OFFERED_PPS, rng)
        ids = self._open_ids
        loop = run_open_loop(
            due,
            lambda items: self._submit(
                [(ids[s], burst.open[s][first:stop]) for s, first, stop in items]
            ),
        )
        # the last, partial window is left out when too small for p99
        windows = [
            values for count, values in window_percentiles(loop, LATENCY_WINDOW_S, (50.0, 99.0))
            if (supported_percentile(count) or 0.0) >= 99.0
        ]
        if not windows:
            raise CheckFailed(f"serve: burst {index} has no latency window that supports p99")
        result.p50_ms.extend(1e3 * float(p50) for p50, _ in windows)
        result.p99_ms.extend(1e3 * float(p99) for _, p99 in windows)
        result.latency_samples += len(loop.latencies)
        result.lags_ms.extend(1e3 * lag for lag in loop.lags)
        result.rounds += loop.rounds
        result.points_submitted += saturated_points + sum(map(len, burst.open))
        return time.perf_counter() - started

    def close(self) -> None:
        """Collect the engines' reports and stop the fabric."""
        try:
            report = self.router.report()
        finally:
            self.router.close()
        result = self.result
        workers = [worker for worker in report["workers"].values() if worker.get("alive")]
        result.points_acked = sum(worker["points_ingested"] for worker in workers)
        result.windows_scored = sum(worker["windows_scored"] for worker in workers)
        result.windows_shed = sum(worker["shed"] for worker in workers)
        result.engine_batches = sum(worker["batches"] for worker in workers)
        result.respawns = report["respawns"]


# ----------------------------------------------------------------------
# the schedule
# ----------------------------------------------------------------------
@dataclass
class PathResults:
    sweep: SweepResult
    bulk: BulkResult
    serve: ServeResult


def run_schedule(inputs: Inputs, workdir: Path, seconds: float, after_job=None) -> PathResults:
    """Run whole slices: ``inputs.slices`` of them, then more while they fit.

    ``seconds=0`` runs ``inputs.slices`` slices only, so two passes over
    the same inputs do the same work.  ``after_job()``, when given, is
    called after each bulk job, outside every timed path.
    """
    sweep = SweepPath(inputs, workdir)
    bulk = BulkPath(inputs, workdir)
    serve = ServePath(inputs)
    paths = {"sweep": sweep, "bulk": bulk}
    try:
        started = time.perf_counter()
        slices = 0
        while True:
            begun = time.perf_counter()
            for name in SLICE_ORDER:
                serve.step()
                paths[name].step()
                if name == "bulk" and after_job is not None:
                    after_job()
            slices += 1
            now = time.perf_counter()
            if slices >= inputs.slices and now - started + (now - begun) > seconds:
                break
    except BaseException:
        serve.router.close()
        raise
    serve.close()
    return PathResults(sweep.result, bulk.result, serve.result)


def problems(results: PathResults) -> list[str]:
    """Output checks a run must pass before any number is reported."""
    sweep, bulk, serve = results.sweep, results.bulk, results.serve
    found = [
        f"sweep: {f.dataset} seed {f.seed} failed at {f.stage}: {f.error_type}"
        for f in sweep.failures
    ]
    for name, values in (("pak_f1_auc", sweep.pak_f1_auc), ("affiliation_f1", sweep.affiliation_f1)):
        if not np.all(np.isfinite(values)):
            found.append(f"sweep: non-finite {name}")
    found.extend(bulk.problems)
    if serve.points_acked != serve.points_submitted:
        found.append(f"serve: {serve.points_acked} of {serve.points_submitted} points acked")
    if serve.respawns:
        found.append(f"serve: {serve.respawns} worker respawn(s)")
    return found


def end_to_end(results: PathResults) -> dict[str, float]:
    sweep, bulk, serve = results.sweep, results.bulk, results.serve
    return {
        "sweep_s": median(sweep.sweep_s),
        "fit_s": median(sweep.fit_s),
        "detect_s": median(sweep.detect_s),
        "pak_f1_auc": float(np.mean(sweep.pak_f1_auc)),
        "affiliation_f1": float(np.mean(sweep.affiliation_f1)),
        "bulk_pps": median(bulk.pps),
        "serve_capacity_pps": median(serve.capacity_pps),
        "serve_event_recall": serve.events_alerted / serve.events,
    }


def latency(serve: ServeResult) -> dict:
    """Open-loop ack latency: the median over windows of each window's p50 and p99.

    Reported, but not an end-to-end metric with a bound: from one set of
    runs to the next on the reference box it moved by more than any
    allowed bound (see perfbench/README.md).
    """
    return {"p50_ms": median(serve.p50_ms), "p99_ms": median(serve.p99_ms),
            "windows": len(serve.p50_ms), "samples": serve.latency_samples}
