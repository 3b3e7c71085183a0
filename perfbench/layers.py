"""Layer boundaries the traced run wraps, and the per-layer metrics.

Each target is a public callable that callers resolve at call time: a
module attribute (the trainer's ``augment_batch``, ``nn.functional.
conv1d``) or a method on the class that defines it.  Wrappers are
installed before any fork, so ``repro.jobs`` pool workers and
``repro.serve`` shard workers inherit them.  ``repro.nn.hooks.
set_timing_hook`` times each ``Tensor.backward`` graph walk, and the
program's own counters (feature-cache stats, ``repro.obs`` discord and
job counters, the shard engines' reports) fill in the counts.

Every ``*_s`` metric is the layer's self time summed over the run,
except the three marked inclusive in ``INCLUSIVE``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from statistics import median

import repro.nn as nn
from repro.nn import hooks

from tracer import Patcher, Tracer, self_times
from workloads import WORKERS

__all__ = ["TARGETS", "PER_LAYER", "install", "layer_metrics"]

ROOT = "bench.measure"

# (module, class or None, attribute, span name)
TARGETS = [
    ("repro.nn.functional", None, "conv1d", "nn.conv1d_forward"),
    ("repro.nn", None, "clip_grad_norm", "nn.clip_grad_norm"),
    ("repro.nn.optim", "Adam", "step", "nn.optim.step"),
    ("repro.core.trainer", None, "augment_batch", "augment.augment_batch"),
    ("repro.core.trainer", None, "extract_all_domains", "pipeline.features"),
    ("repro.pipeline.feature_pipeline", "FeaturePipeline", "features", "pipeline.features"),
    ("repro.pipeline.feature_pipeline", "FeaturePipeline", "extract", "pipeline.extract"),
    ("repro.core.detector", None, "train_encoder", "core.trainer.train_encoder"),
    ("repro.core.trainer", None, "total_contrastive_loss", "core.losses.loss"),
    ("repro.core.detector", "TriAD", "representations", "core.detector.represent"),
    ("repro.core.detector", "TriAD", "select_window", "core.detector.select"),
    ("repro.core.detector", "TriAD", "run_discord_search", "core.detector.merlin"),
    ("repro.core.detector", None, "score_votes", "core.scoring.vote"),
    ("repro.eval.runner", None, "execute_unit", "eval.unit"),
    ("repro.eval.runner", None, "evaluate_predictions", "eval.metrics"),
    ("repro.eval.persistence", "SweepCheckpoint", "load", "eval.checkpoint"),
    ("repro.eval.persistence", "SweepCheckpoint", "append_result", "eval.checkpoint"),
    ("repro.eval.persistence", "SweepCheckpoint", "append_failure", "eval.checkpoint"),
    ("repro.jobs.manager", "JobManager", "submit", "jobs.submit"),
    ("repro.jobs.manager", None, "build_scorer", "jobs.build_scorer"),
    ("repro.jobs.manager", None, "stitch", "jobs.stitch"),
    ("repro.jobs.executor", "ChunkedExecutor", "run", "jobs.executor"),
    ("repro.jobs.executor", None, "parallel_map", "jobs.pool"),
    ("repro.jobs.executor", None, "score_chunk", "jobs.score_chunk"),
    ("repro.jobs.store", "JobStore", "append_chunk", "jobs.store.append_chunk"),
    ("repro.jobs.store", "JobStore", "load_chunks", "jobs.store.load_chunks"),
    ("repro.serve.shard", "ShardRouter", "submit", "serve.shard.round"),
    ("repro.serve.shard", "HashRing", "owner", "serve.shard.route"),
    ("repro.serve.engine", "ScoringEngine", "ingest_many", "serve.engine.ingest_many"),
    ("repro.serve.engine", "ScoringEngine", "export_stream", "serve.engine.export"),
    ("repro.serve.registry", "ModelRegistry", "score", "serve.registry.score"),
    ("repro.serve.stores", "StoreProvider", "save_many", "serve.stores.save_many"),
]
ENCODER = ("repro.core.encoder", "TriDomainEncoder", "forward")
ENCODER_TRAIN, ENCODER_INFER = "core.encoder.forward_train", "core.encoder.forward_infer"
BACKWARD = "nn.backward"

SPAN_NAMES = [ROOT, BACKWARD, ENCODER_TRAIN, ENCODER_INFER] + [t[3] for t in TARGETS]

# Spans reported as inclusive time rather than self time.
INCLUSIVE = {"serve.shard.round", "jobs.score_chunk", "jobs.executor"}

# name -> unit, in report order
PER_LAYER = {
    "augment.augment_batch_s": "s",
    "pipeline.features_s": "s",
    "pipeline.extract_s": "s",
    "pipeline.cache_hit_ratio": "ratio",
    "core.trainer.train_encoder_s": "s",
    "core.trainer.batches": "count",
    "core.encoder.forward_train_s": "s",
    "core.encoder.forward_infer_s": "s",
    "core.losses.loss_s": "s",
    "nn.conv1d_forward_s": "s",
    "nn.conv1d_calls": "count",
    "nn.backward_s": "s",
    "nn.clip_grad_norm_s": "s",
    "nn.optim.step_s": "s",
    "core.detector.represent_s": "s",
    "core.detector.select_s": "s",
    "core.detector.merlin_s": "s",
    "core.scoring.vote_s": "s",
    "discord.drag.calls": "count",
    "discord.drag.prune_ratio": "ratio",
    "eval.unit_s": "s",
    "eval.metrics_s": "s",
    "eval.checkpoint_s": "s",
    "eval.units": "count",
    "eval.units_failed": "count",
    "jobs.submit_s": "s",
    "jobs.build_scorer_s": "s",
    "jobs.executor_s": "s",
    "jobs.score_chunk_busy_s": "s",
    "jobs.worker_busy_ratio": "ratio",
    "jobs.pool_wait_s": "s",
    "jobs.store.append_chunk_s": "s",
    "jobs.store.load_chunks_s": "s",
    "jobs.stitch_s": "s",
    "jobs.chunks": "count",
    "jobs.chunks_failed": "count",
    "jobs.chunks_retried": "count",
    "serve.shard.round_s": "s",
    "serve.shard.route_s": "s",
    "serve.shard.await_s": "s",
    "serve.shard.respawns": "count",
    "serve.engine.ingest_many_s": "s",
    "serve.engine.export_s": "s",
    "serve.engine.windows_scored": "count",
    "serve.engine.windows_shed": "count",
    "serve.engine.batch_size_mean": "windows",
    "serve.registry.score_s": "s",
    "serve.stores.save_many_s": "s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "bench.gen_lag_ms": "ms",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.trace_spans": "count",
}


def _owner(module_name: str, class_name: str | None):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer boundary; returns the patcher that undoes it."""
    patcher = Patcher()
    for module_name, class_name, attr, name in TARGETS:
        patcher.patch(_owner(module_name, class_name), attr,
                      lambda fn, name=name: tracer.wrap(fn, name))
    module_name, class_name, attr = ENCODER
    patcher.patch(
        _owner(module_name, class_name), attr,
        lambda fn: tracer.wrap(
            fn, ENCODER_TRAIN,
            choose=lambda: ENCODER_TRAIN if nn.is_grad_enabled() else ENCODER_INFER,
        ),
    )

    def timing_hook(kind, _name, seconds):
        if kind == "backward":
            end = time.perf_counter()
            tracer.record(BACKWARD, end - seconds, end)

    previous = hooks.get_timing_hook()
    hooks.set_timing_hook(timing_hook)
    patcher.on_restore(lambda: hooks.set_timing_hook(previous))
    return patcher


def layer_metrics(tracer: Tracer, obs_session, results, cache_delta, overhead, latency) -> dict:
    """Per-layer metrics from the spans, counters and path results.

    ``latency`` is the open-loop latency of the untraced pass over the
    same work, since the wrappers would add to every round.
    """
    spans = tracer.collect()
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span.name] += own[span.span_id]
        total_s[span.name] += span.duration
        calls[span.name] += 1

    def seconds(name: str) -> float:
        return total_s[name] if name in INCLUSIVE else self_s[name]

    counters = obs_session.metrics.counters
    histograms = obs_session.metrics.histograms

    def counter(name: str) -> float:
        return counters[name].value if name in counters else 0.0

    prune = histograms.get("discord.drag.prune_rate")
    hits, misses = cache_delta
    serve = results.serve
    executor_wall = total_s["jobs.executor"]

    metrics = {
        "pipeline.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.trainer.batches": calls["core.losses.loss"],
        "nn.conv1d_calls": calls["nn.conv1d_forward"],
        "discord.drag.calls": counter("discord.drag_calls"),
        "discord.drag.prune_ratio": prune.mean if prune is not None else 0.0,
        "eval.units": calls["eval.unit"],
        "eval.units_failed": len(results.sweep.failures),
        "jobs.worker_busy_ratio": (
            total_s["jobs.score_chunk"] / (WORKERS * executor_wall) if executor_wall else 0.0
        ),
        "jobs.pool_wait_s": self_s["jobs.pool"],
        "jobs.chunks": calls["jobs.store.append_chunk"],
        "jobs.chunks_failed": results.bulk.chunks_failed,
        "jobs.chunks_retried": results.bulk.chunks_retried,
        "jobs.score_chunk_busy_s": total_s["jobs.score_chunk"],
        "serve.shard.await_s": self_s["serve.shard.round"],
        "serve.shard.respawns": serve.respawns,
        "serve.engine.windows_scored": serve.windows_scored,
        "serve.engine.windows_shed": serve.windows_shed,
        "serve.engine.batch_size_mean": (
            serve.windows_scored / serve.engine_batches if serve.engine_batches else 0.0
        ),
        "serve_p50_ms": latency["p50_ms"],
        "serve_p99_ms": latency["p99_ms"],
        "bench.gen_lag_ms": median(serve.lags_ms),
        "bench.unattributed_s": self_s[ROOT],
        "bench.trace_overhead_ratio": overhead,
        "bench.trace_spans": len(spans),
    }
    for name in PER_LAYER:
        if name not in metrics and name.endswith("_s"):
            metrics[name] = seconds(name[: -len("_s")])
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in PER_LAYER.items()}
