#!/usr/bin/env python
"""Benchmark the ``repro.nn`` fast paths and write ``BENCH_nn.json``.

Times complete :func:`repro.core.trainer.train_encoder` runs on two
configurations, each under two kernel stacks:

- **reference** — the exact pre-fast-path stack: per-tap
  ``np.stack`` + einsum convolution (``conv1d_mode("reference")``),
  allocation-per-step optimizers (``fused_optimizers(False)``), and the
  original two-pass contrastive forward
  (``contrastive_forward_fusion(False)``);
- **fast** — the current defaults: GEMM/FFT convolutions, fused
  in-place optimizer steps, recycled gradient buffers, and the fused
  ``[originals; augmented]`` forward.

Configurations:

- ``wide_kernel`` (**the gate**): a 48-tap encoder whose residual
  blocks carry kernel spans from 47 up to ~1500 samples — the regime
  the tentpole targets, where the reference gather pays ``K`` dense
  passes per conv and the auto-selected FFT path wins outright.  Gate:
  ``speedup_x >= min_speedup`` (default 3.0) and losses within
  ``loss_tolerance`` (default 1e-9; in practice ~1e-15).
- ``default_kernel`` (reported, loss-gated only): the paper's K=3
  encoder, where the convs are memory-bound and the honest win is
  smaller.

Both stacks consume the augmentation RNG in the identical order, so
per-epoch train/val losses must agree within ``loss_tolerance``.  The
encoder is built in float64 (``COMPUTE_DTYPE`` pinned), the reference
precision that bound is stated in; production trains in float32.

    python scripts/bench_nn.py [--out BENCH_nn.json]
                               [--min-speedup 3.0] [--repeats 2]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import nn  # noqa: E402
from repro.core import encoder as encoder_module  # noqa: E402
from repro.core.config import TriADConfig  # noqa: E402
from repro.core.trainer import (  # noqa: E402
    contrastive_forward_fusion,
    train_encoder,
)
from repro.pipeline import FeatureCache, FeaturePipeline  # noqa: E402

SERIES_PERIOD = 200
SERIES_LENGTH = 8000

# The gate config: 48 taps x dilations up to 32 put every encoder conv
# in the wide-kernel regime the tentpole targets, where the reference
# per-tap gather pays O(K) dense passes and the auto-selected FFT path
# does not.
WIDE_KERNEL_CONFIG = TriADConfig(
    kernel_size=48,
    epochs=1,
    seed=0,
    max_window=512,
)

# The paper's K=3 encoder: memory-bound convs, reported for honesty but
# only loss-gated (the 3x bar is not reachable when the GEMMs already
# run at memory bandwidth).
DEFAULT_KERNEL_CONFIG = TriADConfig(
    epochs=1,
    seed=0,
    max_window=512,
)


def bench_series() -> np.ndarray:
    rng = np.random.default_rng(7)
    t = np.arange(SERIES_LENGTH)
    return (
        np.sin(2 * np.pi * t / SERIES_PERIOD)
        + 0.3 * np.sin(2 * np.pi * t / (SERIES_PERIOD / 4))
        + 0.02 * rng.standard_normal(SERIES_LENGTH)
    )


@contextlib.contextmanager
def _stack(fast: bool):
    """Pin the whole kernel stack to the fast or the reference paths."""
    mode = "auto" if fast else "reference"
    with nn.conv1d_mode(mode), nn.fused_optimizers(fast), \
            contrastive_forward_fusion(fast):
        yield


def _train(series: np.ndarray, config: TriADConfig, fast: bool,
           pipeline: FeaturePipeline):
    """One timed training run against a pre-warmed feature cache."""
    with _stack(fast):
        start = time.perf_counter()
        result = train_encoder(series, config, pipeline=pipeline)
        elapsed = time.perf_counter() - start
    return elapsed, result.train_losses + result.val_losses


def _warm_pipeline(series: np.ndarray, config: TriADConfig) -> FeaturePipeline:
    """Fill the memoized feature cache so the timed region is training.

    Window features are seed- and epoch-independent: real runs pay the
    extraction once and reuse it across epochs and retrains, so the
    bench charges neither leg for it.  (Per-batch *augmented* features
    change every epoch and stay inside the timed region for both legs.)
    """
    pipeline = FeaturePipeline(cache=FeatureCache())
    plan = pipeline.plan_for(series, config)
    windows, _ = pipeline.windows(series, plan.length, plan.stride)
    pipeline.features(windows, plan.period, config.domains)
    return pipeline


def _bench_config(series: np.ndarray, config: TriADConfig, repeats: int) -> dict:
    pipeline = _warm_pipeline(series, config)
    fast_times, ref_times = [], []
    fast_losses = ref_losses = None
    for _ in range(repeats):
        elapsed, losses = _train(series, config, fast=True, pipeline=pipeline)
        fast_times.append(elapsed)
        fast_losses = losses
        elapsed, losses = _train(series, config, fast=False, pipeline=pipeline)
        ref_times.append(elapsed)
        ref_losses = losses
    fast_s, ref_s = min(fast_times), min(ref_times)
    loss_diff = float(
        np.abs(np.array(fast_losses) - np.array(ref_losses)).max()
    )
    return {
        "config": {
            "depth": config.depth,
            "hidden_dim": config.hidden_dim,
            "kernel_size": config.kernel_size,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "max_window": config.max_window,
            "series_length": SERIES_LENGTH,
            "series_period": SERIES_PERIOD,
        },
        "reference_s": ref_s,
        "fast_s": fast_s,
        "speedup_x": ref_s / fast_s,
        "loss_max_abs_diff": loss_diff,
        "train_losses": fast_losses,
    }


@mock.patch.object(encoder_module, "COMPUTE_DTYPE", np.float64)
def run_bench(repeats: int = 2, min_speedup: float = 3.0,
              loss_tolerance: float = 1e-9) -> dict:
    series = bench_series()
    wide = _bench_config(series, WIDE_KERNEL_CONFIG, repeats)
    default = _bench_config(series, DEFAULT_KERNEL_CONFIG, repeats)
    passed = bool(
        wide["speedup_x"] >= min_speedup
        and wide["loss_max_abs_diff"] <= loss_tolerance
        and default["loss_max_abs_diff"] <= loss_tolerance
    )
    return {
        "repeats": repeats,
        "wide_kernel": wide,
        "default_kernel": default,
        "gate": {
            "min_speedup_x": min_speedup,
            "loss_tolerance": loss_tolerance,
            "passed": passed,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_nn.json")
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()

    report = run_bench(repeats=args.repeats, min_speedup=args.min_speedup)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for name in ("wide_kernel", "default_kernel"):
        entry = report[name]
        print(f"{name}: reference {entry['reference_s']:.2f}s  "
              f"fast {entry['fast_s']:.2f}s  "
              f"speedup {entry['speedup_x']:.2f}x  "
              f"loss |diff| {entry['loss_max_abs_diff']:.3e}")
    gate = report["gate"]
    print(f"gate: wide_kernel >= {gate['min_speedup_x']}x and losses "
          f"<= {gate['loss_tolerance']:.0e}")
    print(f"wrote {args.out}")
    if not gate["passed"]:
        print("FAIL: nn bench gate not met", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
