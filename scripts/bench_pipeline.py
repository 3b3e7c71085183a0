#!/usr/bin/env python
"""Benchmark the memoized feature pipeline and write ``BENCH_pipeline.json``.

Compares two complete training runs on an extraction-heavy
configuration (long windows, shallow encoder — the regime where
tri-domain feature extraction rivals the encoder forward/backward cost):

- **legacy** — a faithful copy of the pre-pipeline epoch loop: original
  windows re-extracted *once per batch per epoch*, residual
  decomposition looping Python-level per window
  (``np.stack([residual_component(w, p) for w in windows])``);
- **memoized** — the current :func:`repro.core.trainer.train_encoder`
  through a fresh :class:`repro.pipeline.FeaturePipeline`: per-domain
  features computed once per window set and sliced per batch, residual
  decomposition batched.

Both runs consume the RNG stream in the identical order, so their
per-epoch losses must agree to ``loss_tolerance`` (in practice they are
bit-equal; the pipeline tests assert the underlying exact identities).
The acceptance gate requires ``speedup_x >= min_speedup`` (default 1.5).
Both runs build their encoder in float64 (``COMPUTE_DTYPE`` pinned), the
reference precision the ``<= 1e-9`` loss bound is stated in.

    python scripts/bench_pipeline.py [--out BENCH_pipeline.json]
                                     [--min-speedup 1.5] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import nn  # noqa: E402
from repro.augment import augment_batch  # noqa: E402
from repro.core import encoder as encoder_module  # noqa: E402
from repro.core.config import TriADConfig  # noqa: E402
from repro.core.encoder import TriDomainEncoder  # noqa: E402
from repro.core.losses import total_contrastive_loss  # noqa: E402
from repro.pipeline import FeatureCache, FeaturePipeline  # noqa: E402
from repro.signal.decompose import residual_component  # noqa: E402
from repro.signal.fft import frequency_features  # noqa: E402
from repro.signal.normalize import zscore  # noqa: E402
from repro.signal.windows import plan_windows, sliding_windows  # noqa: E402

# Extraction-heavy regime: 512-point windows make the tri-domain
# extraction cost comparable to a depth-1, width-2 encoder pass, so the
# bench isolates what the memo cache actually buys the epoch loop.
BENCH_CONFIG = TriADConfig(
    depth=1,
    hidden_dim=2,
    epochs=4,
    batch_size=32,
    max_window=512,
    seed=0,
)
SERIES_PERIOD = 256
SERIES_LENGTH = 5120


def bench_series() -> np.ndarray:
    rng = np.random.default_rng(7)
    t = np.arange(SERIES_LENGTH)
    return (
        np.sin(2 * np.pi * t / SERIES_PERIOD)
        + 0.3 * np.sin(2 * np.pi * t / (SERIES_PERIOD / 4))
        + 0.02 * rng.standard_normal(SERIES_LENGTH)
    )


# ----------------------------------------------------------------------
# The pre-pipeline epoch loop, reproduced verbatim (modulo obs spans and
# the divergence guard, which fire identically on both sides and are
# benign on this well-conditioned series).
# ----------------------------------------------------------------------
def _legacy_extract_all_domains(windows, period, domains):
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    features = {}
    for domain in domains:
        if domain == "temporal":
            features[domain] = zscore(windows, axis=-1)[:, None, :]
        elif domain == "frequency":
            features[domain] = frequency_features(windows)
        elif domain == "residual":
            features[domain] = np.stack(
                [residual_component(w, period) for w in windows]
            )[:, None, :]
        else:
            raise KeyError(f"unknown domain {domain!r}")
    return features


def _batches(count, batch_size, rng):
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        batch = order[start : start + batch_size]
        if len(batch) >= 2:
            yield batch


def _legacy_epoch_loss(encoder, windows, period, config, rng, optimizer):
    losses = []
    for batch_idx in _batches(len(windows), config.batch_size, rng):
        batch = windows[batch_idx]
        augmented = augment_batch(batch, rng)
        original_features = _legacy_extract_all_domains(
            batch, period, config.domains
        )
        augmented_features = _legacy_extract_all_domains(
            augmented, period, config.domains
        )
        r_orig = encoder(original_features)
        r_aug = encoder(augmented_features)
        loss = total_contrastive_loss(
            r_orig,
            r_aug,
            alpha=config.alpha,
            temperature=config.temperature,
            use_intra=config.use_intra,
            use_inter=config.use_inter,
        )
        value = float(loss.data)
        if optimizer is not None and np.isfinite(value):
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(encoder.parameters(), config.grad_clip)
            optimizer.step()
        losses.append(value)
    return float(np.mean(losses)) if losses else 0.0


def legacy_train(train_series: np.ndarray, config: TriADConfig):
    """Pre-pipeline training loop: extract per batch, per epoch."""
    rng = np.random.default_rng(config.seed)
    plan = plan_windows(
        train_series,
        periods_per_window=config.periods_per_window,
        stride_fraction=config.stride_fraction,
        min_length=config.min_window,
        max_length=config.max_window,
    )
    windows, _ = sliding_windows(train_series, plan.length, plan.stride)
    count = len(windows)
    val_count = (
        max(int(round(count * config.validation_fraction)), 1) if count > 4 else 0
    )
    order = rng.permutation(count)
    val_windows = windows[order[:val_count]]
    fit_windows = windows[order[val_count:]]

    encoder = TriDomainEncoder(config, rng=np.random.default_rng(config.seed))
    optimizer = nn.Adam(encoder.parameters(), lr=config.learning_rate)
    train_losses, val_losses = [], []
    for _ in range(config.epochs):
        encoder.train()
        train_losses.append(
            _legacy_epoch_loss(
                encoder, fit_windows, plan.period, config, rng, optimizer
            )
        )
        if val_count:
            encoder.eval()
            with nn.no_grad():
                val_losses.append(
                    _legacy_epoch_loss(
                        encoder, val_windows, plan.period, config, rng, None
                    )
                )
    return train_losses, val_losses, plan


def memoized_train(train_series: np.ndarray, config: TriADConfig):
    """Current trainer through a fresh (cold) pipeline cache."""
    from repro.core.trainer import train_encoder

    pipeline = FeaturePipeline(cache=FeatureCache())
    result = train_encoder(train_series, config, pipeline=pipeline)
    return result.train_losses, result.val_losses, result.plan


@mock.patch.object(encoder_module, "COMPUTE_DTYPE", np.float64)
def run_bench(repeats: int = 3, min_speedup: float = 1.5,
              loss_tolerance: float = 1e-9) -> dict:
    series = bench_series()
    config = BENCH_CONFIG

    legacy_losses, legacy_val, plan = legacy_train(series, config)
    new_losses, new_val, new_plan = memoized_train(series, config)
    assert plan == new_plan, f"plans diverged: {plan} vs {new_plan}"
    loss_diff = float(
        max(
            np.abs(np.array(legacy_losses) - np.array(new_losses)).max(),
            np.abs(np.array(legacy_val) - np.array(new_val)).max(),
        )
    )

    legacy_times, memo_times = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        legacy_train(series, config)
        legacy_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        memoized_train(series, config)
        memo_times.append(time.perf_counter() - start)

    legacy_s = min(legacy_times)
    memo_s = min(memo_times)
    speedup = legacy_s / memo_s
    return {
        "config": {
            "depth": config.depth,
            "hidden_dim": config.hidden_dim,
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "max_window": config.max_window,
            "series_length": SERIES_LENGTH,
            "series_period": SERIES_PERIOD,
            "plan": {
                "length": plan.length,
                "stride": plan.stride,
                "period": plan.period,
            },
            "repeats": repeats,
        },
        "legacy_epoch_loop_s": legacy_s,
        "memoized_epoch_loop_s": memo_s,
        "speedup_x": speedup,
        "loss_max_abs_diff": loss_diff,
        "train_losses": new_losses,
        "gate": {
            "min_speedup_x": min_speedup,
            "loss_tolerance": loss_tolerance,
            "passed": bool(speedup >= min_speedup and loss_diff <= loss_tolerance),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_pipeline.json")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    report = run_bench(repeats=args.repeats, min_speedup=args.min_speedup)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"legacy epoch loop   {report['legacy_epoch_loop_s']:.3f}s")
    print(f"memoized epoch loop {report['memoized_epoch_loop_s']:.3f}s")
    print(f"speedup             {report['speedup_x']:.2f}x "
          f"(gate >= {args.min_speedup}x)")
    print(f"loss max |diff|     {report['loss_max_abs_diff']:.3e} "
          f"(gate <= {report['gate']['loss_tolerance']:.0e})")
    print(f"wrote {args.out}")
    if not report["gate"]["passed"]:
        print("FAIL: pipeline bench gate not met", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
