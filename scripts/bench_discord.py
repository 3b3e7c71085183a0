#!/usr/bin/env python
"""Benchmark the discord kernel layer and write ``BENCH_discord.json``.

Times a full Table IV-style MERLIN length sweep (every length in
``16..128`` step 8 over a 1200-point series with one planted anomaly)
under two stacks:

- **reference** — ``kernels._DISCORD_MODE`` patched to ``"reference"``
  with ``unittest.mock.patch.object``: the original scalar per-module
  paths, no ``SeriesContext`` reuse, no lower-bound seeding, no
  pre-pruning;
- **fast** — the production selection rule (``"auto"``): one
  prefix-sum ``SeriesContext`` threaded across the whole schedule,
  blocked/FFT distance profiles, DRAG as blocked sweeps + one batched
  NN scan, MERLIN's cross-length lower-bound seeding and pre-pruning.

The gate: ``speedup_x >= min_speedup`` (default 5.0) with **identical
discord indices and lengths** and distances within ``tolerance``
(default 1e-9) across every length in the sweep.  The report's
``machine`` block records the usable core count.

    python scripts/bench_discord.py [--out BENCH_discord.json]
                                    [--min-speedup 5.0] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.discord import kernels, merlin  # noqa: E402

SERIES_LENGTH = 2000
SERIES_PERIOD = 100
MIN_LENGTH = 16
MAX_LENGTH = 128
STEP = 8


def bench_series() -> np.ndarray:
    """A periodic series with one planted anomaly — the regime MERLIN
    runs in at TriAD inference time (the padded suspect region)."""
    rng = np.random.default_rng(11)
    t = np.arange(SERIES_LENGTH)
    series = (
        np.sin(2 * np.pi * t / SERIES_PERIOD)
        + 0.3 * np.sin(2 * np.pi * t / (SERIES_PERIOD / 4))
        + 0.1 * rng.standard_normal(SERIES_LENGTH)
    )
    series[700:740] += 2.5 * np.hanning(40)
    return series


def _sweep(series: np.ndarray, mode: str):
    with mock.patch.object(kernels, "_DISCORD_MODE", mode):
        start = time.perf_counter()
        result = merlin(series, MIN_LENGTH, MAX_LENGTH, step=STEP)
        elapsed = time.perf_counter() - start
    return elapsed, result


def run_bench(repeats: int = 3, min_speedup: float = 5.0,
              tolerance: float = 1e-9) -> dict:
    series = bench_series()
    fast_times, ref_times = [], []
    fast_result = ref_result = None
    for _ in range(repeats):
        elapsed, fast_result = _sweep(series, "auto")
        fast_times.append(elapsed)
        elapsed, ref_result = _sweep(series, "reference")
        ref_times.append(elapsed)
    fast_s, ref_s = min(fast_times), min(ref_times)

    fast_d, ref_d = fast_result.discords, ref_result.discords
    indices_match = [(d.index, d.length) for d in fast_d] == [
        (d.index, d.length) for d in ref_d
    ]
    distance_diff = (
        float(max(
            abs(a.distance - b.distance) for a, b in zip(fast_d, ref_d)
        ))
        if fast_d and len(fast_d) == len(ref_d)
        else float("inf")
    )
    passed = bool(
        ref_s / fast_s >= min_speedup
        and indices_match
        and distance_diff <= tolerance
    )
    return {
        "machine": {
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": {
            "series_length": SERIES_LENGTH,
            "series_period": SERIES_PERIOD,
            "min_length": MIN_LENGTH,
            "max_length": MAX_LENGTH,
            "step": STEP,
            "lengths": len(ref_d),
        },
        "repeats": repeats,
        "reference_s": ref_s,
        "fast_s": fast_s,
        "speedup_x": ref_s / fast_s,
        "indices_match": indices_match,
        "distance_max_abs_diff": distance_diff,
        "discords": [
            {"index": d.index, "length": d.length, "distance": d.distance}
            for d in fast_d
        ],
        "gate": {
            "min_speedup_x": min_speedup,
            "tolerance": tolerance,
            "passed": passed,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_discord.json"
    )
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    report = run_bench(repeats=args.repeats, min_speedup=args.min_speedup)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"merlin sweep {MIN_LENGTH}..{MAX_LENGTH} step {STEP} on "
          f"{SERIES_LENGTH} points: "
          f"reference {report['reference_s']:.3f}s  "
          f"fast {report['fast_s']:.3f}s  "
          f"speedup {report['speedup_x']:.2f}x")
    print(f"indices match: {report['indices_match']}  "
          f"distance |diff| {report['distance_max_abs_diff']:.3e}")
    gate = report["gate"]
    print(f"gate: >= {gate['min_speedup_x']}x, identical indices, "
          f"distances <= {gate['tolerance']:.0e}")
    print(f"wrote {args.out}")
    if not gate["passed"]:
        print("FAIL: discord bench gate not met", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
