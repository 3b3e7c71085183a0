"""Refactor-guard goldens.

``tests/golden/pipeline_golden.json`` was captured at the pre-pipeline
commit by running detect / run_on_archive / serve replay on the spike
dataset.  These tests re-run the identical procedure on the current
code: the memoized pipeline must not move a single prediction, loss,
metric, or alert.  Regenerate the file only for a *deliberate*
behavior change (re-run the capture block in its docstring).

The goldens were captured in float64, which stays the oracle: the
``*_matches_golden`` tests pin ``COMPUTE_DTYPE`` to the reference
precision and check the file at its original tolerances.  The
``*_float32_gate`` tests (the production precision) must reproduce
every discrete output exactly —
predictions, window, search region, candidates, alert keys, windows
scored, and the archive metrics, which are functions of the predictions
alone — while its float outputs get stated relative bounds (measured:
1.5e-6 on train losses, 1.6e-4 on alert scores).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import TriAD, TriADConfig
from repro.core import encoder as encoder_module
from repro.eval import run_on_archive
from repro.serve import build_engine, build_registry, replay_dataset

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "pipeline_golden.json"

# (rtol, atol) for the float outputs, per encoder precision.
LOSS_TOL = {np.float64: (0, 1e-9), np.float32: (1e-5, 0)}
ALERT_SCORE_TOL = {np.float64: (0, 1e-9), np.float32: (1e-3, 0)}


@contextmanager
def pinned(dtype):
    """Build every encoder inside the block at ``dtype``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder_module, "COMPUTE_DTYPE", dtype)
        yield dtype


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def config(golden) -> TriADConfig:
    return TriADConfig(**golden["config"])


def _fit(config, dataset, dtype) -> TriAD:
    with pinned(dtype):
        detector = TriAD(config).fit(dataset.train)
    assert detector.encoder.dtype == np.dtype(dtype)
    return detector


@pytest.fixture(scope="module")
def fitted(spike_dataset_module, config) -> TriAD:
    return _fit(config, spike_dataset_module, np.float64)


@pytest.fixture(scope="module")
def fitted_float32(spike_dataset_module, config) -> TriAD:
    return _fit(config, spike_dataset_module, np.float32)


@pytest.fixture(scope="module")
def spike_dataset_module():
    from repro.data import DatasetSpec, make_dataset

    spec = DatasetSpec(
        name="spike_ds",
        family="sine",
        period=32,
        train_length=800,
        test_length=1000,
        anomaly_type="point",
        anomaly_start=500,
        anomaly_length=5,
        noise_level=0.03,
        seed=5,
    )
    return make_dataset(spec)


def check_detect(fitted, dataset, golden, dtype):
    with pinned(dtype):
        detection = fitted.detect(dataset.test)
    want = golden["detect"]
    assert np.flatnonzero(detection.predictions).tolist() == want[
        "prediction_indices"
    ]
    assert list(detection.window) == want["window"]
    assert list(detection.search_region) == want["search_region"]
    assert {
        k: list(v) for k, v in sorted(detection.candidate_windows.items())
    } == want["candidate_windows"]
    rtol, atol = LOSS_TOL[dtype]
    np.testing.assert_allclose(
        fitted.train_losses, want["train_losses"], rtol=rtol, atol=atol
    )


def check_archive_sweep(dataset, config, golden, dtype):
    with pinned(dtype):
        agg = run_on_archive(
            "triad",
            lambda s: TriAD(config.with_overrides(seed=s)),
            [dataset],
            seeds=(0, 1),
        )
    want = golden["run_on_archive"]
    assert agg.coverage == want["coverage"]
    for metric, value in want["mean"].items():
        assert agg.mean[metric] == pytest.approx(value, abs=1e-9), metric
    for metric, value in want["std"].items():
        assert agg.std[metric] == pytest.approx(value, abs=1e-9), metric


def check_serve_replay(fitted, dataset, golden, dtype):
    with pinned(dtype):
        registry = build_registry(fitted, train_series=dataset.train)
        engine = build_engine(
            registry,
            window_length=fitted.plan.length,
            stride=fitted.plan.stride,
            expected_period=fitted.plan.period,
        )
        report = replay_dataset(dataset, engine, streams=2)
    want = golden["serve_replay"]
    assert report.detected is want["detected"]
    assert len(report.alerts) == want["alerts"]
    assert sorted(report.engine_report.get("models_used", [])) == want[
        "models_used"
    ]
    assert report.engine_report.get("windows_scored") == want["windows_scored"]
    assert [
        [a.stream_id, a.index, a.model] for a in report.alerts[:16]
    ] == [list(key) for key in want["alert_keys"]]
    rtol, atol = ALERT_SCORE_TOL[dtype]
    np.testing.assert_allclose(
        [a.score for a in report.alerts[:16]],
        want["alert_scores"],
        rtol=rtol,
        atol=atol,
    )


def test_detect_matches_golden(fitted, spike_dataset_module, golden):
    check_detect(fitted, spike_dataset_module, golden, np.float64)


def test_detect_float32_gate(fitted_float32, spike_dataset_module, golden):
    check_detect(fitted_float32, spike_dataset_module, golden, np.float32)


def test_archive_sweep_matches_golden(spike_dataset_module, config, golden):
    check_archive_sweep(spike_dataset_module, config, golden, np.float64)


def test_archive_sweep_float32_gate(spike_dataset_module, config, golden):
    check_archive_sweep(spike_dataset_module, config, golden, np.float32)


def test_serve_replay_matches_golden(fitted, spike_dataset_module, golden):
    check_serve_replay(fitted, spike_dataset_module, golden, np.float64)


def test_serve_replay_float32_gate(fitted_float32, spike_dataset_module, golden):
    check_serve_replay(fitted_float32, spike_dataset_module, golden, np.float32)
