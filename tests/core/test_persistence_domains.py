"""Persistence round-trips across every domain subset, and nn modules.

``save_detector``/``load_detector`` must reproduce the fitted state for
any ``TriADConfig.domains`` choice — each subset persists a different
set of encoders — and at the precision the weights were saved in, and
``save_module``/``load_module`` must round-trip modules whose parameter
names contain dots (submodule paths).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro import TriAD, TriADConfig, nn
from repro.core import encoder as encoder_module
from repro.core import load_detector, save_detector
from repro.core.config import DOMAINS
from repro.nn import Tensor
from repro.nn.serialize import load_module, save_module

ALL_SUBSETS = [
    subset
    for size in range(1, len(DOMAINS) + 1)
    for subset in combinations(DOMAINS, size)
]


@pytest.fixture(scope="module")
def train_series():
    rng = np.random.default_rng(12345)
    t = np.arange(1600)
    return np.sin(2 * np.pi * t / 40) + 0.05 * rng.standard_normal(len(t))


class TestDomainSubsetRoundTrips:
    @pytest.mark.parametrize("domains", ALL_SUBSETS, ids=lambda d: "+".join(d))
    def test_roundtrip_preserves_representations(self, domains, train_series, tmp_path):
        config = TriADConfig(
            depth=2, hidden_dim=8, epochs=1, seed=3, max_window=96, domains=domains
        )
        fitted = TriAD(config).fit(train_series)
        path = tmp_path / "triad.npz"
        save_detector(fitted, path)
        restored = load_detector(path)

        assert restored.config == fitted.config
        assert restored.config.domains == tuple(domains)
        assert restored.plan == fitted.plan

        windows = np.random.default_rng(0).normal(size=(3, fitted.plan.length))
        original = fitted.representations(windows)
        reloaded = restored.representations(windows)
        assert set(original) == set(reloaded) == set(domains)
        for domain in original:
            assert np.allclose(original[domain], reloaded[domain], atol=1e-12)


class TestPrecisionRoundTrips:
    """The stored weights tell the loader the encoder's precision."""

    CONFIG = TriADConfig(depth=2, hidden_dim=8, epochs=1, seed=3, max_window=96)

    @staticmethod
    def _scores(detector, train_series):
        windows = np.random.default_rng(0).normal(size=(4, detector.plan.length))
        detection = detector.detect(train_series[::-1].copy())
        return detector.representations(windows), detection

    def _assert_reproduces(self, path, want, dtype, train_series):
        restored = load_detector(path)
        assert restored.encoder.dtype == dtype
        want_reps, want_det = want
        got_reps, got_det = self._scores(restored, train_series)
        for domain in want_reps:
            assert got_reps[domain].dtype == dtype
            assert np.array_equal(got_reps[domain], want_reps[domain])
        assert np.array_equal(got_det.predictions, want_det.predictions)
        assert got_det.window == want_det.window

    def test_float32_roundtrip_exact(self, train_series, tmp_path):
        fitted = TriAD(self.CONFIG).fit(train_series)
        assert fitted.encoder.dtype == np.float32
        save_detector(fitted, tmp_path / "triad.npz")
        want = self._scores(fitted, train_series)
        self._assert_reproduces(tmp_path / "triad.npz", want, np.float32, train_series)

    def test_legacy_float64_file_loads_as_float64(
        self, train_series, tmp_path, float64_reference, monkeypatch
    ):
        """A file written before the float32 encoder: float64 weights and
        no dtype field (the format never stored one)."""
        legacy = TriAD(self.CONFIG).fit(train_series)
        assert legacy.encoder.dtype == np.float64
        save_detector(legacy, tmp_path / "legacy.npz")
        want = self._scores(legacy, train_series)

        monkeypatch.undo()  # load under the production precision
        assert encoder_module.COMPUTE_DTYPE is np.float32
        self._assert_reproduces(tmp_path / "legacy.npz", want, np.float64, train_series)


class TestModuleRoundTrips:
    def test_lstm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        original = nn.LSTM(3, 5, num_layers=2, rng=rng)
        path = tmp_path / "lstm.npz"
        save_module(original, path)

        other = nn.LSTM(3, 5, num_layers=2, rng=np.random.default_rng(99))
        x = Tensor(rng.normal(size=(2, 6, 3)))
        before, _ = other(x)
        load_module(other, path)
        after, _ = other(x)
        expected, _ = original(x)

        assert not np.allclose(before.data, expected.data)
        assert np.allclose(after.data, expected.data, atol=1e-12)
        # Dotted submodule names survive the npz round-trip verbatim.
        assert set(other.state_dict()) == set(original.state_dict())
        assert any("." in name for name in original.state_dict())

    def test_attention_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        original = nn.MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        path = tmp_path / "attention.npz"
        save_module(original, path)

        other = nn.MultiHeadSelfAttention(8, num_heads=2, rng=np.random.default_rng(99))
        x = Tensor(rng.normal(size=(2, 5, 8)))
        load_module(other, path)
        ours, our_weights = other(x)
        theirs, their_weights = original(x)
        assert np.allclose(ours.data, theirs.data, atol=1e-12)
        assert np.allclose(our_weights.data, their_weights.data, atol=1e-12)

    def test_shape_mismatch_rejected(self, tmp_path):
        original = nn.LSTM(3, 5, rng=np.random.default_rng(0))
        path = tmp_path / "lstm.npz"
        save_module(original, path)
        wrong = nn.LSTM(3, 6, rng=np.random.default_rng(0))
        with pytest.raises((ValueError, KeyError)):
            load_module(wrong, path)
