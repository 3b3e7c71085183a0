"""Training loop tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import TriADConfig, TriDomainEncoder, train_encoder
from repro.core import trainer
from repro.core.trainer import _epoch_loss
from repro.nn import Tensor
from repro.pipeline import default_pipeline


@pytest.fixture
def fast_config():
    return TriADConfig(depth=2, hidden_dim=8, epochs=3, seed=0, max_window=128)


class TestTrainEncoder:
    def test_returns_plan_and_losses(self, noisy_wave, fast_config):
        result = train_encoder(noisy_wave, fast_config)
        assert len(result.train_losses) == 3
        assert len(result.val_losses) == 3
        assert result.plan.length <= 128
        assert all(np.isfinite(l) for l in result.train_losses)

    def test_loss_decreases(self, noisy_wave):
        config = TriADConfig(depth=2, hidden_dim=8, epochs=6, seed=1, max_window=128)
        result = train_encoder(noisy_wave, config)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_reproducible_given_seed(self, noisy_wave, fast_config):
        a = train_encoder(noisy_wave, fast_config)
        b = train_encoder(noisy_wave, fast_config)
        assert a.train_losses == b.train_losses
        for (name_a, p_a), (name_b, p_b) in zip(
            a.encoder.named_parameters(), b.encoder.named_parameters()
        ):
            assert name_a == name_b
            assert np.allclose(p_a.data, p_b.data)

    def test_different_seeds_differ(self, noisy_wave, fast_config):
        a = train_encoder(noisy_wave, fast_config)
        b = train_encoder(noisy_wave, fast_config.with_overrides(seed=7))
        assert a.train_losses != b.train_losses

    def test_encoder_left_in_eval_mode(self, noisy_wave, fast_config):
        result = train_encoder(noisy_wave, fast_config)
        assert not result.encoder.training

    def test_ablated_domains_trainable(self, noisy_wave, fast_config):
        config = fast_config.with_overrides(domains=("temporal", "frequency"))
        result = train_encoder(noisy_wave, config)
        assert np.isfinite(result.train_losses[-1])

    def test_intra_only_trainable(self, noisy_wave, fast_config):
        config = fast_config.with_overrides(use_inter=False)
        result = train_encoder(noisy_wave, config)
        assert np.isfinite(result.train_losses[-1])


class TestContrastiveForwardFusion:
    def test_fused_forward_matches_two_pass(
        self, noisy_wave, fast_config, float64_reference, monkeypatch
    ):
        """The concatenated [originals; augmented] pass must reproduce the
        two-pass losses: every encoder op is batch-row independent, so
        the only tolerated difference is BLAS rounding the last ulp
        differently for the doubled row count."""
        fused = train_encoder(noisy_wave, fast_config)

        def two_pass_forward(encoder, original_features, augmented_features, size):
            return encoder(original_features), encoder(augmented_features)

        monkeypatch.setattr(
            trainer, "_contrastive_representations", two_pass_forward
        )
        two_pass = train_encoder(noisy_wave, fast_config)
        assert np.allclose(fused.train_losses, two_pass.train_losses, rtol=1e-12)
        assert np.allclose(fused.val_losses, two_pass.val_losses, rtol=1e-12)
        for (name_a, p_a), (name_b, p_b) in zip(
            fused.encoder.named_parameters(), two_pass.encoder.named_parameters()
        ):
            assert name_a == name_b
            assert np.allclose(p_a.data, p_b.data, rtol=1e-10, atol=1e-12)


class TestFloat32Step:
    """The production encoder trains in float32 end to end.  A Python
    scalar or an ``np.eye`` mask promoted to float64 would still train —
    part of the graph would just silently run in double precision — so
    every value the step creates is checked, not only the end state."""

    def test_one_step_leaves_everything_float32(self, noisy_wave, monkeypatch):
        config = TriADConfig(
            depth=2, hidden_dim=8, epochs=1, seed=0, max_window=128, batch_size=8
        )
        pipeline = default_pipeline()
        plan = pipeline.plan_for(noisy_wave, config)
        windows, _ = pipeline.windows(noisy_wave, plan.length, plan.stride)
        windows = windows[: config.batch_size]
        encoder = TriDomainEncoder(config)
        features = {
            d: a.astype(encoder.dtype)
            for d, a in pipeline.features(windows, plan.period, config.domains).items()
        }
        optimizer = nn.Adam(encoder.parameters(), lr=config.learning_rate)

        made, accumulated = set(), set()
        make, accumulate = Tensor._make, Tensor._accumulate

        def recording_make(data, parents, backward):
            made.add(np.asarray(data).dtype)
            return make(data, parents, backward)

        def recording_accumulate(tensor, grad):
            accumulated.add(np.asarray(grad).dtype)
            accumulate(tensor, grad)

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
        monkeypatch.setattr(Tensor, "_accumulate", recording_accumulate)
        loss = _epoch_loss(
            encoder, windows, plan.period, config, np.random.default_rng(0),
            optimizer, features=features,
        )

        assert np.isfinite(loss)
        assert optimizer._step_count == 1
        assert made == {np.dtype(np.float32)}
        assert accumulated == {np.dtype(np.float32)}
        for name, param in encoder.named_parameters():
            assert param.data.dtype == np.float32, name
            assert param.grad.dtype == np.float32, name
        for moment in optimizer._m + optimizer._v:
            assert moment.dtype == np.float32
