"""Unit tests for the shared discord kernel layer.

Covers the kernel selection rule, ``SeriesContext`` moment/z-norm reuse,
the one documented home for exclusion-zone defaults (pinning each
algorithm's effective zone), and the ``StreamingDiscordDetector``
``baseline_window`` parameter.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.discord import (
    StreamingDiscordDetector,
    default_exclusion,
    drag,
    matrix_profile,
    nearest_neighbor_distances,
    top_k_discords,
    top_k_motifs,
    znorm_subsequences,
)
from repro.discord import kernels
from repro.discord.distance import (
    nearest_neighbor_distances as reference_nn_distances,
)
from repro.discord.kernels import (
    AUTO_FFT_MIN_COUNT,
    AUTO_FFT_MIN_LENGTH,
    SeriesContext,
    resolve_mode,
)
from repro.discord.streaming import BASELINE_WINDOW


@pytest.fixture
def series(rng):
    s = rng.normal(size=400)
    s[250:270] += 3.0
    return s


# ----------------------------------------------------------------------
# Mode dispatch
# ----------------------------------------------------------------------
class TestModeDispatch:
    def test_default_mode_is_auto(self):
        assert kernels._DISCORD_MODE == "auto"
        assert not kernels._reference_active()
        assert resolve_mode(None, 16, 10_000) == "blocked"

    def test_auto_resolution_thresholds(self):
        assert resolve_mode("auto", 16, 10_000) == "blocked"
        assert resolve_mode("auto", AUTO_FFT_MIN_LENGTH, AUTO_FFT_MIN_COUNT) == "fft"
        assert resolve_mode("auto", AUTO_FFT_MIN_LENGTH, 10) == "blocked"
        assert resolve_mode("blocked", 10_000, 10_000) == "blocked"
        assert resolve_mode("reference", 10_000, 10_000) == "reference"


# ----------------------------------------------------------------------
# SeriesContext
# ----------------------------------------------------------------------
class TestSeriesContext:
    def test_moments_match_two_pass(self, series):
        ctx = SeriesContext(series)
        for length in (3, 16, 33):
            mean, std = ctx.moments(length)
            subs = np.lib.stride_tricks.sliding_window_view(series, length)
            np.testing.assert_allclose(mean, subs.mean(axis=1), atol=1e-12)
            np.testing.assert_allclose(std, subs.std(axis=1), atol=1e-12)

    def test_constant_windows_match_bitwise(self):
        # Catastrophic cancellation in the prefix sums would leave a tiny
        # spurious std on constant windows; the suspect-row recompute must
        # reproduce the two-pass result exactly.
        s = np.concatenate([np.full(50, 7.123456), np.sin(np.arange(60))])
        ctx = SeriesContext(s)
        length = 8
        mean, std = ctx.moments(length)
        subs = np.lib.stride_tricks.sliding_window_view(s, length)
        constant = subs.std(axis=1) == 0.0
        assert constant.any()
        # Constant windows go through the exact two-pass recompute and
        # must match bitwise; mixed windows only to fp accuracy.
        np.testing.assert_array_equal(mean[constant], subs.mean(axis=1)[constant])
        np.testing.assert_array_equal(std[constant], subs.std(axis=1)[constant])
        np.testing.assert_allclose(mean, subs.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(std, subs.std(axis=1), atol=1e-12)
        z = ctx.znorm(length)
        oracle = znorm_subsequences(s, length)
        np.testing.assert_array_equal(z[constant], oracle[constant])
        np.testing.assert_allclose(z, oracle, atol=1e-9)

    def test_znorm_matches_reference(self, series):
        ctx = SeriesContext(series)
        np.testing.assert_allclose(
            ctx.znorm(16), znorm_subsequences(series, 16), atol=1e-9
        )

    def test_count_validation(self, series):
        ctx = SeriesContext(series)
        assert ctx.count(16) == len(series) - 15
        with pytest.raises(ValueError, match="exceeds series length"):
            ctx.count(len(series) + 1)
        with pytest.raises(ValueError, match="must be positive"):
            ctx.count(0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            SeriesContext(np.zeros((4, 4)))

    def test_context_reuse_across_algorithms(self, series):
        ctx = SeriesContext(series)
        direct = nearest_neighbor_distances(series, 16)
        shared = nearest_neighbor_distances(series, 16, ctx=ctx)
        np.testing.assert_array_equal(direct, shared)
        mp = matrix_profile(series, 16, ctx=ctx)
        assert mp.profile.shape == shared.shape

    def test_sliding_dots_match_direct(self, series):
        ctx = SeriesContext(series)
        length = 16
        subs = np.lib.stride_tricks.sliding_window_view(series, length)
        dots = ctx.sliding_dots(np.asarray([0, 5, 100]), length)
        expected = subs[[0, 5, 100]] @ subs.T
        np.testing.assert_allclose(dots, expected, atol=1e-8)


# ----------------------------------------------------------------------
# Exclusion-zone conventions (satellite: one documented default)
# ----------------------------------------------------------------------
class TestExclusionConventions:
    def test_default_exclusion_values(self):
        assert default_exclusion(16, "discord") == 16
        assert default_exclusion(16, "profile") == 8
        # Odd lengths pin the floor-divide (not round-half-even).
        assert default_exclusion(7, "profile") == 3
        assert default_exclusion(1, "profile") == 1
        assert default_exclusion(1, "discord") == 1
        with pytest.raises(ValueError, match="unknown exclusion convention"):
            default_exclusion(16, "both")

    def test_drag_defaults_to_discord_convention(self, series):
        """DRAG's effective default zone is the full subsequence length."""
        found_default = drag(series, 16, r=1.0)
        found_explicit = drag(series, 16, r=1.0, exclusion=16)
        assert found_default is not None
        assert found_default == found_explicit

    def test_nn_profile_defaults_to_profile_convention(self, series):
        default = nearest_neighbor_distances(series, 17)
        explicit = nearest_neighbor_distances(series, 17, exclusion=8)
        np.testing.assert_array_equal(default, explicit)
        wider = nearest_neighbor_distances(series, 17, exclusion=17)
        assert (wider >= default - 1e-12).all() and not np.array_equal(wider, default)

    def test_topk_defaults_to_discord_convention(self, series):
        default = top_k_discords(series, 16, k=2)
        explicit = top_k_discords(series, 16, k=2, exclusion=16)
        assert [(d.index, d.distance) for d in default] == [
            (d.index, d.distance) for d in explicit
        ]

    def test_matrix_profile_and_motifs_default_to_profile_convention(self, series):
        mp_default = matrix_profile(series, 16)
        mp_explicit = matrix_profile(series, 16, exclusion=8)
        np.testing.assert_array_equal(mp_default.profile, mp_explicit.profile)
        np.testing.assert_array_equal(mp_default.indices, mp_explicit.indices)
        motifs_default = top_k_motifs(series, 16, k=1)
        motifs_explicit = top_k_motifs(series, 16, k=1, exclusion=8)
        assert motifs_default == motifs_explicit


# ----------------------------------------------------------------------
# Kernel entry point contracts
# ----------------------------------------------------------------------
class TestKernelEntryPoint:
    def test_short_series_all_inf_contract_in_every_mode(self):
        # count = 5 subsequences under exclusion 8: every pair banned.
        s = np.sin(np.arange(12))
        for mode in ("reference", "blocked", "fft"):
            with mock.patch.object(kernels, "_DISCORD_MODE", mode):
                profile = nearest_neighbor_distances(s, 8, exclusion=8)
            assert profile.shape == (5,)
            assert np.isinf(profile).all(), mode

    def test_matches_reference_oracle(self, series):
        oracle = reference_nn_distances(series, 16)
        for mode in ("blocked", "fft"):
            with mock.patch.object(kernels, "_DISCORD_MODE", mode):
                fast = nearest_neighbor_distances(series, 16)
            np.testing.assert_allclose(fast, oracle, atol=1e-9)

    def test_too_long_subsequence_raises(self, series):
        with pytest.raises(ValueError, match="exceeds series length"):
            nearest_neighbor_distances(series, len(series) + 1)


# ----------------------------------------------------------------------
# StreamingDiscordDetector.baseline_window (satellite)
# ----------------------------------------------------------------------
class TestBaselineWindow:
    @staticmethod
    def _stream(rng, n=900):
        s = np.sin(np.arange(n) / 3.0) + 0.05 * rng.normal(size=n)
        s[700:710] += 4.0
        return s

    def test_default_matches_module_constant(self):
        detector = StreamingDiscordDetector(length=8)
        assert detector.baseline_window == BASELINE_WINDOW == 512

    def test_default_is_behavior_identical_to_explicit_512(self, rng):
        stream = self._stream(rng)
        default = StreamingDiscordDetector(length=8, warmup=16)
        explicit = StreamingDiscordDetector(length=8, warmup=16, baseline_window=512)
        for value in stream:
            a, b = default.update(value), explicit.update(value)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.index == b.index and a.distance == b.distance
        assert default._distances == explicit._distances
        assert [alert.index for alert in default.alerts] == [
            alert.index for alert in explicit.alerts
        ]
        assert default.alerts  # the spike actually fired

    def test_validated_against_subsequence_length(self):
        with pytest.raises(ValueError, match="baseline_window must be >="):
            StreamingDiscordDetector(length=32, baseline_window=16)
        # Equal to the length is the smallest legal window.
        detector = StreamingDiscordDetector(length=32, baseline_window=32)
        assert detector.baseline_window == 32

    def test_small_window_bounds_the_trailing_buffer(self, rng):
        detector = StreamingDiscordDetector(length=8, warmup=8, baseline_window=16)
        for value in self._stream(rng, n=600):
            detector.update(value)
        assert len(detector._distances) <= 16 + 1
