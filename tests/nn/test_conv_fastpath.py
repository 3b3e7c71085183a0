"""Equivalence and gradient tests for the ``conv1d`` fast paths.

The reference implementation (per-tap ``np.stack`` + einsum) is the
oracle: every fast path — per-tap GEMM, im2col pack, FFT — must agree
with it in forward values and in the gradients it routes to ``x``,
``weight`` and ``bias``, across the full padding × stride × dilation
grid.  ``BENCH_nn.json`` leans on exactly this equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, check_gradients
from repro.nn import functional as F

PADDINGS = ["same", "valid", "causal", 2, 0]
STRIDES = [1, 2, 3]
DILATIONS = [1, 2, 3]


def _run(mode, x_data, w_data, b_data, **kwargs):
    """Forward + backward under ``mode``; returns (out, grads)."""
    with F.conv1d_mode(mode):
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True) if b_data is not None else None
        out = F.conv1d(x, w, b, **kwargs)
        # A fixed non-uniform cotangent so backward bugs can't cancel.
        seed = np.sin(np.arange(out.data.size)).reshape(out.shape)
        (out * Tensor(seed)).sum().backward()
    grads = [x.grad, w.grad] + ([b.grad] if b is not None else [])
    return out.data, grads


class TestModeEquivalence:
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("dilation", DILATIONS)
    def test_gemm_matches_reference(self, rng, padding, stride, dilation):
        x = rng.normal(size=(2, 3, 23))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        ref_out, ref_grads = _run(
            "reference", x, w, b, padding=padding, stride=stride, dilation=dilation
        )
        out, grads = _run(
            "gemm", x, w, b, padding=padding, stride=stride, dilation=dilation
        )
        assert np.allclose(out, ref_out, atol=1e-12)
        for got, want in zip(grads, ref_grads):
            assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("padding", ["same", "valid", "causal"])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_fft_matches_reference(self, rng, padding, dilation):
        x = rng.normal(size=(2, 2, 40))
        w = rng.normal(size=(3, 2, 5))
        b = rng.normal(size=3)
        ref_out, ref_grads = _run(
            "reference", x, w, b, padding=padding, dilation=dilation
        )
        out, grads = _run("fft", x, w, b, padding=padding, dilation=dilation)
        assert np.allclose(out, ref_out, atol=1e-10)
        for got, want in zip(grads, ref_grads):
            assert np.allclose(got, want, atol=1e-10)

    def test_wide_kernel_im2col_branch(self, rng):
        """K > TAP_GEMM_MAX_K on a small input packs via im2col."""
        k = F.TAP_GEMM_MAX_K + 2
        x = rng.normal(size=(2, 2, 30))
        w = rng.normal(size=(3, 2, k))
        ref_out, ref_grads = _run("reference", x, w, None, padding="same")
        out, grads = _run("gemm", x, w, None, padding="same")
        assert np.allclose(out, ref_out, atol=1e-12)
        for got, want in zip(grads, ref_grads):
            assert np.allclose(got, want, atol=1e-12)

    def test_wide_kernel_large_input_taps_branch(self, rng):
        """Packed bytes above IM2COL_MAX_BYTES fall back to per-tap GEMM."""
        k = F.TAP_GEMM_MAX_K + 2
        length = F.IM2COL_MAX_BYTES // (4 * k * 8) + 64
        x = rng.normal(size=(2, 2, length))
        w = rng.normal(size=(1, 2, k))
        ref_out, ref_grads = _run("reference", x, w, None, padding="valid")
        out, grads = _run("gemm", x, w, None, padding="valid")
        assert np.allclose(out, ref_out, atol=1e-11)
        for got, want in zip(grads, ref_grads):
            assert np.allclose(got, want, atol=1e-11)

    def test_auto_prefers_fft_for_wide_spans(self, rng):
        """auto at stride 1 with K >= FFT_MIN_TAPS and a wide span agrees
        with the forced fft path bit-for-bit (same impl selected)."""
        k = F.FFT_MIN_TAPS
        dilation = max(1, (F.FFT_MIN_SPAN // (k - 1)) + 1)
        length = dilation * (k - 1) + 16
        x = rng.normal(size=(1, 1, length))
        w = rng.normal(size=(1, 1, k))
        auto_out, _ = _run("auto", x, w, None, padding="same", dilation=dilation)
        fft_out, _ = _run("fft", x, w, None, padding="same", dilation=dilation)
        assert np.array_equal(auto_out, fft_out)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown conv1d mode"):
            F.set_conv1d_mode("winograd")

    def test_mode_context_restores_previous(self):
        assert F.get_conv1d_mode() == "auto"
        with F.conv1d_mode("reference"):
            assert F.get_conv1d_mode() == "reference"
        assert F.get_conv1d_mode() == "auto"


class TestStridedCeilMode:
    """stride > 1 with length-preserving padding is ceil-mode: the
    stride-1 output subsampled from position 0."""

    @pytest.mark.parametrize("padding", ["same", "causal"])
    @pytest.mark.parametrize("stride", [2, 3, 4])
    def test_output_length_is_ceil(self, rng, padding, stride):
        length = 17
        x = Tensor(rng.normal(size=(1, 1, length)))
        w = Tensor(rng.normal(size=(1, 1, 3)))
        out = F.conv1d(x, w, padding=padding, stride=stride)
        assert out.shape[-1] == -(-length // stride)

    @pytest.mark.parametrize("mode", ["gemm", "reference"])
    def test_strided_is_subsampled_stride1(self, rng, mode):
        x = Tensor(rng.normal(size=(1, 2, 19)))
        w = Tensor(rng.normal(size=(3, 2, 3)))
        with F.conv1d_mode(mode):
            dense = F.conv1d(x, w, padding="same", dilation=2).data
            strided = F.conv1d(x, w, padding="same", dilation=2, stride=2).data
        assert np.allclose(strided, dense[:, :, ::2])


class TestFastPathGradients:
    """Finite-difference checks on the fast paths themselves, including
    the asymmetric-padding backward branches."""

    @pytest.mark.parametrize("mode", ["gemm", "fft"])
    def test_causal_pad_right_zero_backward(self, rng, mode):
        """causal padding gives pad_left > 0, pad_right == 0 — the
        backward slice must still drop the left padding only."""
        x = Tensor(rng.normal(size=(1, 2, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        with F.conv1d_mode(mode):
            check_gradients(
                lambda a, b: F.conv1d(a, b, padding="causal", dilation=2).sum(),
                [x, w],
            )

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("padding", ["same", "valid", 1])
    def test_gemm_gradients(self, rng, stride, padding):
        x = Tensor(rng.normal(size=(2, 2, 11)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        with F.conv1d_mode("gemm"):
            check_gradients(
                lambda a, c, d: F.conv1d(
                    a, c, d, padding=padding, stride=stride
                ).sum(),
                [x, w, b],
            )

    def test_fft_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 16)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        with F.conv1d_mode("fft"):
            check_gradients(
                lambda a, c, d: F.conv1d(a, c, d, padding="same").sum(),
                [x, w, b],
            )

    def test_im2col_gradients(self, rng):
        k = F.TAP_GEMM_MAX_K + 1
        x = Tensor(rng.normal(size=(1, 1, 20)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 1, k)), requires_grad=True)
        with F.conv1d_mode("gemm"):
            check_gradients(
                lambda a, c: F.conv1d(a, c, padding="same", stride=2).sum(),
                [x, w],
            )


class TestFloat32:
    """Every mode keeps a float32 conv in float32 — output and all three
    gradients — and agrees with the float64 result of the same mode to
    float32 precision (the TriAD encoder trains in float32)."""

    @pytest.mark.parametrize("mode", ["auto", "gemm", "fft", "reference"])
    @pytest.mark.parametrize(
        "kernel_size", [3, F.TAP_GEMM_MAX_K + 2], ids=["taps", "im2col"]
    )
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_float32_stays_float32_and_matches_float64(
        self, rng, mode, kernel_size, padding
    ):
        x = rng.normal(size=(3, 4, 40))
        w = rng.normal(size=(5, 4, kernel_size))
        b = rng.normal(size=5)
        results = {}
        for dtype in (np.float32, np.float64):
            with F.conv1d_mode(mode):
                leaves = [
                    Tensor(a.astype(dtype), requires_grad=True) for a in (x, w, b)
                ]
                out = F.conv1d(*leaves, padding=padding, dilation=2)
                cotangent = np.cos(np.arange(out.data.size)).reshape(out.shape)
                (out * Tensor(cotangent.astype(dtype))).sum().backward()
            results[dtype] = [out.data] + [leaf.grad for leaf in leaves]
        for got, want in zip(results[np.float32], results[np.float64]):
            assert got.dtype == np.float32
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * scale)
