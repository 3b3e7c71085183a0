"""Bit-identity tests for the fused optimizer fast paths.

The fused ``step()`` implementations replay the reference update rules
with in-place ufuncs over preallocated scratch — same operations, same
rounding order — so trajectories must be *bit-identical* to the
allocation-per-step reference (``_step_reference()``, called directly),
not merely close.  ``np.array_equal``
(no tolerance) is the whole point of these tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Parameter

FACTORIES = {
    "sgd": lambda params: nn.SGD(params, lr=0.05),
    "sgd_momentum": lambda params: nn.SGD(params, lr=0.05, momentum=0.9),
    "sgd_wd": lambda params: nn.SGD(params, lr=0.05, weight_decay=0.01),
    "sgd_momentum_wd": lambda params: nn.SGD(
        params, lr=0.05, momentum=0.9, weight_decay=0.01
    ),
    "adam": lambda params: nn.Adam(params, lr=0.01),
    "adam_wd": lambda params: nn.Adam(params, lr=0.01, weight_decay=0.01),
    "adamw": lambda params: nn.AdamW(params, lr=0.01, weight_decay=0.02),
    "rmsprop": lambda params: nn.RMSProp(params, lr=0.01),
}


def _trajectory(factory, fused: bool, steps: int = 50) -> list[np.ndarray]:
    """Parameter snapshots after each step on a fixed gradient stream."""
    rng = np.random.default_rng(99)
    params = [
        Parameter(rng.normal(size=(4, 3))),
        Parameter(rng.normal(size=7)),
    ]
    optimizer = factory(params)
    grad_rng = np.random.default_rng(7)
    step = optimizer.step if fused else optimizer._step_reference
    snapshots = []
    for _ in range(steps):
        for p in params:
            p.grad = grad_rng.normal(size=p.shape)
        step()
        snapshots.append([p.data.copy() for p in params])
    return snapshots


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_fused_matches_reference_exactly(self, name):
        fused = _trajectory(FACTORIES[name], fused=True)
        reference = _trajectory(FACTORIES[name], fused=False)
        for step, (got, want) in enumerate(zip(fused, reference)):
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (
                    f"{name}: fused step {step} diverged from reference"
                )

    def test_fused_skips_missing_gradients(self):
        p = Parameter(np.ones(3))
        q = Parameter(np.ones(3))
        optimizer = nn.Adam([p, q], lr=0.1)
        p.grad = np.full(3, 0.5)
        optimizer.step()  # q.grad is None — must be left untouched
        assert np.array_equal(q.data, np.ones(3))
        assert not np.array_equal(p.data, np.ones(3))



class TestToggle:
    def test_default_is_fused(self):
        """``step()`` is the fused path: it runs on preallocated scratch,
        which the reference never allocates."""
        p = Parameter(np.ones(3))
        optimizer = nn.Adam([p], lr=0.1)
        p.grad = np.full(3, 0.5)
        optimizer._step_reference()
        assert optimizer._scratch is None
        optimizer.step()
        assert optimizer._scratch is not None
