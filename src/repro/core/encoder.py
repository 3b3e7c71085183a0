"""TriAD's dilated-convolution encoders (paper Sec. III-B).

Each domain has its own encoder: a stack of residual blocks whose
dilation doubles per block, growing the receptive field exponentially
so both short- and long-range patterns are captured.  The per-domain
latent ``(batch, h_d, length)`` maps are funneled through two dense
layers *shared across domains* into a one-dimensional representation
``r`` of shape ``(batch, length)``, which feeds the contrastive losses
and the window similarity ranking.

The encoder trains and scores in ``COMPUTE_DTYPE``: float32, the
precision of the paper's PyTorch encoder.  float64 stays the reference
the tests compare against (docs/PERF.md, "Precision").
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from .config import TriADConfig
from .features import domain_channels

__all__ = ["COMPUTE_DTYPE", "ResidualBlock", "DilatedConvEncoder", "TriDomainEncoder"]

# Precision every new TriDomainEncoder is built in.
COMPUTE_DTYPE = np.float32


class ResidualBlock(nn.Module):
    """Two same-padding dilated convolutions with a skip connection."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.conv1 = nn.Conv1d(
            in_channels, out_channels, kernel_size, dilation=dilation, rng=rng
        )
        self.conv2 = nn.Conv1d(
            out_channels, out_channels, kernel_size, dilation=dilation, rng=rng
        )
        self.skip = (
            nn.Conv1d(in_channels, out_channels, 1, rng=rng)
            if in_channels != out_channels
            else nn.Identity()
        )

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.conv2(self.conv1(x).relu())
        return (hidden + self.skip(x)).relu()


class DilatedConvEncoder(nn.Module):
    """Stack of residual blocks with dilation doubling per block."""

    def __init__(self, in_channels: int, config: TriADConfig, rng: np.random.Generator) -> None:
        super().__init__()
        blocks = []
        channels = in_channels
        for level in range(config.depth):
            blocks.append(
                ResidualBlock(
                    channels,
                    config.hidden_dim,
                    config.kernel_size,
                    dilation=2**level,
                    rng=rng,
                )
            )
            channels = config.hidden_dim
        self.blocks = nn.Sequential(*blocks)

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(batch, channels, length)`` to ``(batch, h_d, length)``."""
        return self.blocks(x)


class TriDomainEncoder(nn.Module):
    """Per-domain encoders plus the shared dense projection head.

    ``forward`` returns L2-normalized representations so that dot
    products in the contrastive losses are bounded cosine similarities
    (see :class:`repro.core.config.TriADConfig.temperature`).

    Parameters are initialized in float64 — so both precisions draw the
    same weights from ``rng`` — and cast once to ``dtype``
    (``COMPUTE_DTYPE`` when omitted).
    """

    def __init__(
        self,
        config: TriADConfig,
        rng: np.random.Generator | None = None,
        dtype: np.typing.DTypeLike = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.domains = config.domains
        for domain in config.domains:
            encoder = DilatedConvEncoder(domain_channels(domain), config, rng)
            setattr(self, f"encoder_{domain}", encoder)
        self.dense1 = nn.Linear(config.hidden_dim, config.hidden_dim, rng=rng)
        self.dense2 = nn.Linear(config.hidden_dim, 1, rng=rng)
        dtype = COMPUTE_DTYPE if dtype is None else dtype
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)

    @property
    def dtype(self) -> np.dtype:
        """The precision the parameters (and hence every forward) use."""
        return self.dense2.weight.data.dtype

    def encode(self, features: np.ndarray | Tensor, domain: str) -> Tensor:
        """Encode one domain's ``(batch, channels, length)`` features."""
        if domain not in self.domains:
            raise KeyError(f"domain {domain!r} not active in this encoder")
        encoder: DilatedConvEncoder = getattr(self, f"encoder_{domain}")
        if not isinstance(features, Tensor):
            features = np.asarray(features, dtype=self.dtype)
        hidden = encoder(nn.as_tensor(features))  # (B, h_d, L)
        hidden = hidden.transpose(0, 2, 1)  # (B, L, h_d)
        projected = self.dense2(self.dense1(hidden).relu())  # (B, L, 1)
        batch, length, _ = projected.shape
        r = projected.reshape(batch, length)
        norm = ((r * r).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
        return r / norm

    def forward(self, features_by_domain: dict[str, np.ndarray]) -> dict[str, Tensor]:
        """Encode every active domain; returns ``{domain: (batch, length)}``."""
        return {
            domain: self.encode(features_by_domain[domain], domain)
            for domain in self.domains
        }
