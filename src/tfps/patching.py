"""Channel-independent patching and token embedding.

Each channel of an [L x C] lookback is transposed to [C x L], padded by
replicating its final value `stride` times, and sliced into overlapping
length-P patches at offsets 0, S, 2S, ... (channel-independent patching, as in
PatchTST); the replication pad is what makes the token count come out to
floor((L - P) / S) + 2 with whole patches only. Tokens are an affine
projection of the patch values plus a learnable per-position embedding shared
across channels.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, linear


def patch_count(L: int, P: int, S: int) -> int:
    """Number of tokens produced from a length-L channel."""
    if S < 1:
        raise ValueError(f"stride must be >= 1, got {S}")
    if P < 1 or P > L:
        raise ValueError(f"patch length must satisfy 1 <= P <= L, got P={P}, L={L}")
    if S > P:
        raise ValueError(f"stride must not exceed patch length, got S={S}, P={P}")
    return (L - P) // S + 2


def segment_batch(x: np.ndarray, P: int, S: int) -> np.ndarray:
    """Slice (B, L, C) lookbacks into (B, C, N, P) patches with end
    replication: one read-only strided view of the padded channels."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (B, L, C) input, got shape {x.shape}")
    patch_count(x.shape[1], P, S)  # validates P and S
    channels = x.transpose(0, 2, 1)  # (B, C, L)
    padded = np.concatenate([channels, np.repeat(channels[..., -1:], S, axis=-1)], axis=-1)
    return sliding_window_view(padded, P, axis=-1)[..., ::S, :]


def embed(patches: np.ndarray, projection: Tensor, bias: Tensor, positions: Tensor) -> Tensor:
    """token[..., i, :] = patch[..., i, :] @ W + b + E_i, positions shared
    across channels (and batch). Accepts (C, N, P) or (B, C, N, P)."""
    patches = np.asarray(patches, dtype=np.float64)
    P = patches.shape[-1]
    n = patches.shape[-2]
    if projection.shape[0] != P:
        raise ValueError(f"projection expects patch length {projection.shape[0]}, got {P}")
    if positions.shape != (n, projection.shape[1]):
        raise ValueError(
            f"positions shape {positions.shape} does not match (N={n}, D={projection.shape[1]})"
        )
    return linear(patches, projection, bias) + positions
