"""Dual-domain encoder: multi-head patch attention (time branch) and a
parameter-free Fourier token mixer (frequency branch), each wrapped in
pre-residual/post-norm blocks with a shared feed-forward design.

Channels never mix: inputs arrive as (..., N, D) where every leading axis is
batch-like (window, channel), so one set of weights encodes all channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fourier import fourier_mix

LN_EPS = 1e-5
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class MLPParams:
    """`relu(x @ w1 + b1) @ w2 + b2`: a block's feed-forward sublayer, or one expert."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerParams:
    """One encoder block. `wq..wo` are None in the frequency branch, whose
    mixer has no parameters."""

    wq: Tensor | None
    wk: Tensor | None
    wv: Tensor | None
    wo: Tensor | None
    norm1_scale: Tensor
    norm1_shift: Tensor
    ff: MLPParams
    norm2_scale: Tensor
    norm2_shift: Tensor
    # running stats, used only when the block normalizes batch-wise
    bn1_stats: dict = field(default_factory=dict)
    bn2_stats: dict = field(default_factory=dict)


def layer_norm(t: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize the last axis, then scale and shift, as one tape node that
    keeps only the centered input, the deviation and the normalized input.
    Forward and adjoint run the operations of the mean/var/sqrt/div
    composite in its order, so every output and gradient rounds the same."""
    x = t.data
    inv_d = 1.0 / x.shape[-1]
    c = x + x.sum(-1, keepdims=True) * inv_d * -1.0
    sd = np.sqrt((c * c).sum(-1, keepdims=True) * inv_d + LN_EPS)
    xh = c / sd

    def backward(g):
        ad.accumulate(shift, ad.unbroadcast(g, shift.data.shape))
        gxh = g * scale.data
        ad.accumulate(scale, ad.unbroadcast(g * xh, scale.data.shape))
        gc = gxh / sd
        gsd = (-gxh * c / (sd * sd)).sum(-1, keepdims=True)
        gsq = gsd * 0.5 / sd * inv_d
        gc = gc + gsq * c + gsq * c
        ad.accumulate(t, gc + gc.sum(-1, keepdims=True) * -1.0 * inv_d)

    return ad.make_op(xh * scale.data + shift.data, (t, scale, shift), backward)


def batch_norm(t: Tensor, scale: Tensor, shift: Tensor, stats: dict, training: bool) -> Tensor:
    """Normalize each feature over every leading (token) axis. Training
    updates the running stats (the usual exponential average, seeded by the
    first batch), and evaluation uses them; evaluation before any training
    normalizes with the batch's own stats and stores nothing."""
    d = t.shape[-1]
    axes = tuple(range(t.ndim - 1))
    if training or "mean" not in stats:
        mu = t.mean(axis=axes, keepdims=True)
        centered = t - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        batch_mu = mu.data.reshape(d)
        batch_var = var.data.reshape(d)
        if training and "mean" not in stats:
            stats["mean"] = batch_mu.copy()
            stats["var"] = batch_var.copy()
        elif training:
            stats["mean"] += BN_MOMENTUM * (batch_mu - stats["mean"])
            stats["var"] += BN_MOMENTUM * (batch_var - stats["var"])
        return centered / ad.sqrt(var + BN_EPS) * scale + shift
    mu = stats["mean"]
    var = stats["var"]
    return (t - mu) / np.sqrt(var + BN_EPS) * scale + shift


def attention(tokens: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, n_heads: int) -> Tensor:
    """Scaled dot-product attention over the patch axis with n_heads heads:
    softmax(Q K^T / sqrt(d_k)) V per head, concatenated and output-projected."""
    d = tokens.shape[-1]
    if d % n_heads != 0:
        raise ValueError(f"hidden width {d} not divisible by {n_heads} heads")
    if wq.shape != (d, d) or wk.shape != (d, d) or wv.shape != (d, d) or wo.shape != (d, d):
        raise ValueError("attention projections must all be [D x D]")
    dk = d // n_heads
    n = tokens.shape[-2]
    lead = tokens.shape[:-2]

    def split_heads(x: Tensor) -> Tensor:
        x = x.reshape(lead + (n, n_heads, dk))
        return x.swapaxes(-3, -2)  # (..., heads, N, dk)

    q = split_heads(tokens @ wq)
    k = split_heads(tokens @ wk)
    v = split_heads(tokens @ wv)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dk))
    attn = ad.softmax(scores, axis=-1)
    mixed = attn @ v  # (..., heads, N, dk)
    merged = mixed.swapaxes(-3, -2).reshape(lead + (n, d))
    return merged @ wo


def feed_forward(t: Tensor, p: MLPParams) -> Tensor:
    return ad.linear(ad.relu(ad.linear(t, p.w1, p.b1)), p.w2, p.b2)


def _dropout(t: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    if rate <= 0.0 or rng is None:
        return t
    mask = (rng.random(t.shape) >= rate) / (1.0 - rate)
    return t * mask


def _norm(t, p_scale, p_shift, kind, stats, training):
    if kind == "batch":
        return batch_norm(t, p_scale, p_shift, stats, training)
    return layer_norm(t, p_scale, p_shift)


def encode(
    tokens: Tensor,
    layers: list[LayerParams],
    n_heads: int,
    mixer: str,
    norm: str = "layer",
    dropout: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Stack of {normalized residual mixer; normalized residual feed-forward}
    blocks. `mixer` selects self-attention ("time") or the Fourier sublayer
    ("frequency")."""
    if mixer not in ("time", "frequency"):
        raise ValueError(f"mixer must be 'time' or 'frequency', got {mixer!r}")
    x = tokens
    for p in layers:
        if mixer == "time":
            mixed = attention(x, p.wq, p.wk, p.wv, p.wo, n_heads)
        else:
            mixed = fourier_mix(x)
        mixed = _dropout(mixed, dropout if training else 0.0, rng)
        x = _norm(x + mixed, p.norm1_scale, p.norm1_shift, norm, p.bn1_stats, training)
        ff = _dropout(feed_forward(x, p.ff), dropout if training else 0.0, rng)
        x = _norm(x + ff, p.norm2_scale, p.norm2_shift, norm, p.bn2_stats, training)
    return x
