"""Dual-domain encoder: multi-head patch attention (time branch) and a
parameter-free Fourier token mixer (frequency branch), each wrapped in
pre-residual/post-norm blocks with a shared feed-forward design.

A block is its parameters: with attention projections it attends, without
them it Fourier-mixes; with running-stat dicts it batch-normalizes (as
PatchTST's encoder does), without them it layer-normalizes.

Channels never mix: inputs arrive as (..., N, D) where every leading axis is
batch-like (window, channel), so one set of weights encodes all channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fourier import fourier_mix

EPS = 1e-5
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
    """One encoder block. Without `wq..wo` it mixes tokens with the
    parameter-free Fourier mixer; without running-stat dicts it
    layer-normalizes instead of batch-normalizing."""

    norm1_scale: Tensor
    norm1_shift: Tensor
    ff: MLPParams
    norm2_scale: Tensor
    norm2_shift: Tensor
    wq: Tensor | None = None
    wk: Tensor | None = None
    wv: Tensor | None = None
    wo: Tensor | None = None
    bn1_stats: dict | None = None
    bn2_stats: dict | None = None


def layer_norm(t: Tensor, scale: Tensor, shift: Tensor, axes: tuple[int, ...] = (-1,),
               stats: dict | None = None) -> Tensor:
    """Normalize over `axes` (the last axis: layer norm; every leading axis:
    batch norm), then scale and shift, as one tape node that keeps only the
    centered input and the deviation; the adjoint divides them again for the
    normalized input. Forward and adjoint run the operations of the
    mean/var/sqrt/div composite in its order, each full-size result in a
    buffer of the node's own, so every output and gradient rounds the same.
    Given `stats`, the batch mean and variance also update those running
    stats: the usual exponential average, seeded by the first batch."""
    x = t.data
    inv_n = 1.0 / float(np.prod([x.shape[a] for a in axes]))
    mu = x.sum(axes, keepdims=True) * inv_n
    c = x + mu * -1.0
    out = c * c
    var = out.sum(axes, keepdims=True) * inv_n
    sd = np.sqrt(var + EPS)
    if stats is not None:
        for key, batch in (("mean", mu.reshape(-1)), ("var", var.reshape(-1))):
            if key in stats:
                stats[key] += BN_MOMENTUM * (batch - stats[key])
            else:
                stats[key] = batch.copy()
    node, gamma, scale_node, shift_node = t.node, scale.data, scale.node, shift.node

    def backward(g):
        ad.accumulate(shift_node, ad.unbroadcast(g, gamma.shape))  # shift has scale's shape
        gc = g * gamma  # the normalized input's gradient, then the centered input's
        tmp = np.negative(gc)
        gsd = ad.unbroadcast(np.divide(np.multiply(tmp, c, out=tmp), sd * sd, out=tmp), sd.shape)
        gsq = gsd * 0.5 / sd * inv_n
        np.divide(gc, sd, out=gc)
        np.multiply(gsq, c, out=tmp)
        gc += tmp
        gc += tmp
        np.multiply(g, np.divide(c, sd, out=tmp), out=tmp)  # g times the normalized input
        ad.accumulate(scale_node, ad.unbroadcast(tmp, gamma.shape))
        ad.accumulate(node, gc + ad.unbroadcast(gc, sd.shape) * -1.0 * inv_n)

    np.multiply(np.divide(c, sd, out=out), gamma, out=out)
    return ad.make_op(np.add(out, shift.data, out=out), (t, scale, shift), backward)


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
    return t * ((rng.random(t.shape) >= rate) / (1.0 - rate))


def norm(t: Tensor, scale: Tensor, shift: Tensor, stats: dict | None, training: bool) -> Tensor:
    """Layer norm without running stats. With them, batch norm: each feature
    over every leading (token) axis. Training normalizes with the batch's
    stats and updates the running stats, and evaluation uses them: mean 0
    and variance 1 until the first training batch seeds them."""
    if stats is None:
        return layer_norm(t, scale, shift)
    if training:
        return layer_norm(t, scale, shift, tuple(range(t.ndim - 1)), stats)
    return (t - stats.get("mean", 0.0)) / np.sqrt(stats.get("var", 1.0) + EPS) * scale + shift


def encode(tokens: Tensor, layers: list[LayerParams], n_heads: int, dropout: float = 0.0,
           training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Stack of {normalized residual mixer; normalized residual feed-forward}
    blocks; each block attends or Fourier-mixes, and layer- or
    batch-normalizes, as its parameters say."""
    rate = dropout if training else 0.0
    x = tokens
    for p in layers:
        mixed = fourier_mix(x) if p.wq is None else attention(x, p.wq, p.wk, p.wv, p.wo, n_heads)
        x = norm(x + _dropout(mixed, rate, rng), p.norm1_scale, p.norm1_shift, p.bn1_stats, training)
        ff = _dropout(feed_forward(x, p.ff), rate, rng)
        x = norm(x + ff, p.norm2_scale, p.norm2_shift, p.bn2_stats, training)
    return x
