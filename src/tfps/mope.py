"""Mixture of pattern experts: top-k routing on subspace affinities, sparse
expert evaluation, branch merging, and the forecast head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
# an expert is the encoder's two-layer perceptron, bound here rather than looked
# up on `encoder` per call, so a profiler's wrapper on `encoder.feed_forward`
# times the encoder blocks alone and expert time stays in `aggregate`
from .encoder import MLPParams, feed_forward as expert_forward
from .fourier import inverse_fourier_mix


@dataclass
class GatingWeights:
    """Per-token routing weights: each row is non-negative, sums to 1, and has
    at most k nonzero entries (exactly the selected experts)."""

    weights: Tensor  # (M, K)
    indices: np.ndarray  # (M, k) selected expert ids


def gate(s: Tensor, k: int) -> GatingWeights:
    """KeepTopK routing (Shazeer et al., 2017): keep the k largest affinities
    per row, set the rest to -inf and take a softmax, so unselected experts get
    exactly zero weight and zero gradient. Ties break toward the lowest expert
    index."""
    if s.ndim != 2:
        raise ValueError(f"expected (M, K) affinities, got shape {s.shape}")
    K = s.shape[1]
    if not 1 <= k <= K:
        raise ValueError(f"k must satisfy 1 <= k <= K={K}, got {k}")
    # stable sort of the negated values: equal affinities keep index order
    indices = np.argsort(-s.data, axis=1, kind="stable")[:, :k]
    floor = np.full(s.shape, -np.inf)
    np.put_along_axis(floor, indices, 0.0, axis=1)
    return GatingWeights(weights=ad.softmax(s + floor, axis=1), indices=indices)


def aggregate(gating: GatingWeights, z: Tensor, experts: list[MLPParams]) -> Tensor:
    """h_i = sum_j gating[i, j] * E_j(z_i), evaluating each expert only on the
    tokens actually routed to it, so an unrouted expert never runs; an expert
    routed every token (always, when k == K) runs on z itself, without gather
    and scatter copies."""
    M = z.shape[0]
    out = None
    for j, params in enumerate(experts):
        rows = np.nonzero((gating.indices == j).any(axis=1))[0]
        if rows.size == 0:
            continue
        if rows.size == M:  # every token routed here: gathering would only copy
            piece = expert_forward(z, params) * gating.weights[:, j : j + 1]
        else:
            zj = ad.index_rows(z, rows)
            ej = expert_forward(zj, params)
            wj = ad.index_rows(gating.weights, rows)[:, j : j + 1]
            piece = ad.scatter_rows(ej * wj, rows, M)
        out = piece if out is None else out + piece
    if out is None:  # unreachable: k >= 1 routes every token somewhere
        raise RuntimeError("no expert received any token")
    return out


def combine_branches(h_t: Tensor, h_f: Tensor) -> Tensor:
    """Bring the frequency branch back with the real inverse 2-D DFT over its
    (patch, hidden) axes, then concatenate with the time branch features."""
    if h_t.shape != h_f.shape:
        raise ValueError(f"branch shapes differ: {h_t.shape} vs {h_f.shape}")
    return ad.concat([h_t, inverse_fourier_mix(h_f)], axis=-1)


def head(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per channel, flatten the (N, D') block and apply one shared linear map;
    output is (..., H, C)."""
    n, dp = h.shape[-2], h.shape[-1]
    if w.shape[0] != n * dp:
        raise ValueError(f"head expects flattened width {w.shape[0]}, got {n * dp}")
    flat = h.reshape(h.shape[:-2] + (n * dp,))
    return ad.linear(flat, w, b).swapaxes(-1, -2)  # (..., C, H) -> (..., H, C)
