"""Pattern identifier: learned subspace bases, per-token soft assignments, and
the clustering loss that sharpens them.

The bases form a q x (K*d) matrix of K concatenated blocks (d = q/K columns
each). Two penalties shape their geometry: a column-norm penalty pulling every
column toward unit length, and a cross-block penalty pulling distinct blocks
toward mutual orthogonality. A token's affinity for block j is its smoothed,
normalized squared projection energy onto that block; the refined affinity
squares and column-reweights those assignments into a sharper self-training
target, held constant while the KL term pulls the live assignments toward it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def block_width(q: int, K: int) -> int:
    """Columns per basis block, d = q // K, for q-wide tokens and K subspaces."""
    if K < 1:
        raise ValueError(f"need K >= 1 subspaces, got {K}")
    if q % K != 0:
        raise ValueError(f"token width {q} not divisible by K={K}")
    return q // K


def init_bases(q: int, K: int, rng: np.random.Generator) -> Tensor:
    """Gaussian(0, 1/sqrt(q)) entries with columns rescaled to unit norm, so
    the column-norm penalty starts at its optimum."""
    raw = rng.normal(0.0, 1.0 / np.sqrt(q), size=(q, K * block_width(q, K)))
    raw /= np.linalg.norm(raw, axis=0, keepdims=True)
    return ad.parameter(raw)


def reg_r1(bases: Tensor) -> Tensor:
    """Column-size penalty: 0.5 * sum_u (||column_u||^2 - 1)^2, i.e. the
    squared Frobenius norm of the Gram diagonal's deviation from identity."""
    col_sq = (bases * bases).sum(axis=0)
    dev = col_sq - 1.0
    return (dev * dev).sum() * 0.5


def reg_r2(bases: Tensor, K: int) -> Tensor:
    """Cross-block penalty: 0.5 * ||B^T B masked to off-diagonal d-blocks||_F^2."""
    d = block_width(bases.shape[0], K)
    gram = bases.swapaxes(0, 1) @ bases
    masked = gram * (1.0 - np.kron(np.eye(K), np.ones((d, d))))
    return (masked * masked).sum() * 0.5


def affinity(z: Tensor, bases: Tensor, K: int) -> Tensor:
    """Soft assignment of each token to each subspace:
    s_ij = (||z_i^T B_j||_F^2 + eta*d) / sum_j(...) with the smoothing eta
    fixed to d. Rows sum to 1 and every entry is positive."""
    q = bases.shape[0]
    d = block_width(q, K)
    if z.shape[-1] != q:
        raise ValueError(f"tokens have width {z.shape[-1]}, bases expect {q}")
    proj = z @ bases  # (M, K*d)
    energy = (proj * proj).reshape(z.shape[0], K, d).sum(axis=-1)
    smoothed = energy + d * d
    return smoothed / smoothed.sum(axis=-1, keepdims=True)


def refine(s: np.ndarray) -> np.ndarray:
    """Sharpened target: square the affinities, reweight by column mass, and
    renormalize rows. Computed outside the tape; the result is a constant
    during differentiation."""
    s = np.asarray(s, dtype=np.float64)
    col = s.sum(axis=0)
    if np.any(col <= 0):
        raise AssertionError("affinity columns must have positive mass")
    w = (s * s) / col
    return w / w.sum(axis=1, keepdims=True)


def kl_loss(s_hat: np.ndarray, s: Tensor) -> Tensor:
    """sum_ij s_hat * log(s_hat / s) with the 0*log(0) = 0 convention; s_hat
    is a constant target, so gradients flow only through -sum s_hat*log(s)."""
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s_hat.shape != s.shape:
        raise ValueError(f"shape mismatch: target {s_hat.shape} vs affinity {s.shape}")
    pos = s_hat > 0
    entropy = float(np.sum(s_hat[pos] * np.log(s_hat[pos])))
    cross = (Tensor(s_hat) * ad.log(s)).sum()
    return entropy - cross


def pi_loss(
    s: Tensor,
    bases: Tensor,
    K: int,
    alpha: float,
    beta: float,
    s_hat: np.ndarray | None = None,
) -> Tensor | float:
    """Full identifier loss alpha*(R1 + R2) + beta*KL(refined || live) for the
    live affinities `s = affinity(z, bases, K)`. `s_hat` may be injected to
    hold the refinement target fixed (gradient checks); by default it is
    recomputed from `s`. A zero weight skips its term, which would add an
    exact zero, so with both weights zero the loss is the float 0.0."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    loss = (reg_r1(bases) + reg_r2(bases, K)) * alpha if alpha > 0 else 0.0
    if beta > 0:
        if s_hat is None:
            s_hat = refine(s.data)
        loss = loss + kl_loss(s_hat, s) * beta
    return loss
