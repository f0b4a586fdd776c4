"""Distribution-shift analysis between patches via 1-D Wasserstein distance.

Each length-P patch is treated as an empirical distribution, either of its raw
values (time domain) or of its one-sided amplitude spectrum (frequency
domain). Pairwise distances form a symmetric, zero-diagonal drift matrix whose
block structure exposes regime changes; the upper-triangle mean summarizes a
whole channel.

Analysis patches are the full-length slices at offsets 0, S, 2S, ... that fit
inside the channel (no end padding): padding would contaminate the final
patch's distribution with replicated values, which is exactly the kind of
artifact a drift analyzer must not introduce.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import MultivariateSeries
from .fourier import amplitude_spectrum

DOMAINS = ("time", "frequency")
_BLOCK_ELEMENTS = 1 << 18  # 2 MB of float64 per pairwise_w1 block


def wasserstein_1d(u, v) -> float:
    """First Wasserstein distance between the empirical distributions of two
    sample sets, as the integral of |U - V| over the merged support. For equal
    sample counts this reduces to the mean absolute difference of the sorted
    samples."""
    u = np.sort(np.asarray(u, dtype=np.float64).ravel())
    v = np.sort(np.asarray(v, dtype=np.float64).ravel())
    if u.size == 0 or v.size == 0:
        raise ValueError("wasserstein_1d needs non-empty samples")
    support = np.sort(np.concatenate([u, v]))
    gaps = np.diff(support)
    u_cdf = np.searchsorted(u, support[:-1], side="right") / u.size
    v_cdf = np.searchsorted(v, support[:-1], side="right") / v.size
    return float(np.sum(np.abs(u_cdf - v_cdf) * gaps))


def pairwise_w1(a, b) -> np.ndarray:
    """W1 between every row of `a` and every row of `b`, as a (len(a), len(b))
    matrix. Rows are equal-length sample sets, so each entry is the mean
    absolute difference of the sorted samples (see `wasserstein_1d`)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or a.shape[1] == 0:
        raise ValueError(f"pairwise_w1 needs 2-D rows of one non-zero length, got {a.shape} and {b.shape}")
    a, b = np.sort(a, axis=1), np.sort(b, axis=1)
    return np.mean(np.abs(a[:, None, :] - b[None, :, :]), axis=2)


def analysis_patches(channel: np.ndarray, P: int, S: int) -> np.ndarray:
    """Full patches only: offsets 0, S, ... while the patch fits; a read-only
    (N, P) view of the channel."""
    channel = np.asarray(channel, dtype=np.float64).ravel()
    T = channel.size
    if P < 1 or P > T:
        raise ValueError(f"patch length must satisfy 1 <= P <= T, got P={P}, T={T}")
    if S < 1:
        raise ValueError(f"stride must be >= 1, got {S}")
    return sliding_window_view(channel, P)[::S]


def patch_distance_matrix(channel: np.ndarray, P: int, S: int, domain: str) -> np.ndarray:
    """Pairwise W1 distances between the N patches of one channel: an (N, N)
    symmetric matrix with a zero diagonal."""
    if domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}, got {domain!r}")
    patches = analysis_patches(channel, P, S)
    if domain == "frequency":
        patches = amplitude_spectrum(patches)
    n, width = patches.shape
    dist = np.empty((n, n))
    # A block of rows against the patches from its first row on, mirrored:
    # the (rows, n, width) temporary stays near _BLOCK_ELEMENTS.
    rows = max(1, _BLOCK_ELEMENTS // (n * width))
    for lo in range(0, n, rows):
        block = pairwise_w1(patches[lo : lo + rows], patches[lo:])
        dist[lo : lo + rows, lo:] = block
        dist[lo:, lo : lo + rows] = block.T
    return dist


def average_wasserstein(series: MultivariateSeries, P: int, S: int, domain: str) -> float:
    """Mean upper-triangle drift per channel, averaged over channels."""
    per_channel = []
    for c in range(series.n_channels):
        m = patch_distance_matrix(series.values[:, c], P, S, domain)
        iu = np.triu_indices(m.shape[0], k=1)
        if iu[0].size == 0:
            raise ValueError("need at least two patches to average drift")
        per_channel.append(float(m[iu].mean()))
    return float(np.mean(per_channel))
