"""Forecast metrics, expert-routing diagnostics, and result tables."""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np

from . import autodiff as ad
from . import patching
from .data import Scaler, Windows
# wasserstein_1d stays importable here: perfbench/layer_trace.py counts its calls
from .drift import pairwise_w1, wasserstein_1d  # noqa: F401
from .fourier import amplitude_spectrum
from .trainer import Checkpoint


def mse(yhat: np.ndarray, y: np.ndarray) -> float:
    yhat, y = np.asarray(yhat), np.asarray(y)
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {y.shape}")
    return float(np.mean((yhat - y) ** 2))


def mae(yhat: np.ndarray, y: np.ndarray) -> float:
    yhat, y = np.asarray(yhat), np.asarray(y)
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {y.shape}")
    return float(np.mean(np.abs(yhat - y)))


def evaluate_windows(ckpt: Checkpoint, windows: Windows, denormalize: Scaler | None = None) -> dict:
    """Aggregate MSE/MAE over windows, in batches of the checkpoint's
    `batch_size`. Inputs are expected on the model's working (normalized)
    scale; pass a scaler to also report original-unit errors."""
    if not windows:
        raise ValueError("no windows to evaluate")
    yhat = ckpt.build_model().forecast(windows.inputs, ckpt.config.batch_size)
    y = windows.targets
    out = {"mse": mse(yhat, y), "mae": mae(yhat, y), "n_windows": len(windows)}
    if denormalize is not None:
        raw_yhat = denormalize.inverse(yhat)
        raw_y = denormalize.inverse(y)
        out["mse_denorm"] = mse(raw_yhat, raw_y)
        out["mae_denorm"] = mae(raw_yhat, raw_y)
    return out


MAX_TOKENS = 4096  # tokens the routing report samples per branch
MAX_PATCHES_PER_CLUSTER = 64  # patches per expert in the cluster drift summary


def routing_report(ckpt: Checkpoint, windows: Windows, seed: int = 0,
                   affinity_out: dict | None = None) -> dict:
    """Argmax-expert shares per branch plus an intra/inter-cluster drift
    summary over the routed raw patches. Patch pools are subsampled
    deterministically to keep the pairwise distance count bounded. Pass a
    dict as `affinity_out` to receive the per-branch affinity snapshot
    matrices (token x expert) for CSV export."""
    if not windows:
        raise ValueError("no windows to report on")
    model = ckpt.build_model()
    cfg = ckpt.config
    rng = np.random.default_rng(seed)
    report: dict = {"branches": {}}
    xs = windows.inputs
    max_windows = max(1, MAX_TOKENS // (cfg.n_patches * xs.shape[2]))
    if len(xs) > max_windows:
        xs = xs[np.sort(rng.choice(len(xs), size=max_windows, replace=False))]
    with ad.no_grad():
        fwd = model.forward(xs, training=False)
    # raw per-token patches, aligned with the flattened (B, C, N) token order
    pools = {}
    for branch, s in fwd.s.items():
        assign = np.argmax(s.data, axis=1)
        if assign.size > MAX_TOKENS:
            pick = rng.choice(assign.size, size=MAX_TOKENS, replace=False)
        else:
            pick = np.arange(assign.size)
        pools[branch] = (assign, pick)
        if affinity_out is not None:
            affinity_out[branch] = s.data[pick]
    patches = patching.segment_batch(xs, cfg.patch_len, cfg.stride)  # (B, C, N, P)
    patch_values = patches.reshape(-1, cfg.patch_len)  # (M, P)
    for branch, (assign, pick) in pools.items():
        K = fwd.s[branch].shape[1]
        shares = np.bincount(assign, minlength=K) / assign.size
        samples = patch_values[pick]
        if branch == "freq":
            samples = amplitude_spectrum(samples)
        labels = assign[pick]
        intra, inter = _cluster_drift(samples, labels, K, MAX_PATCHES_PER_CLUSTER, rng)
        report["branches"][branch] = {
            "expert_share": shares.tolist(),
            "intra_cluster_w1": intra,
            "inter_cluster_w1": inter,
            "n_tokens": int(assign.size),
        }
    report["patch_len"] = cfg.patch_len
    report["stride"] = cfg.stride
    return report


def _cluster_drift(samples, labels, K, cap, rng) -> tuple[float | None, float | None]:
    groups = []
    for j in range(K):
        members = samples[labels == j]
        if members.shape[0] > cap:
            members = members[rng.choice(members.shape[0], size=cap, replace=False)]
        groups.append(members)
    intra = [pairwise_w1(g, g)[np.triu_indices(g.shape[0], k=1)] for g in groups]
    inter = [pairwise_w1(ga, gb).ravel() for ga, gb in itertools.combinations(groups, 2)]
    return _mean_or_none(intra), _mean_or_none(inter)


def _mean_or_none(parts: list[np.ndarray]) -> float | None:
    values = np.concatenate(parts) if parts else np.empty(0)
    return float(values.mean()) if values.size else None


def regime_purity(assignments: np.ndarray, regimes: np.ndarray) -> float:
    """Cluster purity of expert assignments against known regime labels:
    each expert votes for its majority regime."""
    assignments = np.asarray(assignments)
    regimes = np.asarray(regimes)
    if assignments.shape != regimes.shape:
        raise ValueError("assignments and regime labels must align")
    correct = 0
    for expert in np.unique(assignments):
        members = regimes[assignments == expert]
        correct += int(np.bincount(members).max())
    return correct / assignments.size


COLUMNS = ("dataset", "H", "MSE", "MAE")


def report_table(rows: list[dict]) -> dict:
    """Stable-order results table; returns {text, csv, json} renderings."""
    if not rows:
        raise ValueError("need at least one result row")
    ordered = sorted(rows, key=lambda r: (str(r["dataset"]), int(r["H"])))
    records = [
        {"dataset": str(r["dataset"]), "H": int(r["H"]), "MSE": float(r["MSE"]), "MAE": float(r["MAE"])}
        for r in ordered
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in records:
        writer.writerow([r["dataset"], r["H"], repr(r["MSE"]), repr(r["MAE"])])
    widths = [max(len(str(c)), 10) for c in COLUMNS]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(COLUMNS, widths))]
    for r in records:
        cells = [r["dataset"], str(r["H"]), f"{r['MSE']:.6f}", f"{r['MAE']:.6f}"]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return {"text": "\n".join(lines), "csv": buf.getvalue(), "json": records}
