"""Acceptance gate: every criterion as one test, one printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen. The two benchmark-data criteria skip gracefully when the public
ETTh1 CSV is absent (drop it into $TFPS_DATA_DIR or tests/data/ to enable).
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    naive_dft2_real,
    naive_idft2_real,
    numeric_grad,
    numeric_grad_at,
    reference_attention,
    rel_err,
    w1_linprog,
)
from tfps import autodiff as ad
from tfps import mope, pattern
from tfps.config import TrainConfig
from tfps.data import (
    RegimeSpec,
    SynthSpec,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_windows,
    split,
    synth_generate,
)
from tfps.drift import patch_distance_matrix, wasserstein_1d
from tfps.encoder import attention
from tfps.evaluate import evaluate_windows, regime_purity
from tfps.fourier import fft2_real, ifft2_real
from tfps.model import TFPSModel
from tfps.patching import patch_count
from tfps.trainer import grid_search, train


def verdict(n: int, status: str, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"\n[criterion {n}] {status}{tail}")


def etth1_path() -> Path | None:
    candidates = []
    root = os.environ.get("TFPS_DATA_DIR")
    if root:
        candidates.append(Path(root) / "ETTh1.csv")
    candidates.append(Path(__file__).parent / "data" / "ETTh1.csv")
    candidates.append(Path(__file__).parent.parent / "ETTh1.csv")
    for c in candidates:
        if c.exists():
            return c
    return None


# -- criterion 1: math-core property suite ----------------------------------------


def test_criterion_1_math_core_properties():
    start = time.time()
    rng = np.random.default_rng(101)

    # affinity and refinement row-normalization, refinement identity at M=1
    bases = pattern.init_bases(8, 2, rng)
    z = ad.Tensor(rng.normal(size=(40, 8)) * 2)
    s = pattern.affinity(z, bases, K=2)
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(s.data > 0) and np.all(s.data <= 1)
    s_hat = pattern.refine(s.data)
    np.testing.assert_allclose(s_hat.sum(axis=1), 1.0, atol=1e-6)
    one = s.data[:1]
    np.testing.assert_allclose(pattern.refine(one), one, atol=1e-12)

    # R1/R2 zero-iff characterizations on constructed bases
    ortho = ad.Tensor(np.eye(6))
    assert float(pattern.reg_r1(ortho).data) == 0.0
    assert float(pattern.reg_r2(ortho, K=3).data) == 0.0
    stretched = ad.Tensor(np.eye(6) * 1.5)
    assert float(pattern.reg_r1(stretched).data) > 0
    overlapped = np.eye(6)
    overlapped[0, 3] = 0.3
    assert float(pattern.reg_r2(ad.Tensor(overlapped), K=3).data) > 0

    # KL >= 0 with equality iff equal
    rows = rng.uniform(0.05, 1.0, size=(25, 4))
    rows /= rows.sum(axis=1, keepdims=True)
    assert float(pattern.kl_loss(rows, ad.Tensor(rows)).data) == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        q = rng.uniform(0.05, 1.0, size=rows.shape)
        q /= q.sum(axis=1, keepdims=True)
        val = float(pattern.kl_loss(rows, ad.Tensor(q)).data)
        assert val >= -1e-12
        if np.max(np.abs(q - rows)) > 1e-3:
            assert val > 0

    # gating rows: >=0, sum 1, <=k nonzero; k=K reduces to softmax within 1e-9
    for _ in range(20):
        m, K = int(rng.integers(1, 30)), int(rng.integers(1, 7))
        k = int(rng.integers(1, K + 1))
        raw = rng.uniform(0.01, 1.0, size=(m, K))
        raw /= raw.sum(axis=1, keepdims=True)
        gw = mope.gate(ad.Tensor(raw), k)
        w = gw.weights.data
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((w > 0).sum(axis=1) <= k)
        full = mope.gate(ad.Tensor(raw), K).weights.data
        softmax = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
        assert np.max(np.abs(full - softmax)) <= 1e-9

    # Wasserstein metric axioms plus the shift property
    for _ in range(40):
        a, b, c = (rng.normal(size=rng.integers(2, 12)) for _ in range(3))
        dab = wasserstein_1d(a, b)
        assert dab >= 0
        assert dab == pytest.approx(wasserstein_1d(b, a), abs=1e-12)
        assert dab <= wasserstein_1d(a, c) + wasserstein_1d(c, b) + 1e-12
        assert wasserstein_1d(a, a) == 0.0
    u = rng.normal(size=9)
    for delta in (-3.0, 0.5, 2.0):
        assert wasserstein_1d(u, u + delta) == pytest.approx(abs(delta), abs=1e-12)

    elapsed = time.time() - start
    assert elapsed < 60.0
    verdict(1, "PASS", f"math-core properties in {elapsed:.1f}s")


# -- criterion 2: oracle equivalence ------------------------------------------------


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)

    worst_w1 = 0.0
    for _ in range(200):
        u = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.3, 3),
                       size=rng.integers(1, 9))
        v = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.3, 3),
                       size=rng.integers(1, 9))
        worst_w1 = max(worst_w1, abs(wasserstein_1d(u, v) - w1_linprog(u, v)))
    assert worst_w1 <= 1e-9

    worst_fft = 0.0
    for n, d in ((1, 1), (2, 3), (3, 4), (4, 4), (5, 16), (16, 7), (16, 16)):
        x = rng.normal(size=(n, d))
        worst_fft = max(worst_fft, float(np.max(np.abs(fft2_real(x) - naive_dft2_real(x)))))
        worst_fft = max(worst_fft, float(np.max(np.abs(ifft2_real(x) - naive_idft2_real(x)))))
    assert worst_fft <= 1e-6

    n, d, heads = 4, 8, 2
    tokens = rng.normal(size=(n, d))
    ws = [rng.normal(size=(d, d)) for _ in range(4)]
    ours = attention(ad.Tensor(tokens), *(ad.Tensor(w) for w in ws), n_heads=heads).data
    ref = reference_attention(tokens, *ws, n_heads=heads)
    worst_attn = float(np.max(np.abs(ours - ref)))
    assert worst_attn <= 1e-6

    verdict(2, "PASS",
            f"W1 vs LP {worst_w1:.2e}; DFT vs naive {worst_fft:.2e}; attention {worst_attn:.2e}")


# -- criterion 3: gradient validation ------------------------------------------------


def test_criterion_3_gradient_validation():
    start = time.time()
    rng = np.random.default_rng(303)

    # (a) identifier loss wrt bases and tokens, refined target held constant
    q, K, M = 8, 2, 5
    bases = pattern.init_bases(q, K, rng)
    z = ad.parameter(rng.normal(size=(M, q)))
    s_hat = pattern.refine(pattern.affinity(z, bases, K).data)

    def identifier_loss():
        s = pattern.affinity(z, bases, K)
        return pattern.pi_loss(s, bases, K, alpha=1e-3, beta=0.1, s_hat=s_hat)

    def pi_scalar():
        return float(identifier_loss().data)

    loss = identifier_loss()
    loss.backward()
    err_bases = rel_err(bases.grad, numeric_grad(pi_scalar, bases.data))
    err_tokens = rel_err(z.grad, numeric_grad(pi_scalar, z.data))
    assert err_bases <= 1e-3 and err_tokens <= 1e-3

    # (b) 20 random parameters of the miniature full model
    cfg = TrainConfig(seq_len=16, pred_len=4, patch_len=4, stride=2, d_model=8,
                      n_layers=1, n_heads=2, k_time=2, k_freq=2, top_k=1,
                      batch_size=4, seed=7)
    model = TFPSModel(cfg, np.random.default_rng(cfg.seed))
    x = rng.normal(size=(2, 16, 2))
    y = rng.normal(size=(2, 4, 2))
    base_fwd = model.forward(x)
    s_hat = {name: pattern.refine(s.data) for name, s in base_fwd.s.items()}

    def total_scalar():
        l, _, _ = model.loss(x, y, s_hat=s_hat)
        return float(l.data)

    model.zero_grad()
    loss, _, _ = model.loss(x, y, s_hat=s_hat)
    loss.backward()
    probe = np.random.default_rng(404)
    names = sorted(model.params)
    worst = 0.0
    for _ in range(20):
        name = names[int(probe.integers(len(names)))]
        tensor = model.params[name]
        idx = int(probe.integers(tensor.data.size))
        analytic = 0.0 if tensor.grad is None else float(tensor.grad.reshape(-1)[idx])
        numeric = numeric_grad_at(total_scalar, tensor.data, idx)
        err = rel_err(analytic, numeric)
        assert err <= 1e-3, (name, idx, analytic, numeric)
        worst = max(worst, err)

    elapsed = time.time() - start
    assert elapsed < 120.0
    verdict(3, "PASS", f"pi-loss errs {err_bases:.1e}/{err_tokens:.1e}; "
                       f"20 model params worst {worst:.1e}; {elapsed:.1f}s")


# -- criterion 4: patch formula ------------------------------------------------------


def test_criterion_4_patch_formula():
    assert patch_count(96, 16, 8) == 12
    assert patch_count(104, 16, 8) == 13
    # twelve tokens indexed 0..11, so a 96-window splits 0-5 vs 6-11
    assert list(range(patch_count(96, 16, 8))) == list(range(12))
    verdict(4, "PASS", "(96,16,8)->12 and (104,16,8)->13")


# -- criterion 5: end-to-end overfit --------------------------------------------------


def overfit_task():
    spec = SynthSpec(
        regimes=(RegimeSpec(length=304, amplitude=1.0, frequency=1 / 16),
                 RegimeSpec(length=304, amplitude=0.45, frequency=1 / 16)),
        channels=1, seed=11)
    return synth_generate(spec)


def test_criterion_5_end_to_end_overfit():
    start = time.time()
    series, boundaries = overfit_task()
    cfg = TrainConfig(seq_len=64, pred_len=8, patch_len=8, stride=4, d_model=32,
                      n_layers=1, n_heads=4, k_time=2, k_freq=2, top_k=2,
                      lr=0.005, batch_size=32, max_epochs=200, patience=20,
                      seed=0, split_ratios=(0.7, 0.15, 0.15))
    tr, va, _ = split(series, cfg.split_ratios, min_length=cfg.seq_len + cfg.pred_len)
    sc = fit_scaler(tr)
    trw = make_windows(apply_scaler(tr, sc), cfg.seq_len, cfg.pred_len)
    vaw = make_windows(apply_scaler(va, sc), cfg.seq_len, cfg.pred_len)
    ckpt = train(cfg, trw, vaw, scaler=sc)
    best_train_mse = min(ckpt.history["train_mse"])
    epochs_run = len(ckpt.history["train_mse"])
    elapsed = time.time() - start
    assert epochs_run <= 200
    assert best_train_mse < 0.05, f"train MSE {best_train_mse:.4f} after {epochs_run} epochs"
    assert elapsed < 300.0

    # routing diagnostic: regime -> expert purity (soft target, logged only)
    model = ckpt.build_model()
    boundary = boundaries[0]
    sample = trw[::4]
    xs = sample.inputs
    with ad.no_grad():
        fwd = model.forward(xs)
    labels = np.array([
        0 if w.origin_index + n * cfg.stride + cfg.patch_len // 2 < boundary else 1
        for w in sample
        for n in range(cfg.n_patches)
    ])
    purities = {}
    for branch, s in fwd.s.items():
        purities[branch] = regime_purity(np.argmax(s.data, axis=1), labels)
    note = "meets" if max(purities.values()) >= 0.8 else "below"

    # intra- vs inter-cluster drift, reported (not asserted: no separation bound)
    from tfps.evaluate import routing_report

    rep = routing_report(ckpt, trw, seed=0)["branches"]["time"]
    intra, inter = rep["intra_cluster_w1"], rep["inter_cluster_w1"]
    drift_note = "n/a" if inter is None else f"intra={intra:.3f} inter={inter:.3f}"
    verdict(5, "PASS",
            f"train MSE {best_train_mse:.4f} in {epochs_run} epochs ({elapsed:.0f}s); "
            f"routing purity time={purities['time']:.2f} freq={purities['freq']:.2f} "
            f"({note} the 0.8 soft target); cluster drift {drift_note}")


# -- criterion 6: benchmark-number check (needs ETTh1) --------------------------------


def test_criterion_6_benchmark_band():
    path = etth1_path()
    if path is None:
        verdict(6, "SKIP", "ETTh1.csv not present; see README to enable")
        pytest.skip("ETTh1.csv not available")
    start = time.time()
    cfg = TrainConfig(seq_len=96, pred_len=96, patch_len=16, stride=8, d_model=128,
                      n_layers=2, n_heads=8, k_time=2, k_freq=2, top_k=2,
                      alpha=1e-3, beta=0.1, lr=1e-4, batch_size=64, max_epochs=10,
                      patience=3, seed=0, split_ratios=(0.6, 0.2, 0.2))
    series = load_csv(path)
    tr, va, te = split(series, cfg.split_ratios, min_length=cfg.seq_len + cfg.pred_len)
    sc = fit_scaler(tr)
    trw = make_windows(apply_scaler(tr, sc), cfg.seq_len, cfg.pred_len)
    vaw = make_windows(apply_scaler(va, sc), cfg.seq_len, cfg.pred_len)
    tew = make_windows(apply_scaler(te, sc), cfg.seq_len, cfg.pred_len)
    ckpt = train(cfg, trw, vaw, scaler=sc)
    metrics = evaluate_windows(ckpt, tew)
    elapsed = time.time() - start
    assert 0.38 <= metrics["mse"] <= 0.52, f"test MSE {metrics['mse']:.3f} outside band"
    assert elapsed <= 1200.0
    verdict(6, "PASS",
            f"reduced profile test MSE {metrics['mse']:.3f} in [0.38, 0.52] "
            f"(published full-scale value 0.398); {elapsed:.0f}s")


def test_criterion_6_full_profile_grid():
    """Hours-scale CPU job: the full d_model=512 recipe with the restricted
    grid and the tighter [0.38, 0.48] band. Opt in with TFPS_RUN_FULL_BENCH=1."""
    path = etth1_path()
    if path is None or os.environ.get("TFPS_RUN_FULL_BENCH") != "1":
        verdict(6, "SKIP", "full-profile grid needs ETTh1.csv and TFPS_RUN_FULL_BENCH=1")
        pytest.skip("full-profile benchmark not enabled")
    base = TrainConfig(seq_len=96, pred_len=96, patch_len=16, stride=8, d_model=512,
                       n_layers=2, n_heads=8, alpha=1e-3, beta=0.1, batch_size=64,
                       max_epochs=10, patience=3, seed=0, split_ratios=(0.6, 0.2, 0.2))
    series = load_csv(path)
    tr, va, te = split(series, base.split_ratios, min_length=base.seq_len + base.pred_len)
    sc = fit_scaler(tr)
    trw = make_windows(apply_scaler(tr, sc), base.seq_len, base.pred_len)
    vaw = make_windows(apply_scaler(va, sc), base.seq_len, base.pred_len)
    tew = make_windows(apply_scaler(te, sc), base.seq_len, base.pred_len)
    space = {"lr": [0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05],
             "k_time": [1, 2, 4], "k_freq": [1, 2, 4]}
    best, board = grid_search(base, space, trw, vaw, scaler=sc)
    metrics = evaluate_windows(best, tew)
    assert 0.38 <= metrics["mse"] <= 0.48, f"test MSE {metrics['mse']:.3f} outside band"
    verdict(6, "PASS", f"full profile test MSE {metrics['mse']:.3f} in [0.38, 0.48] "
                       f"(published 0.398); best cell {board[0]}")


# -- criterion 7: drift analyzer on ETTh1 ---------------------------------------------


def test_criterion_7_benchmark_drift(tmp_path):
    path = etth1_path()
    if path is None:
        verdict(7, "SKIP", "ETTh1.csv not present; see README to enable")
        pytest.skip("ETTh1.csv not available")
    series = load_csv(path)
    assert series.length == 17420 and series.n_channels == 7  # published shape
    P, S, window = 16, 8, 104  # 12 analysis patches
    peak_by_channel = {}
    for c, name in enumerate(series.channel_names):
        col = series.values[:window, c]
        for domain in ("time", "frequency"):
            dm = patch_distance_matrix(col, P, S, domain)
            assert len(dm) == 12
            np.savetxt(tmp_path / f"drift_{name}_{domain}.csv", dm, delimiter=",")
            if domain == "time":
                off = dm.copy()
                row_mean = off.sum(axis=1) / (len(dm) - 1)
                peak_by_channel[name] = int(np.argmax(row_mean))
    sudden = [name for name, peak in peak_by_channel.items() if peak in (9, 10)]
    assert sudden, f"no channel peaks at patches 9-10; peaks were {peak_by_channel}"

    # reported alongside, not asserted: published table averages 9.268 / 11.561
    from tfps.drift import average_wasserstein

    avg_t = average_wasserstein(series, P, S, "time")
    avg_f = average_wasserstein(series, P, S, "frequency")
    verdict(7, "PASS",
            f"sudden-drift channels {sudden}; dataset averages time={avg_t:.3f} "
            f"freq={avg_f:.3f} (published 9.268 / 11.561, patch config unspecified)")


# -- criterion 8: ablation harness -----------------------------------------------------


def test_criterion_8_ablation_structure():
    spec = SynthSpec(
        regimes=(RegimeSpec(length=300, amplitude=1.0, frequency=1 / 16, noise=0.1),
                 RegimeSpec(length=300, amplitude=0.6, frequency=1 / 6, offset=1.5,
                            trend=0.002, noise=0.1)),
        channels=1, seed=29)
    series, _ = synth_generate(spec)
    base = TrainConfig(seq_len=48, pred_len=12, patch_len=8, stride=4, d_model=16,
                       n_layers=1, n_heads=2, k_time=2, k_freq=2, top_k=2, lr=0.005,
                       batch_size=32, max_epochs=120, patience=15, seed=5,
                       split_ratios=(0.7, 0.15, 0.15))
    tr, va, te = split(series, base.split_ratios, min_length=base.seq_len + base.pred_len)
    sc = fit_scaler(tr)
    trw = make_windows(apply_scaler(tr, sc), base.seq_len, base.pred_len)
    vaw = make_windows(apply_scaler(va, sc), base.seq_len, base.pred_len)
    tew = make_windows(apply_scaler(te, sc), base.seq_len, base.pred_len)

    variants = {
        "full": {},
        "pi_linear": {"pi_mode": "linear"},
        "time_only": {"branches": "time"},
        "freq_only": {"branches": "frequency"},
    }
    results = {}
    schemas = set()
    for name, overrides in variants.items():
        cfg = dataclasses.replace(base, **overrides)  # runnable from config alone
        ckpt = train(cfg, trw, vaw, scaler=sc)
        metrics = evaluate_windows(ckpt, tew)
        schemas.add(tuple(sorted(metrics)))
        results[name] = {"val_mse": min(ckpt.history["val_mse"]), **metrics}
    assert len(schemas) == 1  # identical report schema across variants

    full = results["full"]["val_mse"]
    for name in ("pi_linear", "time_only", "freq_only"):
        assert full <= results[name]["val_mse"] * 1.10, (
            f"full {full:.4f} vs {name} {results[name]['val_mse']:.4f}")
    summary = ", ".join(f"{k}={v['val_mse']:.4f}" for k, v in results.items())
    verdict(8, "PASS", f"val MSE {summary}; full within 10% of every variant")
