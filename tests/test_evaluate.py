"""Metric arithmetic, invariances, routing diagnostics, result tables."""

import csv
import io

import numpy as np
import pytest

from tfps.config import TrainConfig
from tfps.data import (
    RegimeSpec,
    SynthSpec,
    apply_scaler,
    fit_scaler,
    make_windows,
    split,
    synth_generate,
)
from tfps.evaluate import (
    evaluate_windows,
    mae,
    mse,
    regime_purity,
    report_table,
    routing_report,
)
from tfps.trainer import train

CFG = dict(seq_len=32, pred_len=8, patch_len=8, stride=4, d_model=16, n_layers=1,
           n_heads=2, k_time=2, k_freq=2, top_k=1, lr=0.005, batch_size=16,
           max_epochs=2, patience=5, seed=4, split_ratios=(0.7, 0.15, 0.15))


def trained_checkpoint():
    spec = SynthSpec(
        regimes=(RegimeSpec(length=240, frequency=1 / 16),
                 RegimeSpec(length=240, frequency=1 / 8, offset=1.5)),
        channels=1, seed=2)
    series, _ = synth_generate(spec)
    cfg = TrainConfig(**CFG)
    tr, va, te = split(series, cfg.split_ratios, min_length=cfg.seq_len + cfg.pred_len)
    sc = fit_scaler(tr)
    trw = make_windows(apply_scaler(tr, sc), cfg.seq_len, cfg.pred_len)
    vaw = make_windows(apply_scaler(va, sc), cfg.seq_len, cfg.pred_len)
    tew = make_windows(apply_scaler(te, sc), cfg.seq_len, cfg.pred_len)
    return train(cfg, trw, vaw, scaler=sc), tew, sc


class TestMetrics:
    def test_exact_prediction(self):
        y = np.random.default_rng(0).normal(size=(4, 5))
        assert mse(y, y) == 0.0 and mae(y, y) == 0.0

    def test_hand_values(self):
        yhat, y = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        assert mse(yhat, y) == pytest.approx(2.5)
        assert mae(yhat, y) == pytest.approx(1.5)

    def test_jensen_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b = rng.normal(size=20), rng.normal(size=20)
            assert mae(a, b) <= np.sqrt(mse(a, b)) + 1e-12

    def test_window_permutation_invariance(self):
        rng = np.random.default_rng(2)
        yhat = rng.normal(size=(10, 4, 2))
        y = rng.normal(size=(10, 4, 2))
        perm = rng.permutation(10)
        assert abs(mse(yhat, y) - mse(yhat[perm], y[perm])) < 1e-12
        assert abs(mae(yhat, y) - mae(yhat[perm], y[perm])) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))


class TestEvaluateWindows:
    def test_metrics_present_and_consistent(self):
        ckpt, tew, sc = trained_checkpoint()
        out = evaluate_windows(ckpt, tew)
        assert out["n_windows"] == len(tew)
        assert out["mse"] >= 0 and out["mae"] >= 0
        assert out["mae"] <= np.sqrt(out["mse"]) + 1e-12

    def test_denormalized_scale(self):
        ckpt, tew, sc = trained_checkpoint()
        out = evaluate_windows(ckpt, tew, denormalize=sc)
        # single channel: denormalized MSE = std^2 * normalized MSE
        assert out["mse_denorm"] == pytest.approx(out["mse"] * float(sc.std[0]) ** 2, rel=1e-9)
        assert out["mae_denorm"] == pytest.approx(out["mae"] * float(sc.std[0]), rel=1e-9)


class TestRoutingReport:
    def test_shares_partition_unity(self):
        ckpt, tew, _ = trained_checkpoint()
        rep = routing_report(ckpt, tew, seed=0)
        for branch in ("time", "freq"):
            shares = np.array(rep["branches"][branch]["expert_share"])
            assert shares.shape == (2,)
            assert abs(shares.sum() - 1.0) < 1e-9
        assert rep["patch_len"] == CFG["patch_len"]

    def test_single_expert_share_vector(self):
        spec = SynthSpec(regimes=(RegimeSpec(length=400, frequency=1 / 8),), seed=3)
        series, _ = synth_generate(spec)
        cfg = TrainConfig(**{**CFG, "k_time": 1, "k_freq": 1, "max_epochs": 1})
        tr, va, _ = split(series, cfg.split_ratios, min_length=cfg.seq_len + cfg.pred_len)
        sc = fit_scaler(tr)
        trw = make_windows(apply_scaler(tr, sc), cfg.seq_len, cfg.pred_len)
        vaw = make_windows(apply_scaler(va, sc), cfg.seq_len, cfg.pred_len)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        rep = routing_report(ckpt, vaw, seed=0)
        assert rep["branches"]["time"]["expert_share"] == [1.0]
        assert rep["branches"]["time"]["intra_cluster_w1"] is not None
        assert rep["branches"]["time"]["inter_cluster_w1"] is None  # nothing to compare

    def test_deterministic_given_seed(self):
        ckpt, tew, _ = trained_checkpoint()
        a = routing_report(ckpt, tew, seed=5)
        b = routing_report(ckpt, tew, seed=5)
        assert a == b

    @pytest.mark.parametrize("K", [1, 3])
    def test_cluster_drift_equals_wasserstein_loop(self, K):
        from tfps.drift import wasserstein_1d
        from tfps.evaluate import _cluster_drift

        rng = np.random.default_rng(11)
        samples = rng.normal(size=(7 * K, 6))
        labels = np.repeat(np.arange(K), 7)
        groups = [samples[labels == j] for j in range(K)]
        intra = [wasserstein_1d(g[i], g[j]) for g in groups
                 for i in range(len(g)) for j in range(i + 1, len(g))]
        inter = [wasserstein_1d(u, v) for a in range(K) for b in range(a + 1, K)
                 for u in groups[a] for v in groups[b]]
        got_intra, got_inter = _cluster_drift(samples, labels, K, cap=7, rng=None)
        assert got_intra == pytest.approx(np.mean(intra), rel=1e-12)
        assert got_inter == (None if K == 1 else pytest.approx(np.mean(inter), rel=1e-12))


class TestRegimePurity:
    def test_perfect_alignment(self):
        assign = np.array([0, 0, 1, 1])
        regime = np.array([1, 1, 0, 0])
        assert regime_purity(assign, regime) == 1.0

    def test_uninformative_assignment(self):
        assign = np.zeros(8, dtype=int)
        regime = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert regime_purity(assign, regime) == 0.5


class TestReportTable:
    ROWS = [
        {"dataset": "b", "H": 96, "MSE": 0.5, "MAE": 0.4},
        {"dataset": "a", "H": 192, "MSE": 0.25, "MAE": 0.3},
        {"dataset": "a", "H": 96, "MSE": 0.125, "MAE": 0.2},
    ]

    def test_sorted_and_headered(self):
        out = report_table(self.ROWS)
        lines = out["text"].splitlines()
        assert lines[0].split()[:2] == ["dataset", "H"]
        order = [(r["dataset"], r["H"]) for r in out["json"]]
        assert order == [("a", 96), ("a", 192), ("b", 96)]

    def test_csv_reparses_to_identical_values(self):
        out = report_table(self.ROWS)
        parsed = list(csv.DictReader(io.StringIO(out["csv"])))
        assert len(parsed) == 3
        for row, ref in zip(parsed, out["json"]):
            assert row["dataset"] == ref["dataset"]
            assert int(row["H"]) == ref["H"]
            assert float(row["MSE"]) == ref["MSE"]
            assert float(row["MAE"]) == ref["MAE"]
        assert list(parsed[0]) == ["dataset", "H", "MSE", "MAE"]

    def test_bit_stable_across_runs(self):
        a = report_table(self.ROWS)
        b = report_table(list(reversed(self.ROWS)))
        assert a["csv"] == b["csv"] and a["text"] == b["text"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_table([])
