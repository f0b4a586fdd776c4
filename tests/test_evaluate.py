"""Metric arithmetic, invariances, routing diagnostics, result tables."""

import csv
import io

import numpy as np
import pytest

from tfps import evaluate
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


def trained_model():
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
    return train(cfg, trw, vaw, scaler=sc).build_model(), tew, sc


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
        model, tew, sc = trained_model()
        out = evaluate_windows(model, tew)
        assert out["n_windows"] == len(tew)
        assert out["mse"] >= 0 and out["mae"] >= 0
        assert out["mae"] <= np.sqrt(out["mse"]) + 1e-12

    def test_denormalized_scale(self):
        model, tew, sc = trained_model()
        out = evaluate_windows(model, tew, denormalize=sc)
        # single channel: denormalized MSE = std^2 * normalized MSE
        assert out["mse_denorm"] == pytest.approx(out["mse"] * float(sc.std[0]) ** 2, rel=1e-9)
        assert out["mae_denorm"] == pytest.approx(out["mae"] * float(sc.std[0]), rel=1e-9)


class TestRoutingReport:
    def test_shares_partition_unity(self):
        model, tew, _ = trained_model()
        rep = routing_report(model, tew, seed=0)
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
        rep = routing_report(ckpt.build_model(), vaw, seed=0)
        assert rep["branches"]["time"]["expert_share"] == [1.0]
        assert rep["branches"]["time"]["intra_cluster_w1"] is not None
        assert rep["branches"]["time"]["inter_cluster_w1"] is None  # nothing to compare

    def test_deterministic_given_seed(self):
        model, tew, _ = trained_model()
        a = routing_report(model, tew, seed=5)
        b = routing_report(model, tew, seed=5)
        assert a == b

    # 44 tokens keep 5 of the windows' 8 tokens each; 5 tokens keep one window and 5 of its tokens
    @pytest.mark.parametrize("max_tokens,windows", [(44, 5), (5, 1)])
    def test_subsampled_report(self, monkeypatch, max_tokens, windows):
        model, tew, _ = trained_model()
        assert model.cfg.n_patches * tew.inputs.shape[2] == 8 and len(tew) > windows
        monkeypatch.setattr(evaluate, "MAX_TOKENS", max_tokens)
        reports, snapshots = [], []
        for _ in range(2):
            snapshots.append({})
            reports.append(routing_report(model, tew, seed=3, affinity_out=snapshots[-1]))
        assert reports[0] == reports[1]
        assert snapshots[0].keys() == snapshots[1].keys() == {"time", "freq"}
        w1 = []
        for branch, rep in reports[0]["branches"].items():
            assert rep["n_tokens"] == windows * 8
            assert sum(rep["expert_share"]) == pytest.approx(1.0, abs=1e-12)
            assert snapshots[0][branch].shape == (min(windows * 8, max_tokens), 2)
            np.testing.assert_array_equal(snapshots[0][branch], snapshots[1][branch])
            w1 += [v for v in (rep["intra_cluster_w1"], rep["inter_cluster_w1"]) if v is not None]
        assert w1 and all(np.isfinite(v) and v >= 0 for v in w1)

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
    ROW = {"dataset": "ETTh1", "H": 96, "MSE": 0.125, "MAE": 1 / 3}

    def test_headered(self):
        out = report_table(self.ROW)
        lines = out["text"].splitlines()
        assert [line.split() for line in lines] == [
            ["dataset", "H", "MSE", "MAE"], ["ETTh1", "96", "0.125000", "0.333333"]
        ]
        assert out["json"] == self.ROW

    def test_csv_reparses_to_identical_values(self):
        out = report_table(self.ROW)
        parsed = list(csv.DictReader(io.StringIO(out["csv"])))
        assert len(parsed) == 1
        row, ref = parsed[0], out["json"]
        assert list(row) == ["dataset", "H", "MSE", "MAE"]
        assert row["dataset"] == ref["dataset"]
        assert int(row["H"]) == ref["H"]
        assert float(row["MSE"]) == ref["MSE"]
        assert float(row["MAE"]) == ref["MAE"]

    def test_bit_stable_across_runs(self):
        """The renderings are pinned byte for byte: eval's metrics files and
        its printed table depend on them."""
        out = report_table(dict(self.ROW, dataset="a,b", H=np.int64(96), MSE=np.float64(0.125)))
        assert out["csv"] == 'dataset,H,MSE,MAE\n"a,b",96,0.125,0.3333333333333333\n'
        assert out["text"] == (
            "dataset     H           MSE         MAE       \n"
            "a,b         96          0.125000    0.333333  "
        )
        assert type(out["json"]["H"]) is int and type(out["json"]["MSE"]) is float
