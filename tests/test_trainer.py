"""Loss composition, optimization behavior, determinism, checkpoints, grid."""

import dataclasses

import numpy as np
import pytest

from tfps import autodiff as ad
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
from tfps.errors import NumericError
from tfps.model import TFPSModel
from tfps.pattern import refine
from tfps.trainer import (
    Adam,
    grid_search,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)

TINY = dict(seq_len=32, pred_len=8, patch_len=8, stride=4, d_model=16, n_layers=1,
            n_heads=2, k_time=2, k_freq=2, top_k=2, lr=0.005, batch_size=16,
            max_epochs=3, patience=10, seed=1, split_ratios=(0.7, 0.15, 0.15))


def tiny_dataset(seed=11, length=300, noise=0.0):
    spec = SynthSpec(
        regimes=(RegimeSpec(length=length, amplitude=1.0, frequency=1 / 16, noise=noise),
                 RegimeSpec(length=length, amplitude=1.0, frequency=1 / 8, offset=2.0,
                            noise=noise)),
        channels=1,
        seed=seed,
    )
    series, bounds = synth_generate(spec)
    return series, bounds


def prepared_windows(cfg, series):
    tr, va, te = split(series, cfg.split_ratios, min_length=cfg.seq_len + cfg.pred_len)
    sc = fit_scaler(tr)
    parts = [apply_scaler(s, sc) for s in (tr, va, te)]
    return [make_windows(p, cfg.seq_len, cfg.pred_len) for p in parts], sc


class TestTotalLoss:
    def test_zero_when_exact_and_no_pi(self):
        y = np.random.default_rng(0).normal(size=(2, 4, 3))
        assert float(total_loss(ad.Tensor(y), y).data) == 0.0

    def test_constant_residual_gives_unit_mse(self):
        y = np.zeros((2, 5, 3))
        yhat = ad.Tensor(np.ones((2, 5, 3)))
        assert float(total_loss(yhat, y).data) == pytest.approx(1.0)

    def test_sum_of_parts(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(3, 4, 2))
        yhat = ad.Tensor(rng.normal(size=(3, 4, 2)))
        pi_t = ad.Tensor(np.array(0.25))
        pi_f = ad.Tensor(np.array(0.5))
        expect = np.mean((yhat.data - y) ** 2) + 0.75
        assert float(total_loss(yhat, y, pi_t, pi_f).data) == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            total_loss(ad.Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


class TestAdam:
    def test_zero_lr_keeps_parameters(self):
        rng = np.random.default_rng(2)
        p = ad.parameter(rng.normal(size=(3, 3)))
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.0)
        for _ in range(5):
            p.grad = rng.normal(size=(3, 3))
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_step_moves_against_gradient(self):
        p = ad.parameter(np.array([1.0]))
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([2.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_quadratic_convergence(self):
        p = ad.parameter(np.array([5.0, -3.0]))
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(500):
            p.grad = 2.0 * p.data
            opt.step()
        np.testing.assert_allclose(p.data, 0.0, atol=1e-3)


class TestTrain:
    def test_lr_zero_leaves_parameters_at_init(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "lr": 0.0, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        init = TFPSModel(cfg, np.random.default_rng(cfg.seed))
        for name, t in init.params.items():
            np.testing.assert_array_equal(ckpt.arrays[name], t.data)

    def test_same_seed_identical_checkpoints(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**TINY)
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        a = train(cfg, trw, vaw, scaler=sc)
        b = train(cfg, trw, vaw, scaler=sc)
        assert a.arrays.keys() == b.arrays.keys()
        for k in a.arrays:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])
        assert a.history == b.history

    def test_loss_trends_down_on_noiseless_task(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 20, "patience": 20})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        mses = np.array(ckpt.history["train_mse"])
        smooth = np.convolve(mses, np.ones(5) / 5, mode="valid")
        steps = np.diff(smooth)
        assert smooth[-1] < smooth[0]
        assert (steps < 0).mean() >= 0.75  # monotone trend of the 5-epoch average

    def test_divergence_raises_numeric_error(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "lr": 1e160, "max_epochs": 8})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                train(cfg, trw, vaw, scaler=sc)

    def test_early_stopping_honors_patience(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 50, "patience": 2, "lr": 0.05})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        vals = ckpt.history["val_mse"]
        assert len(vals) < 50
        best = ckpt.history["best_epoch"]
        assert all(v >= vals[best] for v in vals[best + 1 :])


class TestCheckpoint:
    def test_roundtrip_bitwise_forward(self, tmp_path):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**TINY)
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        path = tmp_path / "model.npz"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.version == ckpt.version
        assert loaded.config == cfg
        x = np.stack([w.input for w in vaw[:3]])
        with ad.no_grad():
            before = ckpt.build_model().forward(x).yhat.data
            after = loaded.build_model().forward(x).yhat.data
        np.testing.assert_array_equal(before, after)
        np.testing.assert_array_equal(loaded.scaler.mean, sc.mean)
        assert loaded.history == ckpt.history

    def test_missing_or_corrupt_file_is_data_error(self, tmp_path):
        from tfps.errors import DataError

        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "absent.npz")
        bad = tmp_path / "bad.npz"
        bad.write_text("garbage")
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(bad)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        class Unwritable:  # fails once np.savez has written the arrays before it
            shape = (1,)

            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        path = tmp_path / "model.npz"
        save_checkpoint(ckpt, path)
        before = path.read_bytes()
        broken = dataclasses.replace(ckpt, arrays={**ckpt.arrays, "zz": Unwritable()})
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_header_declares_shapes(self, tmp_path):
        import json

        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        path = tmp_path / "model.npz"
        save_checkpoint(ckpt, path)
        with np.load(path) as npz:
            header = json.loads(bytes(npz["__header__"]).decode())
        assert header["version"] == 1
        for name, shape in header["arrays"].items():
            assert list(ckpt.arrays[name].shape) == shape


class TestGridSearch:
    def test_single_point_space(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 2})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        best, board = grid_search(cfg, {"lr": [0.004]}, trw, vaw, scaler=sc)
        assert best.config.lr == 0.004
        assert len(board) == 1 and board[0]["status"] == "ok"

    def test_leaderboard_sorted_and_best_is_min(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 2})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        best, board = grid_search(cfg, {"lr": [0.0001, 0.01]}, trw, vaw, scaler=sc)
        assert len(board) == 2
        vals = [r["val_mse"] for r in board]
        assert vals == sorted(vals)
        assert min(best.history["val_mse"]) == vals[0]

    def test_failed_cells_recorded_not_fatal(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 2})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        with np.errstate(over="ignore", invalid="ignore"):
            best, board = grid_search(cfg, {"lr": [1e160, 0.004]}, trw, vaw, scaler=sc)
        statuses = {r["lr"]: r["status"] for r in board}
        assert statuses[0.004] == "ok"
        assert statuses[1e160].startswith("failed")
        assert best.config.lr == 0.004

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            grid_search(TrainConfig(**TINY), {"lr": []}, [], [])


class TestWholeModelGradients:
    def test_total_loss_gradients_on_miniature_model(self):
        # C=2, L=16, P=4, S=2, d_model=8, two experts per branch, top-1 routing
        cfg = TrainConfig(seq_len=16, pred_len=4, patch_len=4, stride=2, d_model=8,
                          n_layers=1, n_heads=2, k_time=2, k_freq=2, top_k=1,
                          batch_size=4, seed=3)
        rng = np.random.default_rng(7)
        model = TFPSModel(cfg, np.random.default_rng(cfg.seed))
        x = rng.normal(size=(3, 16, 2))
        y = rng.normal(size=(3, 4, 2))
        base = model.forward(x)
        s_hat_t = None if base.s_time is None else refine(base.s_time.data)
        s_hat_f = None if base.s_freq is None else refine(base.s_freq.data)

        loss, _, _ = model.loss(x, y, s_hat_time=s_hat_t, s_hat_freq=s_hat_f)
        model.zero_grad()
        loss.backward()

        def scalar():
            l2, _, _ = model.loss(x, y, s_hat_time=s_hat_t, s_hat_freq=s_hat_f)
            return float(l2.data)

        probe_rng = np.random.default_rng(13)
        names = sorted(model.params)
        checked = 0
        from helpers import numeric_grad_at, rel_err

        while checked < 20:
            name = names[int(probe_rng.integers(len(names)))]
            tensor = model.params[name]
            idx = int(probe_rng.integers(tensor.data.size))
            analytic = 0.0 if tensor.grad is None else tensor.grad.reshape(-1)[idx]
            numeric = numeric_grad_at(scalar, tensor.data, idx)
            assert rel_err(analytic, numeric) < 1e-3, (name, idx, analytic, numeric)
            checked += 1
