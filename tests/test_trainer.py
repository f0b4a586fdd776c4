"""Loss composition, optimization behavior, determinism, checkpoints, grid."""

import dataclasses
import json
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import make_golden
from helpers import nan_gradient_step, named_grads
from tfps import autodiff as ad
from tfps import model as model_mod
from tfps import pattern, trainer
from tfps.config import TrainConfig
from tfps.data import (
    RegimeSpec,
    Scaler,
    SynthSpec,
    Windows,
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
    CHECKPOINT_VERSION,
    Adam,
    Checkpoint,
    grid_search,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train,
    train_step,
    validation_mse,
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
    @staticmethod
    def model_and_input(**overrides):
        model = TFPSModel(TrainConfig(**{**TINY, **overrides}))
        return model, np.random.default_rng(0).normal(size=(2, 32, 3))

    def test_zero_when_exact_and_no_pi(self):
        model, x = self.model_and_input(pi_mode="linear")
        y = model.forward(x).yhat.data
        loss, _, _ = total_loss(model, x, y)
        assert float(loss.data) == 0.0

    def test_constant_residual_gives_unit_mse(self):
        model, x = self.model_and_input(pi_mode="linear")
        y = model.forward(x).yhat.data - 1.0
        loss, _, _ = total_loss(model, x, y)
        assert float(loss.data) == pytest.approx(1.0)

    def test_sum_of_parts(self):
        model, x = self.model_and_input()
        y = np.random.default_rng(1).normal(size=(2, 8, 3))
        loss, _, parts = total_loss(model, x, y)
        assert parts["pi_time"] > 0 and parts["pi_freq"] > 0
        expect = parts["mse"] + parts["pi_time"] + parts["pi_freq"]
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch(self):
        model, x = self.model_and_input()
        with pytest.raises(ValueError):
            total_loss(model, x, np.zeros((2, 3, 8)))


class TestAdam:
    def test_zero_lr_keeps_parameters(self):
        rng = np.random.default_rng(2)
        p = ad.parameter(rng.normal(size=(3, 3)))
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.0)
        for _ in range(5):
            opt.step({"p": rng.normal(size=(3, 3))})
        np.testing.assert_array_equal(p.data, before)

    def test_step_moves_against_gradient(self):
        p = ad.parameter(np.array([1.0]))
        opt = Adam({"p": p}, lr=0.1)
        opt.step({"p": np.array([2.0])})
        assert p.data[0] < 1.0

    def test_quadratic_convergence(self):
        p = ad.parameter(np.array([5.0, -3.0]))
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(500):
            opt.step({"p": 2.0 * p.data})
        np.testing.assert_allclose(p.data, 0.0, atol=1e-3)

    def test_a_parameter_without_a_gradient_is_left_as_it_was(self):
        rng = np.random.default_rng(3)
        a, b = ad.parameter(rng.normal(size=4)), ad.parameter(rng.normal(size=(2, 3)))
        opt = Adam({"a": a, "b": b}, lr=0.1)
        opt.step({"a": rng.normal(size=4), "b": rng.normal(size=(2, 3))})  # b's moments are non-zero
        a_before, b_before = a.data.copy(), b.data.copy()
        m_b, v_b = opt.m["b"].copy(), opt.v["b"].copy()
        opt.step({"a": rng.normal(size=4)})
        assert opt.t == 2
        assert not np.array_equal(a.data, a_before)
        assert b.data.tobytes() == b_before.tobytes()
        assert opt.m["b"].tobytes() == m_b.tobytes() and opt.v["b"].tobytes() == v_b.tobytes()


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

    def test_non_finite_validation_raises_numeric_error(self):
        # one step per epoch: the training loss is finite, the step it takes is not
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "lr": 1e150, "batch_size": 512, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        assert len(trw) <= cfg.batch_size
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="validation MSE diverged at epoch 0: nan"):
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
        # one flipped byte inside a member's data fails that member's CRC check
        cfg = TrainConfig(**TINY)
        arrays = TFPSModel(cfg, np.random.default_rng(0)).named_arrays()
        save_checkpoint(Checkpoint(CHECKPOINT_VERSION, cfg, arrays, None, {}), bad)
        good = bad.read_bytes()
        for inside, member in [(arrays["head.w"].tobytes(), "head.w"), (b'"history"', "header")]:
            at = good.index(inside) + 1
            bad.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
            with pytest.raises(DataError, match=member) as info:
                load_checkpoint(bad)
            assert str(bad) in str(info.value) and "CRC" in str(info.value)

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

    def test_header_holds_what_no_array_records(self, tmp_path):
        """Each array's shape is in its .npy member, so the header holds no
        shape map, and a scaler is its two statistics."""
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        path = tmp_path / "model.npz"
        save_checkpoint(ckpt, path)
        with np.load(path) as npz:
            header = json.loads(bytes(npz["__header__"]).decode())
            members = {k.removeprefix("array/"): npz[k] for k in npz.files if k != "__header__"}
        assert list(header) == ["version", "config", "scaler", "history"] and header["version"] == 2
        assert list(header["scaler"]) == [f.name for f in dataclasses.fields(Scaler)] == ["mean", "std"]
        assert members.keys() == ckpt.arrays.keys()
        for name, arr in members.items():
            np.testing.assert_array_equal(arr, ckpt.arrays[name], err_msg=name)

    def test_older_header_loads_and_forecasts_identically(self, tmp_path):
        """A version-1 header, with a shape map and scaler `degenerate`
        flags, reads as the same checkpoint."""
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)
        path, older = tmp_path / "model.npz", tmp_path / "older.npz"
        save_checkpoint(ckpt, path)
        with np.load(path) as npz:
            payload = {k: npz[k] for k in npz.files}
        header = json.loads(bytes(payload["__header__"]).decode())
        header["version"] = 1
        header["scaler"]["degenerate"] = [False] * len(sc.mean)
        header["arrays"] = {k: list(v.shape) for k, v in ckpt.arrays.items()}
        payload["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(older, "wb") as fh:
            np.savez(fh, **payload)
        a, b = load_checkpoint(path), load_checkpoint(older)
        assert b.version == 1 and b.config == a.config and b.history == a.history
        np.testing.assert_array_equal(b.scaler.mean, a.scaler.mean)
        np.testing.assert_array_equal(b.scaler.std, a.scaler.std)
        x = np.stack([w.input for w in vaw[:5]])
        np.testing.assert_array_equal(b.build_model().forecast(x), a.build_model().forecast(x))


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

    def test_non_finite_validation_is_a_failed_cell(self):
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "batch_size": 512, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        with np.errstate(over="ignore", invalid="ignore"):
            best, board = grid_search(cfg, {"lr": [1e150, 0.004]}, trw, vaw, scaler=sc)
        rows = {r["lr"]: r for r in board}
        assert rows[1e150]["status"].startswith("failed: validation MSE diverged")
        assert rows[1e150]["val_mse"] is None
        assert [r["lr"] for r in board] == [0.004, 1e150]
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
        s_hat = {name: refine(s.data) for name, s in base.s.items()}

        loss, _, _ = total_loss(model, x, y, s_hat=s_hat)
        grads = named_grads(model.params, loss.backward())

        def scalar():
            l2, _, _ = total_loss(model, x, y, s_hat=s_hat)
            return float(l2.data)

        probe_rng = np.random.default_rng(13)
        names = sorted(model.params)
        checked = 0
        from helpers import numeric_grad_at, rel_err

        while checked < 20:
            name = names[int(probe_rng.integers(len(names)))]
            tensor = model.params[name]
            idx = int(probe_rng.integers(tensor.data.size))
            analytic = grads[name].reshape(-1)[idx] if name in grads else 0.0
            numeric = numeric_grad_at(scalar, tensor.data, idx)
            assert rel_err(analytic, numeric) < 1e-3, (name, idx, analytic, numeric)
            checked += 1


def sharded_gradients(monkeypatch, model, x, y, workers):
    """Gradients and summed loss of one training batch cut into `workers`
    shards, as `train` computes them."""
    monkeypatch.setattr(model_mod, "forecast_workers", lambda: workers)  # one thread a shard
    grads, parts = train_step(model, x, y)
    assert len(parts) == workers
    return grads, sum(shard["loss"] for shard in parts)


def record_shards(monkeypatch) -> list[int]:
    """The shard count of every step `train` takes from here on."""
    counts, original = [], trainer.train_step

    def recording(*args, **kwargs):
        grads, parts = original(*args, **kwargs)
        counts.append(len(parts))
        return grads, parts

    monkeypatch.setattr(trainer, "train_step", recording)
    return counts


class TestShardedStep:
    SHARDED = sorted(set(make_golden.CASES) - make_golden.TRAINING)  # no batch statistics

    @pytest.mark.parametrize("workers,windows", [(1, 4), (2, 4), (3, 5)])  # 3 on 5: shards of 1, 2, 2
    @pytest.mark.parametrize("case", SHARDED)
    def test_gradients_match_the_whole_batch(self, monkeypatch, case, workers, windows):
        model, x, y = make_golden.build(case)
        rng = np.random.default_rng(21)
        x = np.concatenate([x, rng.normal(size=x[:1].shape)])[:windows]
        y = np.concatenate([y, rng.normal(size=y[:1].shape)])[:windows]
        loss, _, _ = total_loss(model, x, y, training=True)
        expected = named_grads(model.params, loss.backward())
        got, value = sharded_gradients(monkeypatch, model, x, y, workers)
        assert got.keys() == expected.keys()
        if workers == 1:  # the one-shard step is total_loss, bit for bit
            assert value == float(loss.data)
            for k, g in expected.items():
                np.testing.assert_array_equal(got[k], g, err_msg=k)
            return
        assert value == pytest.approx(float(loss.data), rel=1e-12)
        for k, g in expected.items():
            assert np.max(np.abs(got[k] - g)) <= 1e-12 * np.max(np.abs(g)), k

    def test_a_shard_may_route_no_token_to_an_expert(self, monkeypatch):
        # top-1 over 8 experts a branch, one window a shard: each shard misses an expert the batch reaches
        golden, x, y = make_golden.build("top1")
        model = TFPSModel(dataclasses.replace(golden.cfg, k_time=8, k_freq=8))
        loss, _, _ = total_loss(model, x, y, training=True)
        expected = named_grads(model.params, loss.backward())
        for k in range(len(x)):
            shard, _, _ = total_loss(model, x[k : k + 1], y[k : k + 1], training=True)
            assert named_grads(model.params, shard.backward()).keys() < expected.keys()
        got, value = sharded_gradients(monkeypatch, model, x, y, len(x))
        assert got.keys() == expected.keys() == model.params.keys()
        assert value == pytest.approx(float(loss.data), rel=1e-12)
        for k, g in expected.items():
            assert np.max(np.abs(got[k] - g)) <= 1e-12 * np.max(np.abs(g)), k

    def test_gradients_repeat_under_fast_switching(self, monkeypatch):
        model, x, y = make_golden.build("top1")
        serial, _ = sharded_gradients(monkeypatch, model, x, y, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [sharded_gradients(monkeypatch, model, x, y, 4)[0] for _ in range(2)]  # one window a shard
        finally:
            sys.setswitchinterval(interval)
        assert runs[0].keys() == runs[1].keys() == serial.keys()
        for k, g in serial.items():
            np.testing.assert_array_equal(runs[0][k], runs[1][k], err_msg=k)
            assert np.max(np.abs(runs[0][k] - g)) <= 1e-12 * np.max(np.abs(g)), k

    def test_same_seed_identical_checkpoints_on_two_workers(self, monkeypatch):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        shards = record_shards(monkeypatch)
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "batch_size": 20})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        a = train(cfg, trw, vaw, scaler=sc)
        b = train(cfg, trw, vaw, scaler=sc)
        steps = -(-len(trw) // cfg.batch_size)
        assert len(trw) % cfg.batch_size == 1  # the last batch of each epoch is one window
        assert shards == 2 * cfg.max_epochs * ([2] * (steps - 1) + [1])
        assert a.arrays.keys() == b.arrays.keys()
        for k in a.arrays:
            np.testing.assert_array_equal(a.arrays[k], b.arrays[k])
        assert a.history == b.history
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 1)
        serial = train(cfg, trw, vaw, scaler=sc)  # the same numbers up to rounding
        for key in ("train_loss", "train_mse", "val_mse"):
            assert a.history[key] == pytest.approx(serial.history[key], rel=1e-9), key

    # batch norm and dropout keep the batch whole at any worker count
    @pytest.mark.parametrize("overrides,workers", [({}, 1), ({"pi_mode": "linear"}, 1),
                                                   ({"time_norm": "batch"}, 2), ({"dropout": 0.1}, 2)],
                             ids=["default", "linear-gate", "batch-norm", "dropout"])
    def test_one_worker_is_the_total_loss_loop(self, monkeypatch, overrides, workers):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: workers)
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, **overrides, "max_epochs": 2})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        ckpt = train(cfg, trw, vaw, scaler=sc)

        rng = np.random.default_rng(cfg.seed)
        model = TFPSModel(cfg, rng)
        opt = Adam(model.params, lr=cfg.lr)
        losses, mses, vals, best = [], [], [], None
        for _ in range(cfg.max_epochs):
            order = rng.permutation(len(trw))
            epoch_loss = epoch_mse = 0.0
            for lo in range(0, len(order), cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                loss, _, parts = total_loss(model, trw.inputs[idx], trw.targets[idx], training=True, rng=rng)
                opt.step(named_grads(model.params, loss.backward()))
                epoch_loss += float(loss.data)
                epoch_mse += parts["mse"]
            steps = -(-len(order) // cfg.batch_size)
            losses.append(epoch_loss / steps)
            mses.append(epoch_mse / steps)
            vals.append(validation_mse(model, vaw))
            if vals[-1] == min(vals):
                best = {k: v.copy() for k, v in model.named_arrays().items()}
        assert ckpt.history["train_loss"] == losses
        assert ckpt.history["train_mse"] == mses
        assert ckpt.history["val_mse"] == vals
        for k, v in best.items():
            np.testing.assert_array_equal(ckpt.arrays[k], v, err_msg=k)

    def test_regularizer_is_built_once_a_step(self, monkeypatch):
        # alpha is 0 on every shard but the first, and a zero term is skipped
        calls, reg_r1 = [], pattern.reg_r1
        monkeypatch.setattr(pattern, "reg_r1", lambda bases: calls.append(bases) or reg_r1(bases))
        model, x, y = make_golden.build("top2")
        sharded_gradients(monkeypatch, model, x, y, 2)
        assert len(calls) == len(model.branches) == 2
        assert {id(b) for b in calls} == {id(br.identifier["bases"]) for br in model.branches.values()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_target_is_refined_through_the_pattern_module(self, monkeypatch, workers):
        # perfbench/layer_trace.py times the refinement by replacing pattern.refine
        calls, original = [], pattern.refine
        monkeypatch.setattr(pattern, "refine", lambda s: calls.append(s) or original(s))
        model, x, y = make_golden.build("top2")
        sharded_gradients(monkeypatch, model, x, y, workers)
        assert len(calls) == len(model.branches) == 2

    def test_one_pool_an_on_threads_call(self, monkeypatch):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        shards = record_shards(monkeypatch)
        started = threading.active_count()
        live = []  # threads alive as each pool opens

        class Counting(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                live.append(threading.active_count())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(model_mod, "ThreadPoolExecutor", Counting)
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "batch_size": 20, "max_epochs": 2, "patience": 0})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        train(cfg, trw, vaw, scaler=sc)
        assert len(shards) >= 4 and 2 in shards
        # two a step (forwards; then losses and backwards) and one a validation forecast
        assert len(live) == 2 * len(shards) + cfg.max_epochs
        assert live == [started] * len(live)  # each pool's threads end with its call
        assert threading.active_count() == started

    def test_train_builds_one_model(self, monkeypatch):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 64)
        built, init = [], TFPSModel.__init__
        monkeypatch.setattr(TFPSModel, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        shards = record_shards(monkeypatch)
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "batch_size": 3, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        train(cfg, trw, vaw, scaler=sc)
        assert shards == [min(3, len(trw) - lo) for lo in range(0, len(trw), 3)]  # no more shards than windows
        assert len(built) == 1  # every shard of every step runs on the one model

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_forward_starts_while_a_gradient_is_held(self, monkeypatch, workers):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: workers)
        shards = record_shards(monkeypatch)
        returned, step = [], trainer.train_step  # weakrefs to every gradient array a step returned

        def recording(*args, **kwargs):
            grads, parts = step(*args, **kwargs)
            returned.extend(weakref.ref(g) for g in grads.values())
            return grads, parts

        monkeypatch.setattr(trainer, "train_step", recording)
        held, forward = [], TFPSModel.forward  # per forward: the returned gradient arrays still alive

        def checking(self, *args, **kwargs):
            held.append(sum(ref() is not None for ref in returned))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TFPSModel, "forward", checking)
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, "batch_size": 20, "max_epochs": 2, "patience": 0})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        train(cfg, trw, vaw, scaler=sc)
        assert len(shards) >= 4 and max(shards) == workers
        assert len(returned) == len(shards) * len(TFPSModel(cfg).params)  # every step reaches every parameter
        assert len(held) > sum(shards) and held == [0] * len(held)  # the steps' and the validations' forwards

    @pytest.mark.parametrize("overrides", [{"time_norm": "batch"}, {"dropout": 0.1}])
    def test_batch_norm_and_dropout_keep_the_batch_whole(self, monkeypatch, overrides):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        shards = record_shards(monkeypatch)
        series, _ = tiny_dataset()
        cfg = TrainConfig(**{**TINY, **overrides, "max_epochs": 1})
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        threads = threading.active_count()
        train(cfg, trw, vaw, scaler=sc)
        assert shards == [1] * -(-len(trw) // cfg.batch_size)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("stage", ["loss", "backward"])
    def test_worker_loss_or_backward_exception_leaves_the_model_as_it_was(self, monkeypatch, stage):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        owner, name = (trainer, "shard_loss") if stage == "loss" else (ad.Tensor, "backward")
        original, caller, ran = getattr(owner, name), threading.get_ident(), []

        def failing(*args, **kwargs):
            ran.append(threading.get_ident())
            if threading.get_ident() != caller:
                raise RuntimeError(f"{stage} failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)
        built, init = [], TFPSModel.__init__
        monkeypatch.setattr(TFPSModel, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        series, _ = tiny_dataset()
        cfg = TrainConfig(**TINY)
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{stage} failed"):
            train(cfg, trw, vaw, scaler=sc)
        assert caller in ran and len(set(ran)) == 2
        assert threading.active_count() == threads
        initial = TFPSModel(cfg).named_arrays()  # the first step never reached Adam
        for k, v in built[0].named_arrays().items():
            np.testing.assert_array_equal(v, initial[k], err_msg=k)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_loss_raises_before_the_step(self, monkeypatch, workers):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: workers)
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self, grads: steps.append(self))
        series, _ = tiny_dataset()
        cfg = TrainConfig(**TINY)
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        array = trw.array.copy()
        array[:, cfg.seq_len :] = np.nan
        with pytest.raises(NumericError, match=r"^loss diverged at epoch 0, batch 0: nan$"):
            train(cfg, Windows(array, trw.L, trw.origins), vaw, scaler=sc)
        assert steps == []

    def test_non_finite_gradient_names_its_parameter_before_the_step(self, monkeypatch):
        # head.w comes after time.enc0.ff.w1 in model.params
        step = nan_gradient_step(trainer.train_step, "head.w", "time.enc0.ff.w1")
        monkeypatch.setattr(trainer, "train_step", step)
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self, grads: steps.append(self))
        series, _ = tiny_dataset()
        cfg = TrainConfig(**TINY)
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        cause = r"^gradient of time\.enc0\.ff\.w1 is not finite at epoch 0, batch 0$"
        with pytest.raises(NumericError, match=cause):
            train(cfg, trw, vaw, scaler=sc)
        assert steps == []

    def test_worker_shard_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        forward, caller, ran = TFPSModel.forward, threading.get_ident(), []

        def failing(self, *args, **kwargs):
            ran.append(threading.get_ident())
            if threading.get_ident() != caller:
                raise RuntimeError("shard failed")
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TFPSModel, "forward", failing)
        series, _ = tiny_dataset()
        cfg = TrainConfig(**TINY)
        (trw, vaw, _), sc = prepared_windows(cfg, series)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="shard failed"):
            train(cfg, trw, vaw, scaler=sc)
        assert caller in ran and len(set(ran)) == 2
        assert threading.active_count() == threads
