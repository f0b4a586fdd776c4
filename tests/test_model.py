"""Whole-model behavior: shapes, determinism, building from a checkpoint's
arrays, ablation variants, instance normalization, batch-norm branch,
sparsity instrumentation, threaded forecasting."""

import sys
import threading
import time

import numpy as np
import pytest

import make_golden
from helpers import record_expert_calls
from tfps import autodiff as ad
from tfps import model as model_mod
from tfps import mope
from tfps.config import TrainConfig
from tfps.errors import DataError
from tfps.model import TFPSModel
from tfps.trainer import CHECKPOINT_VERSION, Adam, Checkpoint, load_checkpoint, save_checkpoint, total_loss

BASE = dict(seq_len=16, pred_len=4, patch_len=4, stride=2, d_model=8, n_layers=1,
            n_heads=2, k_time=2, k_freq=2, top_k=1, batch_size=4, seed=3)


def batch(rng, b=3, c=2):
    return rng.normal(size=(b, 16, c)), rng.normal(size=(b, 4, c))


class TestForward:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        x, _ = batch(rng)
        model = TFPSModel(TrainConfig(**BASE))
        a = model.forward(x).yhat.data
        b = model.forward(x).yhat.data
        assert a.shape == (3, 4, 2)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_init(self):
        cfg = TrainConfig(**BASE)
        m1 = TFPSModel(cfg, np.random.default_rng(cfg.seed))
        m2 = TFPSModel(cfg, np.random.default_rng(cfg.seed))
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k].data, m2.params[k].data)

    def test_channel_count_is_flexible(self):
        rng = np.random.default_rng(1)
        model = TFPSModel(TrainConfig(**BASE))
        for c in (1, 2, 5):
            x = rng.normal(size=(2, 16, c))
            assert model.forward(x).yhat.shape == (2, 4, c)

    def test_wrong_length_rejected(self):
        model = TFPSModel(TrainConfig(**BASE))
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 15, 2)))

    def test_expert_call_sparsity(self, monkeypatch):
        rng = np.random.default_rng(2)
        x, _ = batch(rng)
        cfg = TrainConfig(**{**BASE, "k_time": 4, "k_freq": 4, "top_k": 1})
        model = TFPSModel(cfg)
        calls = record_expert_calls(monkeypatch, mope, model.branches["time"].experts)
        fwd = model.forward(x)
        # each time expert runs once, and only if some token's top-1 affinity picks it
        routed = sorted(set(np.argmax(fwd.s["time"].data, axis=1)))
        assert len(routed) >= 1
        assert sorted(c for c in calls if c >= 0) == routed
        assert calls.count(-1) == len(set(np.argmax(fwd.s["freq"].data, axis=1)))


class NoDraws:
    """An RNG stand-in whose every attribute read raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"the model read rng.{name}")


def trained_arrays(cfg):
    """Named arrays of a `cfg` model after one training batch seeds its running stats."""
    model = TFPSModel(cfg)
    x, y = batch(np.random.default_rng(18))
    total_loss(model, x, y, training=True)
    return model.named_arrays()


class TestBuild:
    def test_arrays_build_without_drawing(self):
        cfg = TrainConfig(**{**BASE, "time_norm": "batch"})
        arrays = trained_arrays(cfg)
        assert "time.enc0.bn2.var" in arrays
        built = TFPSModel(cfg, rng=NoDraws(), arrays=arrays).named_arrays()
        assert list(built) == list(arrays)
        for key, arr in arrays.items():
            assert built[key].dtype == np.float64 and np.shares_memory(built[key], arr)
            np.testing.assert_array_equal(built[key], arr)

    def test_float64_arrays_are_shared_and_others_converted(self):
        cfg = TrainConfig(**{**BASE, "time_norm": "batch"})
        arrays = trained_arrays(cfg)
        arrays["head.w"] = arrays["head.w"].astype(np.float32)
        built = TFPSModel(cfg, arrays=arrays).named_arrays()
        assert built.keys() == arrays.keys()
        for key, arr in arrays.items():
            assert built[key].dtype == np.float64
            assert np.shares_memory(built[key], arr) == (key != "head.w"), key
        np.testing.assert_array_equal(built["head.w"], arrays["head.w"].astype(np.float64))

    def test_checkpoint_model_is_built_on_the_loaded_arrays(self, tmp_path):
        cfg = TrainConfig(**{**BASE, "time_norm": "batch"})
        path = tmp_path / "model.npz"
        save_checkpoint(Checkpoint(CHECKPOINT_VERSION, cfg, trained_arrays(cfg), None), path)
        ckpt = load_checkpoint(path)
        built = ckpt.build_model().named_arrays()
        assert built.keys() == ckpt.arrays.keys()
        for key, arr in ckpt.arrays.items():
            assert arr.dtype == np.float64 and np.shares_memory(built[key], arr), key

    @pytest.mark.parametrize("edit,key", [
        (lambda a: a.pop("head.w"), "'head.w'"),
        (lambda a: a.update({"embed.pos": a["embed.pos"][:, :-1]}), "'embed.pos'"),
        (lambda a: a.update({"time.enc0.bn1.mean": np.zeros(5)}), "'time.enc0.bn1.mean'"),
        (lambda a: a.pop("time.enc0.bn1.var"), "'time.enc0.bn1.var'"),
        (lambda a: a.pop("time.enc0.bn2.mean"), "'time.enc0.bn2.mean'"),
        (lambda a: a.update({"freq.enc0.bn1.mean": np.zeros(8)}), "'freq.enc0.bn1.mean'"),  # freq never batch-norms
    ], ids=["missing", "wrong-shape", "wrong-stat-shape", "mean-without-var", "var-without-mean", "unused"])
    def test_faulty_arrays_name_the_key(self, edit, key):
        cfg = TrainConfig(**{**BASE, "time_norm": "batch"})
        arrays = trained_arrays(cfg)
        edit(arrays)
        with pytest.raises(DataError, match=key):
            TFPSModel(cfg, arrays=arrays)

    @pytest.mark.parametrize("steps", [0, 1], ids=["untrained", "one-step"])
    @pytest.mark.parametrize("case", sorted(make_golden.CASES))
    def test_checkpoint_round_trip_is_bit_for_bit(self, tmp_path, case, steps):
        model, x, y = make_golden.build(case)
        opt = Adam(model.params, lr=0.01)
        for _ in range(steps):
            loss, _, _ = total_loss(model, x, y, training=True, rng=np.random.default_rng(0))
            loss.backward()
            opt.step()
        path = tmp_path / "model.npz"
        save_checkpoint(Checkpoint(CHECKPOINT_VERSION, model.cfg, model.named_arrays(), None), path)
        rebuilt = load_checkpoint(path).build_model()
        before, after = model.named_arrays(), rebuilt.named_arrays()
        assert list(after) == list(before)
        for key, arr in before.items():
            np.testing.assert_array_equal(after[key].view(np.uint64), arr.view(np.uint64))
        np.testing.assert_array_equal(rebuilt.forecast(x).view(np.uint64), model.forecast(x).view(np.uint64))


class TestVariants:
    @pytest.mark.parametrize("branches,width", [("both", 2), ("time", 1), ("frequency", 1)])
    def test_branch_ablations_run_from_config(self, branches, width):
        rng = np.random.default_rng(3)
        x, y = batch(rng)
        cfg = TrainConfig(**{**BASE, "branches": branches})
        model = TFPSModel(cfg)
        n = cfg.n_patches
        assert model.params["head.w"].shape == (n * width * cfg.d_model, cfg.pred_len)
        loss, fwd, parts = total_loss(model, x, y)
        assert fwd.yhat.shape == (3, 4, 2)
        if branches == "time":
            assert "freq" not in fwd.s and parts["pi_freq"] == 0.0
        if branches == "frequency":
            assert "time" not in fwd.s and parts["pi_time"] == 0.0
        loss.backward()

    def test_linear_gate_ablation(self):
        rng = np.random.default_rng(4)
        x, y = batch(rng)
        cfg = TrainConfig(**{**BASE, "pi_mode": "linear"})
        model = TFPSModel(cfg)
        assert "time.gate.w" in model.params and "time.bases" not in model.params
        loss, fwd, parts = total_loss(model, x, y)
        assert parts["pi_time"] == 0.0 and parts["pi_freq"] == 0.0
        np.testing.assert_allclose(fwd.s["time"].data.sum(axis=1), 1.0, atol=1e-9)
        loss.backward()
        assert model.params["time.gate.w"].grad is not None

    def test_batch_norm_time_branch(self):
        rng = np.random.default_rng(5)
        x, y = batch(rng)
        cfg = TrainConfig(**{**BASE, "time_norm": "batch"})
        model = TFPSModel(cfg)
        loss, _, _ = total_loss(model, x, y, training=True)
        loss.backward()
        stats = model.branches["time"].layers[0].bn1_stats
        assert "mean" in stats and stats["mean"].shape == (cfg.d_model,)
        arrays = model.named_arrays()
        assert "time.enc0.bn1.mean" in arrays

    def test_batch_norm_eval_before_training_is_order_free(self):
        rng = np.random.default_rng(11)
        a, _ = batch(rng)
        b, _ = batch(rng)
        cfg = TrainConfig(**{**BASE, "branches": "time", "time_norm": "batch"})
        first, second = TFPSModel(cfg), TFPSModel(cfg)
        with ad.no_grad():
            ab = [first.forward(x).yhat.data for x in (a, b)]
            ba = [second.forward(x).yhat.data for x in (b, a)]
        np.testing.assert_array_equal(ab[0], ba[1])
        np.testing.assert_array_equal(ab[1], ba[0])
        for model in (first, second):
            assert model.named_arrays().keys() == model.params.keys()  # no running stats

    def test_batch_norm_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        x, y = batch(rng)
        cfg = TrainConfig(**{**BASE, "time_norm": "batch"})
        model = TFPSModel(cfg)
        total_loss(model, x, y, training=True)  # populate running stats
        ckpt = Checkpoint(version=CHECKPOINT_VERSION, config=cfg,
                          arrays=model.named_arrays(), scaler=None)
        path = tmp_path / "bn.npz"
        save_checkpoint(ckpt, path)
        rebuilt = load_checkpoint(path).build_model()
        with ad.no_grad():
            np.testing.assert_array_equal(
                model.forward(x).yhat.data, rebuilt.forward(x).yhat.data)


class TestInstanceNorm:
    def test_outputs_return_to_input_scale(self):
        rng = np.random.default_rng(7)
        cfg = TrainConfig(**{**BASE, "instance_norm": True})
        model = TFPSModel(cfg)
        x = rng.normal(size=(2, 16, 2))
        shifted = x + 100.0
        base = model.forward(x).yhat.data
        moved = model.forward(shifted).yhat.data
        # per-window standardization makes the forecast shift-equivariant
        np.testing.assert_allclose(moved, base + 100.0, atol=1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        cfg = TrainConfig(**{**BASE, "instance_norm": True})
        model = TFPSModel(cfg)
        x = rng.normal(size=(2, 16, 2))
        base = model.forward(x).yhat.data
        scaled = model.forward(3.0 * x).yhat.data
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-6)


class TestDropout:
    def test_training_dropout_draws_from_rng(self):
        rng = np.random.default_rng(9)
        x, _ = batch(rng)
        cfg = TrainConfig(**{**BASE, "dropout": 0.5})
        model = TFPSModel(cfg)
        a = model.forward(x, training=True, rng=np.random.default_rng(1)).yhat.data
        b = model.forward(x, training=True, rng=np.random.default_rng(1)).yhat.data
        c = model.forward(x, training=True, rng=np.random.default_rng(2)).yhat.data
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 0

    def test_inference_ignores_dropout(self):
        rng = np.random.default_rng(10)
        x, _ = batch(rng)
        cfg = TrainConfig(**{**BASE, "dropout": 0.5})
        model = TFPSModel(cfg)
        a = model.forward(x, training=False).yhat.data
        b = model.forward(x, training=False).yhat.data
        np.testing.assert_array_equal(a, b)


def serial_forecast(model, x):
    """The single-threaded batch loop `forecast` must reproduce bit for bit."""
    size = model.cfg.batch_size
    with ad.no_grad():
        return np.concatenate([model.forward(x[lo : lo + size]).yhat.data for lo in range(0, len(x), size)])


class TestForecast:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n,batch_size", [(1, 4), (2, 1), (11, 4), (13, 5)])
    @pytest.mark.parametrize("time_norm", ["layer", "batch"])
    def test_threads_match_serial_loop(self, monkeypatch, workers, n, batch_size, time_norm):
        # n=1: one window; (2, 1): fewer windows than workers; 11 and 13: a ragged last slice
        rng = np.random.default_rng(12)
        x, y = batch(rng, b=max(n, 4))
        model = TFPSModel(TrainConfig(**{**BASE, "time_norm": time_norm, "batch_size": batch_size}))
        if time_norm == "batch":
            total_loss(model, x, y, training=True)  # populate running stats
        x = x[:n]
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: workers)
        np.testing.assert_array_equal(model.forecast(x), serial_forecast(model, x))

    @pytest.mark.parametrize("n,slices", [(1, [1]), (2, [1, 1]), (3, [1, 2]), (4, [2, 2]), (5, [1, 2, 2]),
                                          (9, [1, 2, 2, 2, 2])])
    def test_slices_share_one_caller_batch(self, monkeypatch, n, slices):
        # BASE's batch_size is 4: at most 4 windows in flight, and a batch of
        # up to 4 windows is split into min(workers, n) slices
        rng = np.random.default_rng(16)
        x, _ = batch(rng, b=n)
        model = TFPSModel(TrainConfig(**BASE))
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        forward, sizes, threads = model.forward, [], set()

        def recording(inputs):
            sizes.append(len(inputs))
            threads.add(threading.get_ident())
            return forward(inputs)

        monkeypatch.setattr(model, "forward", recording)
        model.forecast(x)
        assert sorted(sizes) == slices
        assert 2 * max(sizes) <= model.cfg.batch_size
        assert len(threads) == min(2, len(slices))

    def test_untrained_batch_norm_threads_match_serial_loop_and_unit_stats(self, monkeypatch):
        # before any training, batch norm evaluates with mean 0 and variance 1
        rng = np.random.default_rng(13)
        x, _ = batch(rng, b=10)
        cfg = TrainConfig(**{**BASE, "time_norm": "batch"})
        model = TFPSModel(cfg)
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        got = model.forecast(x)
        np.testing.assert_array_equal(got, serial_forecast(model, x))
        assert model.named_arrays().keys() == model.params.keys()  # no running stats stored
        for stats in model.norm_stats.values():
            stats.update(mean=np.zeros(cfg.d_model), var=np.ones(cfg.d_model))
        np.testing.assert_array_equal(got, serial_forecast(model, x))

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        rng = np.random.default_rng(14)
        x, _ = batch(rng, b=40)
        model = TFPSModel(TrainConfig(**{**BASE, "batch_size": 16}))
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = model.forecast(x)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got, serial_forecast(model, x))

    def test_worker_exception_reaches_caller(self, monkeypatch):
        rng = np.random.default_rng(15)
        x, _ = batch(rng, b=8)
        model = TFPSModel(TrainConfig(**BASE))
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        forward = model.forward
        caller = threading.get_ident()
        ran = []

        def failing(inputs):
            ran.append(threading.get_ident())
            if threading.get_ident() != caller:
                raise RuntimeError("worker failed")
            return forward(inputs)

        monkeypatch.setattr(model, "forward", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            model.forecast(x)
        assert caller in ran and len(set(ran)) == 2
        assert threading.active_count() == threads
        assert ad.mul(model.params["head.b"], 2.0).requires_grad  # grad mode is back on

    def test_caller_exception_cancels_pending_slices(self, monkeypatch):
        rng = np.random.default_rng(17)
        x, _ = batch(rng, b=40)
        model = TFPSModel(TrainConfig(**BASE))
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        forward = model.forward
        caller = threading.get_ident()
        failed, worker_calls = threading.Event(), []

        def failing(inputs):
            if threading.get_ident() == caller:
                failed.set()
                raise KeyboardInterrupt
            worker_calls.append(len(inputs))
            failed.wait(10)
            time.sleep(0.2)  # still in flight when the caller shuts the pool down
            return forward(inputs)

        monkeypatch.setattr(model, "forward", failing)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            model.forecast(x)  # 20 slices of 2 windows, 10 for the worker
        assert worker_calls in ([], [2])  # the worker may not have taken its first slice yet
        assert threading.active_count() == threads
        assert ad.mul(model.params["head.b"], 2.0).requires_grad

    @pytest.mark.parametrize("workers,n", [(1, 3), (2, 1), (2, 5), (3, 2), (3, 7)])
    def test_on_threads_keeps_order_and_gives_the_caller_every_workers_th_call(self, monkeypatch, workers, n):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: workers)
        caller = threading.get_ident()
        got = model_mod.on_threads(lambda i: (i, threading.get_ident() == caller), n)
        assert got == [(i, i % min(workers, n) == 0) for i in range(n)]

    def test_on_threads_runs_calls_under_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        with np.errstate(over="ignore"):
            assert model_mod.on_threads(lambda i: np.geterr()["over"], 2) == ["ignore", "ignore"]

    def test_on_threads_runs_calls_in_the_callers_grad_mode(self, monkeypatch):
        monkeypatch.setattr(model_mod, "forecast_workers", lambda: 2)
        p = ad.parameter(np.ones(3))

        def records(i):
            return ad.mul(p, 2.0).requires_grad

        with ad.no_grad():
            assert model_mod.on_threads(records, 2) == [False, False]
        assert model_mod.on_threads(records, 2) == [True, True]

    def test_no_grad_on_one_thread_leaves_another_recording(self):
        p = ad.parameter(np.ones(3))
        step = threading.Barrier(2, timeout=10)

        def hold_no_grad():
            with ad.no_grad():
                step.wait()  # inside no_grad
                step.wait()  # until the caller has recorded

        other = threading.Thread(target=hold_no_grad)
        other.start()
        step.wait()
        recorded = ad.mul(p, 2.0).requires_grad
        step.wait()
        other.join()
        assert recorded

    @pytest.mark.parametrize("env,expected", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OMP_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "x"}, 1),
    ])
    def test_worker_count_from_blas_environment(self, monkeypatch, env, expected):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(model_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert model_mod.forecast_workers() == expected

    def test_worker_count_without_sched_getaffinity(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(model_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: 3)
        assert model_mod.forecast_workers() == 3
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: None)
        assert model_mod.forecast_workers() == 1
