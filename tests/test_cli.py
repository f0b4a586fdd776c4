"""Operator-surface contracts: subcommand pipelines, exit codes, seeds."""

import json

import numpy as np
import pytest

from tfps.cli import run
from tfps.trainer import load_checkpoint

SYNTH_SPEC = {
    "seed": 7,
    "channels": 2,
    "regimes": [
        {"length": 240, "amplitude": 1.0, "frequency": 0.0625, "noise": 0.05},
        {"length": 240, "amplitude": 1.0, "frequency": 0.125, "offset": 2.0, "noise": 0.05},
    ],
}

TRAIN_CFG = {
    "seq_len": 32, "pred_len": 8, "patch_len": 8, "stride": 4, "d_model": 16,
    "n_layers": 1, "n_heads": 2, "k_time": 2, "k_freq": 2, "top_k": 2,
    "lr": 0.005, "batch_size": 16, "max_epochs": 2, "patience": 5, "seed": 1,
    "split_ratios": [0.7, 0.15, 0.15],
}


@pytest.fixture
def workdir(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    data = tmp_path / "data.csv"
    assert run(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    return tmp_path


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYNTH_SPEC))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", "--spec", str(spec), "--out", str(a)]) == 0
        assert run(["synth", "--spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYNTH_SPEC))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--spec", str(spec), "--out", str(a)])
        run(["synth", "--spec", str(spec), "--out", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()

    def test_bad_spec_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"regimes": [{"length": 10, "bogus": 1}]}))
        assert run(["synth", "--spec", str(spec), "--out", str(tmp_path / "o.csv")]) == 1


class TestAnalyzeDrift:
    def test_pipeline_produces_matrices(self, workdir):
        out = workdir / "drift"
        code = run(["analyze-drift", "--data", str(workdir / "data.csv"),
                    "--patch-len", "16", "--stride", "8", "--domain", "both",
                    "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {c["domain"] for c in summary["channels"]} == {"time", "frequency"}
        m = np.loadtxt(out / "drift_ch0_time.csv", delimiter=",")
        assert m.shape[0] == m.shape[1]
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_allclose(np.diag(m), 0.0)

    def test_twelve_patch_window(self, workdir):
        out = workdir / "drift12"
        code = run(["analyze-drift", "--data", str(workdir / "data.csv"),
                    "--patch-len", "16", "--stride", "8", "--domain", "time",
                    "--start", "0", "--length", "104", "--out", str(out)])
        assert code == 0
        m = np.loadtxt(out / "drift_ch0_time.csv", delimiter=",")
        assert m.shape == (12, 12)

    def test_missing_data_is_data_error(self, workdir):
        assert run(["analyze-drift", "--data", str(workdir / "absent.csv"),
                    "--patch-len", "8", "--stride", "4", "--out", str(workdir / "x")]) == 2


class TestTrainEvalPredict:
    def test_full_pipeline(self, workdir):
        ckpt = workdir / "model.npz"
        code = run(["train", "--config", str(workdir / "cfg.json"),
                    "--data", str(workdir / "data.csv"), "--out", str(ckpt), "--quiet"])
        assert code == 0 and ckpt.exists()

        out = workdir / "eval"
        code = run(["eval", "--ckpt", str(ckpt), "--data", str(workdir / "data.csv"),
                    "--out", str(out), "--denormalized"])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rows"][0]["MSE"] >= 0
        assert "mse_denorm" in metrics["detail"]
        routing = json.loads((out / "routing.json").read_text())
        assert set(routing["branches"]) == {"time", "freq"}
        for branch in ("time", "freq"):
            snap = np.loadtxt(out / f"affinity_{branch}.csv", delimiter=",")
            assert snap.shape[1] == TRAIN_CFG[f"k_{branch}"]
            np.testing.assert_allclose(snap.sum(axis=1), 1.0, atol=1e-6)

        forecast = workdir / "forecast.csv"
        code = run(["predict", "--ckpt", str(ckpt), "--input", str(workdir / "data.csv"),
                    "--out", str(forecast)])
        assert code == 0
        from tfps.data import load_csv

        f = load_csv(forecast)
        assert f.length == TRAIN_CFG["pred_len"] and f.n_channels == 2

    def test_lr_zero_checkpoint_equals_init(self, workdir):
        cfg = dict(TRAIN_CFG, lr=0.0, max_epochs=1)
        cfg_path = workdir / "cfg0.json"
        cfg_path.write_text(json.dumps(cfg))
        ckpt_path = workdir / "zero.npz"
        assert run(["train", "--config", str(cfg_path), "--data", str(workdir / "data.csv"),
                    "--out", str(ckpt_path), "--quiet"]) == 0
        from tfps.model import TFPSModel

        ckpt = load_checkpoint(ckpt_path)
        init = TFPSModel(ckpt.config, np.random.default_rng(ckpt.config.seed))
        for name, t in init.params.items():
            np.testing.assert_array_equal(ckpt.arrays[name], t.data)

    def test_seed_flag_is_reproducible(self, workdir):
        outs = []
        for name in ("s1.npz", "s2.npz"):
            path = workdir / name
            assert run(["train", "--config", str(workdir / "cfg.json"),
                        "--data", str(workdir / "data.csv"), "--out", str(path),
                        "--seed", "42", "--quiet"]) == 0
            outs.append(load_checkpoint(path))
        for k in outs[0].arrays:
            np.testing.assert_array_equal(outs[0].arrays[k], outs[1].arrays[k])

    def test_bad_config_is_usage_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(dict(TRAIN_CFG, nonsense=True)))
        assert run(["train", "--config", str(bad), "--data", str(workdir / "data.csv"),
                    "--out", str(workdir / "x.npz")]) == 1

    def test_checkpoint_missing_parameter_is_data_error(self, workdir, capsys):
        import dataclasses

        from tfps.trainer import save_checkpoint

        full = workdir / "model.npz"
        assert run(["train", "--config", str(workdir / "cfg.json"), "--data",
                    str(workdir / "data.csv"), "--out", str(full), "--quiet"]) == 0
        ckpt = load_checkpoint(full)
        arrays = {k: v for k, v in ckpt.arrays.items() if k != "head.w"}
        partial = workdir / "partial.npz"
        save_checkpoint(dataclasses.replace(ckpt, arrays=arrays), partial)  # header and payload
        capsys.readouterr()
        code = run(["predict", "--ckpt", str(partial), "--input", str(workdir / "data.csv"),
                    "--out", str(workdir / "forecast.csv")])
        assert code == 2
        assert "head.w" in capsys.readouterr().err
        assert not (workdir / "forecast.csv").exists()

    def test_numeric_failure_exit_code(self, workdir):
        cfg = dict(TRAIN_CFG, lr=1e160, max_epochs=3)
        cfg_path = workdir / "diverge.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--config", str(cfg_path),
                        "--data", str(workdir / "data.csv"),
                        "--out", str(workdir / "d.npz"), "--quiet"])
        assert code == 3


class TestGridCommand:
    def test_two_cell_grid(self, workdir):
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"lr": [0.001, 0.005]}))
        out = workdir / "gridout"
        code = run(["grid", "--config", str(workdir / "cfg.json"),
                    "--grid", str(grid), "--data", str(workdir / "data.csv"),
                    "--out", str(out), "--quiet"])
        assert code == 0
        board = json.loads((out / "leaderboard.json").read_text())
        assert len(board) == 2
        vals = [r["val_mse"] for r in board]
        assert vals == sorted(vals)
        assert (out / "best.npz").exists()
        assert (out / "leaderboard.csv").exists()


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert run(["synth", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err
        # --threads was removed: NumPy sizes its BLAS pools from the environment on import
        assert run(["--threads", "1", "synth", "--spec", "s.json", "--out", "o.csv"]) == 1

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_data_dir_env(self, workdir, monkeypatch, tmp_path):
        monkeypatch.setenv("TFPS_DATA_DIR", str(workdir))
        out = tmp_path / "drift-env"
        code = run(["analyze-drift", "--data", "data.csv", "--patch-len", "8",
                    "--stride", "4", "--domain", "time", "--out", str(out)])
        assert code == 0
