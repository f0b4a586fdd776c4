"""Operator-surface contracts: subcommand pipelines, exit codes, seeds."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from tfps import data, drift, evaluate, trainer
from tfps import model as model_mod
from tfps.cli import run
from tfps.config import config_from_dict
from tfps.model import TFPSModel
from tfps.trainer import CHECKPOINT_VERSION, Checkpoint, load_checkpoint, save_checkpoint

from helpers import savetxt_bytes

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


REGIME = {"length": 300}
VALID_HEADER = {"version": 1, "config": {}, "scaler": None, "history": {}, "arrays": {}}


@pytest.fixture
def workdir(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    data = tmp_path / "data.csv"
    assert run(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    return tmp_path


def untrained_checkpoint(path):
    """Save the freshly initialized TRAIN_CFG model, without a scaler, to `path`."""
    cfg = config_from_dict(TRAIN_CFG)
    arrays = TFPSModel(cfg, np.random.default_rng(cfg.seed)).named_arrays()
    save_checkpoint(Checkpoint(CHECKPOINT_VERSION, cfg, arrays, None, {}), path)
    return path


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

    def test_patch_longer_than_slice_is_usage_error(self, workdir, capsys):
        out = workdir / "x"
        capsys.readouterr()
        code = run(["analyze-drift", "--data", str(workdir / "data.csv"), "--patch-len", "500",
                    "--stride", "8", "--length", "100", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "500" in err and "100" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("header,cause", [
        ("date,a,a", "duplicate channel name 'a'"),
        ("date,a/b", "channel name 'a/b'"),
    ])
    def test_bad_channel_name_is_data_error(self, tmp_path, capsys, header, cause):
        path = tmp_path / "named.csv"
        rows = [",".join([str(t)] + [f"{t % 5}.0"] * header.count(",")) for t in range(40)]
        path.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "drift"
        code = run(["analyze-drift", "--data", str(path), "--patch-len", "8", "--stride", "4",
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and cause in err and "Traceback" not in err
        assert not out.exists()


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

    def test_eval_outputs_do_not_depend_on_forecast_threads(self, workdir, monkeypatch):
        ckpt = untrained_checkpoint(workdir / "model.npz")
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(model_mod, "forecast_workers", lambda: workers)
            out = workdir / f"eval-{workers}"
            assert run(["eval", "--ckpt", str(ckpt), "--data", str(workdir / "data.csv"),
                        "--out", str(out)]) == 0
            names = ["metrics.json", "routing.json", "affinity_time.csv", "affinity_freq.csv"]
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert json.loads(outputs[0]["metrics.json"])["detail"]["n_windows"] > TRAIN_CFG["batch_size"]
        assert outputs[0] == outputs[1]

    def test_eval_builds_its_model_once(self, workdir, monkeypatch):
        ckpt = untrained_checkpoint(workdir / "model.npz")
        built = []
        build = Checkpoint.build_model
        monkeypatch.setattr(Checkpoint, "build_model", lambda self: built.append(1) or build(self))
        assert run(["eval", "--ckpt", str(ckpt), "--data", str(workdir / "data.csv"),
                    "--out", str(workdir / "eval")]) == 0
        assert len(built) == 1

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

    def test_bad_config_is_usage_error(self, workdir, capsys):
        bad = workdir / "bad.json"
        for config, cause in [(dict(TRAIN_CFG, nonsense=True), "nonsense"), ({"lr": "fast"}, "'lr'")]:
            bad.write_text(json.dumps(config))
            capsys.readouterr()
            assert run(["train", "--config", str(bad), "--data", str(workdir / "data.csv"),
                        "--out", str(workdir / "x.npz")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and cause in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("scale", [True, False])
    def test_predict_channel_count_against_checkpoint(self, workdir, capsys, scale):
        from tfps.data import MultivariateSeries, load_csv, save_csv

        cfg_path = workdir / "cfg_scale.json"
        cfg_path.write_text(json.dumps(dict(TRAIN_CFG, scale=scale)))
        ckpt = workdir / "model.npz"
        assert run(["train", "--config", str(cfg_path), "--data", str(workdir / "data.csv"),
                    "--out", str(ckpt), "--quiet"]) == 0
        two = load_csv(workdir / "data.csv")
        one = workdir / "one.csv"
        save_csv(MultivariateSeries(two.timestamps, two.values[:, :1], ("ch0",)), one)
        forecast = workdir / "forecast.csv"
        capsys.readouterr()
        code = run(["predict", "--ckpt", str(ckpt), "--input", str(one), "--out", str(forecast)])
        if scale:  # the scaler fixes the channel count
            assert code == 2
            err = capsys.readouterr().err
            assert "1 channels" in err and "fitted on 2" in err
            assert not forecast.exists()
        else:  # an unscaled model is channel-independent
            assert code == 0
            f = load_csv(forecast)
            assert f.n_channels == 1 and f.length == TRAIN_CFG["pred_len"]

    @pytest.mark.parametrize("denormalized", [False, True])
    def test_eval_channel_count_against_checkpoint(self, workdir, capsys, denormalized):
        from tfps.data import MultivariateSeries, load_csv, save_csv

        ckpt = workdir / "model.npz"
        assert run(["train", "--config", str(workdir / "cfg.json"), "--data",
                    str(workdir / "data.csv"), "--out", str(ckpt), "--quiet"]) == 0
        two = load_csv(workdir / "data.csv")
        three = workdir / "three.csv"
        save_csv(MultivariateSeries(two.timestamps, two.values[:, [0, 1, 0]], ("a", "b", "c")), three)
        out = workdir / "eval"
        capsys.readouterr()
        code = run(["eval", "--ckpt", str(ckpt), "--data", str(three), "--out", str(out)]
                   + ["--denormalized"] * denormalized)
        assert code == 2
        err = capsys.readouterr().err
        assert "3 channels" in err and "fitted on 2" in err and "Traceback" not in err
        assert not out.exists()

    def test_predict_past_year_9999_writes_epoch_stamps(self, workdir):
        from tfps.data import load_csv

        ckpt = workdir / "model.npz"
        assert run(["train", "--config", str(workdir / "cfg.json"), "--data",
                    str(workdir / "data.csv"), "--out", str(ckpt), "--quiet"]) == 0
        series = load_csv(workdir / "data.csv")
        late = workdir / "late.csv"
        rows = [f"{3e11 + 3600 * t!r},{a!r},{b!r}" for t, (a, b) in enumerate(series.values.tolist())]
        late.write_text("\n".join(["date,ch0,ch1", *rows]) + "\n")
        forecast = workdir / "forecast.csv"
        assert run(["predict", "--ckpt", str(ckpt), "--input", str(late), "--out", str(forecast)]) == 0
        last = 3e11 + 3600 * (series.length - 1)
        expected = last + 3600 * np.arange(1, TRAIN_CFG["pred_len"] + 1)
        np.testing.assert_array_equal(load_csv(forecast).timestamps, expected)

    def test_numeric_failure_exit_code(self, workdir):
        cfg = dict(TRAIN_CFG, lr=1e160, max_epochs=3)
        cfg_path = workdir / "diverge.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--config", str(cfg_path),
                        "--data", str(workdir / "data.csv"),
                        "--out", str(workdir / "d.npz"), "--quiet"])
        assert code == 3

    def test_non_finite_validation_exit_code(self, workdir, capsys):
        # one step per epoch, so the blown-up parameters reach validation
        cfg_path = workdir / "diverge.json"
        cfg_path.write_text(json.dumps(dict(TRAIN_CFG, lr=1e150, batch_size=512, max_epochs=1)))
        out = workdir / "d.npz"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--config", str(cfg_path), "--data", str(workdir / "data.csv"),
                        "--out", str(out), "--quiet"])
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: validation MSE diverged at epoch 0: nan\n"
        assert not out.exists()


def test_commands_call_through_module_attributes(workdir, monkeypatch):
    """perfbench/layer_trace.py times these functions by replacing the module
    attributes, so the CLI must look each one up at call time."""
    from tfps import data, drift, evaluate, trainer

    ckpt = workdir / "model.npz"
    assert run(["train", "--config", str(workdir / "cfg.json"), "--data",
                str(workdir / "data.csv"), "--out", str(ckpt), "--quiet"]) == 0
    targets = [(data, "load_csv"), (data, "save_csv"), (trainer, "load_checkpoint"),
               (evaluate, "evaluate_windows"), (evaluate, "routing_report"),
               (drift, "patch_distance_matrix")]
    calls = {}

    def counting(key, fn):
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(f"{module.__name__}.{name}", getattr(module, name)))
    csv = str(workdir / "data.csv")
    assert run(["eval", "--ckpt", str(ckpt), "--data", csv, "--out", str(workdir / "eval")]) == 0
    assert run(["predict", "--ckpt", str(ckpt), "--input", csv, "--out", str(workdir / "f.csv")]) == 0
    assert run(["analyze-drift", "--data", csv, "--patch-len", "16", "--stride", "8",
                "--out", str(workdir / "drift")]) == 0
    assert all(calls.values()), calls


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

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_budget_below_one_is_usage_error(self, workdir, capsys, budget):
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"lr": [0.001, 0.005]}))
        out = workdir / "gridout"
        capsys.readouterr()
        code = run(["grid", "--config", str(workdir / "cfg.json"), "--grid", str(grid),
                    "--data", str(workdir / "data.csv"), "--out", str(out), "--quiet",
                    "--budget", budget])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--budget" in err and "Traceback" not in err
        assert not out.exists()


class TestBoundaryErrors:
    """Malformed specs, grid specs and checkpoint headers end in their
    documented exit code with one named cause, never in a traceback."""

    @pytest.mark.parametrize("spec", [
        {"regimes": [{"length": "300"}]},
        {"regimes": [{"length": 300, "amplitude": "big"}]},
        [1],
        {"regimes": [REGIME], "bogus": 1},
        {"regimes": [REGIME], "start_epoch": 0.0},  # not settable from JSON
        {"regimes": [REGIME], "channels": "2"},
        {"regimes": [REGIME], "seed": -1},
        {"regimes": [REGIME], "channels": 0},
        {"regimes": [REGIME], "step_seconds": 0},
        {"regimes": []},
        {"regimes": [{"length": 0}]},
        {"regimes": [{"length": 300, "amplitude": float("nan")}]},
        {"regimes": [REGIME], "step_seconds": 1e-300},  # too small to move start_epoch
        {"regimes": [REGIME], "step_seconds": 1e308},  # overflows
        {"regimes": [{"length": 3}], "step_seconds": 1e308},  # overflows at the last stamp only
    ])
    @pytest.mark.filterwarnings("error")  # a NumPy warning would print on the command line
    def test_bad_synth_spec(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert run(["synth", "--spec", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad synth spec") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("space,cause", [
        ({}, "non-empty lists"),
        ({"lr": []}, "non-empty lists"),
        ([{"lr": [0.1]}], "non-empty lists"),
        ({"lr": 0.1}, "non-empty lists"),
        ({"bogus": [1]}, "bogus"),
        ({"d_model": ["16"]}, "d_model"),
        ({"top_k": [True]}, "top_k"),
        ({"split_ratios": [[0.5, 0.5]]}, "split_ratios"),
    ])
    def test_bad_grid_spec(self, workdir, capsys, space, cause):
        grid = workdir / "grid.json"
        grid.write_text(json.dumps(space))
        out = workdir / "gridout"
        capsys.readouterr()
        code = run(["grid", "--config", str(workdir / "cfg.json"), "--grid", str(grid),
                    "--data", str(workdir / "data.csv"), "--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and cause in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("what,argv", [
        ("config", ["train", "--config", "INPUT", "--data", "data.csv"]),
        ("grid spec", ["grid", "--config", "cfg.json", "--grid", "INPUT", "--data", "data.csv"]),
        ("synth spec", ["synth", "--spec", "INPUT"]),
    ], ids=["train", "grid", "synth"])
    @pytest.mark.parametrize("fault", ["missing", "directory", "non-utf8", "invalid-json"])
    def test_unreadable_json_input(self, workdir, capsys, monkeypatch, what, argv, fault):
        monkeypatch.chdir(workdir)
        path = workdir / "input.json"
        if fault == "directory":
            path.mkdir()
        elif fault == "non-utf8":
            path.write_bytes(b'{"seed": "\xff"}')
        elif fault == "invalid-json":
            path.write_text("{not json")
        capsys.readouterr()
        assert run([str(path) if a == "INPUT" else a for a in argv] + ["--out", "out"]) == 1
        err = capsys.readouterr().err
        form = "cannot read {} {}: " if fault in ("missing", "directory") else "{} {}: invalid JSON ("
        assert err.startswith("error: " + form.format(what, path)) and err.count("\n") == 1, err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_negative_seed_flag(self, workdir, capsys, command):
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"lr": [0.001]}))
        grid_args = ["--grid", str(grid)] if command == "grid" else []
        capsys.readouterr()
        code = run([command, "--config", str(workdir / "cfg.json"), *grid_args, "--data",
                    str(workdir / "data.csv"), "--out", str(workdir / "out"), "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and "Traceback" not in err

    def test_cross_field_failure_is_a_failed_cell(self, workdir):
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"k_time": [3, 2]}))  # d_model=16 is not divisible by 3
        out = workdir / "gridout"
        assert run(["grid", "--config", str(workdir / "cfg.json"), "--grid", str(grid),
                    "--data", str(workdir / "data.csv"), "--out", str(out), "--quiet"]) == 0
        status = {r["k_time"]: r["status"] for r in json.loads((out / "leaderboard.json").read_text())}
        assert status[2] == "ok" and "k_time" in status[3]

    @pytest.mark.parametrize("header,cause", [
        pytest.param("{not json", "header", id="not-json"),
        pytest.param("[1]", "header", id="not-an-object"),
        *(pytest.param(json.dumps({k: v for k, v in VALID_HEADER.items() if k != key}), key,
                       id=f"no-{key}") for key in ("scaler", "config", "history", "arrays")),
        pytest.param(json.dumps(dict(VALID_HEADER, config={"d_model": "128"})), "d_model",
                     id="config-type"),
        pytest.param(json.dumps(dict(VALID_HEADER, config={"bogus": 1})), "bogus", id="config-key"),
        pytest.param(json.dumps(dict(VALID_HEADER, scaler={"mean": [0.0]})), "std", id="no-scaler-std"),
    ])
    def test_bad_checkpoint_header(self, workdir, capsys, header, cause):
        ckpt = workdir / "bad.npz"
        with open(ckpt, "wb") as fh:
            np.savez(fh, __header__=np.frombuffer(header.encode(), dtype=np.uint8))
        forecast = workdir / "forecast.csv"
        capsys.readouterr()
        code = run(["predict", "--ckpt", str(ckpt), "--input", str(workdir / "data.csv"),
                    "--out", str(forecast)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt) in err and cause in err
        assert "Traceback" not in err
        assert not forecast.exists()

    @pytest.mark.parametrize("dtype", ["str", "object", "complex"])
    @pytest.mark.filterwarnings("error")  # a ComplexWarning would print on the command line
    def test_non_float_checkpoint_array(self, workdir, capsys, dtype):
        ckpt = untrained_checkpoint(workdir / "model.npz")
        with np.load(ckpt) as npz:
            payload = {k: npz[k] for k in npz.files}
        w = payload["array/head.w"]
        payload["array/head.w"] = {"str": w.astype(str), "object": w.astype(object), "complex": w + 1j}[dtype]
        with open(ckpt, "wb") as fh:
            np.savez(fh, **payload)
        forecast = workdir / "forecast.csv"
        capsys.readouterr()
        code = run(["predict", "--ckpt", str(ckpt), "--input", str(workdir / "data.csv"),
                    "--out", str(forecast)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt) in err and "'head.w'" in err
        assert err.count("\n") == 1
        assert not forecast.exists()

    def test_corrupt_zip_directory_is_data_error(self, workdir, capsys):
        """Flip each byte of the end-of-central-directory record in turn. The
        3rd and 4th from the end are the high bytes of the central directory's
        offset: flipped, they used to make a member read raise OSError(EINVAL),
        reported as an unwritable output named None."""
        ckpt = untrained_checkpoint(workdir / "model.npz")
        good = ckpt.read_bytes()
        forecast, evaldir = workdir / "forecast.csv", workdir / "eval"
        for at in range(len(good) - 22, len(good)):
            ckpt.write_bytes(good[:at] + bytes([good[at] ^ 0xFF]) + good[at + 1:])
            for argv, out in [(["predict", "--input", str(workdir / "data.csv")], forecast),
                              (["eval", "--data", str(workdir / "data.csv")], evaldir)]:
                capsys.readouterr()
                code = run([*argv, "--ckpt", str(ckpt), "--out", str(out)])
                err = capsys.readouterr().err
                assert code in (0, 2) and "None" not in err, (at - len(good), argv[0], err)
                if code == 2:
                    assert err.startswith("data error:") and str(ckpt) in err
                    assert not out.exists()
                elif out.is_dir():  # the next flip must not find this run's output
                    shutil.rmtree(out)
                else:
                    out.unlink()


def no_temp_files(root) -> bool:
    return not any(root.rglob("*.tmp"))


def forbidden(*args, **kwargs):
    pytest.fail("the command did its work before checking --out")


class TestUnwritableOutput:
    """An output that cannot be written is exit 1, naming the path the user
    gave, with no traceback and no temporary file left behind."""

    def test_synth_into_missing_directory(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYNTH_SPEC))
        out = tmp_path / "missing_dir" / "x.csv"
        assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert no_temp_files(tmp_path)

    def test_predict_out_names_a_directory(self, workdir, capsys):
        ckpt = untrained_checkpoint(workdir / "model.npz")
        out = workdir / "forecast"
        out.mkdir()
        capsys.readouterr()
        code = run(["predict", "--ckpt", str(ckpt), "--input", str(workdir / "data.csv"),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert out.is_dir() and not any(out.iterdir())
        assert no_temp_files(workdir)

    def test_eval_out_names_a_file(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(evaluate, "evaluate_windows", forbidden)
        ckpt = untrained_checkpoint(workdir / "model.npz")
        out = workdir / "metrics"
        out.write_text("keep\n")
        capsys.readouterr()
        code = run(["eval", "--ckpt", str(ckpt), "--data", str(workdir / "data.csv"),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: File exists\n"
        assert out.read_text() == "keep\n"
        assert no_temp_files(workdir)

    def test_grid_out_names_a_file(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "grid_search", forbidden)
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"lr": [0.001]}))
        out = workdir / "gridout"
        out.write_text("keep\n")
        capsys.readouterr()
        code = run(["grid", "--config", str(workdir / "cfg.json"), "--grid", str(grid),
                    "--data", str(workdir / "data.csv"), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: File exists\n"
        assert out.read_text() == "keep\n"


def test_matrix_outputs_match_savetxt(workdir):
    """drift_*.csv and affinity_*.csv hold the bytes np.savetxt writes for the
    matrices that drift and the routing report compute."""
    csv = workdir / "data.csv"
    series = data.load_csv(csv)
    out = workdir / "drift"
    assert run(["analyze-drift", "--data", str(csv), "--patch-len", "16", "--stride", "8",
                "--domain", "both", "--out", str(out)]) == 0
    for c, name in enumerate(series.channel_names):
        for domain in ("time", "frequency"):
            m = drift.patch_distance_matrix(series.values[:, c], 16, 8, domain)
            assert (out / f"drift_{name}_{domain}.csv").read_bytes() == savetxt_bytes(m)

    ckpt = untrained_checkpoint(workdir / "model.npz")
    out = workdir / "eval"
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(csv), "--seed", "3", "--out", str(out)]) == 0
    cfg = config_from_dict(TRAIN_CFG)
    train_s, _, test_s = data.split(series, cfg.split_ratios)
    test_w = data.make_windows(data.apply_scaler(test_s, data.fit_scaler(train_s)), cfg.seq_len, cfg.pred_len)
    affinities = {}
    evaluate.routing_report(load_checkpoint(ckpt).build_model(), test_w, seed=3, affinity_out=affinities)
    assert set(affinities) == {"time", "freq"}
    for branch, m in affinities.items():
        assert (out / f"affinity_{branch}.csv").read_bytes() == savetxt_bytes(m)


def test_every_output_is_written_atomically(workdir, monkeypatch):
    """Every file that eval, grid and analyze-drift leave in --out went
    through data.atomic_write, the one writer that never leaves a truncated
    file; checkpoints reach it through trainer's own binding."""
    written = set()

    def recording(path, *args, **kwargs):
        written.add(Path(path).resolve())
        return real(path, *args, **kwargs)

    real = data.atomic_write
    monkeypatch.setattr(data, "atomic_write", recording)
    monkeypatch.setattr(trainer, "atomic_write", recording)
    ckpt = untrained_checkpoint(workdir / "model.npz")
    grid = workdir / "grid.json"
    grid.write_text(json.dumps({"lr": [0.001]}))
    csv = str(workdir / "data.csv")
    commands = {
        "eval": ["--ckpt", str(ckpt), "--data", csv, "--denormalized"],
        "grid": ["--config", str(workdir / "cfg.json"), "--grid", str(grid), "--data", csv, "--quiet"],
        "analyze-drift": ["--data", csv, "--patch-len", "16", "--stride", "8"],
    }
    for command, args in commands.items():
        out = workdir / f"{command}-out"
        assert run([command, *args, "--out", str(out)]) == 0
        landed = {p.resolve() for p in out.iterdir()}
        assert len(landed) >= 3 and landed <= written, (command, sorted(landed - written))


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert run(["synth", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err
        # --threads was removed: NumPy sizes its BLAS pools from the environment on import
        assert run(["--threads", "1", "synth", "--spec", "s.json", "--out", "o.csv"]) == 1
        # predict --seed was removed: a forecast draws no random numbers
        assert run(["predict", "--ckpt", "m.npz", "--input", "d.csv", "--out", "f.csv", "--seed", "1"]) == 1

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_data_dir_env(self, workdir, monkeypatch, tmp_path):
        monkeypatch.setenv("TFPS_DATA_DIR", str(workdir))
        out = tmp_path / "drift-env"
        code = run(["analyze-drift", "--data", "data.csv", "--patch-len", "8",
                    "--stride", "4", "--domain", "time", "--out", str(out)])
        assert code == 0
