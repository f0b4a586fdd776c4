"""Set-up, timed operations and output checks of the three tfps benchmark
workloads. ``run.py`` pins the BLAS pools and then calls ``run()``.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned. The program only ever sees the generated CSV,
configs and checkpoints. Calls go through module attributes
(``trainer.train``, ``cli.run``) so that the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tfps import autodiff as ad
from tfps import cli, data, drift, trainer
from tfps.config import TrainConfig
from tfps.model import TFPSModel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SERIES_ROWS = {"full": 17_420, "tiny": 1_200}  # ETTh1 has 17,420 hourly rows
CHANNELS = 7
TRAIN_TO_VAL = 3.1  # ETTh1's train:val window ratio
# Set-ups per untraced run, spread over the run: machine speed on the measuring
# host drifts over tens of seconds, and back-to-back repeats sample one moment.
SETUP_REPEATS = 11
SAVES_PER_CALL = 5  # a d_model=128 checkpoint saves in ~13 ms; one sample is noise
MIN_TRAIN_CALLS = 5
PREDICT_BATCH = 5
REFERENCE_EPOCHS = 3
# The reference trajectory tolerates summation-order changes (a flattened
# GEMM, np.fft for the radix-2 kernel), which move these losses by ~1e-12
# relative; a wrong gradient or optimizer step moves them by far more.
REFERENCE_RTOL = 1e-8
ORACLE_RTOL = 1e-9
DRIFT_SAMPLES = 8
CHECK_TEST_WINDOWS = 3

BASE = dict(seq_len=96, pred_len=96, patch_len=16, stride=8, n_layers=2, n_heads=8,
            batch_size=32, max_epochs=1)
# per workload: config, and the train windows of one timed train() call
WORKLOADS = {
    "train-paper": dict(
        config=dict(d_model=512, k_time=4, k_freq=4, top_k=2),
        train_windows={"full": 32, "tiny": 16},
    ),
    "train-reduced": dict(
        config=dict(d_model=128, k_time=2, k_freq=2, top_k=2),
        train_windows={"full": 64, "tiny": 16},
    ),
    "infer-analyze": dict(
        config=dict(d_model=128, k_time=4, k_freq=4, top_k=2),
    ),
}
TINY_CONFIG = dict(d_model=16, batch_size=8)


# -- inputs -------------------------------------------------------------------


def workload_config(workload: str, size: str, seed: int) -> TrainConfig:
    overrides = dict(BASE, **WORKLOADS[workload]["config"], seed=seed)
    if size == "tiny":
        overrides.update(TINY_CONFIG)
    return TrainConfig(**overrides)


def synth_spec(seed: int, rows: int) -> data.SynthSpec:
    """Five hourly regimes with seeded amplitude, period, trend, noise and
    level, so drift and routing have structure to find."""
    rng = np.random.default_rng(seed)
    n_regimes = 5
    lengths = [rows // n_regimes] * n_regimes
    lengths[-1] += rows - sum(lengths)
    periods = (12.0, 24.0, 48.0, 168.0)
    regimes = tuple(
        data.RegimeSpec(
            length=length,
            amplitude=float(rng.uniform(0.5, 3.0)),
            frequency=1.0 / float(rng.choice(periods)),
            trend=float(rng.normal(0.0, 2e-4)),
            noise=float(rng.uniform(0.1, 0.6)),
            offset=float(rng.normal(0.0, 2.0)),
        )
        for length in lengths
    )
    return data.SynthSpec(regimes=regimes, channels=CHANNELS, seed=seed)


@dataclasses.dataclass
class Prepared:
    cfg: TrainConfig
    csv_path: Path
    series: data.MultivariateSeries
    scaler: data.Scaler
    windows: tuple  # train, val, test window lists
    ckpt_path: Path | None


def scaled_windows(series: data.MultivariateSeries, cfg: TrainConfig) -> tuple[data.Scaler, tuple]:
    """Split, fit the scaler on train, and window every part, as the CLI does."""
    parts = data.split(series, cfg.split_ratios, min_length=cfg.seq_len + cfg.pred_len)
    scaler = data.fit_scaler(parts[0])
    return scaler, tuple(
        data.make_windows(data.apply_scaler(p, scaler), cfg.seq_len, cfg.pred_len) for p in parts
    )


def prepare(workload: str, size: str, seed: int, workdir: Path) -> Prepared:
    """The timed set-up: synth series, CSV write and read, split, scaler,
    windows, and model init (train-*) or checkpoint save (infer-analyze)."""
    cfg = workload_config(workload, size, seed)
    series, _ = data.synth_generate(synth_spec(seed, SERIES_ROWS[size]))
    csv_path = workdir / "series.csv"
    data.save_csv(series, csv_path)
    series = data.load_csv(csv_path)
    scaler, windows = scaled_windows(series, cfg)
    model = TFPSModel(cfg)
    ckpt_path = None
    if workload == "infer-analyze":
        ckpt_path = workdir / "model.npz"
        ckpt = trainer.Checkpoint(trainer.CHECKPOINT_VERSION, cfg, model.named_arrays(), scaler, {})
        trainer.save_checkpoint(ckpt, ckpt_path)
    return Prepared(cfg, csv_path, series, scaler, windows, ckpt_path)


class SetupClock:
    """Times the set-up: once at the start, for the Prepared the run uses, and
    then again at chosen points of the run, discarding the result, until
    `repeats` set-ups are timed."""

    def __init__(self, workload: str, size: str, seed: int, workdir: Path, repeats: int):
        self.args = (workload, size, seed)
        self.workdir = workdir
        self.repeats = repeats
        self.times: list[float] = []

    def first(self) -> Prepared:
        start = time.perf_counter()
        prep = prepare(*self.args, self.workdir)
        self.times.append(time.perf_counter() - start)
        return prep

    def again(self) -> float:
        """Time one more set-up if any are due; return the wall seconds spent."""
        if len(self.times) >= self.repeats:
            return 0.0
        spare = self.workdir / "setup"
        spare.mkdir(exist_ok=True)
        start = time.perf_counter()
        prepare(*self.args, spare)
        self.times.append(time.perf_counter() - start)
        shutil.rmtree(spare, ignore_errors=True)
        return time.perf_counter() - start


def train_subset(prep: Prepared, n_train: int, seed: int) -> tuple[list, list]:
    """Seeded contiguous runs of train and val windows in ETTh1's ratio."""
    rng = np.random.default_rng(seed)
    train_w, val_w, _ = prep.windows
    n_val = max(1, round(n_train / TRAIN_TO_VAL))
    lo_t = int(rng.integers(0, len(train_w) - n_train + 1))
    lo_v = int(rng.integers(0, len(val_w) - n_val + 1))
    return train_w[lo_t : lo_t + n_train], val_w[lo_v : lo_v + n_val]


# -- operations and checks ------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations. An operation fails when it
    raises, or when its check returns a reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, fn, check=None):
        """Run `fn` once; return (result or None, wall seconds of `fn`)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn()
        except Exception:
            seconds = time.perf_counter() - start
            self.failed += 1
            print(f"operation {name} raised:", file=sys.stderr)
            traceback.print_exc()
            return None, seconds
        seconds = time.perf_counter() - start
        reason = None
        if check is not None:
            try:
                reason = check(value)
            except Exception as e:
                reason = f"check raised {e!r}"
        if reason:
            self.failed += 1
            print(f"operation {name} failed its check: {reason}", file=sys.stderr)
        return value, seconds


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * abs(b)


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def check_history(expected: dict | None):
    """Losses must be finite, and equal `expected` (a history from the same
    inputs in this process) when given."""

    def check(ckpt) -> str | None:
        values = ckpt.history["train_loss"] + ckpt.history["val_mse"]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite loss in {ckpt.history}"
        if expected is not None:
            ref = expected["train_loss"] + expected["val_mse"]
            if not all(close(v, r, 1e-12) for v, r in zip(values, ref)):
                return f"same inputs gave a different history: {values} vs {ref}"
        return None

    return check


def reference_run(workload: str) -> list[float]:
    """Per-epoch train_loss of a fixed small problem with the workload's
    routing; compared against ``reference.json``."""
    cfg = dataclasses.replace(
        workload_config(workload, "tiny", 0), d_model=32, batch_size=16, max_epochs=REFERENCE_EPOCHS
    )
    series, _ = data.synth_generate(synth_spec(0, SERIES_ROWS["tiny"]))
    scaler, (train_w, val_w, _) = scaled_windows(series, cfg)
    ckpt = trainer.train(cfg, train_w[:32], val_w[:10], scaler)
    return ckpt.history["train_loss"]


def check_reference(workload: str):
    def check(losses: list[float]) -> str | None:
        expected = json.loads(REFERENCE.read_text())[workload]
        if len(losses) != len(expected) or not all(
            close(v, r, REFERENCE_RTOL) for v, r in zip(losses, expected)
        ):
            return f"train_loss {losses} departs from reference {expected}"
        return None

    return check


def check_checkpoint_round_trip(ckpt, path: Path) -> str | None:
    loaded = trainer.load_checkpoint(path)
    if set(loaded.arrays) != set(ckpt.arrays) or not all(
        np.array_equal(loaded.arrays[k], v) for k, v in ckpt.arrays.items()
    ):
        return "checkpoint arrays changed in a save/load round trip"
    return None


def check_forecast(path: Path, cfg: TrainConfig) -> str | None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if len(header) != CHANNELS + 1 or len(body) != cfg.pred_len:
        return f"forecast is {len(body)} rows x {len(header) - 1} channels"
    if any(len(r) != CHANNELS + 1 or not all(math.isfinite(float(v)) for v in r[1:]) for r in body):
        return "forecast has a malformed or non-finite row"
    return None


def check_eval(outdir: Path, n_windows: int) -> str | None:
    detail = json.loads((outdir / "metrics.json").read_text())["detail"]
    if detail["n_windows"] != n_windows or not math.isfinite(detail["mse"]):
        return f"eval reported {detail}"
    if not (outdir / "routing.json").is_file():
        return "eval wrote no routing report"
    return None


def check_eval_mse(prep: Prepared, workdir: Path) -> str | None:
    """Run eval on a short tail of the series whose test split holds a few
    windows, and compare its MSE with a window-by-window forward pass."""
    cfg = prep.cfg
    # floor(0.2 * rows) test rows give CHECK_TEST_WINDOWS windows
    rows = math.ceil((cfg.seq_len + cfg.pred_len + CHECK_TEST_WINDOWS - 1) / cfg.split_ratios[2])
    tail = data.MultivariateSeries(
        prep.series.timestamps[-rows:], prep.series.values[-rows:], prep.series.channel_names
    )
    path = workdir / "check_series.csv"
    data.save_csv(tail, path)
    outdir = workdir / "check_eval"
    if quiet_cli(["eval", "--ckpt", str(prep.ckpt_path), "--data", str(path), "--out", str(outdir)]):
        return "eval exited non-zero"
    reported = json.loads((outdir / "metrics.json").read_text())["detail"]["mse"]
    _, (_, _, windows) = scaled_windows(tail, cfg)
    model = trainer.load_checkpoint(prep.ckpt_path).build_model()
    with ad.no_grad():
        errs = [(model.forward(w.input[None]).yhat.data[0] - w.target) ** 2 for w in windows]
    recomputed = float(np.mean(errs))
    if len(windows) != CHECK_TEST_WINDOWS or not close(reported, recomputed, ORACLE_RTOL):
        return f"eval MSE {reported} != recomputed {recomputed} over {len(windows)} windows"
    return None


def check_drift(outdir: Path, prep: Prepared, seed: int) -> str | None:
    """A seeded sample of entries of both matrices against the merged-support
    W1 oracle; spectra for the oracle come from np.fft."""
    cfg = prep.cfg
    channel = prep.series.values[:, 0]
    starts = np.arange(0, channel.size - cfg.patch_len + 1, cfg.stride)
    patches = np.stack([channel[s : s + cfg.patch_len] for s in starts])
    rng = np.random.default_rng(seed)
    for domain, samples in (("time", patches), ("frequency", np.abs(np.fft.rfft(patches, axis=1)))):
        pairs = {tuple(p) for p in rng.integers(0, len(starts), size=(DRIFT_SAMPLES, 2))}
        wanted = {i for i, _ in pairs}
        rows = {}
        with open(outdir / f"drift_ch0_{domain}.csv") as fh:
            for i, line in enumerate(fh):
                if i in wanted:
                    rows[i] = line.split(",")
                    if len(rows) == len(wanted):
                        break
        if len(rows) != len(wanted) or any(len(r) != len(starts) for r in rows.values()):
            return f"{domain} matrix is not {len(starts)} x {len(starts)}"
        for i, j in pairs:
            got = float(rows[i][j])
            expected = drift.wasserstein_1d(samples[i], samples[j])
            if not close(got, expected, ORACLE_RTOL, atol=1e-12):
                return f"{domain}[{i},{j}] = {got}, oracle {expected}"
    return None


# -- workloads ------------------------------------------------------------------


def bytes_under(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_train(workload, size, prep, setups, seed, seconds, workdir, ledger, tracer) -> dict:
    """Timed train() calls, each one epoch over the same seeded subset, each
    followed by checkpoint saves and, while any are due, a timed set-up. The
    set-ups do not count against `seconds`."""
    cfg = prep.cfg
    sub_train, sub_val = train_subset(prep, WORKLOADS[workload]["train_windows"][size], seed)
    steps = math.ceil(len(sub_train) / cfg.batch_size)
    ckpt_path = workdir / "trained.npz"

    ledger.op("reference", lambda: reference_run(workload), check_reference(workload))
    warm, _ = ledger.op("train", lambda: trainer.train(cfg, sub_train, sub_val, prep.scaler),
                        check_history(None))  # untimed warm-up
    check = check_history(warm.history if warm is not None else None)

    def train_call(saves: list[float] | None = None) -> float:
        ckpt, secs = ledger.op("train", lambda: trainer.train(cfg, sub_train, sub_val, prep.scaler), check)
        for _ in range(SAVES_PER_CALL if ckpt is not None and saves is not None else 0):
            saves.append(ledger.op("save", lambda: trainer.save_checkpoint(ckpt, ckpt_path),
                                   lambda _: check_checkpoint_round_trip(ckpt, ckpt_path))[1])
        return secs

    if tracer is None:
        calls, saves = [], []
        start = time.perf_counter()
        while len(calls) < MIN_TRAIN_CALLS or time.perf_counter() - start < seconds:
            calls.append(train_call(saves))
            start += setups.again()
        while setups.again():
            pass
        return {
            "windows_per_s": statistics.median(len(sub_train) / c for c in calls),
            "call_s.p50": statistics.median(calls),
            "output_s": statistics.median(saves),
        }
    # plain and traced calls alternate, so that drift in machine speed hits both
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(train_call())
        tracer.install()
        try:
            traced.append(train_call())
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics(per=steps * len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["cli.bytes_written"] = 0.0
    return metrics


def run_infer(prep, setups, seed, seconds, workdir, ledger, tracer) -> dict:
    """Batches of predict, two analyze-drift calls and one eval, all through
    cli.run on the files written during set-up, each followed by a timed
    set-up while any are due.

    Machine speed on the measuring host drifts by up to ±25% over tens of
    seconds, so the predict and analyze-drift samples are split between the
    start and the end of the run instead of being taken back to back."""
    cfg = prep.cfg
    n_test = len(prep.windows[2])
    ckpt, series = str(prep.ckpt_path), str(prep.csv_path)
    eval_dir, forecast, drift_dir = workdir / "eval", workdir / "forecast.csv", workdir / "drift"
    eval_argv = ["eval", "--ckpt", ckpt, "--data", series, "--out", str(eval_dir), "--seed", str(seed)]
    predict_argv = ["predict", "--ckpt", ckpt, "--input", series, "--out", str(forecast)]
    drift_argv = ["analyze-drift", "--data", series, "--patch-len", str(cfg.patch_len),
                  "--stride", str(cfg.stride), "--channels", "ch0", "--domain", "both",
                  "--out", str(drift_dir), "--seed", str(seed)]

    def cli_op(name, argv, check) -> float:
        return ledger.op(name, lambda: quiet_cli(argv),
                         lambda rc: f"exit code {rc}" if rc else check())[1]

    # Each call's output is removed before it, so a call that writes nothing
    # fails its check instead of passing on an earlier call's file.
    def eval_op() -> float:
        shutil.rmtree(eval_dir, ignore_errors=True)
        return cli_op("eval", eval_argv, lambda: check_eval(eval_dir, n_test))

    def predict_op() -> float:
        forecast.unlink(missing_ok=True)
        return cli_op("predict", predict_argv, lambda: check_forecast(forecast, cfg))

    def drift_op() -> tuple[float, int]:
        secs = cli_op("analyze-drift", drift_argv, lambda: check_drift(drift_dir, prep, seed))
        written = bytes_under(drift_dir) if drift_dir.exists() else 0
        shutil.rmtree(drift_dir, ignore_errors=True)  # 226 MB at full size
        return secs, written

    predict_op()  # untimed warm-up
    ledger.op("eval-mse-check", lambda: check_eval_mse(prep, workdir), lambda reason: reason)

    if tracer is None:
        start = time.perf_counter()
        predicts, drifts = [], []
        for step in ("predict", "predict", "drift", "predict", "predict", "eval", "drift", "predict", "predict"):
            if step == "predict":
                predicts += [predict_op() for _ in range(PREDICT_BATCH)]
            elif step == "drift":
                drifts.append(drift_op()[0])
            else:
                eval_s = eval_op()
            start += setups.again()
        while time.perf_counter() - start < seconds:
            predicts.append(predict_op())
        while setups.again():
            pass
        return {
            "windows_per_s": n_test / eval_s,
            "call_s.p50": statistics.median(predicts),
            "output_s": statistics.median(drifts),
        }
    # eval makes nearly all wrapped calls, so it alone gauges the overhead
    plain_eval_s = eval_op()
    tracer.install()
    try:
        traced_eval_s = eval_op()
        predict_op()
        _, drift_bytes = drift_op()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(per=1)
    metrics["trace.overhead_frac"] = traced_eval_s / plain_eval_s - 1.0
    metrics["cli.bytes_written"] = float(bytes_under(eval_dir) + bytes_under(forecast) + drift_bytes)
    return metrics


def environment(threads_env: str | None) -> dict:
    """What the figures depend on, recorded with every result."""
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": threads_env,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def blas_threads() -> int | None:
    """Ask the OpenBLAS library mapped into this process for its pool size."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return int(fn())
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, workdir: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return (environment, result)."""
    tracer = None
    if trace:
        from layer_trace import Tracer

        tracer = Tracer()
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        setups = SetupClock(workload, size, seed, workdir, 1 if trace else SETUP_REPEATS)
        prep = setups.first()
        if workload == "infer-analyze":
            metrics = run_infer(prep, setups, seed, seconds, workdir, ledger, tracer)
        else:
            metrics = run_train(workload, size, prep, setups, seed, seconds, workdir, ledger, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        metrics["setup_s"] = statistics.median(setups.times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return environment(os.environ.get("OPENBLAS_NUM_THREADS")), result
