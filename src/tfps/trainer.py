"""Optimization: Adam over the combined forecast + identifier loss, early
stopping on validation MSE, grid search, and a self-describing checkpoint
container (named float64 arrays plus a JSON header)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from . import pattern
from .autodiff import Tensor
from .config import TrainConfig, check_value, config_from_dict
from .data import Scaler, Windows, atomic_write
from .errors import DataError, NumericError
from .evaluate import mse
from .model import Forward, TFPSModel, on_threads

CHECKPOINT_VERSION = 2  # version 1 headers also held an `arrays` shape map and a scaler `degenerate` list


def total_loss(
    model: TFPSModel, x: np.ndarray, y: np.ndarray, training: bool = False,
    rng: np.random.Generator | None = None, s_hat: dict[str, np.ndarray] | None = None,
) -> tuple[Tensor, Forward, dict]:
    """The training objective on one batch: forecast MSE (mean over every
    horizon/channel entry) plus each branch's identifier loss, with the forward
    pass and the float parts mse, pi_time and pi_freq. `s_hat` maps a branch
    name to a fixed refinement target (gradient checks); by default the target
    is refined from the live affinities."""
    fwd = model.forward(x, training=training, rng=rng)
    loss, parts = shard_loss(model, fwd, y, len(x), model.cfg.alpha, s_hat or {})
    return loss, fwd, parts


def shard_loss(
    model: TFPSModel, fwd: Forward, y: np.ndarray, windows: int, alpha: float, s_hat: dict[str, np.ndarray],
) -> tuple[Tensor, dict]:
    """`total_loss` of the shard `fwd` of a batch of `windows` windows: its
    forecast MSE weighted by its share of the batch, plus each branch's
    identifier loss with regularizer weight `alpha` and refinement targets
    `s_hat`, and the float parts, mse weighted the same way. Over the shards
    of a batch, with `alpha` on one of them, the losses sum to the batch's
    `total_loss`."""
    y = np.asarray(y, dtype=np.float64)
    share = len(y) / windows
    parts = {"mse": mse(fwd.yhat.data, y) * share}  # checks the shapes before any tape op
    pi: dict[str, Tensor | float] = {"time": 0.0, "freq": 0.0}
    for name, s in fwd.s.items():
        pi[name] = model.branches[name].pi_loss(s, alpha, model.cfg.beta, s_hat.get(name))
    parts.update({f"pi_{k}": float(v.data) if isinstance(v, Tensor) else v for k, v in pi.items()})
    err = fwd.yhat - y
    return (err * err).mean() * share + pi["time"] + pi["freq"], parts


def train_step(
    model: TFPSModel, xs: np.ndarray, ys: np.ndarray, rng: np.random.Generator | None = None,
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """One training batch's gradient, keyed by parameter name (a parameter
    no shard reaches has no entry), and each shard's float loss parts with
    its `loss`. The batch is cut into one contiguous shard per
    `forecast_workers()` thread, no more than it has windows, or kept whole
    when batch norm trains or dropout is on; `on_threads` runs every shard
    on `model`.

    The forward passes run first. The refinement target's column sums couple
    the whole batch, so it is refined from the shards' affinities together
    and each shard takes its rows. Then each shard builds its `shard_loss`
    (the regularizer counts once, on shard 0) and backpropagates it, and the
    shards' gradients are summed in shard order, so that the sum does not
    depend on thread timing. With one shard this is `total_loss` bit for bit."""
    cfg, windows = model.cfg, len(xs)
    # batch statistics and the dropout masks' draw order need the whole batch on one model
    shards = min(model_mod.forecast_workers(), windows) if not model.norm_stats and cfg.dropout == 0 else 1
    xs, ys = np.array_split(xs, shards), np.array_split(ys, shards)
    fwds = on_threads(lambda k: model.forward(xs[k], training=True, rng=rng), shards)
    targets: list[dict[str, np.ndarray]] = [{} for _ in fwds]
    if cfg.pi_mode == "subspace" and cfg.beta > 0:
        for name in model.branches:
            rows = [f.s[name].data for f in fwds]
            ends = np.cumsum([len(r) for r in rows])[:-1]
            for target, part in zip(targets, np.split(pattern.refine(np.concatenate(rows)), ends)):
                target[name] = part

    def backprop(k: int) -> tuple[dict, dict]:
        loss, parts = shard_loss(model, fwds[k], ys[k], windows, cfg.alpha if k == 0 else 0.0, targets[k])
        return loss.backward(), {**parts, "loss": float(loss.data)}

    shard_grads, parts = zip(*on_threads(backprop, shards))
    grads: dict[str, np.ndarray] = {}
    for leaves in shard_grads:  # popped, so each shard's array goes once it is summed
        for name, p in model.params.items():
            if (g := leaves.pop(p.node, None)) is not None:
                grads[name] = grads[name] + g if name in grads else g
    return grads, list(parts)


class Adam:
    """Standard Adam with bias correction, its moments keyed by parameter
    name; checkpoints do not store them. A step updates, in place, the
    array of each parameter it is given a gradient of."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            self.params[name].data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    arrays: dict[str, np.ndarray]
    scaler: Scaler | None
    history: dict = field(default_factory=dict)

    def build_model(self) -> TFPSModel:
        """The model whose parameters and running stats are this checkpoint's float64 arrays."""
        return TFPSModel(self.config, arrays=self.arrays)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write `ckpt` to exactly `path`, atomically (see data.atomic_write): a
    save that fails part-way leaves any previous checkpoint intact."""
    scaler = ckpt.scaler
    header = {
        "version": ckpt.version,
        "config": ckpt.config.to_dict(),
        "scaler": None if scaler is None else {"mean": scaler.mean.tolist(), "std": scaler.std.tolist()},
        "history": ckpt.history,
    }
    payload = {f"array/{k}": v for k, v in ckpt.arrays.items()}
    payload["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with atomic_write(path, "wb") as fh:  # a file object: np.savez would append .npz to a name
        np.savez(fh, **payload)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint's header and each `array/<key>` member as a finite
    float array; any fault in the file is a DataError naming it. The model
    built on the arrays checks their names and shapes. Version 1 headers'
    `arrays` shape map and scaler `degenerate` flags are ignored."""
    # a BadZipFile is a bad CRC, an OSError a bad offset, a NotImplementedError a zip version or compression
    unreadable = (OSError, ValueError, zipfile.BadZipFile, NotImplementedError)
    try:
        npz = np.load(path)
    except unreadable as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    with npz:
        if "__header__" not in npz:
            raise DataError(f"{path}: not a checkpoint (missing header)")
        try:
            header = json.loads(bytes(npz["__header__"]).decode())
            if header.get("version") not in (1, CHECKPOINT_VERSION):
                raise DataError(f"unsupported checkpoint version {header.get('version')}")
            scaler = header["scaler"]
            ckpt = Checkpoint(
                version=header["version"],
                config=config_from_dict(header["config"]),
                arrays={},
                scaler=None if scaler is None else Scaler(scaler["mean"], scaler["std"]),
                history=header["history"],
            )
        except (KeyError, TypeError, AttributeError, *unreadable) as e:  # a DataError is a ValueError
            cause = f"missing {e}" if isinstance(e, KeyError) else e
            raise DataError(f"{path}: bad checkpoint header: {cause}") from None
        for key in [m.removeprefix("array/") for m in npz.files if m.startswith("array/")]:
            try:
                arr = np.asarray(npz[f"array/{key}"])  # a member that is not .npy reads as bytes
            except unreadable as e:  # pickle needed, a bad offset or CRC, an unknown compression
                raise DataError(f"{path}: array {key!r} cannot be read: {e}") from None
            if arr.dtype.kind != "f":
                raise DataError(f"{path}: array {key!r} has dtype {arr.dtype}, expected float")
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: array {key!r} holds a non-finite value")
            ckpt.arrays[key] = arr.astype(np.float64, copy=False)
    return ckpt


def validation_mse(model: TFPSModel, windows: Windows) -> float:
    """Mean squared error over all validation entries, deterministic order, in
    batches of the model config's `batch_size`."""
    if not windows:
        raise DataError("empty validation set")
    return mse(model.forecast(windows.inputs), windows.targets)


def train(
    cfg: TrainConfig,
    train_windows: Windows,
    val_windows: Windows,
    scaler: Scaler | None = None,
    progress=None,
) -> Checkpoint:
    """Mini-batch Adam with early stopping on validation MSE; returns the best
    parameters seen. `train_step` takes each step on the batch's shards.
    Deterministic for a fixed config seed and worker count; runs at different
    worker counts differ in rounding."""
    if not train_windows or not val_windows:
        raise DataError("training and validation window sets must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    model = TFPSModel(cfg, rng)
    opt = Adam(model.params, lr=cfg.lr)
    history: dict = {"train_loss": [], "train_mse": [], "val_mse": [], "best_epoch": None}
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        epoch_loss = 0.0
        epoch_mse = 0.0
        n_batches = 0
        order = rng.permutation(len(train_windows))
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            grads, parts = train_step(model, train_windows.inputs[idx], train_windows.targets[idx], rng)
            value = sum(shard["loss"] for shard in parts)
            if not np.isfinite(value):
                raise NumericError(f"loss diverged at epoch {epoch}, batch {n_batches}: {value}")
            for name in model.params:  # a finite loss can still backpropagate a NaN or inf
                if name in grads and not np.isfinite(grads[name]).all():
                    raise NumericError(f"gradient of {name} is not finite at epoch {epoch}, batch {n_batches}")
            opt.step(grads)
            del grads  # no gradient outlives its step
            epoch_loss += value
            epoch_mse += sum(shard["mse"] for shard in parts)
            n_batches += 1
        val = validation_mse(model, val_windows)
        if not np.isfinite(val):
            raise NumericError(f"validation MSE diverged at epoch {epoch}: {val}")
        history["train_loss"].append(epoch_loss / n_batches)
        history["train_mse"].append(epoch_mse / n_batches)
        history["val_mse"].append(val)
        if progress is not None:
            progress(epoch, history["train_loss"][-1], val)
        if val < best_val:  # always at epoch 0, whose validation MSE is finite
            best_val = val
            best_arrays = {k: v.copy() for k, v in model.named_arrays().items()}
            history["best_epoch"] = epoch
            stale = 0
        else:
            stale += 1
            if cfg.patience > 0 and stale >= cfg.patience:
                break
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        config=cfg,
        arrays=best_arrays,
        scaler=scaler,
        history=history,
    )


def check_grid(space) -> None:
    """Raise ValueError unless `space` maps config fields to non-empty lists of
    their type, and no field that shapes the windows every cell shares."""
    if not isinstance(space, dict) or not space or not all(isinstance(v, list) and v for v in space.values()):
        raise ValueError("grid spec must map config fields to non-empty lists of values")
    for name, values in space.items():
        if name in ("seq_len", "pred_len", "split_ratios", "scale"):
            raise ValueError(f"{name!r} shapes the windows, which every cell shares; set it in the config")
        for value in values:
            check_value(TrainConfig, name, value)


def grid_search(
    base: TrainConfig,
    space: dict[str, list],
    train_windows: Windows,
    val_windows: Windows,
    scaler: Scaler | None = None,
    budget: int | None = None,
    progress=None,
) -> tuple[Checkpoint, list[dict]]:
    """Train every combination in `space`, rank by best validation MSE. A
    failed cell is a leaderboard row; if all fail, the error is a NumericError
    if one failed numerically, else a ValueError (a config rule, say)."""
    check_grid(space)
    names = sorted(space)
    combos = list(itertools.product(*(space[n] for n in names)))
    if budget is not None:
        combos = combos[:budget]
    leaderboard: list[dict] = []
    best_ckpt: Checkpoint | None = None
    best_val, failures = np.inf, []
    for combo in combos:
        overrides = dict(zip(names, combo))
        row: dict = dict(overrides)
        try:
            cfg = dataclasses.replace(base, **overrides)
            ckpt = train(cfg, train_windows, val_windows, scaler)
            row["val_mse"] = min(ckpt.history["val_mse"])
            row["best_epoch"] = ckpt.history["best_epoch"]
            row["status"] = "ok"
            if row["val_mse"] < best_val:
                best_val = row["val_mse"]
                best_ckpt = ckpt
        except (NumericError, DataError, ValueError) as e:
            failures.append(e)
            row["val_mse"] = None
            row["status"] = f"failed: {e}"
        leaderboard.append(row)
        if progress is not None:
            progress(row)
    if best_ckpt is None:
        kind = NumericError if any(isinstance(e, NumericError) for e in failures) else ValueError
        raise kind(f"every grid cell failed; the first: {failures[0]}")
    leaderboard.sort(key=lambda r: (r["val_mse"] is None, r["val_mse"]))
    return best_ckpt, leaderboard
