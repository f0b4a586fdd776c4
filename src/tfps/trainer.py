"""Optimization: Adam over the combined forecast + identifier loss, early
stopping on validation MSE, grid search, and a self-describing checkpoint
container (named float64 arrays plus a JSON header)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig, check_value, config_from_dict
from .data import Scaler, Windows, atomic_write
from .errors import DataError, NumericError
from .model import TFPSModel

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1


def total_loss(yhat, y, pi_time=0.0, pi_freq=0.0) -> Tensor:
    """Forecast MSE (mean over every horizon/channel entry) plus the two
    identifier losses."""
    yhat = ad.as_tensor(yhat)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise ValueError(f"prediction shape {yhat.shape} != target shape {y.shape}")
    err = yhat - y
    return (err * err).mean() + pi_time + pi_freq


class Adam:
    """Standard Adam with bias correction; state keyed by parameter name so
    checkpoints stay self-describing."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (p.grad - m)
            v += (1.0 - self.beta2) * (p.grad * p.grad - v)
            p.data = p.data - self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    arrays: dict[str, np.ndarray]
    scaler: Scaler | None
    history: dict = field(default_factory=dict)

    def build_model(self) -> TFPSModel:
        model = TFPSModel(self.config)
        model.load_arrays(self.arrays)
        return model


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write `ckpt` to exactly `path`, atomically (see data.atomic_write): a
    save that fails part-way leaves any previous checkpoint intact."""
    header = {
        "version": ckpt.version,
        "config": ckpt.config.to_dict(),
        "scaler": None
        if ckpt.scaler is None
        else {
            "mean": ckpt.scaler.mean.tolist(),
            "std": ckpt.scaler.std.tolist(),
            "degenerate": ckpt.scaler.degenerate.tolist(),
        },
        "history": ckpt.history,
        "arrays": {k: list(v.shape) for k, v in ckpt.arrays.items()},
    }
    payload = {f"array/{k}": v for k, v in ckpt.arrays.items()}
    payload["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with atomic_write(path, "wb") as fh:  # a file object: np.savez would append .npz to a name
        np.savez(fh, **payload)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any fault in the file is a DataError naming it."""
    try:
        npz = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    with npz:
        if "__header__" not in npz:
            raise DataError(f"{path}: not a checkpoint (missing header)")
        try:
            header = json.loads(bytes(npz["__header__"]).decode())
            if header.get("version") != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version {header.get('version')}")
            scaler = header["scaler"]
            ckpt = Checkpoint(
                version=header["version"],
                config=config_from_dict(header["config"]),
                arrays={},
                scaler=None if scaler is None else Scaler(**scaler),
                history=header["history"],
            )
            shapes = dict(header["arrays"])
        except (KeyError, TypeError, ValueError, AttributeError) as e:  # DataError is a ValueError
            cause = f"missing {e}" if isinstance(e, KeyError) else e
            raise DataError(f"{path}: bad checkpoint header: {cause}") from None
        for key, shape in shapes.items():
            full = f"array/{key}"
            if full not in npz:
                raise DataError(f"{path}: header lists {key!r} but the array is missing")
            try:
                arr = npz[full]
            except ValueError as e:  # an object array, which would need pickle
                raise DataError(f"{path}: array {key!r} cannot be read: {e}") from None
            if arr.dtype.kind != "f":
                raise DataError(f"{path}: array {key!r} has dtype {arr.dtype}, expected float")
            if list(arr.shape) != shape:
                raise DataError(f"{path}: array {key!r} shape {arr.shape} != declared {shape}")
            ckpt.arrays[key] = arr.astype(np.float64)
    return ckpt


def validation_mse(model: TFPSModel, windows: Windows, batch_size: int) -> float:
    """Mean squared error over all validation entries, deterministic order."""
    if not windows:
        raise DataError("empty validation set")
    return float(np.mean((model.forecast(windows.inputs, batch_size) - windows.targets) ** 2))


def train(
    cfg: TrainConfig,
    train_windows: Windows,
    val_windows: Windows,
    scaler: Scaler | None = None,
    progress=None,
) -> Checkpoint:
    """Mini-batch Adam with early stopping on validation MSE; returns the best
    parameters seen. Deterministic for a fixed config seed."""
    if not train_windows or not val_windows:
        raise DataError("training and validation window sets must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    model = TFPSModel(cfg, rng)
    opt = Adam(model.params, lr=cfg.lr)
    history: dict = {"train_loss": [], "train_mse": [], "val_mse": [], "best_epoch": None}
    best_val = np.inf
    best_arrays = {k: v.copy() for k, v in model.named_arrays().items()}
    stale = 0
    for epoch in range(cfg.max_epochs):
        epoch_loss = 0.0
        epoch_mse = 0.0
        n_batches = 0
        order = rng.permutation(len(train_windows))
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xs, ys = train_windows.inputs[idx], train_windows.targets[idx]
            model.zero_grad()
            loss, _, parts = model.loss(xs, ys, training=True, rng=rng)
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericError(
                    f"loss diverged at epoch {epoch}, batch {n_batches}: {value}"
                )
            loss.backward()
            opt.step()
            epoch_loss += value
            epoch_mse += parts["mse"]
            n_batches += 1
        val = validation_mse(model, val_windows, cfg.batch_size)
        history["train_loss"].append(epoch_loss / max(n_batches, 1))
        history["train_mse"].append(epoch_mse / max(n_batches, 1))
        history["val_mse"].append(val)
        if progress is not None:
            progress(epoch, history["train_loss"][-1], val)
        if val < best_val:
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
    """Raise ValueError unless `space` maps config fields to non-empty lists of their type."""
    if not isinstance(space, dict) or not space or not all(isinstance(v, list) and v for v in space.values()):
        raise ValueError("grid spec must map config fields to non-empty lists of values")
    for name, values in space.items():
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
    """Train every combination in `space`, rank by best validation MSE.
    A cell whose combination fails (a cross-field rule, say) is recorded in
    the leaderboard, not fatal."""
    check_grid(space)
    names = sorted(space)
    combos = list(itertools.product(*(space[n] for n in names)))
    if budget is not None:
        combos = combos[:budget]
    leaderboard: list[dict] = []
    best_ckpt: Checkpoint | None = None
    best_val = np.inf
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
            row["val_mse"] = None
            row["status"] = f"failed: {e}"
            log.warning("grid cell %s failed: %s", overrides, e)
        leaderboard.append(row)
        if progress is not None:
            progress(row)
    if best_ckpt is None:
        raise NumericError("every grid cell failed")
    leaderboard.sort(key=lambda r: (r["val_mse"] is None, r["val_mse"]))
    return best_ckpt, leaderboard
