"""Command-line surface: synth, analyze-drift, train, grid, eval, predict.

Exit codes: 0 success, 1 usage/config error or an output that cannot be
written, 2 data error, 3 numeric failure.
TFPS_DATA_DIR serves as a fallback root for relative data paths. BLAS pools
are sized from the environment (OPENBLAS_NUM_THREADS and the like) when NumPy
loads, which importing the package already does; `eval` and validation then
forecast, and `train` and `grid` train, on one thread per core the BLAS pool
leaves free (`model.on_threads`, whose threads run in the caller's context
and end with each call).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

# Call through the modules, not names bound here: perfbench/layer_trace.py
# times these calls by replacing the module attributes.
from . import data, drift, evaluate, trainer
from .config import config_from_dict
from .errors import DataError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="tfps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic regime-switch series")
    p.add_argument("--spec", required=True, help="JSON regime spec")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = sub.add_parser("analyze-drift", help="pairwise patch Wasserstein matrices")
    p.add_argument("--data", required=True)
    p.add_argument("--patch-len", type=int, required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--domain", choices=(*drift.DOMAINS, "both"), default="both")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--start", type=int, default=0, help="first row of the analyzed slice")
    p.add_argument("--length", type=int, default=None, help="rows to analyze (default: all)")
    p.add_argument("--channels", default=None, help="comma-separated channel subset")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--config", required=True, help="JSON config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("grid", help="grid search over config fields")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="JSON mapping config fields to value lists")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--budget", type=int, default=None, help="max cells to run")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="metrics + routing report on the test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--denormalized", action="store_true", help="also report original-unit errors")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("predict", help="forecast from the tail of a series")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    return parser


def _resolve_data(path: str) -> str:
    if os.path.exists(path):
        return path
    root = os.environ.get("TFPS_DATA_DIR")
    if root and not os.path.isabs(path):
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load_series(path: str, ckpt=None):
    """Load a CSV series. A checkpoint with a scaler is fixed to the channels
    that scaler was fitted on; an unscaled model is channel-independent."""
    series = data.load_csv(_resolve_data(path))
    if ckpt is not None and ckpt.scaler is not None and series.n_channels != ckpt.scaler.mean.size:
        raise DataError(
            f"{path} has {series.n_channels} channels, but the checkpoint's scaler "
            f"was fitted on {ckpt.scaler.mean.size}"
        )
    return series


def _load_model(path):
    """The checkpoint at `path` and its model; any fault is a DataError naming the file."""
    ckpt = trainer.load_checkpoint(path)
    try:
        return ckpt, ckpt.build_model()
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {what} {path}: {e}") from None
    except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
        raise UsageError(f"{what} {path}: invalid JSON ({e})") from None


def _write_json(path, obj) -> None:
    with data.atomic_write(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2))


def _out_dir(path) -> Path:
    """`path` as an output directory, refused before any work if it names a
    file; it is made only after the work, so a failed command leaves none."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise UsageError(f"cannot write {path}: File exists")
    return out


def _cmd_synth(args) -> int:
    obj = _load_json(args.spec, "synth spec")
    if not isinstance(obj, dict):
        raise UsageError(f"bad synth spec {args.spec}: expected a JSON object")
    if args.seed is not None:
        obj["seed"] = args.seed
    try:
        regimes = tuple(data.RegimeSpec(**r) for r in obj.get("regimes", ()))
        spec = data.SynthSpec(**{**obj, "regimes": regimes})
        series, boundaries = data.synth_generate(spec)  # a DataError is a ValueError: the values overflow
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad synth spec {args.spec}: {e}") from None
    data.save_csv(series, args.out)
    print(f"wrote {series.length} rows x {series.n_channels} channels to {args.out}")
    if boundaries:
        print(f"regime boundaries at indices {boundaries}")
    return EXIT_OK


def _cmd_analyze_drift(args) -> int:
    if args.patch_len < 1 or args.stride < 1:
        raise UsageError("--patch-len and --stride must be >= 1")
    series = _load_series(args.data)
    stop = series.length if args.length is None else args.start + args.length
    if not 0 <= args.start < stop <= series.length:
        raise UsageError(f"slice [{args.start}:{stop}] outside {args.data} of length {series.length}")
    if args.patch_len > stop - args.start:
        raise UsageError(
            f"--patch-len {args.patch_len} exceeds the {stop - args.start} rows analyzed of {args.data}"
        )
    channels = list(series.channel_names)
    if args.channels:
        wanted = [c.strip() for c in args.channels.split(",")]
        if len(set(wanted)) < len(wanted):
            raise UsageError(f"--channels names {next(c for c in wanted if wanted.count(c) > 1)!r} twice")
        missing = [c for c in wanted if c not in channels]
        if missing:
            raise UsageError(f"unknown channels of {args.data}: {missing}")
        channels = wanted
    for name in channels:  # each name becomes part of an output file name
        if set(name) & {"/", os.sep, "\0"} or name in (".", ".."):
            raise DataError(f"{args.data}: channel name {name!r} cannot be part of a file name")
    domains = drift.DOMAINS if args.domain == "both" else (args.domain,)
    outdir = Path(args.out)
    made = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "patch_len": args.patch_len,
        "stride": args.stride,
        "start": args.start,
        "length": stop - args.start,
        "channels": [],
    }
    staged = {}  # temporary file -> its matrix file, renamed once every matrix is finite
    try:
        for name in channels:
            col = series.values[args.start : stop, series.channel_names.index(name)]
            for domain in domains:
                dm = drift.patch_distance_matrix(col, args.patch_len, args.stride, domain)
                data.save_matrix(outdir / f"drift_{name}_{domain}.csv", dm, staged.__setitem__)
                pair, avg = drift.upper_triangle_summary(dm)
                if not (np.isfinite(dm).all() and np.isfinite(avg)):
                    raise DataError(f"{args.data}: the {domain} drift of channel {name!r} overflows")
                summary["channels"].append({"channel": name, "domain": domain,
                                            "average": avg, "max_pair": pair})
                print(f"{name}/{domain}: {len(dm)} patches, average W1 {avg:.6g}")
                del dm  # free this matrix before the next one is computed
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        if made:
            outdir.rmdir()
        raise
    for tmp, target in staged.items():
        os.replace(tmp, target)
    _write_json(outdir / "summary.json", summary)
    return EXIT_OK


def _prepare(cfg, path: str, source: str, ckpt=None):
    """Train, validation and test windows of the series at `path` as the
    config read from `source` asks, and the train split's scaler (or None)."""
    series = _load_series(path, ckpt)
    try:
        splits = data.split(series, cfg.split_ratios, cfg.seq_len + cfg.pred_len)
    except DataError as e:
        raise DataError(f"{path}: {e} (seq_len + pred_len of {source})") from None
    try:
        scaler = data.fit_scaler(splits[0]) if cfg.scale else None
    except DataError as e:
        raise DataError(f"{path}: the train split's {e}") from None
    windows = []
    for split, s in zip(("train", "validation", "test"), splits):
        try:
            s = s if scaler is None else data.apply_scaler(s, scaler)
        except DataError as e:  # named by channel and split, not by a split-relative row
            raise DataError(f"{path}: the {split} split's {e}") from None
        windows.append(data.make_windows(s, cfg.seq_len, cfg.pred_len))
    return (*windows, scaler)


def _load_config(path, seed_override):
    try:
        cfg = config_from_dict(_load_json(path, "config"))  # a UsageError passes through
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None
    # `run` refused a negative --seed, and any int >= 0 is a valid seed
    return cfg if seed_override is None else dataclasses.replace(cfg, seed=seed_override)


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    train_w, val_w, _, scaler = _prepare(cfg, args.data, args.config)
    progress = None
    if not args.quiet:
        progress = lambda e, tl, vm: print(f"epoch {e}: train_loss {tl:.6f}  val_mse {vm:.6f}")
    ckpt = trainer.train(cfg, train_w, val_w, scaler=scaler, progress=progress)
    trainer.save_checkpoint(ckpt, args.out)
    best = min(ckpt.history["val_mse"])
    print(f"saved checkpoint to {args.out} (best val MSE {best:.6f})")
    return EXIT_OK


def _cmd_grid(args) -> int:
    if args.budget is not None and args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    outdir = _out_dir(args.out)
    cfg = _load_config(args.config, args.seed)
    space = _load_json(args.grid, "grid spec")
    try:
        trainer.check_grid(space)
    except ValueError as e:
        raise UsageError(f"{args.grid}: {e}") from None
    train_w, val_w, _, scaler = _prepare(cfg, args.data, args.config)
    progress = None
    if not args.quiet:
        progress = lambda row: print(f"cell {row}")
    try:
        best, board = trainer.grid_search(cfg, space, train_w, val_w, scaler=scaler,
                                          budget=args.budget, progress=progress)
    except ValueError as e:  # every cell failed a config rule
        raise UsageError(f"{args.grid}: {e}") from None
    outdir.mkdir(parents=True, exist_ok=True)
    trainer.save_checkpoint(best, outdir / "best.npz")
    _write_json(outdir / "leaderboard.json", board)
    with data.atomic_write(outdir / "leaderboard.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(board[0]))
        writer.writeheader()
        writer.writerows(board)
    print(f"best cell: {board[0]}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    outdir = _out_dir(args.out)
    ckpt, model = _load_model(args.ckpt)
    cfg = ckpt.config
    _, _, test_w, _ = _prepare(cfg, args.data, args.ckpt, ckpt)
    denorm = ckpt.scaler if args.denormalized else None
    metrics = evaluate.evaluate_windows(model, test_w, denormalize=denorm)
    affinities: dict = {}
    report = evaluate.routing_report(model, test_w, seed=args.seed, affinity_out=affinities)
    w1 = [b[k] for b in report["branches"].values() for k in ("intra_cluster_w1", "inter_cluster_w1")]
    if not np.isfinite([*metrics.values(), *(v for v in w1 if v is not None)]).all():
        raise DataError(f"{args.data}: the test windows' forecast errors or routing W1 values are not finite")
    row = {"dataset": Path(args.data).stem, "H": cfg.pred_len, "MSE": metrics["mse"], "MAE": metrics["mae"]}
    table = evaluate.report_table(row)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "metrics.json", {"rows": [table["json"]], "detail": metrics})
    with data.atomic_write(outdir / "metrics.csv", "w") as fh:
        fh.write(table["csv"])
    _write_json(outdir / "routing.json", report)
    for branch, snapshot in affinities.items():
        data.save_matrix(outdir / f"affinity_{branch}.csv", snapshot)
    print(table["text"])
    return EXIT_OK


def _cmd_predict(args) -> int:
    ckpt, model = _load_model(args.ckpt)
    cfg = ckpt.config
    series = _load_series(args.input, ckpt)
    if series.length < cfg.seq_len:
        raise DataError(f"{args.input}: {series.length} rows, need {cfg.seq_len} (seq_len of {args.ckpt})")
    step = float(np.median(np.diff(series.timestamps))) if series.length > 1 else 3600.0
    future = series.timestamps[-1] + step * np.arange(1, cfg.pred_len + 1)
    if not np.all(np.isfinite(future)):  # finite stamps can be too far apart or too near the maximum
        raise DataError(f"{args.input}: the {cfg.pred_len} forecast stamps overflow (step {step:g} s)")
    values = series.values[-cfg.seq_len :]
    if ckpt.scaler is not None:
        values = ckpt.scaler.transform(values)
    yhat = model.forecast(values[None])[0]
    if ckpt.scaler is not None:
        yhat = ckpt.scaler.inverse(yhat)
    if not np.isfinite(yhat).all():
        raise DataError(f"{args.input}: the forecast from its last {cfg.seq_len} rows is not finite")
    data.save_csv(data.MultivariateSeries(future, yhat, series.channel_names), args.out)
    print(f"wrote {cfg.pred_len}-step forecast for {series.n_channels} channels to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "analyze-drift": _cmd_analyze_drift,
    "train": _cmd_train,
    "grid": _cmd_grid,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # before any work
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        with np.errstate(all="ignore"):  # each command checks its results for finiteness itself
            return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:  # inputs map their own OSErrors, so this is an output
        print(f"error: cannot write {e.filename}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
