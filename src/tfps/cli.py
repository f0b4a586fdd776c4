"""Command-line surface: synth, analyze-drift, train, grid, eval, predict.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
TFPS_DATA_DIR serves as a fallback root for relative data paths. BLAS pools
are sized from the environment (OPENBLAS_NUM_THREADS and the like) when NumPy
loads, which importing the package already does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

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
    p.add_argument("--domain", choices=("time", "frequency", "both"), default="both")
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
    p.add_argument("--dataset-name", default=None)
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
    from .data import load_csv
    from .errors import DataError

    series = load_csv(_resolve_data(path))
    if ckpt is not None and ckpt.scaler is not None and series.n_channels != ckpt.scaler.mean.size:
        raise DataError(
            f"{path} has {series.n_channels} channels, but the checkpoint's scaler "
            f"was fitted on {ckpt.scaler.mean.size}"
        )
    return series


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {what} {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"{what} {path}: invalid JSON ({e})") from None


def _cmd_synth(args) -> int:
    from .data import RegimeSpec, SynthSpec, save_csv, synth_generate

    obj = _load_json(args.spec, "synth spec")
    if not isinstance(obj, dict) or not set(obj) <= {"regimes", "channels", "seed", "step_seconds"}:
        raise UsageError("bad synth spec: expected an object of regimes, channels, seed, step_seconds")
    if args.seed is not None:
        obj["seed"] = args.seed
    try:
        regimes = tuple(RegimeSpec(**r) for r in obj.get("regimes", ()))
        spec = SynthSpec(**{**obj, "regimes": regimes})
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad synth spec: {e}") from None
    series, boundaries = synth_generate(spec)
    save_csv(series, args.out)
    print(f"wrote {series.length} rows x {series.n_channels} channels to {args.out}")
    if boundaries:
        print(f"regime boundaries at indices {boundaries}")
    return EXIT_OK


def _cmd_analyze_drift(args) -> int:
    import numpy as np

    from .drift import DOMAINS, patch_distance_matrix

    if args.patch_len < 1 or args.stride < 1:
        raise UsageError("--patch-len and --stride must be >= 1")
    series = _load_series(args.data)
    stop = series.length if args.length is None else args.start + args.length
    if not 0 <= args.start < stop <= series.length:
        raise UsageError(f"slice [{args.start}:{stop}] outside series of length {series.length}")
    if args.patch_len > stop - args.start:
        raise UsageError(f"--patch-len {args.patch_len} exceeds the {stop - args.start} rows analyzed")
    channels = list(series.channel_names)
    if args.channels:
        wanted = [c.strip() for c in args.channels.split(",")]
        missing = [c for c in wanted if c not in channels]
        if missing:
            raise UsageError(f"unknown channels: {missing}")
        channels = wanted
    domains = DOMAINS if args.domain == "both" else (args.domain,)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "patch_len": args.patch_len,
        "stride": args.stride,
        "start": args.start,
        "length": stop - args.start,
        "channels": [],
    }
    for name in channels:
        col = series.values[args.start : stop, series.channel_names.index(name)]
        for domain in domains:
            dm = patch_distance_matrix(col, args.patch_len, args.stride, domain)
            path = outdir / f"drift_{name}_{domain}.csv"
            np.savetxt(path, dm.distances, delimiter=",")
            iu = np.triu_indices(dm.n_patches, k=1)
            if iu[0].size:
                flat = dm.distances[iu]
                top = int(np.argmax(flat))
                pair = {"i": int(iu[0][top]), "j": int(iu[1][top]), "value": float(flat[top])}
                avg = float(flat.mean())
            else:
                pair, avg = None, 0.0
            summary["channels"].append(
                {"channel": name, "domain": domain, "average": avg, "max_pair": pair}
            )
            print(f"{name}/{domain}: {dm.n_patches} patches, average W1 {avg:.6g}")
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return EXIT_OK


def _prepare(cfg, series):
    from .data import apply_scaler, fit_scaler, make_windows, split

    min_len = cfg.seq_len + cfg.pred_len
    train_s, val_s, test_s = split(series, cfg.split_ratios, min_length=min_len)
    scaler = None
    if cfg.scale:
        scaler = fit_scaler(train_s)
        train_s, val_s, test_s = (apply_scaler(s, scaler) for s in (train_s, val_s, test_s))
    return (
        make_windows(train_s, cfg.seq_len, cfg.pred_len),
        make_windows(val_s, cfg.seq_len, cfg.pred_len),
        make_windows(test_s, cfg.seq_len, cfg.pred_len),
        scaler,
    )


def _load_config(path, seed_override):
    import dataclasses

    from .config import config_from_json

    try:
        cfg = config_from_json(path)
        if seed_override is not None:
            cfg = dataclasses.replace(cfg, seed=seed_override)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return cfg


def _cmd_train(args) -> int:
    from .trainer import save_checkpoint, train

    cfg = _load_config(args.config, args.seed)
    train_w, val_w, _, scaler = _prepare(cfg, _load_series(args.data))
    progress = None
    if not args.quiet:
        progress = lambda e, tl, vm: print(f"epoch {e}: train_loss {tl:.6f}  val_mse {vm:.6f}")
    ckpt = train(cfg, train_w, val_w, scaler=scaler, progress=progress)
    save_checkpoint(ckpt, args.out)
    best = min(ckpt.history["val_mse"])
    print(f"saved checkpoint to {args.out} (best val MSE {best:.6f})")
    return EXIT_OK


def _cmd_grid(args) -> int:
    import csv as csv_mod

    from .trainer import check_grid, grid_search, save_checkpoint

    if args.budget is not None and args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    cfg = _load_config(args.config, args.seed)
    space = _load_json(args.grid, "grid spec")
    try:
        check_grid(space)
    except ValueError as e:
        raise UsageError(f"{args.grid}: {e}") from None
    train_w, val_w, _, scaler = _prepare(cfg, _load_series(args.data))
    progress = None
    if not args.quiet:
        progress = lambda row: print(f"cell {row}")
    best, board = grid_search(cfg, space, train_w, val_w, scaler=scaler,
                              budget=args.budget, progress=progress)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(best, outdir / "best.npz")
    with open(outdir / "leaderboard.json", "w") as fh:
        json.dump(board, fh, indent=2)
    keys = list(board[0].keys())
    with open(outdir / "leaderboard.csv", "w", newline="") as fh:
        writer = csv_mod.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(board)
    print(f"best cell: {board[0]}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .evaluate import evaluate_windows, report_table, routing_report
    from .trainer import load_checkpoint

    ckpt = load_checkpoint(args.ckpt)
    cfg = ckpt.config
    _, _, test_w, _ = _prepare(cfg, _load_series(args.data, ckpt))
    denorm = ckpt.scaler if args.denormalized else None
    metrics = evaluate_windows(ckpt, test_w, denormalize=denorm)
    name = args.dataset_name or Path(args.data).stem
    table = report_table(
        [{"dataset": name, "H": cfg.pred_len, "MSE": metrics["mse"], "MAE": metrics["mae"], "IMP": None}]
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "metrics.json", "w") as fh:
        json.dump({"rows": table["json"], "detail": metrics}, fh, indent=2)
    (outdir / "metrics.csv").write_text(table["csv"])
    affinities: dict = {}
    report = routing_report(ckpt, test_w, seed=args.seed, affinity_out=affinities)
    with open(outdir / "routing.json", "w") as fh:
        json.dump(report, fh, indent=2)
    import numpy as np

    for branch, snapshot in affinities.items():
        np.savetxt(outdir / f"affinity_{branch}.csv", snapshot, delimiter=",")
    print(table["text"])
    return EXIT_OK


def _cmd_predict(args) -> int:
    import numpy as np

    from .data import MultivariateSeries, save_csv
    from .errors import DataError
    from .trainer import load_checkpoint

    ckpt = load_checkpoint(args.ckpt)
    cfg = ckpt.config
    series = _load_series(args.input, ckpt)
    if series.length < cfg.seq_len:
        raise DataError(f"need at least {cfg.seq_len} rows, got {series.length}")
    values = series.values[-cfg.seq_len :]
    if ckpt.scaler is not None:
        values = ckpt.scaler.transform(values)
    yhat = ckpt.build_model().forecast(values[None], 1)[0]
    if ckpt.scaler is not None:
        yhat = ckpt.scaler.inverse(yhat)
    step = float(np.median(np.diff(series.timestamps))) if series.length > 1 else 3600.0
    future = series.timestamps[-1] + step * np.arange(1, cfg.pred_len + 1)
    save_csv(MultivariateSeries(future, yhat, series.channel_names), args.out)
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
    from .errors import DataError, NumericError

    try:
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


def entrypoint() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
