"""Seeded mutation fuzzing of every file the CLI reads.

Each case corrupts one input (a series CSV, a config, a grid spec, a
checkpoint or a synth spec) with 1-3 byte flips, deletions, insertions or
truncations drawn from a fixed-seed RNG, runs one command on it in-process,
and checks the boundary contract: an exit code of 0-3 and no escaping
exception; on exit 1 or 2, one stderr line that names the corrupted file and
never says `None`; and no `--out` left behind by a failed command. Each
mutation that once broke the contract is pinned in PINNED as a named case.
"""

import io
import json

import numpy as np
import pytest

from tfps.cli import run

SYNTH_SPEC = {
    "seed": 5,
    "channels": 2,
    "regimes": [
        {"length": 120, "frequency": 0.0625, "noise": 0.05},
        {"length": 120, "frequency": 0.125, "offset": 2.0, "noise": 0.05},
    ],
}
CONFIG = {
    "seq_len": 16, "pred_len": 4, "patch_len": 4, "stride": 4, "d_model": 16,
    "n_layers": 1, "n_heads": 2, "k_time": 2, "k_freq": 2, "batch_size": 64,
    "max_epochs": 1, "patience": 1, "seed": 3, "split_ratios": [0.5, 0.25, 0.25],
}
GRID = {"lr": [0.001, 0.01]}
MUTATIONS = 40  # per case


def mutate(blob: bytes, rng: np.random.Generator) -> bytes:
    """`blob` after 1-3 byte flips, deletions, insertions or truncations."""
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(4))
        at = int(rng.integers(len(out))) if out else 0
        if op == 0 and out:
            out[at] ^= int(rng.integers(1, 256))
        elif op == 1 and out:
            del out[at]
        elif op == 2:
            out.insert(at, int(rng.integers(256)))
        else:
            del out[at:]
    return bytes(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The pristine input files, keyed by kind, with a trained checkpoint."""
    root = tmp_path_factory.mktemp("pristine")
    files = {"spec": root / "spec.json", "config": root / "config.json",
             "grid": root / "grid.json", "csv": root / "series.csv", "ckpt": root / "model.npz"}
    files["spec"].write_text(json.dumps(SYNTH_SPEC))
    files["config"].write_text(json.dumps(CONFIG))
    files["grid"].write_text(json.dumps(GRID))
    assert run(["synth", "--spec", str(files["spec"]), "--out", str(files["csv"])]) == 0
    assert run(["train", "--config", str(files["config"]), "--data", str(files["csv"]),
                "--out", str(files["ckpt"]), "--quiet"]) == 0
    return {kind: path.read_bytes() for kind, path in files.items()}


# command -> its argv, with {csv}, {config}, ... naming the input files and
# {out} the output it must not leave behind on failure
COMMANDS = {
    "predict": ["predict", "--ckpt", "{ckpt}", "--input", "{csv}", "--out", "{out}"],
    "eval": ["eval", "--ckpt", "{ckpt}", "--data", "{csv}", "--out", "{out}"],
    "analyze-drift": ["analyze-drift", "--data", "{csv}", "--patch-len", "8", "--stride", "8",
                      "--out", "{out}"],
    "train": ["train", "--config", "{config}", "--data", "{csv}", "--out", "{out}", "--quiet"],
    "grid": ["grid", "--config", "{config}", "--grid", "{grid}", "--data", "{csv}",
             "--budget", "1", "--out", "{out}", "--quiet"],
    "synth": ["synth", "--spec", "{spec}", "--out", "{out}"],
}
# (mutated input, command, RNG seed)
CASES = [
    ("csv", "predict", 101), ("csv", "eval", 102), ("csv", "analyze-drift", 103),
    ("config", "train", 104), ("grid", "grid", 105),
    ("ckpt", "predict", 106), ("ckpt", "eval", 107), ("spec", "synth", 108),
]


def first_rows(n: int):
    """An edit keeping the header and the first `n` rows of a CSV."""
    return lambda blob: b"".join(blob.splitlines(keepends=True)[: n + 1])


def replace(old: bytes, new: bytes):
    return lambda blob: blob.replace(old, new, 1)


def last_stamp(stamp: bytes):
    """An edit replacing the timestamp of a CSV's last row with `stamp`."""

    def edit(blob: bytes) -> bytes:
        *rows, last = blob.splitlines(keepends=True)
        return b"".join(rows) + stamp + last[last.index(b","):]

    return edit


def edit_checkpoint(change, time_norm: str = "layer"):
    """An edit of a checkpoint's arrays by `change(arrays)`, with the header
    listing the arrays left and its config's `time_norm` set."""

    def edit(blob: bytes) -> bytes:
        with np.load(io.BytesIO(blob)) as npz:
            header = json.loads(bytes(npz["__header__"]).decode())
            arrays = {k.removeprefix("array/"): npz[k] for k in npz.files if k != "__header__"}
        change(arrays)
        header["config"]["time_norm"] = time_norm
        header["arrays"] = {k: list(v.shape) for k, v in arrays.items()}
        out = io.BytesIO()
        np.savez(out, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **{f"array/{k}": v for k, v in arrays.items()})
        return out.getvalue()

    return edit


# checkpoints whose header and arrays read, but do not build the model of
# their config; each names the file and this key on one line, exit 2
CHECKPOINT_FAULTS = {
    "ckpt-missing-head-w": (edit_checkpoint(lambda a: a.pop("head.w")), "'head.w'"),
    "ckpt-bn-mean-wrong-shape": (
        edit_checkpoint(lambda a: a.update({"time.enc0.bn1.mean": np.zeros(5),
                                            "time.enc0.bn1.var": np.ones(CONFIG["d_model"])}), "batch"),
        "'time.enc0.bn1.mean'",
    ),
    "ckpt-bn-mean-without-var": (
        edit_checkpoint(lambda a: a.update({"time.enc0.bn1.mean": np.zeros(CONFIG["d_model"])}), "batch"),
        "'time.enc0.bn1.var'",
    ),
    # a batch-norm checkpoint, with its running stats, whose header says layer norm
    "ckpt-bn-stats-under-layer-norm": (
        edit_checkpoint(lambda a: a.update({f"time.enc0.bn{j}.{k}": np.full(CONFIG["d_model"], v)
                                            for j in (1, 2) for k, v in (("mean", 0.1), ("var", 0.9))})),
        "'time.enc0.bn1.mean'",
    ),
}


# name -> (edited input, command, edit): faults the seeded cases found, and
# their neighbours on the same code paths, each once an error line that did
# not name the file at fault, or a traceback
PINNED = {
    "csv-bad-timestamp": ("csv", "predict", replace(b" 09:00:00", b" 09:0000")),
    "csv-duplicate-channel": ("csv", "analyze-drift", replace(b"ch0,ch1", b"ch0,ch0")),
    "csv-too-short-to-split": ("csv", "eval", first_rows(5)),
    "csv-too-short-to-predict": ("csv", "predict", first_rows(5)),
    "csv-shorter-than-patch": ("csv", "analyze-drift", first_rows(2)),
    "config-too-long-for-csv": ("config", "train", replace(b'"seq_len": 16', b'"seq_len": 160')),
    "spec-unknown-field": ("spec", "synth", replace(b'"channels"', b'"channols"')),
    "spec-unknown-regime-field": ("spec", "synth", replace(b'"length"', b'"lngth"')),
    "csv-inf-last-stamp": ("csv", "predict", last_stamp(b"inf")),
    # 240 rows: only the last stamp overflows
    "spec-step-overflows-last-stamp": ("spec", "synth",
                                       replace(b'"channels"', b'"step_seconds": 7.54e305, "channels"')),
    **{f"{name}-{command}": ("ckpt", command, edit)
       for name, (edit, _) in CHECKPOINT_FAULTS.items() for command in ("predict", "eval")},
}
# pinned name -> the exit code and the text its stderr line must show
EXPECTED = {f"{name}-{command}": (2, key)
            for name, (_, key) in CHECKPOINT_FAULTS.items() for command in ("predict", "eval")}
EXPECTED["csv-inf-last-stamp"] = (2, "non-finite timestamp 'inf'")
EXPECTED["spec-step-overflows-last-stamp"] = (1, "step_seconds 7.54e+305")


def check(workdir, inputs, kind, command, blob, capsys, expect=None) -> str | None:
    """Run `command` with input `kind` replaced by `blob`; the broken part of
    the contract, or None. `expect`, an (exit code, text) pair, also requires
    that exit code and that text on stderr."""
    paths = {k: workdir / f"in_{k}{'.npz' if k == 'ckpt' else ''}" for k in inputs}
    for k, path in paths.items():
        path.write_bytes(blob if k == kind else inputs[k])
    out = workdir / "out"
    argv = [a.format(out=out, **paths) for a in COMMANDS[command]]
    capsys.readouterr()
    try:
        code = run(argv)
    except BaseException as e:  # noqa: BLE001 - anything escaping run() is the fault
        return f"raised {type(e).__name__}: {e}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    if code in (1, 2) and (err.count("\n") != 1 or str(paths[kind]) not in err or "None" in err):
        return f"exit {code} with stderr {err!r}"
    if code and out.exists():
        return f"exit {code} left {out.name}"
    if expect is not None and (code != expect[0] or expect[1] not in err):
        return f"exit {code} with stderr {err!r}, expected exit {expect[0]} naming {expect[1]}"
    return None


@pytest.mark.parametrize("kind,command,seed", CASES, ids=[f"{k}-{c}" for k, c, _ in CASES])
def test_mutated_input_keeps_the_exit_contract(tmp_path, inputs, kind, command, seed, capsys):
    rng = np.random.default_rng(seed)
    faults = []
    for i in range(MUTATIONS):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        blob = mutate(inputs[kind], rng)
        with np.errstate(all="ignore"):
            fault = check(workdir, inputs, kind, command, blob, capsys)
        if fault:
            faults.append(f"mutation {i}: {fault}")
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_mutation(tmp_path, inputs, name, capsys):
    kind, command, edit = PINNED[name]
    blob = edit(inputs[kind])
    assert blob != inputs[kind]
    assert check(tmp_path, inputs, kind, command, blob, capsys, EXPECTED.get(name)) is None
