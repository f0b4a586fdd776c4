"""Write tests/golden_tiny.npz: the forecast and every parameter gradient of a
seeded tiny model, one `trainer.total_loss(model, ...)[0].backward()` per
case. The cases cover the both-branch subspace model and each ablation path:
the time branch alone with batch norm in training mode, the frequency branch
alone, and the linear gate in place of the subspace identifier.

test_golden.py compares the current code against this file, so a change that
only reorders floating-point sums (a flattened matmul, a library FFT) is held
to 1e-10 of each array's scale. Regenerate only on purpose, from a commit
whose numerics are the reference. Named cases are rewritten and every other
case already in the file is kept as it is; no names rewrites them all:

    PYTHONPATH=src python tests/make_golden.py [case ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from tfps.config import TrainConfig
from tfps.model import TFPSModel
from tfps.trainer import total_loss

GOLDEN_PATH = Path(__file__).with_name("golden_tiny.npz")
BATCH, CHANNELS = 4, 3
# top_k=2 sends every token to both experts; top_k=1 leaves each expert a
# strict subset of the rows, which exercises the gather/scatter adjoints.
CASES = {
    "top2": {"top_k": 2},
    "top1": {"top_k": 1},
    "time_batch": {"branches": "time", "time_norm": "batch"},
    "freq_only": {"branches": "frequency"},
    "pi_linear": {"pi_mode": "linear"},
}
# cases whose loss runs in training mode (batch statistics, no dropout)
TRAINING = {"time_batch"}


def build(case: str) -> tuple[TFPSModel, np.ndarray, np.ndarray]:
    """The model and one (x, y) batch of a golden case, all from fixed seeds."""
    cfg = TrainConfig(
        seq_len=32, pred_len=32, patch_len=8, stride=4, d_model=16, n_layers=2,
        n_heads=2, k_time=2, k_freq=2, seed=11, **CASES[case],
    )
    model = TFPSModel(cfg)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(BATCH, cfg.seq_len, CHANNELS))
    y = rng.normal(size=(BATCH, cfg.pred_len, CHANNELS))
    return model, x, y


def run(case: str) -> dict[str, np.ndarray]:
    """`yhat`, `loss`, `grad/<param>` for every parameter and `state/<key>` for
    every batch-norm running statistic of one golden case."""
    model, x, y = build(case)
    loss, fwd, _ = total_loss(model, x, y, training=case in TRAINING)
    loss.backward()
    out = {"yhat": fwd.yhat.data, "loss": np.asarray(loss.data)}
    out.update({f"grad/{name}": t.grad for name, t in model.params.items()})
    out.update({f"state/{k}": v for k, v in model.named_arrays().items() if k not in model.params})
    return out


def main(cases: list[str]) -> None:
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; choose from {sorted(CASES)}")
    cases = cases or list(CASES)
    arrays = {}
    if GOLDEN_PATH.exists():
        with np.load(GOLDEN_PATH) as old:
            arrays = {k: old[k] for k in old.files if k.split("/", 1)[0] not in cases}
    for case in cases:
        arrays.update({f"{case}/{key}": value for key, value in run(case).items()})
    np.savez(GOLDEN_PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN_PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
