"""Write tests/golden_tiny.npz: the forecast and every parameter gradient of a
seeded tiny both-branch model, one `model.loss(...)[0].backward()` each.

test_golden.py compares the current code against this file, so a change that
only reorders floating-point sums (a flattened matmul, a library FFT) is held
to 1e-10 of each array's scale. Regenerate only on purpose, from a commit
whose numerics are the reference:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tfps.config import TrainConfig
from tfps.model import TFPSModel

GOLDEN_PATH = Path(__file__).with_name("golden_tiny.npz")
BATCH, CHANNELS = 4, 3
# top_k=2 sends every token to both experts; top_k=1 leaves each expert a
# strict subset of the rows, which exercises the gather/scatter adjoints.
CASES = {"top2": {"top_k": 2}, "top1": {"top_k": 1}}


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
    """`yhat` and `grad/<param>` for every parameter of one golden case."""
    model, x, y = build(case)
    loss, fwd, _ = model.loss(x, y)
    loss.backward()
    out = {"yhat": fwd.yhat.data, "loss": np.asarray(loss.data)}
    out.update({f"grad/{name}": t.grad for name, t in model.params.items()})
    return out


def main() -> None:
    arrays = {f"{case}/{key}": value for case in CASES for key, value in run(case).items()}
    np.savez(GOLDEN_PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
