"""Independent oracles and gradient-check utilities shared by the test suite.

Everything here is deliberately written from scratch against the plain
definitions (literal double-sum DFTs, a transport linear program, per-head
attention loops) so it cannot share a bug with the package code it checks.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timezone

import numpy as np

from tfps import autodiff as ad


def rel_err(a, b) -> float:
    """Relative-with-absolute-floor error: |a-b| / max(|a|, |b|, 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def numeric_grad(f, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar-valued f() w.r.t. `array`,
    perturbing entries in place."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def numeric_grad_at(f, array: np.ndarray, index: int, eps: float = 1e-6) -> float:
    """Central difference for a single flat index of `array`."""
    flat = array.reshape(-1)
    orig = flat[index]
    flat[index] = orig + eps
    hi = f()
    flat[index] = orig - eps
    lo = f()
    flat[index] = orig
    return (hi - lo) / (2.0 * eps)


def named_grads(params: dict, leaves: dict) -> dict:
    """The gradients one backward walk returned (`leaves`, keyed by leaf
    node) of the named `params` it reached, keyed by name as
    `trainer.train_step` returns them."""
    return {name: leaves[t.node] for name, t in params.items() if t.node in leaves}


def linear_floor(train_windows, ridge: float):
    """The forecast of the linear floor fitted on `train_windows`: a ridge
    least-squares map from a window's L inputs, plus a bias, to its H
    outputs, one map shared by every channel (DLinear's linear part without
    its decomposition). The bias is not penalized. Returns the function
    `inputs (n, L, C) -> forecast (n, H, C)`."""
    inputs, targets = (np.moveaxis(a, -1, 1) for a in (train_windows.inputs, train_windows.targets))
    x = inputs.reshape(-1, inputs.shape[-1])  # one row per window and channel
    a = np.hstack([x, np.ones((len(x), 1))])
    penalty = np.diag(np.r_[np.full(x.shape[1], ridge), 0.0])
    coef = np.linalg.solve(a.T @ a + penalty, a.T @ targets.reshape(len(x), -1))  # (L + 1, H)
    return lambda windows: np.einsum("nlc,lh->nhc", windows, coef[:-1]) + coef[-1][:, None]


def nan_gradient_step(step, *names):
    """`step` (`trainer.train_step`), with a NaN written into its gradient
    of each parameter in `names`."""

    def injected(*args, **kwargs):
        grads, parts = step(*args, **kwargs)
        for name in names:
            grads[name].flat[0] = np.nan
        return grads, parts

    return injected


# -- tape ops the package no longer needs ----------------------------------------
# Elementwise nodes built from the public tape API, for the composites that
# test_fused_ops.py keeps as oracles of the fused ops.


def exp(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    node, out_data = a.node, np.exp(a.data)

    def backward(g):
        ad.accumulate(node, g * out_data)

    return ad.make_op(out_data, (a,), backward)


def sqrt(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    node, out_data = a.node, np.sqrt(a.data)

    def backward(g):
        ad.accumulate(node, g * 0.5 / out_data)

    return ad.make_op(out_data, (a,), backward)


# -- literal DFT definitions ----------------------------------------------------


def naive_dft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    out = np.zeros_like(x)
    for k in range(n):
        for j in range(n):
            out[..., k] += x[..., j] * np.exp(-2j * np.pi * j * k / n)
    return out


def naive_idft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    out = np.zeros_like(x)
    for k in range(n):
        for j in range(n):
            out[..., k] += x[..., j] * np.exp(2j * np.pi * j * k / n)
    return out / n


def naive_dft2_real(x: np.ndarray) -> np.ndarray:
    """Real part of the 2-D DFT over the last two axes via explicit double sums."""
    x = np.asarray(x, dtype=np.complex128)
    return naive_dft(np.moveaxis(naive_dft(x), -1, -2)).real.swapaxes(-1, -2)


def naive_idft2_real(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    return naive_idft(np.moveaxis(naive_idft(x), -1, -2)).real.swapaxes(-1, -2)


# -- brute-force optimal transport ------------------------------------------------


def w1_linprog(u, v) -> float:
    """First Wasserstein distance as a transport LP over the full coupling
    polytope, solved with an off-the-shelf solver. Exact for small inputs."""
    from scipy.optimize import linprog

    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    n, m = u.size, v.size
    cost = np.abs(u[:, None] - v[None, :]).ravel()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


# -- literal multi-head attention ---------------------------------------------------


def reference_attention(tokens, wq, wk, wv, wo, n_heads: int) -> np.ndarray:
    """Softmax(Q K^T / sqrt(d_k)) V per head with plain loops, then concat and
    output-project."""
    tokens = np.asarray(tokens, dtype=np.float64)
    n, d = tokens.shape
    dk = d // n_heads
    q_all = tokens @ wq
    k_all = tokens @ wk
    v_all = tokens @ wv
    heads = []
    for h in range(n_heads):
        sl = slice(h * dk, (h + 1) * dk)
        q, k, v = q_all[:, sl], k_all[:, sl], v_all[:, sl]
        scores = q @ k.T / np.sqrt(dk)
        weights = np.zeros_like(scores)
        for i in range(n):
            row = np.exp(scores[i] - scores[i].max())
            weights[i] = row / row.sum()
        heads.append(weights @ v)
    return np.concatenate(heads, axis=1) @ wo


def record_expert_calls(monkeypatch, mope, experts) -> list[int]:
    """Wrap `mope.expert_forward` so that each call appends the index in
    `experts` of the expert it evaluates (-1 for any other expert). Returns
    the list it fills."""
    calls: list[int] = []
    real = mope.expert_forward

    def recorded(z, params):
        calls.append(next((j for j, e in enumerate(experts) if e is params), -1))
        return real(z, params)

    monkeypatch.setattr(mope, "expert_forward", recorded)
    return calls


def reference_load_csv(path):
    """The row-by-row CSV reader that `data.load_csv` replaced: csv.reader
    records, one float() per cell, one fromisoformat per non-numeric stamp.
    Returns a MultivariateSeries or raises DataError with the messages
    load_csv keeps, each naming the file (its non-increasing-timestamp
    message is the series' own, 0-based)."""
    from tfps.data import MultivariateSeries
    from tfps.errors import DataError

    def parse_timestamp(text, row):
        text = text.strip()
        try:
            seconds = float(text)
        except ValueError:
            try:
                dt = datetime.fromisoformat(text)
            except ValueError:
                raise DataError(f"{path}: row {row}: cannot parse timestamp {text!r}") from None
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            seconds = dt.timestamp()
        if not math.isfinite(seconds):
            raise DataError(f"{path}: row {row}: non-finite timestamp {text!r}")
        return seconds

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        names = [h.strip() for h in header[1:]]
        if not names:
            raise DataError(f"{path}: no data columns after the timestamp column")
        ts, rows = [], []
        for row_idx, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_idx} has {len(row)} fields, expected {len(header)}")
            ts.append(parse_timestamp(row[0], row_idx))
            parsed = []
            for name, cell in zip(names, row[1:]):
                cell = cell.strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(f"{path}: row {row_idx}, column {name!r}: cannot parse {cell!r}") from None
                if not math.isfinite(v):
                    raise DataError(f"{path}: row {row_idx}, column {name!r}: non-finite value")
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return MultivariateSeries(np.array(ts), np.array(rows), tuple(names))


def reference_save_csv(series, path) -> None:
    """The csv.writer loop that `data.save_csv` replaced: one strftime per
    dated row, one repr per cell, one writerow per row."""
    ts = series.timestamps
    span = (-30610224000.0, 253402300799.0)  # 1000-01-01 to 9999-12-31 UTC
    dated = np.array_equal(ts, np.round(ts)) and span[0] <= ts[0] and ts[-1] <= span[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *series.channel_names])
        for t, row in zip(ts, series.values):
            if dated:
                stamp = datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
            else:
                stamp = repr(float(t))
            writer.writerow([stamp] + [repr(float(v)) for v in row])


def savetxt_bytes(m) -> bytes:
    """What np.savetxt(path, m, delimiter=",") writes for m, one "%.18e"
    call per value: the writer that `data.save_matrix` must match."""
    buffer = io.StringIO(newline="")
    np.savetxt(buffer, m, delimiter=",")
    return buffer.getvalue().encode()
