"""The full forecasting model: patch embedding, dual-domain encoders, pattern
identifiers, expert mixtures, branch merge, and the linear forecast head.

Ablation variants are pure configuration: `branches` drops one encoder path,
`pi_mode="linear"` swaps the subspace identifier for a learned linear gate
(and removes the identifier loss)."""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoder, mope, pattern
from .autodiff import Tensor
from .config import TrainConfig
from .errors import DataError
from .fourier import inverse_fourier_mix
from .patching import embed, segment_batch

INIT_STD = 0.02
INSTANCE_EPS = 1e-5


def forecast_workers() -> int:
    """The most threads an `on_threads` call runs on (`TFPSModel.forecast`'s
    slices, a training step's shards): the usable cores divided by the BLAS
    pool size the environment sets (OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS). With neither set, BLAS already spreads over every core,
    so one thread. Platforms without `os.sched_getaffinity` count
    `os.cpu_count()`."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas >= 1:
            affinity = getattr(os, "sched_getaffinity", None)
            cores = len(affinity(0)) if affinity else os.cpu_count() or 1
            return max(1, cores // blas)
    return 1


def on_threads(fn, n: int) -> list:
    """`[fn(0), ..., fn(n - 1)]` on `min(forecast_workers(), n)` threads: the
    calling thread runs every workers-th call and a pool that lives for this
    call the others, each in a copy of the caller's context, so every call
    sees the caller's grad mode and `np.errstate`. The first exception
    reaches the caller once the calls the pool has not started are cancelled
    and its threads have ended; with one worker the pool starts no thread.
    No other code in the package starts a thread."""
    workers = max(1, min(forecast_workers(), n))
    pool = ThreadPoolExecutor(max(1, workers - 1))
    try:
        # one copy per call: two threads cannot enter one Context at once
        futures = {i: pool.submit(contextvars.copy_context().run, fn, i) for i in range(n) if i % workers}
        mine = {i: fn(i) for i in range(0, n, workers)}
        return [mine[i] if i in mine else futures[i].result() for i in range(n)]
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class Forward:
    """Everything a loss or a diagnostic needs from one pass."""

    yhat: Tensor  # (B, H, C)
    s: dict[str, Tensor]  # branch name -> (M, K) routing probabilities


@dataclass
class Branch:
    """One encoder path: its encoder layers, pattern identifier and experts.
    `name` ("time" or "freq") prefixes the branch's checkpoint keys."""

    name: str
    K: int  # experts
    layers: list[encoder.LayerParams]
    identifier: dict[str, Tensor] = field(default_factory=dict)  # "bases", or "gate.w" + "gate.b"
    experts: list[encoder.MLPParams] = field(default_factory=list)

    def route(self, z: Tensor) -> Tensor:
        """(M, K) routing probabilities of flattened tokens z."""
        if "bases" in self.identifier:
            return pattern.affinity(z, self.identifier["bases"], self.K)
        return ad.softmax(ad.linear(z, self.identifier["gate.w"], self.identifier["gate.b"]), axis=-1)

    def pi_loss(self, s: Tensor, alpha: float, beta: float, s_hat=None) -> Tensor | float:
        """Identifier loss of routing probabilities `s` (see `pattern.pi_loss`);
        the linear gate has none."""
        if "bases" not in self.identifier:
            return 0.0
        return pattern.pi_loss(s, self.identifier["bases"], self.K, alpha, beta, s_hat)


class TFPSModel:
    def __init__(self, cfg: TrainConfig, rng: np.random.Generator | None = None, *,
                 arrays: dict[str, np.ndarray] | None = None):
        """The model `cfg` describes, drawn from `rng` (by default seeded with
        `cfg.seed`), or built on a checkpoint's `arrays`, drawing nothing: a
        float64 array is used as given and another converted. A missing,
        misshapen or unused one is a DataError naming its key."""
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed) if rng is None and arrays is None else rng
        self.params: dict[str, Tensor] = {}
        self.norm_stats: dict[str, dict[str, np.ndarray]] = {}  # checkpoint prefix -> running stats
        d = cfg.d_model
        n = cfg.n_patches

        def stored(name: str, shape: tuple[int, ...]) -> np.ndarray:
            if name not in arrays:
                raise DataError(f"checkpoint has no array {name!r}")
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != shape:
                raise DataError(f"array {name!r} has shape {value.shape}, the config gives {shape}")
            return value

        def param(name: str, shape: tuple[int, ...], init) -> Tensor:
            t = self.params[name] = ad.parameter(init() if arrays is None else stored(name, shape))
            return t

        def p(name: str, shape: tuple[int, ...], std: float | None = INIT_STD) -> Tensor:
            return param(name, shape, lambda: rng.normal(0.0, std, size=shape) if std else np.zeros(shape))

        def mlp(prefix: str, hidden: int) -> encoder.MLPParams:
            return encoder.MLPParams(
                w1=p(f"{prefix}.w1", (d, hidden)),
                b1=p(f"{prefix}.b1", (hidden,), std=None),
                w2=p(f"{prefix}.w2", (hidden, d)),
                b2=p(f"{prefix}.b2", (d,), std=None),
            )

        def running_stats(prefix: str) -> dict[str, np.ndarray]:  # stored mean and var, or neither
            stats = self.norm_stats[prefix] = {}
            if arrays is not None and (f"{prefix}.mean" in arrays or f"{prefix}.var" in arrays):
                stats["mean"], stats["var"] = (stored(f"{prefix}.{k}", (d,)) for k in ("mean", "var"))
            return stats

        p("embed.proj", (cfg.patch_len, d))
        p("embed.bias", (d,), std=None)
        p("embed.pos", (n, d))

        names = {"both": ("time", "freq"), "time": ("time",), "frequency": ("freq",)}[cfg.branches]
        # seeded initializations depend on the RNG draw order: every branch's
        # encoder layers, then each branch's identifier and experts, then the head
        self.branches: dict[str, Branch] = {}
        for name in names:
            # the time branch alone attends and may batch-normalize
            batch_norm = name == "time" and cfg.time_norm == "batch"
            layers = []
            for layer in range(cfg.n_layers):
                pre = f"{name}.enc{layer}"
                attn = {w: p(f"{pre}.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo") if name == "time"}
                layers.append(
                    encoder.LayerParams(
                        norm1_scale=param(f"{pre}.norm1.scale", (d,), lambda: np.ones(d)),
                        norm1_shift=p(f"{pre}.norm1.shift", (d,), std=None),
                        ff=mlp(f"{pre}.ff", cfg.d_ff_eff),
                        norm2_scale=param(f"{pre}.norm2.scale", (d,), lambda: np.ones(d)),
                        norm2_shift=p(f"{pre}.norm2.shift", (d,), std=None),
                        bn1_stats=running_stats(f"{pre}.bn1") if batch_norm else None,
                        bn2_stats=running_stats(f"{pre}.bn2") if batch_norm else None,
                        **attn,
                    )
                )
            self.branches[name] = Branch(name, cfg.k_time if name == "time" else cfg.k_freq, layers)

        for br in self.branches.values():
            if cfg.pi_mode == "subspace":
                br.identifier["bases"] = param(
                    f"{br.name}.bases", (d, d), lambda: pattern.init_bases(d, br.K, rng).data
                )
            else:
                br.identifier["gate.w"] = p(f"{br.name}.gate.w", (d, br.K))
                br.identifier["gate.b"] = p(f"{br.name}.gate.b", (br.K,), std=None)
            br.experts = [mlp(f"{br.name}.expert{j}", cfg.expert_hidden_eff) for j in range(br.K)]

        width = d * len(self.branches)
        p("head.w", (n * width, cfg.pred_len))
        p("head.b", (cfg.pred_len,), std=None)
        unused = sorted(set(arrays or ()) - set(self.named_arrays()))
        if unused:
            raise DataError(f"checkpoint has array {unused[0]!r}, which its config does not use")

    # -- plumbing ---------------------------------------------------------

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus batch-norm running stats, for checkpointing."""
        out = {name: t.data for name, t in self.params.items()}
        for prefix, stats in self.norm_stats.items():
            for key, arr in stats.items():
                out[f"{prefix}.{key}"] = arr
        return out

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward ------------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Forward:
        """x: (B, L, C) already on the model's working scale."""
        cfg = self.cfg
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != cfg.seq_len:
            raise ValueError(f"expected (B, {cfg.seq_len}, C) input, got {x.shape}")
        inst_mu = inst_sigma = None
        if cfg.instance_norm:
            inst_mu = x.mean(axis=1, keepdims=True)  # (B, 1, C)
            inst_sigma = np.sqrt(x.var(axis=1, keepdims=True) + INSTANCE_EPS)
            x = (x - inst_mu) / inst_sigma
        patches = segment_batch(x, cfg.patch_len, cfg.stride)  # (B, C, N, P)
        b_sz, c_sz, n, _ = patches.shape
        tokens = embed(
            patches, self.params["embed.proj"], self.params["embed.bias"], self.params["embed.pos"]
        )

        outputs: dict[str, Tensor] = {}
        s_out: dict[str, Tensor] = {}
        for name, br in self.branches.items():
            z = encoder.encode(tokens, br.layers, cfg.n_heads, cfg.dropout, training, rng)
            z_flat = z.reshape(b_sz * c_sz * n, cfg.d_model)
            s = s_out[name] = br.route(z_flat)
            gating = mope.gate(s, cfg.top_k_eff(br.K))
            h = mope.aggregate(gating, z_flat, br.experts)
            outputs[name] = h.reshape(b_sz, c_sz, n, cfg.d_model)

        if cfg.branches == "both":
            h = mope.combine_branches(outputs["time"], outputs["freq"])
        elif cfg.branches == "time":
            h = outputs["time"]
        else:
            h = inverse_fourier_mix(outputs["freq"])
        yhat = mope.head(h, self.params["head.w"], self.params["head.b"])  # (B, H, C)
        if cfg.instance_norm:
            yhat = yhat * inst_sigma + inst_mu
        return Forward(yhat=yhat, s=s_out)

    def forecast(self, inputs: np.ndarray) -> np.ndarray:
        """(n, H, C) forecasts of (n, L, C) inputs without a tape, about the
        config's `batch_size` windows in flight at once.

        Every no-grad op works per window, token or (window, channel), and
        batch norm evaluates with its running stats, so `on_threads` runs the
        windows in slices of an equal share of `min(n, batch_size)` windows;
        the output equals a serial loop bit for bit."""
        n = len(inputs)
        out = np.empty((n, self.cfg.pred_len, inputs.shape[-1]))
        workers = max(1, min(forecast_workers(), n))
        step = max(1, -(-min(n, self.cfg.batch_size) // workers))

        def run(i: int) -> None:
            rows = slice(i * step, (i + 1) * step)
            out[rows] = self.forward(inputs[rows]).yhat.data

        with ad.no_grad():
            on_threads(run, -(-n // step))  # one call per slice
        return out
