"""The full forecasting model: patch embedding, dual-domain encoders, pattern
identifiers, expert mixtures, branch merge, and the linear forecast head.

Ablation variants are pure configuration: `branches` drops one encoder path,
`pi_mode="linear"` swaps the subspace identifier for a learned linear gate
(and removes the identifier loss)."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class Forward:
    """Everything a loss or a diagnostic needs from one pass."""

    yhat: Tensor  # (B, H, C)
    s_time: Tensor | None  # (M, K_t) routing probabilities
    s_freq: Tensor | None
    z_time: Tensor | None  # (M, D) flattened tokens entering the identifier
    z_freq: Tensor | None
    gating_time: mope.GatingWeights | None
    gating_freq: mope.GatingWeights | None


class TFPSModel:
    def __init__(self, cfg: TrainConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.params: dict[str, Tensor] = {}
        self.expert_calls = {"time": [0] * cfg.k_time, "freq": [0] * cfg.k_freq}
        d = cfg.d_model
        n = cfg.n_patches

        def p(name: str, shape, std: float | None = INIT_STD) -> Tensor:
            data = rng.normal(0.0, std, size=shape) if std else np.zeros(shape)
            t = ad.parameter(data)
            self.params[name] = t
            return t

        def const(name: str, value: np.ndarray) -> Tensor:
            t = ad.parameter(value)
            self.params[name] = t
            return t

        p("embed.proj", (cfg.patch_len, d))
        p("embed.bias", (d,), std=None)
        p("embed.pos", (n, d))

        self.time_layers: list[encoder.LayerParams] = []
        self.freq_layers: list[encoder.LayerParams] = []
        for branch in self._branches():
            layers = self.time_layers if branch == "time" else self.freq_layers
            for layer in range(cfg.n_layers):
                pre = f"{branch}.enc{layer}"
                attn = {}
                if branch == "time":
                    attn = {w: p(f"{pre}.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo")}
                layers.append(
                    encoder.LayerParams(
                        wq=attn.get("wq"),
                        wk=attn.get("wk"),
                        wv=attn.get("wv"),
                        wo=attn.get("wo"),
                        norm1_scale=const(f"{pre}.norm1.scale", np.ones(d)),
                        norm1_shift=const(f"{pre}.norm1.shift", np.zeros(d)),
                        ff_w1=p(f"{pre}.ff.w1", (d, cfg.d_ff_eff)),
                        ff_b1=p(f"{pre}.ff.b1", (cfg.d_ff_eff,), std=None),
                        ff_w2=p(f"{pre}.ff.w2", (cfg.d_ff_eff, d)),
                        ff_b2=p(f"{pre}.ff.b2", (d,), std=None),
                        norm2_scale=const(f"{pre}.norm2.scale", np.ones(d)),
                        norm2_shift=const(f"{pre}.norm2.shift", np.zeros(d)),
                    )
                )

        self.experts: dict[str, list[mope.ExpertParams]] = {}
        for branch in self._branches():
            k_experts = cfg.k_time if branch == "time" else cfg.k_freq
            hidden = cfg.expert_hidden_eff
            if cfg.pi_mode == "subspace":
                bases = pattern.init_bases(d, k_experts, rng)
                self.params[f"{branch}.bases"] = bases
            else:
                p(f"{branch}.gate.w", (d, k_experts))
                p(f"{branch}.gate.b", (k_experts,), std=None)
            self.experts[branch] = [
                mope.ExpertParams(
                    w1=p(f"{branch}.expert{j}.w1", (d, hidden)),
                    b1=p(f"{branch}.expert{j}.b1", (hidden,), std=None),
                    w2=p(f"{branch}.expert{j}.w2", (hidden, d)),
                    b2=p(f"{branch}.expert{j}.b2", (d,), std=None),
                )
                for j in range(k_experts)
            ]

        width = 2 * d if cfg.branches == "both" else d
        p("head.w", (n * width, cfg.pred_len))
        p("head.b", (cfg.pred_len,), std=None)

    # -- plumbing ---------------------------------------------------------

    def _branches(self) -> tuple[str, ...]:
        if self.cfg.branches == "both":
            return ("time", "freq")
        return ("time",) if self.cfg.branches == "time" else ("freq",)

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus batch-norm running stats, for checkpointing."""
        out = {name: t.data for name, t in self.params.items()}
        for i, layer in enumerate(self.time_layers):
            for slot, stats in (("bn1", layer.bn1_stats), ("bn2", layer.bn2_stats)):
                for key, arr in stats.items():
                    out[f"time.enc{i}.{slot}.{key}"] = arr
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            if name not in arrays:
                raise DataError(f"checkpoint missing parameter {name!r}")
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise DataError(
                    f"parameter {name!r} shape {arr.shape} does not match {t.data.shape}"
                )
            t.data = arr.copy()
        for i, layer in enumerate(self.time_layers):
            for slot, stats in (("bn1", layer.bn1_stats), ("bn2", layer.bn2_stats)):
                stats.clear()
                for key in ("mean", "var"):
                    full = f"time.enc{i}.{slot}.{key}"
                    if full in arrays:
                        stats[key] = np.asarray(arrays[full], dtype=np.float64).copy()

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def reset_expert_calls(self) -> None:
        self.expert_calls = {"time": [0] * self.cfg.k_time, "freq": [0] * self.cfg.k_freq}

    # -- forward ------------------------------------------------------------

    def _routing(self, branch: str, z_flat: Tensor) -> Tensor:
        if self.cfg.pi_mode == "subspace":
            k_experts = self.cfg.k_time if branch == "time" else self.cfg.k_freq
            return pattern.affinity(z_flat, self.params[f"{branch}.bases"], k_experts)
        logits = z_flat @ self.params[f"{branch}.gate.w"] + self.params[f"{branch}.gate.b"]
        return ad.softmax(logits, axis=-1)

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
        z_out: dict[str, Tensor] = {}
        g_out: dict[str, mope.GatingWeights] = {}
        for branch in self._branches():
            if branch == "time":
                z = encoder.encode(
                    tokens, self.time_layers, cfg.n_heads, "time",
                    norm=cfg.time_norm, dropout=cfg.dropout, training=training, rng=rng,
                )
            else:
                z = encoder.encode(
                    tokens, self.freq_layers, cfg.n_heads, "frequency",
                    norm="layer", dropout=cfg.dropout, training=training, rng=rng,
                )
            z_flat = z.reshape(b_sz * c_sz * n, cfg.d_model)
            s = self._routing(branch, z_flat)
            k_experts = cfg.k_time if branch == "time" else cfg.k_freq
            gating = mope.gate(s, cfg.top_k_eff(k_experts))
            h = mope.aggregate(gating, z_flat, self.experts[branch], self.expert_calls[branch])
            outputs[branch] = h.reshape(b_sz, c_sz, n, cfg.d_model)
            s_out[branch], z_out[branch], g_out[branch] = s, z_flat, gating

        if cfg.branches == "both":
            h = mope.combine_branches(outputs["time"], outputs["freq"])
        elif cfg.branches == "time":
            h = outputs["time"]
        else:
            h = inverse_fourier_mix(outputs["freq"])
        yhat = mope.head(h, self.params["head.w"], self.params["head.b"])  # (B, H, C)
        if cfg.instance_norm:
            yhat = yhat * inst_sigma + inst_mu
        return Forward(
            yhat=yhat,
            s_time=s_out.get("time"),
            s_freq=s_out.get("freq"),
            z_time=z_out.get("time"),
            z_freq=z_out.get("freq"),
            gating_time=g_out.get("time"),
            gating_freq=g_out.get("freq"),
        )

    # -- loss ---------------------------------------------------------------

    def branch_pi_loss(self, branch: str, s: Tensor, s_hat: np.ndarray | None = None) -> Tensor | float:
        """alpha*(R1+R2) + beta*KL for one branch; 0 when the identifier is
        ablated to a linear gate."""
        if self.cfg.pi_mode != "subspace":
            return 0.0
        k_experts = self.cfg.k_time if branch == "time" else self.cfg.k_freq
        bases = self.params[f"{branch}.bases"]
        loss = (pattern.reg_r1(bases) + pattern.reg_r2(bases, k_experts)) * self.cfg.alpha
        if self.cfg.beta > 0:
            target = pattern.refine(s.data) if s_hat is None else s_hat
            loss = loss + pattern.kl_loss(target, s) * self.cfg.beta
        return loss

    def loss(
        self,
        x: np.ndarray,
        y: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        s_hat_time: np.ndarray | None = None,
        s_hat_freq: np.ndarray | None = None,
    ) -> tuple[Tensor, Forward, dict]:
        from .trainer import total_loss  # local import: trainer owns the loss contract

        fwd = self.forward(x, training=training, rng=rng)
        pi_t = self.branch_pi_loss("time", fwd.s_time, s_hat_time) if fwd.s_time is not None else 0.0
        pi_f = self.branch_pi_loss("freq", fwd.s_freq, s_hat_freq) if fwd.s_freq is not None else 0.0
        total = total_loss(fwd.yhat, y, pi_t, pi_f)
        parts = {
            "mse": float(np.mean((fwd.yhat.data - y) ** 2)),
            "pi_time": float(pi_t.data) if isinstance(pi_t, Tensor) else pi_t,
            "pi_freq": float(pi_f.data) if isinstance(pi_f, Tensor) else pi_f,
        }
        return total, fwd, parts
