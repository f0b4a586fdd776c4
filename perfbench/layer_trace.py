"""Outside-in per-layer tracer for the tfps benchmark.

The tracer replaces module attributes of the installed ``tfps`` package with
timing wrappers, so it measures the program without changing its sources.
Each target is the attribute a caller looks up at call time: a module global
that another module calls (``encoder.attention``), a name imported into the
caller's namespace (``model.embed``), or a class attribute (``Tensor.backward``).

Every wrapped call is a span. A span's self time is its duration minus the
durations of the spans that ran inside it. ``autodiff.make_op`` and
``fourier.make_op`` are wrapped too: the backward closure of every tape node
is timed and charged to the innermost span open when the node was created, so
backward time lands on the layer whose forward pass built it. Only the layers
that report a ``bwd_s`` count towards ``autodiff.backward_attributed_frac``, so
the share drops when a refactor moves backward work out of them (into
``encoder.encode``, say).

A target that no longer exists (a later refactor may remove or rename it) is
recorded in ``absent`` and skipped; its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute path, span name). Several call sites may share a span.
SPAN_TARGETS = (
    ("tfps.autodiff", "Tensor.backward", "autodiff.backward"),
    ("tfps.model", "TFPSModel.forward", "model.forward"),
    ("tfps.model", "segment_batch", "patching.segment_batch"),
    ("tfps.patching", "segment_batch", "patching.segment_batch"),
    ("tfps.model", "embed", "patching.embed"),
    ("tfps.encoder", "encode", "encoder.encode"),
    ("tfps.encoder", "attention", "encoder.attention"),
    ("tfps.encoder", "feed_forward", "encoder.feed_forward"),
    ("tfps.encoder", "layer_norm", "encoder.layer_norm"),
    ("tfps.encoder", "fourier_mix", "fourier.fourier_mix"),
    ("tfps.mope", "inverse_fourier_mix", "fourier.inverse_fourier_mix"),
    ("tfps.model", "inverse_fourier_mix", "fourier.inverse_fourier_mix"),
    ("tfps.evaluate", "amplitude_spectrum", "fourier.amplitude_spectrum"),
    ("tfps.drift", "amplitude_spectrum", "fourier.amplitude_spectrum"),
    ("tfps.pattern", "affinity", "pattern.affinity"),
    ("tfps.pattern", "reg_r1", "pattern.pi_terms"),
    ("tfps.pattern", "reg_r2", "pattern.pi_terms"),
    ("tfps.pattern", "refine", "pattern.pi_terms"),
    ("tfps.pattern", "kl_loss", "pattern.pi_terms"),
    ("tfps.mope", "gate", "mope.gate"),
    ("tfps.mope", "aggregate", "mope.aggregate"),
    ("tfps.mope", "combine_branches", "mope.combine_branches"),
    ("tfps.mope", "head", "mope.head"),
    ("tfps.trainer", "train", "trainer.train"),
    ("tfps.trainer", "Adam.step", "trainer.adam_step"),
    ("tfps.trainer", "validation_mse", "trainer.validation_mse"),
    ("tfps.trainer", "total_loss", "trainer.total_loss"),
    ("tfps.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("tfps.data", "load_csv", "data.load_csv"),
    ("tfps.data", "make_windows", "data.make_windows"),
    ("tfps.data", "save_csv", "data.save_csv"),
    ("tfps.evaluate", "evaluate_windows", "evaluate.evaluate_windows"),
    ("tfps.evaluate", "routing_report", "evaluate.routing_report"),
    ("tfps.drift", "patch_distance_matrix", "drift.patch_distance_matrix"),
    ("tfps.cli", "run", "cli.run"),
)
MAKE_OP_TARGETS = (("tfps.autodiff", "make_op"), ("tfps.fourier", "make_op"))
# Counted, not timed: ~30k calls per routing report, whose time stays in the
# report's self time.
COUNT_TARGETS = (("tfps.evaluate", "wasserstein_1d", "evaluate.wasserstein_calls"),)

# Layers reported as forward self time plus charged backward time.
FWD_BWD_LAYERS = (
    "encoder.attention", "encoder.feed_forward", "encoder.layer_norm",
    "fourier.fourier_mix", "fourier.inverse_fourier_mix",
    "pattern.affinity", "pattern.pi_terms",
    "mope.gate", "mope.aggregate", "mope.head", "mope.combine_branches", "patching.embed",
)
# metric name -> span whose inclusive time it reports
INCLUSIVE = {
    "autodiff.backward_s": "autodiff.backward",
    "fourier.amplitude_spectrum_s": "fourier.amplitude_spectrum",
    "patching.segment_batch_s": "patching.segment_batch",
    "trainer.adam_step_s": "trainer.adam_step",
    "trainer.validation_mse_s": "trainer.validation_mse",
    "trainer.load_checkpoint_s": "trainer.load_checkpoint",
    "data.load_csv_s": "data.load_csv",
    "data.make_windows_s": "data.make_windows",
    "data.save_csv_s": "data.save_csv",
    "evaluate.evaluate_windows_s": "evaluate.evaluate_windows",
    "drift.patch_distance_matrix_s": "drift.patch_distance_matrix",
}
# metric name -> span whose self time it reports
SELF = {
    "trainer.train.self_s": "trainer.train",
    "evaluate.routing_report.self_s": "evaluate.routing_report",
    "cli.self_s": "cli.run",
}


def _resolve(module: str, path: str):
    """Return (owner, attribute name, current value); raise LookupError when
    the module or any part of the path is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError as e:
        raise LookupError(module) from e
    *parents, name = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise LookupError(f"{module}.{path}")
        owner = getattr(owner, part)
    if not hasattr(owner, name):
        raise LookupError(f"{module}.{path}")
    return owner, name, getattr(owner, name)


class Tracer:
    """Install with ``install()``, run the traced work, then ``uninstall()``."""

    def __init__(self):
        self.incl = defaultdict(float)  # span -> inclusive seconds
        self.self_time = defaultdict(float)  # span -> self seconds
        self.bwd = defaultdict(float)  # creating span (None: none open) -> backward seconds
        self.counts = defaultdict(int)  # counter name -> calls
        self.nodes = 0  # tape nodes recorded
        self.expert_rows = 0  # token rows evaluated by experts
        self.expert_slots = 0  # experts offered tokens, summed over aggregate calls
        self.nograd_windows = 0
        self.nograd_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [name, seconds of child spans]
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, path, span in SPAN_TARGETS:
            self._patch(module, path, lambda fn, span=span: self._span(span, fn))
        for module, path in MAKE_OP_TARGETS:
            self._patch(module, path, self._make_op)
        for module, path, counter in COUNT_TARGETS:
            self._patch(module, path, lambda fn, counter=counter: self._counter(counter, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        try:
            owner, name, original = _resolve(module, path)
        except LookupError:
            self.absent.append(f"{module}.{path}")
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    # -- wrappers -------------------------------------------------------------

    def _span(self, span: str, fn):
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self.incl[span] += duration
                self.self_time[span] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            self._observe(span, args, out, duration)
            return out

        return traced

    def _observe(self, span: str, args, out, duration: float) -> None:
        if span == "model.forward" and not out.yhat.requires_grad:
            self.nograd_windows += out.yhat.shape[0]
            self.nograd_s += duration
        elif span == "mope.aggregate":
            gating = args[0]
            n_experts = gating.weights.shape[1]
            routed = [(gating.indices == j).any(axis=1).sum() for j in range(n_experts)]
            self.expert_rows += int(sum(routed))
            self.expert_slots += sum(1 for r in routed if r)

    def _make_op(self, make_op):
        stack = self._stack
        bwd = self.bwd
        perf = time.perf_counter

        def traced_make_op(data, parents, backward):
            owner = stack[-1][0] if stack else None

            def timed_backward(g):
                start = perf()
                backward(g)
                bwd[owner] += perf() - start

            out = make_op(data, parents, timed_backward)
            if out.requires_grad:
                self.nodes += 1
            return out

        return traced_make_op

    def _counter(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- report ---------------------------------------------------------------

    def layer_metrics(self, per: float) -> dict[str, float]:
        """Per-layer figures divided by `per` (train steps, or traced passes)."""
        m: dict[str, float] = {}
        backward_s = self.incl["autodiff.backward"]
        attributed = sum(self.bwd[layer] for layer in FWD_BWD_LAYERS)
        m["autodiff.backward_s"] = backward_s / per
        m["autodiff.nodes"] = self.nodes / per
        m["autodiff.backward_attributed_frac"] = attributed / backward_s if backward_s else 0.0
        for layer in FWD_BWD_LAYERS:
            m[f"{layer}.fwd_s"] = self.self_time[layer] / per
            m[f"{layer}.bwd_s"] = self.bwd[layer] / per
        for metric, span in INCLUSIVE.items():
            m[metric] = self.incl[span] / per
        for metric, span in SELF.items():
            m[metric] = self.self_time[span] / per
        m["mope.aggregate.rows"] = self.expert_rows / self.expert_slots if self.expert_slots else 0.0
        m["model.forward_nograd_s"] = self.nograd_s / self.nograd_windows if self.nograd_windows else 0.0
        m["evaluate.wasserstein_calls"] = self.counts["evaluate.wasserstein_calls"] / per
        m["trace.absent"] = float(len(self.absent))
        return m
