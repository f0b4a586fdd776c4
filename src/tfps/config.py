"""Run configuration: one dataclass covering architecture and optimization.

A dataclass's annotations are its schema: `check_types`, run on construction
by `TrainConfig` and the synthetic-series specs in `data`, names the first
field whose value does not have its annotated type. The constructor,
`dataclasses.replace`, JSON configs, grid cells and checkpoint headers all
get that check before any compute."""

from __future__ import annotations

import dataclasses
import functools
import reprlib
import sys
import types
import typing
from dataclasses import dataclass

from .patching import patch_count


# field name -> resolved annotation of a dataclass, read once per class
_field_types = functools.cache(typing.get_type_hints)


def _accepts(hint, value) -> bool:
    """Whether `value` has type `hint`. A float takes an int or float that is
    finite as a float, a tuple takes a list, `X | None` takes either, a
    `Literal` takes one of its values, and a bool passes only a bool field."""
    if isinstance(hint, types.UnionType):
        return any(_accepts(h, value) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        return len(items) == len(value) and all(map(_accepts, items, value))
    if typing.get_origin(hint) is typing.Literal:
        return value in typing.get_args(hint)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max  # False for NaN
    return isinstance(value, hint)


def check_value(cls, name: str, value) -> None:
    """Raise ValueError unless `value` fits field `name` of dataclass `cls`."""
    hint = _field_types(cls).get(name)
    if hint is None:
        raise ValueError(f"{cls.__name__} has no field {name!r}")
    if not _accepts(hint, value):
        expected = hint.__name__ if isinstance(hint, type) else str(hint)
        if hint is float:
            expected = "finite float"
        if typing.get_origin(hint) is typing.Literal:
            expected = " or ".join(map(repr, typing.get_args(hint)))
        raise ValueError(f"{cls.__name__} field {name!r}: expected {expected}, "
                         f"got {type(value).__name__} {reprlib.repr(value)}")


def check_types(obj) -> None:
    """Check every field of dataclass `obj` against its annotation, naming the
    first that fails; a list given for a tuple field is stored as a tuple."""
    for name in _field_types(type(obj)):
        value = getattr(obj, name)
        check_value(type(obj), name, value)
        if isinstance(value, list):
            object.__setattr__(obj, name, tuple(value))  # frozen dataclasses too


@dataclass
class TrainConfig:
    # architecture
    seq_len: int = 96
    pred_len: int = 96
    patch_len: int = 16
    stride: int = 8
    d_model: int = 512
    n_layers: int = 2
    n_heads: int = 8
    d_ff: int | None = None  # defaults to 2*d_model
    k_time: int = 2
    k_freq: int = 2
    top_k: int = 2
    expert_hidden: int | None = None  # defaults to d_model
    alpha: float = 1e-3
    beta: float = 0.1
    pi_mode: typing.Literal["subspace", "linear"] = "subspace"  # "linear" is the ablation
    branches: typing.Literal["both", "time", "frequency"] = "both"  # one branch is the ablation
    time_norm: typing.Literal["layer", "batch"] = "layer"
    dropout: float = 0.0
    instance_norm: bool = False
    # optimization
    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    scale: bool = True
    split_ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        check_types(self)
        self.validate()

    @property
    def d_ff_eff(self) -> int:
        return self.d_ff if self.d_ff is not None else 2 * self.d_model

    @property
    def expert_hidden_eff(self) -> int:
        return self.expert_hidden if self.expert_hidden is not None else self.d_model

    @property
    def n_patches(self) -> int:
        return patch_count(self.seq_len, self.patch_len, self.stride)

    def top_k_eff(self, n_experts: int) -> int:
        # expert-count grids commonly include K=1 cells; clamp instead of rejecting
        return min(self.top_k, n_experts)

    def validate(self) -> None:
        positive = [
            "seq_len", "pred_len", "patch_len", "stride", "d_model", "n_layers",
            "n_heads", "k_time", "k_freq", "top_k", "batch_size", "max_epochs",
            "d_ff_eff", "expert_hidden_eff",  # d_ff and expert_hidden when set
        ]
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name.removesuffix('_eff')} must be >= 1, got {getattr(self, name)}")
        if self.patience < 0 or self.seed < 0:
            raise ValueError("patience and seed must be >= 0")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        patch_count(self.seq_len, self.patch_len, self.stride)  # rejects P > L and S > P
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.pi_mode == "subspace":
            if self.branches in ("both", "time") and self.d_model % self.k_time != 0:
                raise ValueError("d_model must be divisible by k_time")
            if self.branches in ("both", "frequency") and self.d_model % self.k_freq != 0:
                raise ValueError("d_model must be divisible by k_freq")
        if any(r <= 0 for r in self.split_ratios):
            raise ValueError("split_ratios must be three positive fractions")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError("split_ratios must sum to 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(obj: dict) -> TrainConfig:
    """Build a TrainConfig from a JSON object, rejecting unknown keys; the
    constructor checks each value's type."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(obj) - set(_field_types(TrainConfig)))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return TrainConfig(**obj)
