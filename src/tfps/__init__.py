"""Dual-domain patch forecasting with subspace-clustered pattern experts and a
Wasserstein patch-drift analyzer."""

from .config import TrainConfig, config_from_dict
from .data import (
    ForecastWindow,
    MultivariateSeries,
    RegimeSpec,
    Scaler,
    SynthSpec,
    Windows,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_windows,
    save_csv,
    split,
    synth_generate,
)
from .drift import average_wasserstein, patch_distance_matrix, wasserstein_1d
from .errors import DataError, NumericError
from .model import TFPSModel
from .patching import patch_count, segment_batch
from .trainer import Checkpoint, grid_search, load_checkpoint, save_checkpoint, total_loss, train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "DataError",
    "ForecastWindow",
    "MultivariateSeries",
    "NumericError",
    "RegimeSpec",
    "Scaler",
    "SynthSpec",
    "TFPSModel",
    "TrainConfig",
    "Windows",
    "apply_scaler",
    "average_wasserstein",
    "config_from_dict",
    "fit_scaler",
    "grid_search",
    "load_csv",
    "load_checkpoint",
    "make_windows",
    "patch_count",
    "patch_distance_matrix",
    "save_checkpoint",
    "save_csv",
    "segment_batch",
    "split",
    "synth_generate",
    "total_loss",
    "train",
    "wasserstein_1d",
]
