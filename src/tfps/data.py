"""Loading, splitting, normalizing, and windowing multivariate series, plus a
seeded synthetic regime-switch generator used throughout the tests."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_types
from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MultivariateSeries:
    """Immutable [T x C] observations with strictly increasing timestamps."""

    timestamps: np.ndarray  # epoch seconds, float64, shape (T,)
    values: np.ndarray  # float64, shape (T, C)
    channel_names: tuple[str, ...]

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise DataError(f"series values must be [T x C] with T,C >= 1, got {vals.shape}")
        if ts.shape != (vals.shape[0],):
            raise DataError("timestamps length must match the number of rows")
        if not np.all(np.isfinite(vals)):
            r, c = np.argwhere(~np.isfinite(vals))[0]
            raise DataError(f"non-finite value at row {r}, channel {self.channel_names[c]!r}")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            r = int(np.argmin(np.diff(ts) > 0))
            raise DataError(f"timestamps not strictly increasing at row {r + 1}")
        names = tuple(self.channel_names)
        if len(set(names)) < len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise DataError(f"duplicate channel name {dup!r}")
        ts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "channel_names", names)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ForecastWindow:
    """One (lookback, horizon) pair cut from a parent series."""

    input: np.ndarray  # (L, C)
    target: np.ndarray  # (H, C)
    origin_index: int


@dataclass(frozen=True, eq=False)
class Windows:
    """(lookback, horizon) pairs of a series as one read-only strided view, so
    nothing is copied until a batch is indexed out of `inputs`/`targets`. An
    integer index gives one ForecastWindow; a slice or an index array gives a
    Windows."""

    array: np.ndarray  # (n, L+H, C) view of the series values
    L: int
    origins: np.ndarray  # (n,) series row where each window starts

    @property
    def inputs(self) -> np.ndarray:  # (n, L, C)
        return self.array[:, : self.L]

    @property
    def targets(self) -> np.ndarray:  # (n, H, C)
        return self.array[:, self.L :]

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            row = self.array[key]
            return ForecastWindow(row[: self.L], row[self.L :], int(self.origins[key]))
        return Windows(self.array[key], self.L, self.origins[key])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class Scaler:
    """Per-channel z-score statistics fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray
    degenerate: np.ndarray = field(default=None)  # channels whose std was clamped

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        flags = np.zeros(self.mean.shape) if self.degenerate is None else self.degenerate
        self.degenerate = np.asarray(flags, dtype=bool)
        if np.any(self.std <= 0):
            raise DataError("scaler std must be positive for every channel")

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


def _parse_timestamp(text: str, row: int) -> float:
    text = text.strip()
    try:
        return float(text)  # epoch seconds
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise DataError(f"row {row}: cannot parse timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def load_csv(path) -> MultivariateSeries:
    """Read a series from CSV: header row, first column timestamp (ISO-8601 or
    epoch), remaining columns decimal floats."""
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        names = [h.strip() for h in header[1:]]
        if not names:
            raise DataError(f"{path}: no data columns after the timestamp column")
        ts: list[float] = []
        rows: list[list[float]] = []
        for row_idx, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_idx} has {len(row)} fields, expected {len(header)}")
            ts.append(_parse_timestamp(row[0], row_idx))
            parsed = []
            for name, cell in zip(names, row[1:]):
                cell = cell.strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_idx}, column {name!r}: cannot parse {cell!r}"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(f"{path}: row {row_idx}, column {name!r}: non-finite value")
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return MultivariateSeries(np.array(ts), np.array(rows), tuple(names))


# 1000-01-01 to 9999-12-31 UTC in epoch seconds: datetime ends at year 9999,
# and strftime writes no four-digit year before 1000, which fromisoformat
# then cannot read back.
_DATE_SPAN = (-30610224000.0, 253402300799.0)


def save_csv(series: MultivariateSeries, path) -> None:
    """Write a series back to the CSV format load_csv reads. Timestamps are
    written as UTC dates when every one is a whole second in the years
    1000-9999, else as epoch seconds."""
    ts = series.timestamps
    dated = np.array_equal(ts, np.round(ts)) and _DATE_SPAN[0] <= ts[0] and ts[-1] <= _DATE_SPAN[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *series.channel_names])
        for t, row in zip(ts, series.values):
            if dated:
                stamp = datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
            else:
                stamp = repr(float(t))
            writer.writerow([stamp] + [repr(float(v)) for v in row])


def split(
    series: MultivariateSeries,
    ratios: tuple[float, float, float],
    min_length: int | None = None,
) -> tuple[MultivariateSeries, MultivariateSeries, MultivariateSeries]:
    """Contiguous train/val/test partition. Val and test get floor(ratio*T)
    rows; the remainder goes to train. `min_length` (typically L+H) rejects
    partitions too short to window."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DataError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {sum(ratios)}")
    T = series.length
    n_val = int(math.floor(ratios[1] * T))
    n_test = int(math.floor(ratios[2] * T))
    n_train = T - n_val - n_test
    if min_length is not None:
        for name, n in (("train", n_train), ("val", n_val), ("test", n_test)):
            if n < min_length:
                raise DataError(f"{name} partition has {n} rows, need at least {min_length}")
    parts = []
    for lo, hi in ((0, n_train), (n_train, n_train + n_val), (n_train + n_val, T)):
        parts.append(
            MultivariateSeries(series.timestamps[lo:hi], series.values[lo:hi], series.channel_names)
        )
    return tuple(parts)


def fit_scaler(train: MultivariateSeries) -> Scaler:
    """Population mean/std per channel; zero-variance channels get std=1 and
    are flagged (small datasets stay loadable)."""
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    degenerate = std == 0.0
    if degenerate.any():
        bad = [train.channel_names[i] for i in np.nonzero(degenerate)[0]]
        log.warning("zero-variance channels %s: std clamped to 1", bad)
        std = np.where(degenerate, 1.0, std)
    return Scaler(mean=mean, std=std, degenerate=degenerate)


def apply_scaler(series: MultivariateSeries, scaler: Scaler) -> MultivariateSeries:
    return MultivariateSeries(series.timestamps, scaler.transform(series.values), series.channel_names)


def invert_scaler(series: MultivariateSeries, scaler: Scaler) -> MultivariateSeries:
    return MultivariateSeries(series.timestamps, scaler.inverse(series.values), series.channel_names)


def make_windows(series: MultivariateSeries, L: int, H: int, stride: int = 1) -> Windows:
    """All contiguous (input, target) pairs; count = floor((T-L-H)/stride) + 1."""
    if L < 1 or H < 1 or stride < 1:
        raise DataError(f"L, H, stride must be >= 1, got {(L, H, stride)}")
    T = series.length
    if T < L + H:
        raise DataError(f"series length {T} shorter than L+H={L + H}")
    view = sliding_window_view(series.values, L + H, axis=0)  # (T-L-H+1, C, L+H)
    return Windows(view.swapaxes(1, 2)[::stride], L, np.arange(0, T - L - H + 1, stride))


@dataclass(frozen=True)
class RegimeSpec:
    """One homogeneous segment of a synthetic series."""

    length: int
    amplitude: float = 1.0
    frequency: float = 0.05  # cycles per step
    trend: float = 0.0  # per-step slope
    noise: float = 0.0  # Gaussian std
    offset: float = 0.0

    def __post_init__(self):
        check_types(self)
        if self.length < 1:
            raise ValueError(f"regime length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class SynthSpec:
    regimes: tuple[RegimeSpec, ...]
    channels: int = 1
    seed: int = 0
    step_seconds: float = 3600.0
    start_epoch: float = 946684800.0  # 2000-01-01T00:00:00Z

    def __post_init__(self):
        check_types(self)
        if not self.regimes:
            raise ValueError("need at least one regime")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows fails too
            increasing = np.all(np.diff(self.timestamps()) > 0)
        if not increasing:
            raise ValueError(
                f"step_seconds {self.step_seconds!r} does not make the timestamps strictly increasing"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def timestamps(self) -> np.ndarray:
        """Epoch seconds of every row the spec generates."""
        return self.start_epoch + self.step_seconds * np.arange(sum(r.length for r in self.regimes))


def synth_generate(spec: SynthSpec) -> tuple[MultivariateSeries, list[int]]:
    """Deterministic regime-switching sinusoid generator. Returns the series
    and the start indices of regimes 1..R-1 (the drift boundaries)."""
    rng = np.random.default_rng(spec.seed)
    chunks = []
    boundaries = []
    total = 0
    for regime in spec.regimes:
        if total > 0:
            boundaries.append(total)
        t = np.arange(regime.length, dtype=np.float64)
        base = (
            regime.offset
            + regime.trend * t
            + regime.amplitude * np.sin(2.0 * np.pi * regime.frequency * t)
        )
        block = np.tile(base[:, None], (1, spec.channels))
        if regime.noise > 0:
            block = block + rng.normal(0.0, regime.noise, size=block.shape)
        chunks.append(block)
        total += regime.length
    values = np.concatenate(chunks, axis=0)
    names = tuple(f"ch{i}" for i in range(spec.channels))
    return MultivariateSeries(spec.timestamps(), values, names), boundaries
