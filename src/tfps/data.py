"""Loading, splitting, normalizing, and windowing multivariate series, plus a
seeded synthetic regime-switch generator used throughout the tests."""

from __future__ import annotations

import csv
import logging
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_types
from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MultivariateSeries:
    """Immutable [T x C] observations with finite, strictly increasing
    timestamps."""

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
        if not np.all(np.isfinite(ts)):
            raise DataError(f"non-finite timestamp at row {int(np.argmin(np.isfinite(ts)))}")
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

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise DataError(f"scaler mean {self.mean.shape} and std {self.std.shape} need one 1-D shape")
        if not np.isfinite(self.mean).all() or not (np.isfinite(self.std) & (self.std > 0)).all():
            raise DataError("scaler mean must be finite, and std finite and positive, for every channel")

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@contextmanager
def atomic_write(path, mode: str, commit=None, **kwargs):
    """Open a temporary file next to `path` for writing. A `with` block that
    exits cleanly renames it over `path` (by `commit(temporary, path)` if
    given, to rename several files at once, else os.replace); one that raises
    removes it, so a write that fails part-way leaves any previous file at
    `path` intact. A symlink at `path` is followed, so the file it names is
    the one replaced. An OSError is raised again with `path`, not the
    temporary file, as its filename."""
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        (commit or os.replace)(tmp, target)
    except OSError as e:
        tmp.unlink(missing_ok=True)
        raise OSError(e.errno, e.strerror or str(e), str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_timestamp(text: str) -> float:
    """Epoch seconds of one stripped stamp: a float, or an ISO-8601 text that
    datetime.fromisoformat reads, taken as UTC when it names no offset."""
    try:
        return float(text)
    except ValueError:
        dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _parse_cell(text: str) -> float:
    """One stripped value cell, read as np.loadtxt reads it: Python's float
    syntax without digit underscores or non-ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return float(text)


# Canonical ISO-8601 forms by length, and the datetime64 unit whose text is
# exactly that form: YYYY-MM-DD, then HH:MM, HH:MM:SS, HH:MM:SS.fff or
# HH:MM:SS.ffffff after a 'T' or a space.
_ISO_UNITS = {10: "D", 16: "m", 19: "s", 23: "ms", 26: "us"}


def _iso_seconds(stamps: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of stripped stamps that all share one canonical form,
    bit-equal to _parse_timestamp on each; None when any stamp is in another
    form. datetime64 also reads NaT, now, today, year 0, partial dates and
    UTC offsets, which fromisoformat rejects or reads otherwise, so each stamp
    must be the exact text of the instant it parses to, in the years 1-9999."""
    lengths = np.char.str_len(stamps)
    unit = _ISO_UNITS.get(int(lengths.max()))
    if unit is None or lengths.min() != lengths.max():
        return None
    text = np.char.replace(stamps, " ", "T", count=1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # datetime64 warns on UTC offsets
            instants = text.astype("datetime64[us]")
    except ValueError:
        return None
    if not (
        np.all(np.datetime_as_string(instants, unit=unit) == text)
        and instants.min() >= np.datetime64("0001-01-01")
    ):
        return None
    micros = instants.astype(np.int64)
    # micros / 1e6 rounds once, as timedelta.total_seconds does, when micros
    # is exact in float64; whole seconds stay exact up to year 9999.
    if not np.all((np.abs(micros) < 2**53) | (micros % 10**6 == 0)):
        return None
    return micros / 1e6


def _epoch_seconds(stamps: np.ndarray) -> np.ndarray:
    """Epoch seconds of a column of stamp strings, bit-equal to
    _parse_timestamp on each: all numeric, all in one canonical ISO form, or
    else one stamp at a time. Raises ValueError on a stamp neither reads."""
    stamps = np.char.strip(stamps)
    try:
        return stamps.astype(np.float64)  # float() on each, as _parse_timestamp
    except ValueError:
        pass
    seconds = _iso_seconds(stamps)
    if seconds is None:
        seconds = np.array([_parse_timestamp(t) for t in stamps.tolist()])
    return seconds


def _row_fault(path, header: list[str]) -> DataError | None:
    """The first record of the file that load_csv rejects, as a DataError that
    names its row (and column), or None when every record reads. Records are
    the csv module's, read one at a time up to the faulty one; rows count from
    1 at the first line after the header, blank lines included."""
    names = [h.strip() for h in header[1:]]
    previous = -math.inf
    with open(path, newline="") as fh:
        for n, row in enumerate(csv.reader(fh)):  # record 0 is the header
            if not n or not row:
                continue
            if len(row) != len(header):
                return DataError(f"{path}: row {n} has {len(row)} fields, expected {len(header)}")
            stamp = row[0].strip()
            try:
                seconds = _parse_timestamp(stamp)
            except ValueError:
                return DataError(f"{path}: row {n}: cannot parse timestamp {stamp!r}")
            if not math.isfinite(seconds):
                return DataError(f"{path}: row {n}: non-finite timestamp {stamp!r}")
            for name, cell in zip(names, row[1:]):
                cell = cell.strip()
                try:
                    v = _parse_cell(cell)
                except ValueError:
                    return DataError(f"{path}: row {n}, column {name!r}: cannot parse {cell!r}")
                if not math.isfinite(v):
                    return DataError(f"{path}: row {n}, column {name!r}: non-finite value")
            if not seconds > previous:
                return DataError(f"{path}: row {n}: timestamps not strictly increasing")
            previous = seconds
    return None


def _parse_body(fh, n_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and (T, C) values of the rows left in `fh`, in one pass of
    NumPy's tokenizer. Raises ValueError when a row does not parse."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # np.loadtxt warns on a body with no rows
        table = np.loadtxt(
            fh,
            dtype=[("date", object), ("values", np.float64, (n_channels,))],
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=1,
        )
    return _epoch_seconds(table["date"].astype(str)), np.ascontiguousarray(table["values"])


def load_csv(path) -> MultivariateSeries:
    """Read a series from CSV: header row, first column timestamp (ISO-8601 or
    epoch), remaining columns decimal floats. The body is parsed in one pass;
    when that fails or the series rejects it, the file is read once more to
    name the first faulty row."""
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        try:
            header = next(csv.reader(fh), None)
            names = [h.strip() for h in header[1:]] if header else []
            if names:
                timestamps, values = _parse_body(fh, len(names))
        except UnicodeDecodeError as e:  # a ValueError, but no row's fault
            raise DataError(f"cannot read {path}: {e}") from None
        except ValueError as e:
            raise _row_fault(path, header) or DataError(f"{path}: {e}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    if not names:
        raise DataError(f"{path}: no data columns after the timestamp column")
    if not len(values):
        raise DataError(f"{path}: no data rows")
    try:
        return MultivariateSeries(timestamps, values, tuple(names))
    except DataError as e:  # _row_fault names no row for a duplicate channel name
        raise _row_fault(path, header) or DataError(f"{path}: {e}") from None


# 1000-01-01 to 9999-12-31 UTC in epoch seconds: fromisoformat reads no year
# past 9999, and years before 1000 stay epoch seconds, as they were when
# strftime (which writes no four-digit year there) wrote the stamps.
_DATE_SPAN = (-30610224000.0, 253402300799.0)
_CSV_BLOCK = 4096  # rows of Python floats held at a time by save_csv


def _stamp_text(ts: np.ndarray, dated: bool) -> list[str]:
    """Timestamps as save_csv writes them: "YYYY-MM-DD HH:MM:SS" UTC dates
    when `dated`, else the repr of the epoch seconds."""
    if dated:
        stamps = np.datetime_as_string(ts.astype(np.int64).astype("datetime64[s]"))
        return np.char.replace(stamps, "T", " ").tolist()
    return [repr(t) for t in ts.tolist()]


def save_csv(series: MultivariateSeries, path) -> None:
    """Write a series back to the CSV format load_csv reads, atomically (see
    atomic_write). Timestamps are written as UTC dates when every one is a
    whole second in the years 1000-9999, else as epoch seconds. Rows are
    formatted _CSV_BLOCK at a time."""
    ts = series.timestamps
    dated = np.array_equal(ts, np.round(ts)) and _DATE_SPAN[0] <= ts[0] and ts[-1] <= _DATE_SPAN[1]
    with atomic_write(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["date", *series.channel_names])
        for lo in range(0, series.length, _CSV_BLOCK):
            rows = slice(lo, lo + _CSV_BLOCK)
            # stamps and reprs never need quoting; rows end in \r\n, as csv.writer ends them
            fh.writelines(
                f"{t},{','.join(map(repr, row))}\r\n"
                for t, row in zip(_stamp_text(ts[rows], dated), series.values[rows].tolist())
            )


# save_matrix writes each value as np.savetxt's "%.18e" does, in 25 bytes:
# "d.dd", then the other 16 significand digits in groups of four, then "e", a
# sign and two exponent digits, then "," or "\n".
_FIELD = np.dtype(
    {
        "names": ["head", "g0", "g1", "g2", "g3", "exp", "sep"],
        "formats": ["S4"] * 6 + ["u1"],
        "offsets": [0, 4, 8, 12, 16, 20, 24],
    }
)
_HEADS = np.array([f"{i // 100}.{i % 100:02d}" for i in range(1000)], dtype="S4")
_GROUPS = np.array([f"{i:04d}" for i in range(10**4)], dtype="S4")
_EXPONENTS = np.array([f"e{e:+03d}" for e in range(-4, 20)], dtype="S4")  # [e + 4] is "e", sign, 2 digits
# Values formatted at a time. Each takes ~200 bytes of temporaries; 2**14 of
# them format a 2,176-column matrix as fast as 2**16 did, without the ~8 MB
# rise in peak memory that 2**16 showed.
_MATRIX_BLOCK = 1 << 14
_POW10 = np.array([float(10**k) for k in range(23)])  # 10**0 .. 10**22, all exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp splits a double into two 26-bit halves


def _halves(a):
    """(high, low) with high + low == a exactly and each half 26 bits wide."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _least_double_at_least(q: Fraction) -> float:
    """The least double that is not below the exact rational q."""
    d = float(q)  # the nearest double
    return d if Fraction(d) >= q else float(np.nextafter(d, np.inf))


_POW10_HIGH, _POW10_LOW = _halves(_POW10)
# _DECADE[e + 4] is the least double >= 10**e, for e = -4 .. 19
_DECADE = np.array([_least_double_at_least(Fraction(10) ** e) for e in range(-4, 20)])


def _format_block(block: np.ndarray) -> np.ndarray | None:
    """The "%.18e" text of a (rows, n) block, as np.savetxt(..., delimiter=",")
    writes it, in an array of _FIELD records; None unless every value is +0.0
    or lies in [1e-4, 1e19), where the decimal exponent is -4 .. 18 and each
    power of ten used below is an exact double."""
    x = block.ravel()
    zero = (x == 0) & ~np.signbit(x)
    if not x.size or not np.all(zero | ((x >= 1e-4) & (x < 1e19))):
        return None
    x = np.where(zero, 1.0, x)
    e = np.clip(np.floor(np.log10(x)), -4, 18).astype(np.int64)
    e += x >= _DECADE[e + 5]  # log10 may land one decade off near a power of ten
    e -= x < _DECADE[e + 4]
    # x * 10**(18 - e) lies in [1e18, 1e19): Dekker's product gives it exactly
    # as hi + lo. hi >= 2**54 is an even integer, so rounding lo to the nearest
    # integer, ties to even, rounds the sum to the 19-digit significand. It
    # never rounds up to 10**19: the largest double below each power of ten
    # from 1e-3 to 1e19 scales to at least 832 below it.
    hi = x * _POW10[18 - e]
    x_high, x_low = _halves(x)
    p_high, p_low = _POW10_HIGH[18 - e], _POW10_LOW[18 - e]
    lo = ((x_high * p_high - hi) + x_high * p_low + x_low * p_high) + x_low * p_low
    sig = hi.astype(np.uint64) + np.rint(lo).astype(np.int64).view(np.uint64)  # wraps as int64 would
    sig[zero] = 0
    e[zero] = 0
    head, tail = np.divmod(sig, np.uint64(10**16))
    upper, lower = np.divmod(tail.astype(np.int64), 10**8)
    out = np.empty(x.size, dtype=_FIELD)
    out["head"] = _HEADS[head.astype(np.int64)]
    out["g0"], out["g1"] = _GROUPS[upper // 10**4], _GROUPS[upper % 10**4]
    out["g2"], out["g3"] = _GROUPS[lower // 10**4], _GROUPS[lower % 10**4]
    out["exp"] = _EXPONENTS[e + 4]
    out = out.reshape(block.shape)
    out["sep"] = ord(",")
    out["sep"][:, -1] = ord("\n")
    return out


def save_matrix(path, m, commit=None) -> None:
    """Write a 2-D array as np.savetxt(fh, m, delimiter=",") does, byte for
    byte and atomically (see atomic_write): one row per line, each value as
    "%.18e". Blocks of rows whose values are all +0.0 or in [1e-4, 1e19) are
    formatted as whole arrays; any other block goes through np.savetxt."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"save_matrix needs a 2-D array, got shape {m.shape}")
    rows = max(1, _MATRIX_BLOCK // max(1, m.shape[1]))
    with atomic_write(path, "wb", commit) as fh:
        for lo in range(0, len(m), rows):
            block = m[lo : lo + rows]
            records = _format_block(block)
            if records is None:
                np.savetxt(fh, block, delimiter=",")
            else:
                fh.write(records)  # their bytes, as one buffer


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
    """Population mean/std per channel; zero-variance channels get std=1, with
    a warning (small datasets stay loadable)."""
    with np.errstate(over="ignore", invalid="ignore"):  # finite values can overflow a sum or a square
        mean = train.values.mean(axis=0)
        std = train.values.std(axis=0)  # not finite wherever the mean is not
    if not np.isfinite(std).all():
        name = train.channel_names[np.argmin(np.isfinite(std))]
        raise DataError(f"channel {name!r} overflows its scaler statistics")
    degenerate = std == 0.0
    if degenerate.any():
        bad = [train.channel_names[i] for i in np.nonzero(degenerate)[0]]
        log.warning("zero-variance channels %s: std clamped to 1", bad)
        std = np.where(degenerate, 1.0, std)
    return Scaler(mean=mean, std=std)


def apply_scaler(series: MultivariateSeries, scaler: Scaler) -> MultivariateSeries:
    with np.errstate(over="ignore"):  # finite values and statistics can still overflow
        values = scaler.transform(series.values)
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        name = series.channel_names[finite.argmin()]
        raise DataError(f"channel {name!r} overflows when scaled by the train split's mean and std")
    return MultivariateSeries(series.timestamps, values, series.channel_names)


def make_windows(series: MultivariateSeries, L: int, H: int) -> Windows:
    """All T-L-H+1 contiguous (input, target) pairs, one per start row."""
    if L < 1 or H < 1:
        raise DataError(f"L, H must be >= 1, got {(L, H)}")
    T = series.length
    if T < L + H:
        raise DataError(f"series length {T} shorter than L+H={L + H}")
    view = sliding_window_view(series.values, L + H, axis=0)  # (T-L-H+1, C, L+H)
    return Windows(view.swapaxes(1, 2), L, np.arange(T - L - H + 1))


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


SYNTH_START_EPOCH = 946684800.0  # 2000-01-01T00:00:00Z, the first synthetic timestamp


@dataclass(frozen=True)
class SynthSpec:
    regimes: tuple[RegimeSpec, ...]
    channels: int = 1
    seed: int = 0
    step_seconds: float = 3600.0

    def __post_init__(self):
        check_types(self)
        if not self.regimes:
            raise ValueError("need at least one regime")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows fails
            ts = self.timestamps()
            valid = np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)
        if not valid:
            raise ValueError(
                f"step_seconds {self.step_seconds!r} does not make finite, strictly increasing timestamps"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def timestamps(self) -> np.ndarray:
        """Epoch seconds of every row the spec generates."""
        return SYNTH_START_EPOCH + self.step_seconds * np.arange(sum(r.length for r in self.regimes))


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
