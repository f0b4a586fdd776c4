"""Loader contracts, split arithmetic, scaler roundtrips, windowing, synth."""

import csv
import io
import os
from fractions import Fraction

import numpy as np
import pytest

from tfps import data, drift
from tfps.data import (
    MultivariateSeries,
    RegimeSpec,
    Scaler,
    SynthSpec,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_windows,
    save_csv,
    save_matrix,
    split,
    synth_generate,
)
from tfps.errors import DataError

from helpers import reference_load_csv, reference_save_csv, savetxt_bytes


def series_of(values, start=0.0, step=1.0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1 and values.ndim == 2:
        values = values.T if values.shape[0] == 1 else values
    ts = start + step * np.arange(values.shape[0])
    names = tuple(f"c{i}" for i in range(values.shape[1]))
    return MultivariateSeries(ts, values, names)


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of `a`, so that -0.0 != 0.0 and NaN == NaN."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def benchmark_shaped_series() -> MultivariateSeries:
    """17,420 hourly rows x 7 channels in five regimes, as the benchmark's."""
    regimes = tuple(
        RegimeSpec(length=3484, amplitude=a, frequency=1.0 / p, trend=t, noise=n, offset=o)
        for a, p, t, n, o in [
            (0.5, 24, 1e-4, 0.1, -1.0),
            (3.0, 168, -2e-4, 0.6, 2.5),
            (1.2, 12, 0.0, 0.3, 0.0),
            (2.1, 48, 3e-4, 0.2, -3.2),
            (0.8, 24, -1e-4, 0.5, 1.1),
        ]
    )
    return synth_generate(SynthSpec(regimes=regimes, channels=7, seed=11))[0]


# (start, step) of series that save_csv writes with epoch-second stamps.
EPOCH_FALLBACKS = [
    (1.46e9, 0.5),
    (3e11, 3600.0),  # whole seconds past year 9999
    (946684800.0, 1e300),  # past what datetime can hold
    (-62009366400.0, 3600.0),  # year 5: strftime writes no four-digit year
    (-1e12, 1.0),  # before year 1
]

# Bodies (after a "date,a,b" header) that the row-by-row reader accepts.
ACCEPTED = {
    "iso-space": "2016-07-01 00:00:00,1.5,-2\n2016-07-01 01:00:00,2.25,3e-5\n",
    "iso-T": "2016-07-01T00:00:00,1,2\n2016-07-01T01:00:00,3,4\n",
    "iso-T-and-space": "2016-07-01 00:00:00,1,2\n2016-07-01T01:00:00,3,4\n",
    "date-only": "2016-07-01,1,2\n2016-07-02,3,4\n2016-08-31,5,6\n",
    "minutes": "2016-07-01 00:00,1,2\n2016-07-01 00:01,3,4\n",
    "fraction-ms": "2016-07-01 00:00:00.125,1,2\n2016-07-01 00:00:00.250,3,4\n",
    "fraction-us": "2016-07-01 00:00:00.123456,1,2\n2016-07-01 00:00:01.654321,3,4\n",
    "fraction-one-digit": "2016-07-01 00:00:00.5,1,2\n2016-07-01 00:00:01.5,3,4\n",
    "fraction-us-far-future": "2400-01-01 00:00:00.000001,1,2\n2400-01-01 00:00:00.100003,3,4\n",
    "utc-z": "2016-07-01T00:00:00Z,1,2\n2016-07-01T01:00:00Z,3,4\n",
    "offset": "2016-07-01T02:00:00+02:00,1,2\n2016-07-01T03:00:00+02:00,3,4\n",
    "years-1-and-9999": "0001-01-01 00:00:00,1,2\n9999-12-31 23:59:59,3,4\n",
    "leap-day": "2020-02-28,1,2\n2020-02-29,3,4\n2020-03-01,5,6\n",
    "epoch-int": "1,1,2\n2,3,4\n",
    "epoch-float": "1.5,1,2\n2.75,3,4\n1e9,5,6\n",
    "epoch-negative": "-100,1,2\n-50.5,3,4\n0,5,6\n",
    "epoch-then-iso": "1,1,2\n2016-07-01,3,4\n",
    "epoch-python-literal": "1_000,1,2\n2_000,3,4\n",  # stamps keep float()'s syntax
    "quoted": '"2016-07-01 00:00:00","1.5","2"\n"2016-07-01 01:00:00",3,"-4e2"\n',
    "padded": " 2016-07-01 00:00:00 , 1.5 ,\t2\n2016-07-01 01:00:00,  3  ,4 \n",
    "blank-lines": "\n1,1,2\n\n\n2,3,4\n\n",
    "crlf": "1,1,2\r\n2,3,4\r\n",
    "no-trailing-newline": "1,1,2\n2,3,4",
    "single-row": "2016-07-01 00:00:00,1,2\n",
    "signed-zero-and-exponents": "1,-0.0,+0\n2,1e-400,-1E+2\n",
}

# Bodies with one fault; the message must be the row-by-row reader's.
FAULTS = {
    "too-many-fields": "1,1,2\n2,3,4,5\n",
    "too-few-fields-after-blank": "1,1,2\n\n2,3\n",
    "whitespace-line": "1,1,2\n  \n2,3,4\n",
    "bad-cell": "1,1.0,2.0\n2,1.0,oops\n",
    "empty-cell": "1,1,\n",
    "nan-cell": "1,1,2\n2,nan,4\n",
    "inf-cell": "1,1,2\n2,3,-inf\n",
    "overflow-cell": "1,1,1e999\n",
    "bad-stamp": "1,1,2\nyesterday,3,4\n",
    "nan-stamp-before-cell": "1,1,2\nnan,oops,4\n",
    "nat": "2016-07-01,1,2\nNaT,3,4\n",
    "now": "2016-07-01,1,2\nnow,3,4\n",
    "today": "today,1,2\n",
    "year-zero": "0000-01-01,1,2\n",
    "february-30": "2016-02-30 00:00:00,1,2\n",
    "hour-24": "2016-07-01 24:00:00,1,2\n",
    "partial-date": "2016-07,1,2\n",
    "stamp-before-cell": "1,1,2\nbad,3,4\n3,oops,6\n",
    "cell-before-stamp": "1,1,2\n2,oops,4\nbad,5,6\n",
    "no-rows": "",
    "only-blank-lines": "\n\r\n\n",
}


@pytest.mark.parametrize("stamps,row", [([np.nan], 0), ([0.0, np.inf], 1), ([-np.inf, 0.0], 0)])
def test_series_rejects_a_non_finite_timestamp(stamps, row):
    with pytest.raises(DataError, match=f"^non-finite timestamp at row {row}$"):
        MultivariateSeries(np.array(stamps), np.ones((len(stamps), 1)), ("a",))


class TestLoadCsv:
    def test_three_row_two_channel(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a,b\n2020-01-01,1,4\n2020-01-02,2,5\n2020-01-03,3,6\n")
        s = load_csv(p)
        assert s.length == 3 and s.n_channels == 2
        assert s.channel_names == ("a", "b")
        np.testing.assert_allclose(s.values, [[1, 4], [2, 5], [3, 6]])

    def test_nan_cell_reports_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a\n1,1.0\n2,nan\n3,3.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_unparseable_cell_reports_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a,b\n1,1.0,2.0\n2,1.0,oops\n")
        with pytest.raises(DataError, match=r"row 2, column 'b'"):
            load_csv(p)

    def test_non_monotone_timestamps(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a\n5,1.0\n3,2.0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "absent.csv")

    def test_epoch_and_iso_timestamps(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a\n2016-07-01 00:00:00,1\n2016-07-01 01:00:00,2\n")
        s = load_csv(p)
        assert s.timestamps[1] - s.timestamps[0] == 3600.0

    def test_duplicate_channel_names_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a,b,a\n1,1,2,3\n2,4,5,6\n")
        with pytest.raises(DataError, match="duplicate channel name 'a'"):
            load_csv(p)

    def test_roundtrip_via_save(self, tmp_path):
        orig, _ = synth_generate(SynthSpec(regimes=(RegimeSpec(length=10, noise=0.3),), seed=1))
        path = tmp_path / "s.csv"
        save_csv(orig, path)
        again = load_csv(path)
        np.testing.assert_allclose(again.values, orig.values, rtol=1e-15)
        np.testing.assert_allclose(again.timestamps, orig.timestamps)

    def test_roundtrip_keeps_sub_second_timestamps(self, tmp_path):
        for start, step in EPOCH_FALLBACKS:
            orig = series_of([1.0, 2.0, 3.0, 4.0], start=start, step=step)
            path = tmp_path / "s.csv"
            save_csv(orig, path)
            np.testing.assert_array_equal(load_csv(path).timestamps, orig.timestamps)

    @pytest.mark.parametrize("body", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_matches_row_by_row_reader(self, tmp_path, body):
        p = tmp_path / "t.csv"
        p.write_bytes(f"date,a,b\n{body}".encode())
        got, want = load_csv(p), reference_load_csv(p)
        assert got.channel_names == want.channel_names
        np.testing.assert_array_equal(bits(got.timestamps), bits(want.timestamps))
        np.testing.assert_array_equal(bits(got.values), bits(want.values))

    def test_benchmark_shaped_series_matches_row_by_row_reader(self, tmp_path):
        p = tmp_path / "s.csv"
        save_csv(benchmark_shaped_series(), p)
        got, want = load_csv(p), reference_load_csv(p)
        assert got.values.shape == (17420, 7)
        np.testing.assert_array_equal(bits(got.timestamps), bits(want.timestamps))
        np.testing.assert_array_equal(bits(got.values), bits(want.values))

    @pytest.mark.parametrize("body", FAULTS.values(), ids=FAULTS.keys())
    def test_fault_message_matches_row_by_row_reader(self, tmp_path, body):
        p = tmp_path / "t.csv"
        p.write_bytes(f"date,a,b\n{body}".encode())
        with pytest.raises(DataError) as want:
            reference_load_csv(p)
        with pytest.raises(DataError) as got:
            load_csv(p)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", ["", "date\n1\n", "\ndate,a\n"], ids=["empty", "no-columns", "blank-header"])
    def test_header_fault_matches_row_by_row_reader(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataError) as want:
            reference_load_csv(p)
        with pytest.raises(DataError) as got:
            load_csv(p)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "body, row",
        [("1,1.0\n2,2.0\n2,3.0\n", 3), ("5,1\n\n3,2\n", 3)],
        ids=["repeated", "after-blank-line"],
    )
    def test_non_increasing_timestamp_names_path_and_row(self, tmp_path, body, row):
        p = tmp_path / "t.csv"
        p.write_text(f"date,a\n{body}")
        with pytest.raises(DataError) as e:
            load_csv(p)
        assert str(e.value) == f"{p}: row {row}: timestamps not strictly increasing"

    @pytest.mark.parametrize(
        "body, row, stamp",
        [("1,1\n2,2\nnan,3\n", 3, "nan"), ("nan,1\n2,2\n", 1, "nan"), ("nan,1\n", 1, "nan"),
         ("1,1\n2,2\ninf,3\n", 3, "inf"), ("-inf,1\n2,2\n", 1, "-inf"),
         ("2016-07-01,1\n inf ,2\n", 2, "inf")],
        ids=["nan", "nan-first", "nan-only-row", "inf-last", "minus-inf-first", "inf-after-date"],
    )
    def test_non_finite_timestamp_names_path_and_row(self, tmp_path, body, row, stamp):
        p = tmp_path / "t.csv"
        p.write_text(f"date,a\n{body}")
        with pytest.raises(DataError) as e:
            load_csv(p)
        assert str(e.value) == f"{p}: row {row}: non-finite timestamp {stamp!r}"

    def test_python_only_float_literal_is_a_cell_error(self, tmp_path):
        # float() reads "1_000"; NumPy's tokenizer, like most CSV readers, does not
        p = tmp_path / "t.csv"
        p.write_text("date,a\n1,1_000\n")
        with pytest.raises(DataError) as e:
            load_csv(p)
        assert str(e.value) == f"{p}: row 1, column 'a': cannot parse '1_000'"

    def test_faulty_row_is_named_without_reading_past_it(self, tmp_path):
        # bytes past the first faulty row that do not decode are never read
        p = tmp_path / "t.csv"
        later = b"".join(b"%d,1\n" % i for i in range(3, 20000))
        p.write_bytes(b"date,a\n1,1\n2,oops\n" + later + b"\xff,1\n")
        with pytest.raises(DataError) as e:
            load_csv(p)
        assert str(e.value) == f"{p}: row 2, column 'a': cannot parse 'oops'"

    def test_undecodable_file_is_data_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"date,a\n1,\xff\n")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(p)


class TestSaveCsv:
    @pytest.mark.parametrize(
        "series",
        [
            benchmark_shaped_series(),
            MultivariateSeries(
                np.array([0.0, 3600.0]), np.array([[1.0, -0.0], [1e-300, 2.5e17]]), ("a,b", 'say "hi"')
            ),
        ],
        ids=["benchmark-shaped", "quoted-names"],
    )
    def test_dated_bytes_match_csv_writer(self, tmp_path, series):
        save_csv(series, tmp_path / "new.csv")
        reference_save_csv(series, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("start, step", EPOCH_FALLBACKS)
    def test_epoch_bytes_match_csv_writer(self, tmp_path, start, step):
        series = series_of([1.0, 2.0, 3.0, 4.0], start=start, step=step)
        save_csv(series, tmp_path / "new.csv")
        reference_save_csv(series, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("start, step, dated", [(946684800.0, 3600.0, True), (1.46e9, 0.25, False)],
                             ids=["dated", "epoch"])
    def test_series_longer_than_one_block_matches_row_formula(self, tmp_path, start, step, dated):
        rows = data._CSV_BLOCK + 1
        values = np.random.default_rng(3).normal(size=(rows, 2)) * 10.0 ** np.arange(-3, 5, 4)
        series = series_of(values, start=start, step=step)
        save_csv(series, tmp_path / "s.csv")
        text = io.StringIO(newline="")
        csv.writer(text).writerow(["date", *series.channel_names])
        # the one-pass row formula that save_csv wrote before it took rows in blocks
        ts = series.timestamps
        if dated:
            stamps = np.char.replace(np.datetime_as_string(ts.astype(np.int64).astype("datetime64[s]")), "T", " ")
            stamps = stamps.tolist()
        else:
            stamps = map(repr, ts.tolist())
        text.writelines(f"{t},{','.join(map(repr, row))}\r\n" for t, row in zip(stamps, values.tolist()))
        assert (tmp_path / "s.csv").read_bytes() == text.getvalue().encode()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        save_csv(series_of([1.0, 2.0]), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_csv(series_of([3.0, 4.0, 5.0]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_failed_write_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "s.csv"
        with pytest.raises(FileNotFoundError) as info:
            save_csv(series_of([1.0, 2.0]), path)
        assert info.value.filename == str(path)  # not the temporary file next to it

    def test_save_through_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "data" / "s.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        save_csv(series_of([1.0, 2.0]), link)
        assert link.is_symlink()
        reference_save_csv(series_of([1.0, 2.0]), tmp_path / "old.csv")
        assert target.read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert sorted(p.name for p in target.parent.iterdir()) == ["s.csv"]


def powers_of_ten_and_neighbours(lo: int, hi: int) -> np.ndarray:
    """The doubles nearest 10**k for k = lo .. hi, and one ulp either side."""
    p = np.array([float(Fraction(10) ** k) for k in range(lo, hi + 1)])
    return np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])


def ties_at_the_19th_digit() -> np.ndarray:
    """m * 2**-k whose exact decimal value has 20 significant digits, the
    last a 5: "%.18e" must round half to even. Consecutive odd m add
    10 * 5**(k-1) to m * 5**k, so their 19th digits alternate odd and even."""
    found = []
    for k in range(5, 24):  # m < 2**53 and the value >= 1e-4
        first = 10**19 // 5**k + 1
        first += 1 - first % 2
        for m in (first, first + 2, first + 4):
            assert len(str(m * 5**k)) == 20
            found.append(m / 2**k)
    return np.array(found)


# Values save_matrix formats itself: +0.0 and [1e-4, 1e19).
FAST = {
    "powers-of-ten": powers_of_ten_and_neighbours(-3, 18),
    "decade-literals": np.array([float(f"9.9999999999999999995e{k}") for k in range(-5, 18)]),
    "ties": ties_at_the_19th_digit(),
    "integers": np.array([0.0, 1, 2, 7, 9, 10, 99, 12345, 2**31 - 1, 2**52, 2**53 - 1, 2**53]),
    "lowest-and-highest": np.array([1e-4, np.nextafter(1e-4, 1), np.nextafter(1e19, 0)]),
    "log-uniform": 10 ** np.random.default_rng(0).uniform(-4, 19, size=2000),
}
# Values that send their block to np.savetxt.
FALLBACK = [-0.0, -1.5, -1e-300, 1e-5, np.nextafter(1e-4, 0), 5e-324, 2.2e-308, 1e19, 1e300,
            np.nan, np.inf, -np.inf]


class TestSaveMatrix:
    @staticmethod
    def fast_only(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a block fell back to np.savetxt")

        monkeypatch.setattr(np, "savetxt", fail)

    @pytest.mark.parametrize("values", FAST.values(), ids=FAST.keys())
    def test_fast_path_matches_savetxt(self, tmp_path, monkeypatch, values):
        m = values.reshape(1, -1)
        expected = savetxt_bytes(m)
        self.fast_only(monkeypatch)
        save_matrix(tmp_path / "m.csv", m)
        assert (tmp_path / "m.csv").read_bytes() == expected

    @pytest.mark.parametrize("shift", [-1e-9, 1e-9])
    def test_exponent_survives_a_log10_off_near_each_power(self, tmp_path, monkeypatch, shift):
        """floor(log10(x)) is only an estimate: one decade too low or too
        high near a power of ten is corrected against the decade table."""
        m = powers_of_ten_and_neighbours(-3, 18).reshape(1, -1)
        expected = savetxt_bytes(m)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        self.fast_only(monkeypatch)
        save_matrix(tmp_path / "m.csv", m)
        assert (tmp_path / "m.csv").read_bytes() == expected

    @pytest.mark.parametrize("value", FALLBACK, ids=repr)
    def test_fallback_values_match_savetxt(self, tmp_path, value):
        m = np.array([[0.5, value, 2.0]])
        save_matrix(tmp_path / "m.csv", m)
        assert (tmp_path / "m.csv").read_bytes() == savetxt_bytes(m)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 3)])
    def test_shapes_match_savetxt(self, tmp_path, monkeypatch, shape):
        m = np.random.default_rng(1).uniform(0.001, 50.0, size=shape)
        expected = savetxt_bytes(m)
        self.fast_only(monkeypatch)
        save_matrix(tmp_path / "m.csv", m)
        assert (tmp_path / "m.csv").read_bytes() == expected

    @pytest.mark.parametrize("last", [0.25, -0.0], ids=["fast", "fallback"])
    def test_one_block_and_one_row_matches_savetxt(self, tmp_path, last):
        cols = 3
        rows = data._MATRIX_BLOCK // cols + 1  # the last row is a block of its own
        m = np.random.default_rng(2).uniform(1e-4, 1e3, size=(rows, cols))
        m[-1, -1] = last
        save_matrix(tmp_path / "m.csv", m)
        assert (tmp_path / "m.csv").read_bytes() == savetxt_bytes(m)

    def test_drift_matrices_take_the_fast_path(self, tmp_path, monkeypatch):
        """The W1 matrices of a benchmark-shaped channel are all +0.0 or in
        [1e-4, 1e19), so no block of theirs goes through np.savetxt."""
        channel = benchmark_shaped_series().values[:, 0]
        self.fast_only(monkeypatch)
        for domain in drift.DOMAINS:
            m = drift.patch_distance_matrix(channel, 16, 8, domain)
            save_matrix(tmp_path / f"{domain}.csv", m)
            assert (tmp_path / f"{domain}.csv").stat().st_size == m.size * 25

    def test_rejects_a_one_dimensional_array(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            save_matrix(tmp_path / "m.csv", np.ones(3))
        assert not (tmp_path / "m.csv").exists()


class TestSplit:
    def test_exact_division(self):
        s = series_of(np.arange(100.0)[:, None])
        tr, va, te = split(s, (0.6, 0.2, 0.2))
        assert (tr.length, va.length, te.length) == (60, 20, 20)

    def test_small_series(self):
        s = series_of(np.arange(10.0)[:, None])
        tr, va, te = split(s, (0.7, 0.1, 0.2))
        assert (tr.length, va.length, te.length) == (7, 1, 2)

    def test_benchmark_size_floor_arithmetic(self):
        # floor(0.2*17420) = 3484 for val and test, remainder 10452 to train
        s = series_of(np.zeros((17420, 1)) + np.arange(17420)[:, None] * 0.0 + 1.0)
        tr, va, te = split(s, (0.6, 0.2, 0.2))
        assert (tr.length, va.length, te.length) == (10452, 3484, 3484)

    def test_partition_reassembles_exactly(self):
        rng = np.random.default_rng(0)
        s = series_of(rng.normal(size=(53, 3)))
        tr, va, te = split(s, (0.7, 0.1, 0.2))
        glued = np.concatenate([tr.values, va.values, te.values])
        np.testing.assert_array_equal(glued, s.values)

    def test_min_length_guard(self):
        s = series_of(np.arange(30.0)[:, None])
        with pytest.raises(DataError, match="partition"):
            split(s, (0.6, 0.2, 0.2), min_length=10)

    def test_bad_ratios(self):
        s = series_of(np.arange(10.0)[:, None])
        with pytest.raises(DataError):
            split(s, (0.5, 0.2, 0.2))


class TestScaler:
    def test_hand_values(self):
        s = series_of(np.array([[0.0], [2.0]]))
        sc = fit_scaler(s)
        assert sc.mean[0] == 1.0 and sc.std[0] == 1.0  # population std
        np.testing.assert_allclose(apply_scaler(s, sc).values, [[-1.0], [1.0]])

    def test_constant_channel_flagged(self):
        s = series_of(np.full((5, 1), 7.0))
        sc = fit_scaler(s)
        assert sc.degenerate[0]
        assert sc.std[0] == 1.0
        np.testing.assert_allclose(apply_scaler(s, sc).values, 0.0)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(1)
        s = series_of(rng.normal(3.0, 5.0, size=(40, 4)))
        sc = fit_scaler(s)
        back = sc.inverse(apply_scaler(s, sc).values)
        assert np.max(np.abs(back - s.values) / np.abs(s.values + 1e-12)) < 1e-9

    def test_statistics_frozen_across_applications(self):
        rng = np.random.default_rng(2)
        train = series_of(rng.normal(size=(30, 2)))
        other = series_of(rng.normal(10.0, 2.0, size=(20, 2)))
        sc = fit_scaler(train)
        mean_before, std_before = sc.mean.copy(), sc.std.copy()
        apply_scaler(other, sc)
        np.testing.assert_array_equal(sc.mean, mean_before)
        np.testing.assert_array_equal(sc.std, std_before)

    def test_rejects_nonpositive_std(self):
        with pytest.raises(DataError):
            Scaler(mean=np.zeros(2), std=np.array([1.0, 0.0]))


class TestMakeWindows:
    def test_enumeration_count(self):
        s = series_of(np.arange(10.0)[:, None])
        ws = make_windows(s, L=4, H=2)
        assert len(ws) == 5
        assert [w.origin_index for w in ws] == [0, 1, 2, 3, 4]
        np.testing.assert_allclose(ws[0].input[:, 0], [0, 1, 2, 3])
        np.testing.assert_allclose(ws[0].target[:, 0], [4, 5])

    def test_boundary_single_window(self):
        s = series_of(np.arange(6.0)[:, None])
        assert len(make_windows(s, L=4, H=2)) == 1

    def test_too_short(self):
        s = series_of(np.arange(5.0)[:, None])
        with pytest.raises(DataError):
            make_windows(s, L=4, H=2)

    def test_purity(self):
        s = series_of(np.arange(12.0)[:, None])
        a = make_windows(s, L=3, H=2)
        b = make_windows(s, L=3, H=2)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.input, wb.input)
            np.testing.assert_array_equal(wa.target, wb.target)
            assert wa.origin_index == wb.origin_index

    def test_input_target_adjacent_in_parent(self):
        rng = np.random.default_rng(3)
        s = series_of(rng.normal(size=(20, 2)))
        for w in make_windows(s, L=5, H=3):
            lo = w.origin_index
            np.testing.assert_array_equal(w.input, s.values[lo : lo + 5])
            np.testing.assert_array_equal(w.target, s.values[lo + 5 : lo + 8])

    def test_windows_are_read_only_views(self):
        rng = np.random.default_rng(4)
        s = series_of(rng.normal(size=(30, 2)))
        ws = make_windows(s, L=5, H=3)
        assert ws.array.shape == (len(ws), 8, 2) and ws.inputs.shape == (len(ws), 5, 2)
        assert ws.targets.shape == (len(ws), 3, 2)
        for view in (ws.array, ws.inputs, ws.targets):
            assert np.shares_memory(view, s.values) and not view.flags.writeable
        np.testing.assert_array_equal(ws.inputs, np.stack([w.input for w in ws]))
        np.testing.assert_array_equal(ws.targets, np.stack([w.target for w in ws]))

    def test_windows_index_like_a_sequence(self):
        s = series_of(np.arange(20.0)[:, None])
        ws = make_windows(s, L=4, H=2)
        part = ws[3:9:2]
        assert len(part) == 3 and [w.origin_index for w in part] == [3, 5, 7]
        np.testing.assert_array_equal(part[1].input[:, 0], [5, 6, 7, 8])
        idx = np.array([7, 2, 11])
        np.testing.assert_array_equal(ws.inputs[idx], np.stack([ws[i].input for i in idx]))
        assert [w.origin_index for w in ws[idx]] == [7, 2, 11]
        assert ws[np.int64(4)].origin_index == 4
        assert not ws[20:]


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        spec = SynthSpec(
            regimes=(RegimeSpec(length=50, noise=0.2), RegimeSpec(length=50, offset=3.0, noise=0.2)),
            channels=2,
            seed=7,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(synth_generate(spec)[0], p1)
        save_csv(synth_generate(spec)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_noiseless_sinusoid_closed_form(self):
        spec = SynthSpec(regimes=(RegimeSpec(length=40, amplitude=1.0, frequency=0.1),))
        series, _ = synth_generate(spec)
        t = np.arange(40)
        np.testing.assert_allclose(series.values[:, 0], np.sin(2 * np.pi * 0.1 * t), atol=1e-12)

    def test_boundary_indices(self):
        spec = SynthSpec(regimes=(RegimeSpec(length=200), RegimeSpec(length=200, offset=1.0)))
        series, boundaries = synth_generate(spec)
        assert boundaries == [200]
        assert series.length == 400

    def test_zero_length_regime_rejected(self):
        # a bad spec is rejected when it is built, before any generation
        with pytest.raises(ValueError, match="regime length"):
            RegimeSpec(length=0)
