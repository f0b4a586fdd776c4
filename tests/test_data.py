"""Loader contracts, split arithmetic, scaler roundtrips, windowing, synth."""

import numpy as np
import pytest

from tfps.data import (
    MultivariateSeries,
    RegimeSpec,
    Scaler,
    SynthSpec,
    apply_scaler,
    fit_scaler,
    invert_scaler,
    load_csv,
    make_windows,
    save_csv,
    split,
    synth_generate,
)
from tfps.errors import DataError


def series_of(values, start=0.0, step=1.0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1 and values.ndim == 2:
        values = values.T if values.shape[0] == 1 else values
    ts = start + step * np.arange(values.shape[0])
    names = tuple(f"c{i}" for i in range(values.shape[1]))
    return MultivariateSeries(ts, values, names)


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

    def test_column_subset(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,a,b,c\n1,1,2,3\n2,4,5,6\n")
        s = load_csv(p, columns=["c", "a"])
        assert s.channel_names == ("c", "a")
        np.testing.assert_allclose(s.values, [[3, 1], [6, 4]])

    def test_roundtrip_via_save(self, tmp_path):
        orig, _ = synth_generate(SynthSpec(regimes=(RegimeSpec(length=10, noise=0.3),), seed=1))
        path = tmp_path / "s.csv"
        save_csv(orig, path)
        again = load_csv(path)
        np.testing.assert_allclose(again.values, orig.values, rtol=1e-15)
        np.testing.assert_allclose(again.timestamps, orig.timestamps)

    def test_roundtrip_keeps_sub_second_timestamps(self, tmp_path):
        orig = series_of([1.0, 2.0, 3.0, 4.0], start=1.46e9, step=0.5)
        path = tmp_path / "s.csv"
        save_csv(orig, path)
        np.testing.assert_array_equal(load_csv(path).timestamps, orig.timestamps)


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
        back = invert_scaler(apply_scaler(s, sc), sc)
        assert np.max(np.abs(back.values - s.values) / np.abs(s.values + 1e-12)) < 1e-9

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
        ws = make_windows(s, L=4, H=2, stride=1)
        assert len(ws) == 5
        assert [w.origin_index for w in ws] == [0, 1, 2, 3, 4]
        np.testing.assert_allclose(ws[0].input[:, 0], [0, 1, 2, 3])
        np.testing.assert_allclose(ws[0].target[:, 0], [4, 5])

    def test_boundary_single_window(self):
        s = series_of(np.arange(6.0)[:, None])
        assert len(make_windows(s, L=4, H=2)) == 1
        assert len(make_windows(s, L=2, H=2, stride=6)) == 1

    def test_too_short(self):
        s = series_of(np.arange(5.0)[:, None])
        with pytest.raises(DataError):
            make_windows(s, L=4, H=2)

    def test_purity(self):
        s = series_of(np.arange(12.0)[:, None])
        a = make_windows(s, L=3, H=2, stride=2)
        b = make_windows(s, L=3, H=2, stride=2)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.input, wb.input)
            np.testing.assert_array_equal(wa.target, wb.target)
            assert wa.origin_index == wb.origin_index

    def test_input_target_adjacent_in_parent(self):
        rng = np.random.default_rng(3)
        s = series_of(rng.normal(size=(20, 2)))
        for w in make_windows(s, L=5, H=3, stride=4):
            lo = w.origin_index
            np.testing.assert_array_equal(w.input, s.values[lo : lo + 5])
            np.testing.assert_array_equal(w.target, s.values[lo + 5 : lo + 8])

    def test_windows_are_read_only_views(self):
        rng = np.random.default_rng(4)
        s = series_of(rng.normal(size=(30, 2)))
        ws = make_windows(s, L=5, H=3, stride=2)
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
