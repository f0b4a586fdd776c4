"""Wasserstein metric axioms, LP-oracle equivalence, and drift matrices."""

import numpy as np
import pytest

from helpers import w1_linprog
from tfps import drift
from tfps.data import MultivariateSeries, RegimeSpec, SynthSpec, synth_generate
from tfps.drift import (
    analysis_patches,
    average_wasserstein,
    pairwise_w1,
    patch_distance_matrix,
    upper_triangle_summary,
    wasserstein_1d,
)
from tfps.fourier import amplitude_spectrum


class TestWasserstein1d:
    def test_identity(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=17)
        assert wasserstein_1d(u, u) == 0.0

    def test_point_masses(self):
        assert wasserstein_1d([0.0], [1.0]) == pytest.approx(1.0)

    def test_sorted_sample_oracle(self):
        # equal counts: mean absolute difference of sorted samples
        assert wasserstein_1d([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, v = rng.normal(size=9), rng.normal(size=9)
            expect = np.mean(np.abs(np.sort(u) - np.sort(v)))
            assert wasserstein_1d(u, v) == pytest.approx(expect, abs=1e-12)

    def test_matches_transport_lp(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = rng.normal(scale=rng.uniform(0.5, 3), size=rng.integers(1, 9))
            v = rng.normal(loc=rng.uniform(-2, 2), size=rng.integers(1, 9))
            assert abs(wasserstein_1d(u, v) - w1_linprog(u, v)) <= 1e-9

    def test_metric_axioms(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (rng.normal(size=rng.integers(2, 10)) for _ in range(3))
            dab = wasserstein_1d(a, b)
            assert dab >= 0
            assert dab == pytest.approx(wasserstein_1d(b, a), abs=1e-12)
            assert dab <= wasserstein_1d(a, c) + wasserstein_1d(c, b) + 1e-12

    def test_translation_covariance_and_shift(self):
        rng = np.random.default_rng(4)
        u, v = rng.normal(size=8), rng.normal(size=12)
        base = wasserstein_1d(u, v)
        assert wasserstein_1d(u + 5.0, v + 5.0) == pytest.approx(base, abs=1e-12)
        for delta in (-2.5, 0.0, 1.25):
            assert wasserstein_1d(u, u + delta) == pytest.approx(abs(delta), abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=6), rng.normal(size=11)
        lam = 3.7
        assert wasserstein_1d(lam * u, lam * v) == pytest.approx(
            lam * wasserstein_1d(u, v), rel=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d([], [1.0])


class TestPairwiseW1:
    def test_entries_equal_wasserstein_calls(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(5, 7)), rng.normal(loc=0.5, size=(3, 7))
        m = pairwise_w1(a, b)
        assert m.shape == (5, 3)
        for i in range(5):
            for j in range(3):
                assert m[i, j] == pytest.approx(wasserstein_1d(a[i], b[j]), abs=1e-12)

    def test_empty_side_gives_empty_matrix(self):
        assert pairwise_w1(np.zeros((0, 4)), np.ones((3, 4))).shape == (0, 3)

    @pytest.mark.parametrize("a, b", [(np.ones((2, 3)), np.ones((2, 4))),
                                      (np.ones(3), np.ones((2, 3))),
                                      (np.ones((2, 0)), np.ones((2, 0)))])
    def test_mismatched_or_empty_rows_rejected(self, a, b):
        with pytest.raises(ValueError):
            pairwise_w1(a, b)


class TestPatchDistanceMatrix:
    def test_analysis_patches_are_unpadded(self):
        patches = analysis_patches(np.arange(20.0), P=8, S=4)
        assert patches.shape == (4, 8)  # floor((20-8)/4)+1
        np.testing.assert_array_equal(patches[-1], np.arange(12.0, 20.0))

    def test_periodic_channel_zero_offdiagonal(self):
        # period == stride and P a multiple of it: every patch sees the same values
        pattern = np.array([0.3, -1.1, 0.8, 2.0])
        channel = np.tile(pattern, 12)
        dm = patch_distance_matrix(channel, P=8, S=4, domain="time")
        np.testing.assert_allclose(dm, 0.0, atol=1e-12)

    def test_mean_shift_block_structure(self):
        spec = SynthSpec(
            regimes=(RegimeSpec(length=64, amplitude=0.0),
                     RegimeSpec(length=64, amplitude=0.0, offset=2.0)),
        )
        series, _ = synth_generate(spec)
        dm = patch_distance_matrix(series.values[:, 0], P=16, S=16, domain="time")
        n = len(dm)
        first = n // 2
        for i in range(first):
            for j in range(first, n):
                assert dm[i, j] == pytest.approx(2.0, abs=1e-12)
        for block in (range(first), range(first, n)):
            for i in block:
                for j in block:
                    assert dm[i, j] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_zero_diagonal(self):
        rng = np.random.default_rng(6)
        dm = patch_distance_matrix(rng.normal(size=100), P=16, S=8, domain="frequency")
        np.testing.assert_array_equal(dm, dm.T)
        np.testing.assert_array_equal(np.diag(dm), 0.0)
        assert np.all(dm >= 0)

    def test_matrix_entries_equal_wasserstein_calls(self):
        rng = np.random.default_rng(7)
        channel = rng.normal(size=40)
        dm = patch_distance_matrix(channel, P=8, S=8, domain="time")
        patches = analysis_patches(channel, 8, 8)
        for i in range(len(dm)):
            for j in range(len(dm)):
                expect = 0.0 if i == j else wasserstein_1d(patches[i], patches[j])
                assert dm[i, j] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("block_elements", [1, 1000])
    def test_row_blocks_equal_one_block(self, block_elements, monkeypatch):
        channel = np.random.default_rng(10).normal(size=120)
        whole = patch_distance_matrix(channel, P=8, S=4, domain="time")
        monkeypatch.setattr(drift, "_BLOCK_ELEMENTS", block_elements)  # 1 and 4 rows a block
        blocked = patch_distance_matrix(channel, P=8, S=4, domain="time")
        np.testing.assert_array_equal(blocked, whole)

    def test_frequency_domain_uses_spectra(self):
        rng = np.random.default_rng(8)
        channel = rng.normal(size=32)
        dm = patch_distance_matrix(channel, P=8, S=8, domain="frequency")
        patches = analysis_patches(channel, 8, 8)
        expect = wasserstein_1d(amplitude_spectrum(patches[0]), amplitude_spectrum(patches[1]))
        assert dm[0, 1] == pytest.approx(expect, abs=1e-12)


class TestAverageWasserstein:
    @staticmethod
    def _series(values):
        values = np.asarray(values, dtype=float)
        ts = np.arange(values.shape[0], dtype=float)
        return MultivariateSeries(ts, values, tuple(f"c{i}" for i in range(values.shape[1])))

    def test_iid_noise_is_small(self):
        # E[W1] between two 32-sample standard-normal empiricals is ~1.7/sqrt(32)
        rng = np.random.default_rng(9)
        series = self._series(rng.normal(size=(4096, 2)))
        avg = average_wasserstein(series, P=32, S=32, domain="time")
        assert avg < 2.5 / np.sqrt(32)
        shifted = series.values.copy()
        shifted[2048:] += 2.0
        drifted = average_wasserstein(self._series(shifted), P=32, S=32, domain="time")
        assert drifted > 3 * avg  # real drift dominates the sampling noise

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(200, 2))
        base = average_wasserstein(self._series(vals), P=16, S=8, domain="time")
        scaled = average_wasserstein(self._series(4.0 * vals), P=16, S=8, domain="time")
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_equals_mean_of_upper_triangles(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(60, 3))
        series = self._series(vals)
        per_channel = []
        for c in range(3):
            m = patch_distance_matrix(vals[:, c], 8, 8, "time")
            iu = np.triu_indices(m.shape[0], k=1)
            per_channel.append(m[iu].mean())
        assert average_wasserstein(series, 8, 8, "time") == pytest.approx(np.mean(per_channel))

    def test_one_patch_is_an_error(self):
        with pytest.raises(ValueError, match="two patches"):
            average_wasserstein(self._series(np.zeros((8, 1))), 8, 8, "time")


class TestUpperTriangleSummary:
    @pytest.mark.parametrize("m", [
        np.zeros((1, 1)),  # one patch: max_pair is null
        np.array([[0.0, 0.5], [0.5, 0.0]]),
        # 0.9 at (1, 3) and (2, 3): the first in row-major order wins
        np.array([[0.0, 0.1, 0.2, 0.3],
                  [0.1, 0.0, 0.4, 0.9],
                  [0.2, 0.4, 0.0, 0.9],
                  [0.3, 0.9, 0.9, 0.0]]),
        np.random.default_rng(0).random((37, 37)),
    ])
    def test_upper_triangle_summary_matches_triu_indices(self, m):
        iu = np.triu_indices(len(m), k=1)
        pair, avg = None, 0.0
        if iu[0].size:
            top = int(np.argmax(m[iu]))
            pair = {"i": int(iu[0][top]), "j": int(iu[1][top]), "value": float(m[iu][top])}
            avg = float(m[iu].mean())
        assert upper_triangle_summary(m) == (pair, avg)
        if len(m) == 4:
            assert pair == {"i": 1, "j": 3, "value": 0.9}
