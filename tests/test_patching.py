"""Patch count formula, replication-padded slicing, and the affine embedding."""

import numpy as np
import pytest

from tfps import autodiff as ad
from tfps.patching import embed, patch_count, segment_batch


def segment(x, P, S):
    """(C, N, P) patches of one [L x C] window."""
    return segment_batch(x[None], P, S)[0]


class TestPatchCount:
    def test_formula_values(self):
        assert patch_count(96, 16, 8) == 12
        assert patch_count(104, 16, 8) == 13

    def test_degenerate_full_window(self):
        for s in (1, 3, 7):
            assert patch_count(7, 7, s) == 2

    def test_monotone_in_length(self):
        counts = [patch_count(L, 16, 8) for L in range(16, 200)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            patch_count(10, 11, 1)
        with pytest.raises(ValueError):
            patch_count(10, 4, 0)
        with pytest.raises(ValueError):
            patch_count(10, 4, 5)


class TestSegment:
    def test_hand_sliced_example(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        ps = segment(x, P=2, S=2)
        assert ps.shape == (1, 3, 2)
        np.testing.assert_allclose(ps[0], [[1, 2], [3, 4], [4, 4]])

    def test_full_window_then_replicated(self):
        x = np.arange(1.0, 6.0)[:, None]
        ps = segment(x, P=5, S=5)
        np.testing.assert_allclose(ps[0, 0], [1, 2, 3, 4, 5])
        np.testing.assert_allclose(ps[0, 1], [5, 5, 5, 5, 5])

    def test_constant_channel_identical_patches(self):
        x = np.full((20, 1), 3.3)
        ps = segment(x, P=6, S=3)
        for patch in ps[0]:
            np.testing.assert_array_equal(patch, ps[0, 0])

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(24, 4))
        perm = [2, 0, 3, 1]
        a = segment(x, P=8, S=4)
        b = segment(x[:, perm], P=8, S=4)
        np.testing.assert_array_equal(a[perm], b)

    def test_patch_offsets(self):
        x = np.arange(12.0)[:, None]
        ps = segment(x, P=4, S=2)
        for i in range(ps.shape[1] - 1):
            np.testing.assert_allclose(ps[0, i], np.arange(2 * i, 2 * i + 4))

    def test_batch_variant_matches(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(3, 16, 2))
        batched = segment_batch(xs, P=4, S=2)
        for b in range(3):
            padded = np.concatenate([xs[b], np.repeat(xs[b, -1:], 2, axis=0)]).T  # (C, L+S)
            expect = np.stack([padded[:, s : s + 4] for s in range(0, 16, 2)], axis=1)
            np.testing.assert_array_equal(batched[b], expect)
            np.testing.assert_array_equal(batched[b], segment(xs[b], 4, 2))


class TestEmbed:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.patches = segment(rng.normal(size=(16, 3)), P=4, S=2)  # (3, 8, 4)
        self.n = self.patches.shape[1]

    def test_zero_projection_leaves_positions(self):
        pos = ad.Tensor(np.random.default_rng(3).normal(size=(self.n, 6)))
        out = embed(self.patches, ad.Tensor(np.zeros((4, 6))), ad.Tensor(np.zeros(6)), pos)
        for c in range(3):
            np.testing.assert_allclose(out.data[c], pos.data)

    def test_identity_projection_recovers_patches(self):
        out = embed(self.patches, ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4)),
                    ad.Tensor(np.zeros((self.n, 4))))
        np.testing.assert_allclose(out.data, self.patches)

    def test_affine_in_patch_values(self):
        rng = np.random.default_rng(4)
        w = ad.Tensor(rng.normal(size=(4, 6)))
        b = ad.Tensor(rng.normal(size=6))
        pos = ad.Tensor(rng.normal(size=(self.n, 6)))
        one = embed(self.patches, w, b, pos).data
        two = embed(2.0 * self.patches, w, b, pos).data
        base = b.data + pos.data  # token at zero patch
        np.testing.assert_allclose(two - base, 2.0 * (one - base), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embed(self.patches, ad.Tensor(np.zeros((5, 6))), ad.Tensor(np.zeros(6)),
                  ad.Tensor(np.zeros((self.n, 6))))
        with pytest.raises(ValueError):
            embed(self.patches, ad.Tensor(np.zeros((4, 6))), ad.Tensor(np.zeros(6)),
                  ad.Tensor(np.zeros((self.n + 1, 6))))
