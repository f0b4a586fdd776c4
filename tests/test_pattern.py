"""Identifier math: penalties, affinity, refinement, KL, composite loss."""

import numpy as np
import pytest

from helpers import numeric_grad, rel_err
from tfps import autodiff as ad
from tfps.pattern import (
    affinity,
    block_width,
    init_bases,
    kl_loss,
    pi_loss,
    refine,
    reg_r1,
    reg_r2,
)


class TestInitBases:
    def test_unit_columns(self):
        bases = init_bases(q=8, K=2, rng=np.random.default_rng(0))
        assert bases.shape == (8, 8)
        np.testing.assert_allclose(np.linalg.norm(bases.data, axis=0), 1.0, atol=1e-9)

    def test_deterministic_for_seed(self):
        a = init_bases(8, 4, np.random.default_rng(5)).data
        b = init_bases(8, 4, np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)

    def test_single_subspace_square_block(self):
        bases = init_bases(6, 1, np.random.default_rng(1))
        assert block_width(6, 1) == 6
        assert bases.shape == (6, 6)

    def test_indivisible_width_rejected(self):
        with pytest.raises(ValueError):
            init_bases(7, 2, np.random.default_rng(0))


class TestPenalties:
    def test_r1_zero_iff_unit_columns(self):
        bases = init_bases(8, 2, np.random.default_rng(2))
        assert float(reg_r1(bases).data) == pytest.approx(0.0, abs=1e-18)
        scaled = ad.parameter(bases.data * 1.3)
        assert float(reg_r1(scaled).data) > 1e-3

    def test_r1_hand_value(self):
        # one 2x2 block, both columns scaled to norm 2: 0.5*((4-1)^2+(4-1)^2) = 9
        block = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert float(reg_r1(ad.Tensor(block)).data) == pytest.approx(9.0)

    def test_r1_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = ad.Tensor(rng.normal(size=(6, 6)))
            assert float(reg_r1(b).data) >= 0.0

    def test_r2_zero_iff_orthogonal_blocks(self):
        b = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))  # orthogonal 1-col blocks
        assert float(reg_r2(b, K=2).data) == pytest.approx(0.0, abs=1e-18)
        overlap = ad.Tensor(np.array([[1.0, 1.0], [0.0, 0.0]]))  # identical blocks
        assert float(reg_r2(overlap, K=2).data) == pytest.approx(1.0)

    def test_r2_single_block_is_zero(self):
        rng = np.random.default_rng(4)
        b = ad.Tensor(rng.normal(size=(6, 6)))
        assert float(reg_r2(b, K=1).data) == 0.0

    def test_r2_detects_any_cross_block_overlap(self):
        base = np.eye(4)
        b = ad.parameter(base.copy())
        assert float(reg_r2(b, K=2).data) == 0.0
        leaked = base.copy()
        leaked[0, 2] = 0.5  # block 2 gains a component along block 1
        assert float(reg_r2(ad.Tensor(leaked), K=2).data) > 0.0


class TestAffinity:
    def test_hand_value(self):
        bases = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        z = ad.Tensor(np.array([[1.0, 0.0]]))
        s = affinity(z, bases, K=2)
        np.testing.assert_allclose(s.data, [[2.0 / 3.0, 1.0 / 3.0]])

    def test_zero_token_uniform(self):
        bases = init_bases(8, 4, np.random.default_rng(5))
        s = affinity(ad.Tensor(np.zeros((3, 8))), bases, K=4)
        np.testing.assert_allclose(s.data, 0.25)

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(6)
        bases = init_bases(8, 2, rng)
        s = affinity(ad.Tensor(rng.normal(size=(50, 8)) * 3), bases, K=2)
        assert np.all(s.data > 0)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-6)

    def test_aligned_token_routes_to_its_subspace(self):
        # tokens inside block j's column span get the largest affinity for j
        q, K = 8, 2
        d = q // K
        bases = np.zeros((q, q))
        bases[:d, :d] = np.eye(d)  # block 0 spans first 4 coords
        bases[d:, d:] = np.eye(d)  # block 1 spans last 4
        rng = np.random.default_rng(7)
        z = np.zeros((10, q))
        z[:5, :d] = rng.normal(size=(5, d)) * 4
        z[5:, d:] = rng.normal(size=(5, d)) * 4
        s = affinity(ad.Tensor(z), ad.Tensor(bases), K=K).data
        assert np.all(np.argmax(s[:5], axis=1) == 0)
        assert np.all(np.argmax(s[5:], axis=1) == 1)


class TestRefine:
    def test_single_row_identity(self):
        s = np.array([[0.7, 0.2, 0.1]])
        np.testing.assert_allclose(refine(s), s, atol=1e-15)

    def test_identical_rows_fixed_point(self):
        s = np.array([[2.0 / 3.0, 1.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]])
        np.testing.assert_allclose(refine(s), s, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        raw = rng.uniform(0.05, 1.0, size=(30, 5))
        s = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(refine(s).sum(axis=1), 1.0, atol=1e-12)

    def test_sharpening_reduces_entropy_with_balanced_columns(self):
        rng = np.random.default_rng(10)
        # rows and their left-rotations: every column has the same mass
        base = rng.uniform(0.1, 1.0, size=(8, 4))
        base /= base.sum(axis=1, keepdims=True)
        s = np.concatenate([np.roll(base, k, axis=1) for k in range(4)])
        s_hat = refine(s)

        def entropy(rows):
            return -(rows * np.log(rows)).sum(axis=1)

        assert np.all(entropy(s_hat) <= entropy(s) + 1e-12)


class TestKl:
    def test_zero_when_equal(self):
        s = np.array([[0.4, 0.6], [0.3, 0.7]])
        assert float(kl_loss(s, ad.Tensor(s)).data) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_log2(self):
        s_hat = np.array([[1.0, 0.0]])
        s = ad.Tensor(np.array([[0.5, 0.5]]))
        assert float(kl_loss(s_hat, s).data) == pytest.approx(np.log(2.0))

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.uniform(0.01, 1, size=(4, 3))
            a /= a.sum(axis=1, keepdims=True)
            b = rng.uniform(0.01, 1, size=(4, 3))
            b /= b.sum(axis=1, keepdims=True)
            assert float(kl_loss(a, ad.Tensor(b)).data) >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_loss(np.ones((2, 2)) / 2, ad.Tensor(np.ones((3, 2)) / 2))


class TestPiLoss:
    def test_zero_at_joint_optimum_with_beta_zero(self):
        bases = ad.Tensor(np.eye(4))  # unit columns, orthogonal blocks
        z = ad.Tensor(np.random.default_rng(12).normal(size=(5, 4)))
        loss = pi_loss(affinity(z, bases, 2), bases, K=2, alpha=1e-3, beta=0.0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-18)

    def test_zero_for_single_token_with_alpha_zero(self):
        rng = np.random.default_rng(13)
        bases = init_bases(6, 3, rng)
        z = ad.Tensor(rng.normal(size=(1, 6)))
        loss = pi_loss(affinity(z, bases, 3), bases, K=3, alpha=0.0, beta=0.5)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_composition_equals_sum_of_parts(self):
        rng = np.random.default_rng(14)
        bases = init_bases(8, 2, rng)
        z = ad.Tensor(rng.normal(size=(6, 8)))
        alpha, beta = 1e-3, 0.1
        s = affinity(z, bases, 2)
        loss = pi_loss(s, bases, K=2, alpha=alpha, beta=beta)
        expect = alpha * (float(reg_r1(bases).data) + float(reg_r2(bases, 2).data))
        expect += beta * float(kl_loss(refine(s.data), s).data)
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)

    def test_gradients_wrt_bases_and_tokens(self):
        rng = np.random.default_rng(15)
        q, K, M = 8, 2, 5
        bases = init_bases(q, K, rng)
        z = ad.parameter(rng.normal(size=(M, q)))
        s_hat = refine(affinity(z, bases, K).data.copy())  # frozen target

        def scalar():
            loss = pi_loss(affinity(z, bases, K), bases, K, alpha=1e-3, beta=0.1, s_hat=s_hat)
            return float(loss.data)

        loss = pi_loss(affinity(z, bases, K), bases, K, alpha=1e-3, beta=0.1, s_hat=s_hat)
        grads = loss.backward()
        assert rel_err(grads[bases.node], numeric_grad(scalar, bases.data)) < 1e-4
        assert rel_err(grads[z.node], numeric_grad(scalar, z.data)) < 1e-4
