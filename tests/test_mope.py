"""Top-k gating contracts, sparse expert evaluation, branch merge, head."""

import numpy as np
import pytest

from helpers import naive_idft2_real, numeric_grad, record_expert_calls, rel_err
from tfps import autodiff as ad
from tfps import encoder, mope


def random_affinity(rng, m, k):
    raw = rng.uniform(0.01, 1.0, size=(m, k))
    return raw / raw.sum(axis=1, keepdims=True)


def make_expert(rng, d, hidden=None):
    hidden = hidden or d
    return encoder.MLPParams(
        w1=ad.parameter(rng.normal(0, 0.3, size=(d, hidden))),
        b1=ad.parameter(rng.normal(0, 0.1, size=hidden)),
        w2=ad.parameter(rng.normal(0, 0.3, size=(hidden, d))),
        b2=ad.parameter(rng.normal(0, 0.1, size=d)),
    )


class TestGate:
    def test_top2_hand_value(self):
        s = ad.Tensor(np.array([[0.5, 0.3, 0.15, 0.05]]))
        gw = mope.gate(s, k=2)
        e5, e3 = np.exp(0.5), np.exp(0.3)
        np.testing.assert_allclose(
            gw.weights.data, [[e5 / (e5 + e3), e3 / (e5 + e3), 0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(gw.weights.data[0, :2], [0.550, 0.450], atol=1e-3)

    def test_k_equals_K_is_plain_softmax(self):
        rng = np.random.default_rng(0)
        s = ad.Tensor(random_affinity(rng, 20, 5))
        gw = mope.gate(s, k=5)
        expect = np.exp(s.data) / np.exp(s.data).sum(axis=1, keepdims=True)
        assert np.max(np.abs(gw.weights.data - expect)) < 1e-9

    def test_k1_puts_unit_weight_on_argmax(self):
        rng = np.random.default_rng(1)
        s = ad.Tensor(random_affinity(rng, 30, 4))
        gw = mope.gate(s, k=1)
        rows = np.arange(30)
        np.testing.assert_allclose(gw.weights.data[rows, s.data.argmax(1)], 1.0)
        assert np.count_nonzero(gw.weights.data) == 30

    def test_row_contracts_fuzzed(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m, K = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            k = int(rng.integers(1, K + 1))
            gw = mope.gate(ad.Tensor(random_affinity(rng, m, K)), k)
            w = gw.weights.data
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
            assert np.all((w > 0).sum(axis=1) <= k)

    def test_tie_breaks_to_lowest_index(self):
        s = ad.Tensor(np.array([[0.25, 0.25, 0.25, 0.25]]))
        gw = mope.gate(s, k=2)
        np.testing.assert_array_equal(gw.indices, [[0, 1]])

    def test_selection_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(3)
        s = random_affinity(rng, 15, 5)
        base = mope.gate(ad.Tensor(s), k=2).indices
        scaled = mope.gate(ad.Tensor(3.7 * s), k=2).indices
        np.testing.assert_array_equal(base, scaled)

    def test_unselected_experts_get_zero_weight_and_gradient(self):
        rng = np.random.default_rng(4)
        s = ad.parameter(random_affinity(rng, 12, 5))
        gw = mope.gate(s, k=2)
        (gw.weights * ad.Tensor(rng.normal(size=(12, 5)))).sum().backward()
        off = np.ones((12, 5), dtype=bool)
        np.put_along_axis(off, gw.indices, False, axis=1)
        np.testing.assert_array_equal(gw.weights.data[off], 0.0)
        np.testing.assert_array_equal(s.grad[off], 0.0)
        assert np.all(s.grad[~off] != 0.0)

    def test_k_out_of_range(self):
        s = ad.Tensor(np.ones((2, 3)) / 3)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                mope.gate(s, bad)


class TestExpertForward:
    def test_zero_params_zero_output(self):
        d = 6
        zero = encoder.MLPParams(
            w1=ad.Tensor(np.zeros((d, d))), b1=ad.Tensor(np.zeros(d)),
            w2=ad.Tensor(np.zeros((d, d))), b2=ad.Tensor(np.zeros(d)))
        out = mope.expert_forward(ad.Tensor(np.random.default_rng(4).normal(size=(3, d))), zero)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identity_path_for_nonnegative_input(self):
        d = 5
        ident = encoder.MLPParams(
            w1=ad.Tensor(np.eye(d)), b1=ad.Tensor(np.zeros(d)),
            w2=ad.Tensor(np.eye(d)), b2=ad.Tensor(np.zeros(d)))
        x = np.abs(np.random.default_rng(5).normal(size=(4, d)))
        out = mope.expert_forward(ad.Tensor(x), ident)
        np.testing.assert_allclose(out.data, x)

    def test_matches_independent_two_layer_evaluation(self):
        rng = np.random.default_rng(6)
        d = 6
        p = make_expert(rng, d)
        x = rng.normal(size=(7, d))
        expect = np.maximum(x @ p.w1.data + p.b1.data, 0.0) @ p.w2.data + p.b2.data
        np.testing.assert_allclose(mope.expert_forward(ad.Tensor(x), p).data, expect, atol=1e-12)


class TestAggregate:
    def test_k1_equals_routed_expert(self):
        rng = np.random.default_rng(7)
        d, m, K = 6, 9, 3
        experts = [make_expert(rng, d) for _ in range(K)]
        z = ad.Tensor(rng.normal(size=(m, d)))
        s = ad.Tensor(random_affinity(rng, m, K))
        gw = mope.gate(s, k=1)
        out = mope.aggregate(gw, z, experts)
        for i in range(m):
            j = int(gw.indices[i, 0])
            expect = mope.expert_forward(ad.Tensor(z.data[i : i + 1]), experts[j]).data[0]
            np.testing.assert_allclose(out.data[i], expect, atol=1e-12)

    def test_identical_experts_collapse(self):
        rng = np.random.default_rng(8)
        d, m = 5, 8
        proto = make_expert(rng, d)
        experts = [proto] * 4
        z = ad.Tensor(rng.normal(size=(m, d)))
        gw = mope.gate(ad.Tensor(random_affinity(rng, m, 4)), k=3)
        out = mope.aggregate(gw, z, experts)
        np.testing.assert_allclose(out.data, mope.expert_forward(z, proto).data, atol=1e-12)

    def test_equal_weights_average_two_experts(self):
        rng = np.random.default_rng(9)
        d, m = 4, 5
        experts = [make_expert(rng, d) for _ in range(2)]
        z = ad.Tensor(rng.normal(size=(m, d)))
        s = ad.Tensor(np.full((m, 2), 0.5))
        gw = mope.gate(s, k=2)
        out = mope.aggregate(gw, z, experts)
        expect = 0.5 * (mope.expert_forward(z, experts[0]).data
                        + mope.expert_forward(z, experts[1]).data)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_unrouted_experts_never_evaluated(self, monkeypatch):
        rng = np.random.default_rng(10)
        d, m, K = 4, 12, 4
        experts = [make_expert(rng, d) for _ in range(K)]
        z = ad.Tensor(rng.normal(size=(m, d)))
        s = np.full((m, K), 0.01)
        s[:, 1] = 0.6  # everyone's top-1 is expert 1, ties elsewhere
        s /= s.sum(axis=1, keepdims=True)
        calls = record_expert_calls(monkeypatch, mope, experts)
        gw = mope.gate(ad.Tensor(s), k=1)
        mope.aggregate(gw, z, experts)
        assert calls == [1]

    def test_gradient_flows_through_weights_and_experts(self):
        rng = np.random.default_rng(11)
        d, m, K = 4, 6, 3
        experts = [make_expert(rng, d) for _ in range(K)]
        z = ad.parameter(rng.normal(size=(m, d)))
        s_raw = ad.parameter(random_affinity(rng, m, K))

        def scalar():
            gw = mope.gate(ad.Tensor(s_raw.data), k=2)
            return float((mope.aggregate(gw, ad.Tensor(z.data), experts) ** 2.0).sum().data)

        gw = mope.gate(s_raw, k=2)
        (mope.aggregate(gw, z, experts) ** 2.0).sum().backward()
        assert rel_err(z.grad, numeric_grad(scalar, z.data)) < 1e-5
        assert rel_err(s_raw.grad, numeric_grad(scalar, s_raw.data)) < 1e-5
        assert rel_err(experts[0].w1.grad, numeric_grad(scalar, experts[0].w1.data)) < 1e-5


class TestCombineAndHead:
    def test_zero_frequency_branch(self):
        rng = np.random.default_rng(12)
        h_t = ad.Tensor(rng.normal(size=(2, 3, 4, 6)))
        h_f = ad.Tensor(np.zeros((2, 3, 4, 6)))
        out = mope.combine_branches(h_t, h_f)
        assert out.shape == (2, 3, 4, 12)
        np.testing.assert_array_equal(out.data[..., :6], h_t.data)
        np.testing.assert_array_equal(out.data[..., 6:], 0.0)

    def test_inverse_transform_matches_naive(self):
        rng = np.random.default_rng(13)
        h_t = ad.Tensor(np.zeros((1, 1, 3, 4)))
        h_f = ad.Tensor(rng.normal(size=(1, 1, 3, 4)))
        out = mope.combine_branches(h_t, h_f)
        assert np.max(np.abs(out.data[..., 4:] - naive_idft2_real(h_f.data))) < 1e-6

    def test_head_zero_weights_broadcast_bias(self):
        rng = np.random.default_rng(14)
        h = ad.Tensor(rng.normal(size=(2, 3, 4, 5)))
        w = ad.Tensor(np.zeros((20, 7)))
        b = ad.Tensor(rng.normal(size=7))
        y = mope.head(h, w, b)
        assert y.shape == (2, 7, 3)
        for c in range(3):
            np.testing.assert_allclose(y.data[:, :, c], np.broadcast_to(b.data, (2, 7)))

    def test_head_affine(self):
        rng = np.random.default_rng(15)
        h = rng.normal(size=(1, 2, 3, 4))
        w = ad.Tensor(rng.normal(size=(12, 5)))
        b = ad.Tensor(rng.normal(size=5))
        one = mope.head(ad.Tensor(h), w, b).data
        two = mope.head(ad.Tensor(2 * h), w, b).data
        np.testing.assert_allclose(two - b.data[None, :, None], 2 * (one - b.data[None, :, None]),
                                   atol=1e-12)

    def test_head_shape_for_benchmark_config(self):
        rng = np.random.default_rng(16)
        n, dp, H, C = 12, 16, 96, 7
        h = ad.Tensor(rng.normal(size=(1, C, n, dp)))
        y = mope.head(h, ad.Tensor(rng.normal(size=(n * dp, H)) * 0.01),
                      ad.Tensor(np.zeros(H)))
        assert y.shape == (1, H, C)

    def test_shape_mismatches(self):
        with pytest.raises(ValueError):
            mope.combine_branches(ad.Tensor(np.zeros((1, 2, 3))), ad.Tensor(np.zeros((1, 2, 4))))
        with pytest.raises(ValueError):
            mope.head(ad.Tensor(np.zeros((1, 2, 3, 4))), ad.Tensor(np.zeros((11, 5))),
                      ad.Tensor(np.zeros(5)))
