"""Gradient correctness of every tape primitive against central differences."""

import weakref

import numpy as np
import pytest

from helpers import exp, numeric_grad, rel_err, sqrt
from tfps import autodiff as ad


def check_unary(op, shape=(3, 4), positive=False, seed=0, rtol=1e-6):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    p = ad.parameter(data.copy())

    def run():
        return float(op(p).sum().data)

    out = op(p).sum()
    out.backward()
    num = numeric_grad(lambda: float(op(ad.Tensor(p.data)).sum().data), p.data)
    assert rel_err(p.grad, num) < rtol


class TestPrimitives:
    def test_add_mul_div_broadcast(self):
        rng = np.random.default_rng(1)
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(4,)) + 3.0)

        def f():
            t = (ad.Tensor(a.data) + ad.Tensor(b.data)) * ad.Tensor(a.data) / ad.Tensor(b.data)
            return float(t.sum().data)

        out = ((a + b) * a / b).sum()
        out.backward()
        assert rel_err(a.grad, numeric_grad(f, a.data)) < 1e-6
        assert rel_err(b.grad, numeric_grad(f, b.data)) < 1e-6

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = ad.parameter(rng.normal(size=(2, 3, 4)))
        w = ad.parameter(rng.normal(size=(4, 5)))
        probe = rng.normal(size=(2, 3, 5))  # non-uniform seed for the flat weight path

        def f():
            return float(((ad.Tensor(a.data) @ ad.Tensor(w.data)) * probe).sum().data)

        ((a @ w) * probe).sum().backward()
        assert rel_err(a.grad, numeric_grad(f, a.data)) < 1e-6
        assert rel_err(w.grad, numeric_grad(f, w.data)) < 1e-6

    def test_index_rows_rejects_repeated_or_unsorted_rows(self):
        p = ad.parameter(np.ones((4, 2)))
        for rows in ([0, 0, 1], [2, 1], [[0, 1]]):
            with pytest.raises(ValueError):
                ad.index_rows(p, np.array(rows))

    def test_unary_ops(self):
        check_unary(exp)  # the test-only oracles of test_fused_ops.py
        check_unary(sqrt, positive=True)
        check_unary(ad.log, positive=True)
        check_unary(ad.relu)
        check_unary(lambda t: t * t * t)

    def test_reductions_and_shape(self):
        rng = np.random.default_rng(3)
        p = ad.parameter(rng.normal(size=(2, 3, 4)))

        def f():
            t = ad.Tensor(p.data)
            return float((t.mean(axis=-1, keepdims=True) * t.sum(axis=0)).sum().data)

        (p.mean(axis=-1, keepdims=True) * p.sum(axis=0)).sum().backward()
        assert rel_err(p.grad, numeric_grad(f, p.data)) < 1e-6

        # tmean divides by the number of entries each output averages over
        for axis, keepdims in (((0, 2), True), ((0, -1), False), (-2, False), (None, False)):
            p.grad = None
            probe = rng.normal(size=p.data.mean(axis=axis, keepdims=keepdims).shape)

            def build(t):
                return (t.mean(axis=axis, keepdims=keepdims) * probe).sum()

            out = build(p)
            assert out.data == pytest.approx((p.data.mean(axis=axis, keepdims=keepdims) * probe).sum(), rel=1e-12)
            out.backward()
            num = numeric_grad(lambda: float(build(ad.Tensor(p.data)).data), p.data)
            assert rel_err(p.grad, num) < 1e-6, (axis, keepdims)

    def test_reshape_swap_concat_slice(self):
        rng = np.random.default_rng(4)
        p = ad.parameter(rng.normal(size=(4, 6)))

        def build(t):
            left = t[:, :3].reshape(2, 6)
            right = t[:, 3:].swapaxes(0, 1).reshape(2, 6)
            both = ad.concat([left, right], axis=0)
            return (both * both).sum()

        build(p).backward()
        num = numeric_grad(lambda: float(build(ad.Tensor(p.data)).data), p.data)
        assert rel_err(p.grad, num) < 1e-6

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = ad.parameter(rng.normal(size=(7, 5)) * 10)
        s = ad.softmax(p, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

        def f():
            s = ad.softmax(ad.Tensor(p.data), axis=-1)
            return float((s * s).sum().data)

        s = ad.softmax(p, axis=-1)
        (s * s).sum().backward()
        assert rel_err(p.grad, numeric_grad(f, p.data)) < 1e-6

    def test_gather_scatter(self):
        rng = np.random.default_rng(6)
        p = ad.parameter(rng.normal(size=(5, 4)))
        rows = np.array([0, 2, 4])

        def build(t):
            sub = ad.index_rows(t, rows)
            back = ad.scatter_rows(sub * 2.0, rows, 6)
            return (back * back).sum()

        build(p).backward()
        num = numeric_grad(lambda: float(build(ad.Tensor(p.data)).data), p.data)
        assert rel_err(p.grad, num) < 1e-6
        np.testing.assert_array_equal(p.grad[[1, 3]], 0.0)


class TestTape:
    @pytest.mark.parametrize("op", [ad.add, ad.mul, ad.div])
    def test_constant_operand_gets_no_gradient(self, op, monkeypatch):
        formed = []
        real = ad.unbroadcast
        monkeypatch.setattr(ad, "unbroadcast", lambda g, shape: formed.append(shape) or real(g, shape))
        x, c = ad.parameter(np.ones((3, 4))), np.full((1, 4), 2.0)
        for args in ((x, c), (c, x)):
            formed.clear()
            op(*args).backward(np.ones((3, 4)))
            assert formed == [(3, 4)]  # the parameter's gradient only

    def test_grad_accumulates_over_reuse(self):
        p = ad.parameter(np.array([2.0, 3.0]))
        y = (p * p).sum() + (p * 4.0).sum()
        y.backward()
        np.testing.assert_allclose(p.grad, 2 * p.data + 4.0)

    def test_leaf_grads_do_not_share_memory(self):
        a = ad.parameter(np.array([1.0, 2.0]))
        b = ad.parameter(np.array([3.0, 4.0]))
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)

    def test_diamond_graph(self):
        p = ad.parameter(np.array([1.5]))
        a = p * 2.0
        b = p * 3.0
        ab = a * b
        (ab * ab).sum().backward()
        # d/dp (6 p^2)^2 = 144 p^3
        np.testing.assert_allclose(p.grad, 144 * p.data ** 3)

    def test_no_grad_blocks_tape(self):
        p = ad.parameter(np.ones(3))
        with ad.no_grad():
            y = (p * p).sum()
        assert not y.requires_grad
        with pytest.raises(ValueError):
            ad.Tensor(np.ones(2)).backward()  # non-scalar needs explicit seed

    def test_detach_stops_gradient(self):
        # a tensor built from a parameter's data is a constant on the tape, as
        # the refined target in pattern.kl_loss is
        p = ad.parameter(np.array([2.0]))
        y = (ad.Tensor(p.data) * p).sum()
        y.backward()
        np.testing.assert_allclose(p.grad, [2.0])  # only the live factor

    def test_backward_frees_interior_nodes(self):
        p = ad.parameter(np.arange(1.0, 4.0))
        hidden = exp(p * 2.0)
        probe = weakref.ref(hidden.data)
        root = (hidden * p).sum()
        del hidden
        assert probe() is not None  # the tape keeps the activation alive
        root.backward()
        assert probe() is None
        assert root.grad is None and root.data == pytest.approx(np.sum(np.exp(2 * p.data) * p.data))
        np.testing.assert_allclose(p.grad, np.exp(2 * p.data) * (2 * p.data + 1))

    def test_backward_through_freed_graph_raises(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        hidden = p * 3.0
        root = (hidden * hidden).sum()
        root.backward()
        grad = p.grad.copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            root.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (hidden + p).sum().backward()
        np.testing.assert_array_equal(p.grad, grad)  # the refused walks added nothing

    def test_leaf_grads_accumulate_across_graphs(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        (p * p).sum().backward()
        (p * 5.0).sum().backward()
        np.testing.assert_allclose(p.grad, 2 * p.data + 5.0)

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))

    def test_fancy_indexing_rejected(self):
        with pytest.raises(TypeError):
            ad.parameter(np.ones((3, 3)))[np.array([0, 1])]
