"""Gradient correctness of every tape primitive against central differences,
and what the tape holds on to until backward."""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import exp, numeric_grad, rel_err, sqrt
from make_golden import BATCH, CASES, CHANNELS
from tfps import autodiff as ad
from tfps import encoder, mope
from tfps.config import TrainConfig
from tfps.fourier import fourier_mix, inverse_fourier_mix
from tfps.model import TFPSModel
from tfps.trainer import total_loss


def check_unary(op, shape=(3, 4), positive=False, seed=0, rtol=1e-6):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    p = ad.parameter(data.copy())

    def run():
        return float(op(p).sum().data)

    grads = op(p).sum().backward()
    num = numeric_grad(lambda: float(op(ad.Tensor(p.data)).sum().data), p.data)
    assert rel_err(grads[p.node], num) < rtol


class TestPrimitives:
    def test_add_mul_div_broadcast(self):
        rng = np.random.default_rng(1)
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(4,)) + 3.0)

        def f():
            t = (ad.Tensor(a.data) + ad.Tensor(b.data)) * ad.Tensor(a.data) / ad.Tensor(b.data)
            return float(t.sum().data)

        grads = ((a + b) * a / b).sum().backward()
        assert rel_err(grads[a.node], numeric_grad(f, a.data)) < 1e-6
        assert rel_err(grads[b.node], numeric_grad(f, b.data)) < 1e-6

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = ad.parameter(rng.normal(size=(2, 3, 4)))
        w = ad.parameter(rng.normal(size=(4, 5)))
        probe = rng.normal(size=(2, 3, 5))  # non-uniform seed for the flat weight path

        def f():
            return float(((ad.Tensor(a.data) @ ad.Tensor(w.data)) * probe).sum().data)

        grads = ((a @ w) * probe).sum().backward()
        assert rel_err(grads[a.node], numeric_grad(f, a.data)) < 1e-6
        assert rel_err(grads[w.node], numeric_grad(f, w.data)) < 1e-6

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

        grads = (p.mean(axis=-1, keepdims=True) * p.sum(axis=0)).sum().backward()
        assert rel_err(grads[p.node], numeric_grad(f, p.data)) < 1e-6

        # tmean divides by the number of entries each output averages over
        for axis, keepdims in (((0, 2), True), ((0, -1), False), (-2, False), (None, False)):
            probe = rng.normal(size=p.data.mean(axis=axis, keepdims=keepdims).shape)

            def build(t):
                return (t.mean(axis=axis, keepdims=keepdims) * probe).sum()

            out = build(p)
            assert out.data == pytest.approx((p.data.mean(axis=axis, keepdims=keepdims) * probe).sum(), rel=1e-12)
            grads = out.backward()
            num = numeric_grad(lambda: float(build(ad.Tensor(p.data)).data), p.data)
            assert rel_err(grads[p.node], num) < 1e-6, (axis, keepdims)

    def test_reshape_swap_concat_slice(self):
        rng = np.random.default_rng(4)
        p = ad.parameter(rng.normal(size=(4, 6)))

        def build(t):
            left = t[:, :3].reshape(2, 6)
            right = t[:, 3:].swapaxes(0, 1).reshape(2, 6)
            both = ad.concat([left, right], axis=0)
            return (both * both).sum()

        grads = build(p).backward()
        num = numeric_grad(lambda: float(build(ad.Tensor(p.data)).data), p.data)
        assert rel_err(grads[p.node], num) < 1e-6

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = ad.parameter(rng.normal(size=(7, 5)) * 10)
        s = ad.softmax(p, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

        def f():
            s = ad.softmax(ad.Tensor(p.data), axis=-1)
            return float((s * s).sum().data)

        s = ad.softmax(p, axis=-1)
        grads = (s * s).sum().backward()
        assert rel_err(grads[p.node], numeric_grad(f, p.data)) < 1e-6

    def test_gather_scatter(self):
        rng = np.random.default_rng(6)
        p = ad.parameter(rng.normal(size=(5, 4)))
        rows = np.array([0, 2, 4])

        def build(t):
            sub = ad.index_rows(t, rows)
            back = ad.scatter_rows(sub * 2.0, rows, 6)
            return (back * back).sum()

        grads = build(p).backward()
        num = numeric_grad(lambda: float(build(ad.Tensor(p.data)).data), p.data)
        assert rel_err(grads[p.node], num) < 1e-6
        np.testing.assert_array_equal(grads[p.node][[1, 3]], 0.0)


class TestTape:
    @pytest.mark.parametrize("op", [ad.add, ad.mul, ad.div])
    def test_constant_operand_gets_no_gradient(self, op, monkeypatch):
        formed = []
        real = ad.unbroadcast
        monkeypatch.setattr(ad, "unbroadcast", lambda g, shape: formed.append(shape) or real(g, shape))
        x, c = ad.parameter(np.ones((3, 4))), np.full((1, 4), 2.0)
        for args in ((x, c), (c, x)):
            formed.clear()
            op(*args).sum().backward()  # `sum`'s adjoint calls no unbroadcast
            assert formed == [(3, 4)]  # the parameter's gradient only

    def test_grad_accumulates_over_reuse(self):
        p = ad.parameter(np.array([2.0, 3.0]))
        y = (p * p).sum() + (p * 4.0).sum()
        np.testing.assert_allclose(y.backward()[p.node], 2 * p.data + 4.0)

    def test_leaf_grads_do_not_share_memory(self):
        a = ad.parameter(np.array([1.0, 2.0]))
        b = ad.parameter(np.array([3.0, 4.0]))
        grads = (a + b).sum().backward()
        assert not np.shares_memory(grads[a.node], grads[b.node])

    def test_diamond_graph(self):
        p = ad.parameter(np.array([1.5]))
        a = p * 2.0
        b = p * 3.0
        ab = a * b
        grads = (ab * ab).sum().backward()
        # d/dp (6 p^2)^2 = 144 p^3
        np.testing.assert_allclose(grads[p.node], 144 * p.data ** 3)

    def test_no_grad_blocks_tape(self):
        p = ad.parameter(np.ones(3))
        with ad.no_grad():
            y = (p * p).sum()
        assert not y.requires_grad
        with pytest.raises(ValueError):
            ad.Tensor(np.ones(2)).backward()  # backward() starts only from a scalar

    def test_detach_stops_gradient(self):
        # a tensor built from a parameter's data is a constant on the tape, as
        # the refined target in pattern.kl_loss is
        p = ad.parameter(np.array([2.0]))
        y = (ad.Tensor(p.data) * p).sum()
        np.testing.assert_allclose(y.backward()[p.node], [2.0])  # only the live factor

    def test_backward_frees_interior_nodes(self):
        p = ad.parameter(np.arange(1.0, 4.0))
        hidden = exp(p * 2.0)
        probe = weakref.ref(hidden.data)
        root = (hidden * p).sum()
        del hidden
        assert probe() is not None  # the tape keeps the activation alive
        grads = root.backward()
        assert probe() is None
        assert root.node.backward is None and root.data == pytest.approx(np.sum(np.exp(2 * p.data) * p.data))
        assert list(grads) == [p.node]  # the leaves' gradients only
        np.testing.assert_allclose(grads[p.node], np.exp(2 * p.data) * (2 * p.data + 1))

    def test_a_walk_returns_exactly_the_leaves_it_reaches(self):
        root = every_op_graph()
        nodes = tape_nodes(root)
        leaves = {node for node in nodes if node.backward is None}
        assert len(leaves) < len(nodes)  # the walk has interior nodes to keep gradients of
        unused = ad.parameter(np.ones(3))
        grads = root.backward()
        assert grads.keys() == leaves and unused.node not in grads

    def test_backward_through_freed_graph_raises(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        hidden = p * 3.0
        root = (hidden * hidden).sum()
        grads = root.backward()
        grad = grads[p.node].copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            root.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (hidden + p).sum().backward()
        np.testing.assert_array_equal(grads[p.node], grad)  # the refused walks added nothing

    def test_each_walk_returns_only_its_own_gradients(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        first = (p * p).sum().backward()
        second = (p * 5.0).sum().backward()
        np.testing.assert_array_equal(first[p.node], 2 * p.data)
        np.testing.assert_array_equal(second[p.node], [5.0, 5.0])
        np.testing.assert_allclose(first[p.node] + second[p.node], 2 * p.data + 5.0)  # what one leaf once held

    def test_threads_sharing_leaves_get_their_serial_gradients(self):
        rng = np.random.default_rng(8)
        w, b = ad.parameter(rng.normal(size=(6, 6))), ad.parameter(rng.normal(size=6))
        inputs = [rng.normal(size=(40, 6)) for _ in range(2)]

        def walk(x, barrier=None):
            h = ad.relu(ad.linear(x, w, b))
            for _ in range(200):  # a long walk, so the threads interleave within it
                h = ad.softmax(ad.linear(h, w, b), axis=-1)
            loss = (h * h).sum()
            if barrier is not None:
                barrier.wait()  # both walks start together
            return loss.backward()

        serial = [walk(x) for x in inputs]
        got, barrier = [None, None], threading.Barrier(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda k=k: got.__setitem__(k, walk(inputs[k], barrier)))
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        for mine, expected in zip(got, serial):
            assert mine.keys() == expected.keys() == {w.node, b.node}
            for node, g in expected.items():
                np.testing.assert_array_equal(mine[node], g)

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))

    def test_fancy_indexing_rejected(self):
        with pytest.raises(TypeError):
            ad.parameter(np.ones((3, 3)))[np.array([0, 1])]


# -- what the tape keeps ----------------------------------------------------------


def every_op_graph():
    """A scalar built from every differentiable op of the package: the
    `autodiff` primitives, layer norm in layer and batch mode, both Fourier
    mixers and `mope.aggregate`'s gather/scatter path."""
    rng = np.random.default_rng(7)
    tokens = ad.parameter(rng.normal(size=(2, 3, 4, 8)))  # (B, C, N, D)
    scale, shift = ad.parameter(rng.normal(size=8)), ad.parameter(rng.normal(size=8))
    x = encoder.layer_norm(tokens, scale, shift)
    x = encoder.layer_norm(x, scale, shift, (0, 1, 2), {})
    x = inverse_fourier_mix(fourier_mix(x))
    x = ad.softmax(x @ x.swapaxes(-1, -2), axis=-1) @ x  # (B, C, N, N) @ (B, C, N, D)
    z = x.reshape(24, 8)
    gate_w, gate_b = ad.parameter(rng.normal(size=(8, 2))), ad.parameter(rng.normal(size=2))
    gating = mope.gate(ad.softmax(ad.linear(z, gate_w, gate_b), axis=-1), 1)
    experts = [
        encoder.MLPParams(*(ad.parameter(rng.normal(size=shape)) for shape in ((8, 5), (5,), (5, 8), (8,))))
        for _ in range(2)
    ]
    h = mope.aggregate(gating, z, experts)
    both = ad.concat([h, z @ ad.parameter(rng.normal(size=(8, 8)))], axis=-1)
    ratio = both / (both * both + 1.0)
    return ad.log(ratio * ratio + 0.5).mean(axis=0).sum()


def tape_nodes(root: ad.Tensor) -> list:
    nodes, stack, seen = [], [root.node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def held_leaves(value):
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in held_leaves(item)]
    return [value]


def test_no_backward_closure_holds_a_tensor():
    root = every_op_graph()
    ops = set()
    for node in tape_nodes(root):
        if node.backward is None:
            continue  # a parameter
        ops.add(node.backward.__qualname__.split(".")[0])
        for cell in node.backward.__closure__ or ():
            for leaf in held_leaves(cell.cell_contents):
                assert isinstance(leaf, (ad.Node, np.ndarray, int, float, slice, type(None))), (
                    f"{node.backward.__qualname__} holds a {type(leaf).__name__}"
                )
    # `narrow` and `index_rows` both record `_select` nodes
    assert ops == {
        "add", "mul", "div", "matmul", "linear", "reshape", "swapaxes", "_select", "concat", "tsum",
        "log", "relu", "softmax", "scatter_rows", "layer_norm", "fourier_mix",
        "inverse_fourier_mix",
    }
    root.backward()


def closure_arrays(t: ad.Tensor) -> list[np.ndarray]:
    return [leaf for cell in t.node.backward.__closure__ for leaf in held_leaves(cell.cell_contents)
            if isinstance(leaf, np.ndarray)]


@pytest.mark.parametrize("axes", [(-1,), (0, 1)], ids=["layer", "batch"])
def test_layer_norm_keeps_one_array_of_its_input_shape(axes):
    rng = np.random.default_rng(10)
    t = ad.parameter(rng.normal(size=(3, 5, 4)))
    out = encoder.layer_norm(t, ad.parameter(rng.normal(size=4)), ad.parameter(rng.normal(size=4)), axes)
    assert sum(a.shape == t.shape for a in closure_arrays(out)) == 1  # the centered input


def test_relu_keeps_no_mask():
    out = ad.relu(ad.parameter(np.random.default_rng(11).normal(size=(3, 4))))
    assert [a.dtype for a in closure_arrays(out)] == [np.float64]  # its output, which consumers hold


def test_relu_gradient_is_the_mask_formula_bit_for_bit():
    x = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 2.0, -2.0])
    g = np.random.default_rng(12).normal(size=x.shape)
    p = ad.parameter(x)
    with np.errstate(invalid="ignore"):  # -inf times a false mask is NaN
        grads = (ad.relu(p) * g).sum().backward()  # hands relu's closure g itself
    assert grads[p.node].tobytes() == (g * (x > 0)).tobytes()


# Each case builds an interior tensor `s` from three (3, 4) parameters and a
# loss on it, and returns both.


def add_sum(p, q, r):
    s = p + q
    return s, (ad.relu(s) * r).sum()


def relu_input(p, q, r):
    s = p * q
    return s, ad.relu(s).sum()


def layer_norm_input(p, q, r):
    s = p * q
    return s, (encoder.layer_norm(s, ad.parameter(np.ones(4)), ad.parameter(np.zeros(4))) * r).sum()


def factor_of_a_constant_product(p, q, r):
    s = p * q
    return s, ((s * 3.0) * r).sum()


def mul_factor(p, q, r):
    s = p + q
    return s, (s * r).sum()


def linear_input(p, q, r):
    s = p + q
    return s, ad.linear(s, ad.parameter(np.ones((4, 2)))).sum()


def log_input(p, q, r):
    s = p * p + 1.0
    return s, (ad.log(s) * r).sum()


def probe_and_backward(build, drop: bool):
    """Build the case from seeded parameters, drop `s` if asked, and return
    a weakref to its array, whether that array was alive just before
    backward, and the parameters' gradients."""
    rng = np.random.default_rng(8)
    params = [ad.parameter(rng.normal(size=(3, 4))) for _ in range(3)]
    s, loss = build(*params)
    probe = weakref.ref(s.data)
    if drop:
        del s
    alive = probe() is not None
    grads = loss.backward()
    return probe, alive, [grads.get(p.node) for p in params]


@pytest.mark.parametrize("build", [add_sum, relu_input, layer_norm_input, factor_of_a_constant_product])
def test_an_array_no_adjoint_reads_is_freed_when_dropped(build):
    _, alive, grads = probe_and_backward(build, drop=True)
    assert not alive
    _, kept_alive, kept_grads = probe_and_backward(build, drop=False)
    assert kept_alive
    for g, kept in zip(grads, kept_grads):
        np.testing.assert_array_equal(g, kept)


@pytest.mark.parametrize("build", [mul_factor, linear_input, log_input])
def test_an_array_an_adjoint_reads_lives_until_backward(build):
    probe, alive, _ = probe_and_backward(build, drop=True)
    assert alive
    assert probe() is None  # backward freed the graph, and with it the array


def test_fourier_mix_output_frees_its_complex_buffer():
    rng = np.random.default_rng(9)
    p = ad.parameter(rng.normal(size=(2, 4, 6)))
    mixed = fourier_mix(p)
    probe = weakref.ref(mixed.data.base)  # the complex FFT result behind `.real`
    assert np.iscomplexobj(probe())
    loss = ((mixed + p) * p).sum()
    del mixed
    assert probe() is None
    grads = loss.backward()
    q = ad.parameter(p.data.copy())
    np.testing.assert_array_equal(grads[p.node], ((fourier_mix(q) + q) * q).sum().backward()[q.node])


# Bytes one `total_loss` graph holds before backward, on the golden `top2`
# config at d_model=32: 2.73-2.86 million while every node was its output
# tensor and kept its `.data` (the figure moves with what ran earlier in the
# process), 1.53-1.68 million with nodes that keep only what adjoints read,
# 1.30-1.44 million since layer norm keeps no normalized input and ReLU no
# mask.
GRAPH_BYTES_BOUND = 1_500_000


def test_one_loss_graph_holds_only_what_its_adjoints_read():
    cfg = TrainConfig(
        seq_len=32, pred_len=32, patch_len=8, stride=4, d_model=32, n_layers=2,
        n_heads=2, k_time=2, k_freq=2, seed=11, **CASES["top2"],
    )
    model = TFPSModel(cfg)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(BATCH, cfg.seq_len, CHANNELS))
    y = rng.normal(size=(BATCH, cfg.pred_len, CHANNELS))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss, fwd, _ = total_loss(model, x, y)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < GRAPH_BYTES_BOUND, f"one loss graph holds {held:,} bytes"
    loss.backward()
