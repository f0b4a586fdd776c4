"""Single-node composites against the chains of tape ops they replace.

`encoder.layer_norm` (over the last axis, and over every leading axis as
batch norm), `ad.softmax`, `ad.linear` and the dense path of
`mope.aggregate` record fewer tape nodes than the composites kept below, but
must repeat their floating-point operations exactly: outputs and every
gradient are compared with `np.array_equal`, not a tolerance, so a training
run cannot move by a bit. Each op also gets a central finite-difference
check in float64.
"""

import numpy as np
import pytest

from helpers import exp, numeric_grad, record_expert_calls, rel_err, sqrt
from tfps import autodiff as ad
from tfps import encoder, mope

SHAPES = [(7, 8), (4, 3, 5, 16), (32, 7, 12, 128)]


# -- the composites the fused ops replace -------------------------------------


def composite_layer_norm(t, scale, shift, axes=(-1,)):
    mu = t.mean(axis=axes, keepdims=True)
    centered = t - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    return centered / sqrt(var + encoder.EPS) * scale + shift


def composite_softmax(a, axis):
    shift = exp(ad.add(a, -a.data.max(axis=axis, keepdims=True)))
    return ad.div(shift, ad.tsum(shift, axis=axis, keepdims=True))


def composite_linear(x, w, b=None):
    """The flat-GEMM matmul node, then a separate bias `add` node."""
    x2 = x.data.reshape(-1, x.shape[-1])
    nx, nw, sx, wd = x.node, w.node, x.shape, w.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        ad.accumulate(nx, (g2 @ wd.T).reshape(sx))
        ad.accumulate(nw, x2.T @ g2)

    y = ad.make_op((x2 @ w.data).reshape(x.shape[:-1] + w.shape[-1:]), (x, w), backward)
    return y if b is None else y + b


def gathered_aggregate(gating, z, experts):
    """`aggregate` with every expert gathered and scattered, dense or not."""
    M = z.shape[0]
    out = None
    for j, params in enumerate(experts):
        rows = np.nonzero((gating.indices == j).any(axis=1))[0]
        ej = mope.expert_forward(ad.index_rows(z, rows), params)
        wj = ad.index_rows(gating.weights, rows)[:, j : j + 1]
        piece = ad.scatter_rows(ej * wj, rows, M)
        out = piece if out is None else out + piece
    return out


# -- helpers ------------------------------------------------------------------


def run_both(fused, composite, arrays, probe):
    """Backpropagate `probe` through both ops on fresh leaves of `arrays`;
    return (output, gradients) of each."""
    results = []
    for op in (fused, composite):
        leaves = [ad.parameter(a.copy()) for a in arrays]
        out = op(*leaves)
        out.backward(probe)
        results.append((out.data, [leaf.grad for leaf in leaves]))
    return results


def assert_bitwise(fused, composite, arrays, probe):
    (out_f, grads_f), (out_c, grads_c) = run_both(fused, composite, arrays, probe)
    assert np.array_equal(out_f, out_c)
    for gf, gc in zip(grads_f, grads_c):
        assert gf.shape == gc.shape
        assert np.array_equal(gf, gc)


def assert_matches_differences(op, arrays, probe, rtol=1e-6):
    leaves = [ad.parameter(a.copy()) for a in arrays]
    (op(*leaves) * probe).sum().backward()
    for leaf in leaves:
        def f():
            return float((op(*[ad.Tensor(x.data) for x in leaves]) * probe).sum().data)

        assert rel_err(leaf.grad, numeric_grad(f, leaf.data)) < rtol


# -- layer_norm -----------------------------------------------------------------


def leading_axes(shape):
    return tuple(range(len(shape) - 1))


# layer norm over the last axis; batch norm over every leading axis
NORM_CASES = [pytest.param(shape, (-1,), id=f"shape{i}") for i, shape in enumerate(SHAPES)] + [
    pytest.param(shape, leading_axes(shape), id=f"batch-shape{i}") for i, shape in enumerate(SHAPES)
]


@pytest.mark.parametrize("shape,axes", NORM_CASES)
def test_layer_norm_is_bitwise_the_composite(shape, axes):
    rng = np.random.default_rng(1)
    d = shape[-1]
    arrays = [rng.normal(0.5, 2.0, size=shape), rng.normal(1.0, 0.3, size=d), rng.normal(size=d)]
    assert_bitwise(
        lambda t, scale, shift: encoder.layer_norm(t, scale, shift, axes),
        lambda t, scale, shift: composite_layer_norm(t, scale, shift, axes),
        arrays, rng.normal(size=shape),
    )


@pytest.mark.parametrize("axes", [(-1,), (0, 1)], ids=["last-axis", "leading-axes"])
def test_layer_norm_matches_finite_differences(axes):
    rng = np.random.default_rng(2)
    arrays = [rng.normal(size=(3, 2, 5)), rng.normal(1.0, 0.3, size=5), rng.normal(size=5)]
    assert_matches_differences(
        lambda t, scale, shift: encoder.layer_norm(t, scale, shift, axes), arrays,
        rng.normal(size=(3, 2, 5)),
    )


def test_batch_norm_with_batch_stats_is_one_node(monkeypatch):
    # training normalizes with the batch's stats through the one layer_norm node
    rng = np.random.default_rng(3)
    scale, shift = ad.parameter(np.ones(4)), ad.parameter(np.zeros(4))
    nodes = []
    real = ad.make_op

    def recording(*args):
        nodes.append(real(*args))
        return nodes[-1]

    monkeypatch.setattr(ad, "make_op", recording)
    t = ad.parameter(rng.normal(size=(6, 3, 4)))
    encoder.norm(t, scale, shift, {}, training=True)
    assert len(nodes) == 1


# -- softmax ----------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_softmax_last_axis_is_bitwise_the_composite(shape):
    rng = np.random.default_rng(4)
    arrays = [rng.normal(0.0, 3.0, size=shape)]
    assert_bitwise(
        lambda a: ad.softmax(a, axis=-1), lambda a: composite_softmax(a, -1), arrays,
        rng.normal(size=shape),
    )


def test_softmax_axis1_with_masked_entries_is_bitwise_the_composite():
    # as mope.gate feeds it: -inf at the experts a row does not keep
    rng = np.random.default_rng(5)
    m, K = 40, 5
    s = rng.normal(size=(m, K))
    floor = np.where(rng.random((m, K)) < 0.4, -np.inf, 0.0)
    floor[:, 0] = 0.0  # every row keeps at least one expert
    probe = rng.normal(size=(m, K))
    results = []
    for op in (lambda a: ad.softmax(a, axis=1), lambda a: composite_softmax(a, 1)):
        leaf = ad.parameter(s.copy())
        out = op(leaf + floor)
        out.backward(probe)
        results.append((out.data, leaf.grad))
    (out_f, g_f), (out_c, g_c) = results
    assert np.array_equal(out_f, out_c) and np.array_equal(g_f, g_c)
    assert np.all(out_f[np.isinf(floor)] == 0.0) and np.all(g_f[np.isinf(floor)] == 0.0)


def test_softmax_matches_finite_differences():
    rng = np.random.default_rng(6)
    floor = np.array([[0.0, -np.inf, 0.0, 0.0], [0.0, 0.0, 0.0, -np.inf], [-np.inf, 0.0, 0.0, 0.0]])
    probe = rng.normal(size=(3, 4))
    for op in (lambda a: ad.softmax(a, axis=-1), lambda a: ad.softmax(a + floor, axis=1)):
        assert_matches_differences(op, [rng.normal(size=(3, 4))], probe)


# -- linear -----------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(7, 8), (4, 3, 5, 16)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_is_bitwise_the_composite(shape, bias):
    rng = np.random.default_rng(7)
    d_out = 6
    arrays = [rng.normal(size=shape), rng.normal(size=(shape[-1], d_out))]
    if bias:
        arrays.append(rng.normal(size=d_out))
    probe = rng.normal(size=shape[:-1] + (d_out,))
    assert_bitwise(ad.linear, composite_linear, arrays, probe)


@pytest.mark.parametrize("bias", [True, False])
def test_linear_matches_finite_differences(bias):
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))] + ([rng.normal(size=5)] if bias else [])
    assert_matches_differences(ad.linear, arrays, rng.normal(size=(2, 3, 5)))


def test_linear_rejects_a_non_matrix_weight():
    with pytest.raises(ValueError, match="2-D weight"):
        ad.linear(np.ones((2, 3)), ad.parameter(np.ones((2, 3, 4))))


# -- aggregate at top_k == K --------------------------------------------------------


def test_dense_aggregate_is_bitwise_the_gathered_path(monkeypatch):
    rng = np.random.default_rng(9)
    d, m, K = 6, 30, 4
    experts = [
        encoder.MLPParams(*(ad.parameter(rng.normal(0, 0.3, size=s)) for s in ((d, 8), 8, (8, d), d)))
        for _ in range(K)
    ]
    z0, s0, probe = rng.normal(size=(m, d)), rng.normal(size=(m, K)), rng.normal(size=(m, d))
    calls = record_expert_calls(monkeypatch, mope, experts)
    results = []
    for run in (lambda g, z: mope.aggregate(g, z, experts), lambda g, z: gathered_aggregate(g, z, experts)):
        for p in experts:
            for t in (p.w1, p.b1, p.w2, p.b2):
                t.grad = None
        z, s = ad.parameter(z0.copy()), ad.parameter(s0.copy())
        out = run(mope.gate(s, K), z)
        out.backward(probe)
        grads = [t.grad for p in experts for t in (p.w1, p.b1, p.w2, p.b2)]
        results.append([out.data, z.grad, s.grad] + grads)
    assert calls == list(range(K)) * 2  # each expert once in aggregate, once in the reference
    for got, ref in zip(*results):
        assert np.array_equal(got, ref)
