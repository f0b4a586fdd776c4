"""Attention vs a literal reference, encoder block structure, gradients."""

import numpy as np
import pytest

from helpers import numeric_grad, reference_attention, rel_err
from tfps import autodiff as ad
from tfps import encoder
from tfps.fourier import fft2_real


def make_layer(rng, d, d_ff, with_attention=True, zero_ff=False, batch_norm=False):
    """A block that attends (or, without attention, Fourier-mixes) and
    layer-normalizes (or batch-normalizes)."""
    def w(shape):
        return ad.parameter(rng.normal(0, 0.2, size=shape))

    attn = {k: w((d, d)) for k in ("wq", "wk", "wv", "wo")} if with_attention else {}
    return encoder.LayerParams(
        **attn,
        bn1_stats={} if batch_norm else None,
        bn2_stats={} if batch_norm else None,
        norm1_scale=ad.parameter(np.ones(d)),
        norm1_shift=ad.parameter(np.zeros(d)),
        ff=encoder.MLPParams(
            w1=ad.parameter(np.zeros((d, d_ff))) if zero_ff else w((d, d_ff)),
            b1=ad.parameter(np.zeros(d_ff)),
            w2=ad.parameter(np.zeros((d_ff, d))) if zero_ff else w((d_ff, d)),
            b2=ad.parameter(np.zeros(d)),
        ),
        norm2_scale=ad.parameter(np.ones(d)),
        norm2_shift=ad.parameter(np.zeros(d)),
    )


class TestAttention:
    def test_single_token_softmax_is_one(self):
        rng = np.random.default_rng(0)
        d = 8
        ws = [ad.parameter(rng.normal(size=(d, d))) for _ in range(4)]
        tokens = ad.Tensor(rng.normal(size=(1, d)))
        out = encoder.attention(tokens, *ws, n_heads=2)
        expect = (tokens.data @ ws[2].data) @ ws[3].data  # V projection then output
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_identical_tokens_identical_rows(self):
        rng = np.random.default_rng(1)
        d = 8
        ws = [ad.parameter(rng.normal(size=(d, d))) for _ in range(4)]
        row = rng.normal(size=d)
        tokens = ad.Tensor(np.tile(row, (5, 1)))
        out = encoder.attention(tokens, *ws, n_heads=4).data
        for r in out[1:]:
            np.testing.assert_allclose(r, out[0], atol=1e-12)

    def test_matches_reference_evaluation(self):
        rng = np.random.default_rng(2)
        n, d = 4, 8
        tokens = rng.normal(size=(n, d))
        ws = [rng.normal(size=(d, d)) for _ in range(4)]
        ours = encoder.attention(ad.Tensor(tokens), *(ad.Tensor(w) for w in ws), n_heads=2)
        ref = reference_attention(tokens, *ws, n_heads=2)
        assert np.max(np.abs(ours.data - ref)) < 1e-6

    def test_row_stochastic_scores(self, monkeypatch):
        # spy on the softmax the attention op applies to its score matrix
        rng = np.random.default_rng(3)
        d, n = 8, 5
        captured = []
        real_softmax = ad.softmax

        def spy(t, axis=-1):
            out = real_softmax(t, axis=axis)
            captured.append(out.data)
            return out

        monkeypatch.setattr(ad, "softmax", spy)
        ws = [ad.Tensor(rng.normal(size=(d, d)) * 2) for _ in range(4)]
        encoder.attention(ad.Tensor(rng.normal(size=(n, d)) * 3), *ws, n_heads=4)
        assert captured, "attention did not softmax its scores"
        for rows in captured:
            np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-6)

    def test_shape_mismatch(self):
        d = 8
        good = [ad.Tensor(np.eye(d)) for _ in range(4)]
        bad = [ad.Tensor(np.eye(d + 1))] + good[1:]
        with pytest.raises(ValueError):
            encoder.attention(ad.Tensor(np.zeros((3, d))), *bad, n_heads=2)


class TestNorms:
    def test_layer_norm_is_idempotent_with_unit_affine(self):
        # exact only at eps=0; the eps=1e-5 stabilizer perturbs at O(eps/2)
        rng = np.random.default_rng(4)
        t = ad.Tensor(rng.normal(2.0, 3.0, size=(4, 6)))
        one = ad.parameter(np.ones(6))
        zero = ad.parameter(np.zeros(6))
        a = encoder.layer_norm(t, one, zero)
        b = encoder.layer_norm(a, one, zero)
        np.testing.assert_allclose(a.data, b.data, atol=5e-5)
        np.testing.assert_allclose(a.data.mean(axis=-1), 0.0, atol=1e-12)

    def test_batch_norm_training_and_eval(self):
        rng = np.random.default_rng(5)
        stats = {}
        scale = ad.parameter(np.ones(3))
        shift = ad.parameter(np.zeros(3))
        t = ad.Tensor(rng.normal(5.0, 2.0, size=(40, 3)))
        out = encoder.norm(t, scale, shift, stats, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
        assert "mean" in stats and "var" in stats
        held = {k: v.copy() for k, v in stats.items()}
        out_eval = encoder.norm(t, scale, shift, stats, training=False)
        np.testing.assert_allclose(stats["mean"], held["mean"])  # eval does not update
        expect = (t.data - held["mean"]) / np.sqrt(held["var"] + encoder.EPS)
        np.testing.assert_allclose(out_eval.data, expect, atol=1e-12)

    def test_batch_norm_eval_without_stats_uses_unit_stats_and_stores_nothing(self):
        # before the first training batch, evaluation normalizes by mean 0 and
        # variance 1, so a row's output does not depend on the rest of its batch
        rng = np.random.default_rng(8)
        scale = ad.parameter(rng.normal(1.0, 0.2, size=3))
        shift = ad.parameter(rng.normal(size=3))
        a = ad.Tensor(rng.normal(5.0, 2.0, size=(40, 3)))
        stats = {}
        out = encoder.norm(a, scale, shift, stats, training=False)
        assert stats == {}
        unit = {"mean": np.zeros(3), "var": np.ones(3)}
        np.testing.assert_array_equal(out.data, encoder.norm(a, scale, shift, unit, training=False).data)
        head = encoder.norm(ad.Tensor(a.data[:7]), scale, shift, stats, training=False)
        np.testing.assert_array_equal(head.data, out.data[:7])


class TestEncodeBlocks:
    def test_deterministic_without_dropout(self):
        rng = np.random.default_rng(6)
        d = 8
        layers = [make_layer(rng, d, 16)]
        tokens = ad.Tensor(rng.normal(size=(2, 3, 5, d)))
        a = encoder.encode(tokens, layers, n_heads=2)
        b = encoder.encode(tokens, layers, n_heads=2)
        np.testing.assert_array_equal(a.data, b.data)

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        d = 8
        for with_attention in (True, False):
            layers = [make_layer(rng, d, 16, with_attention)]
            tokens = rng.normal(size=(1, 4, 5, d))
            perm = [3, 1, 0, 2]
            out = encoder.encode(ad.Tensor(tokens), layers, 2).data
            out_perm = encoder.encode(ad.Tensor(tokens[:, perm]), layers, 2).data
            np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-12)

    def test_shape_contract(self):
        rng = np.random.default_rng(8)
        d = 8
        layers = [make_layer(rng, d, 16) for _ in range(2)]
        tokens = ad.Tensor(rng.normal(size=(3, 5, d)))
        out = encoder.encode(tokens, layers, n_heads=4)
        assert out.shape == (3, 5, d)
        assert np.all(np.isfinite(out.data))

    def test_frequency_block_composition_with_zero_ff(self):
        # zero feed-forward reduces the block to ln(ln(x + Re(F2 x)))
        def ln(x):
            mu = x.mean(-1, keepdims=True)
            var = ((x - mu) ** 2).mean(-1, keepdims=True)
            return (x - mu) / np.sqrt(var + encoder.EPS)

        rng = np.random.default_rng(9)
        d = 8
        layers = [make_layer(rng, d, 16, with_attention=False, zero_ff=True)]
        tokens = rng.normal(size=(2, 5, d))
        out = encoder.encode(ad.Tensor(tokens), layers, 2).data
        expect = ln(ln(tokens + fft2_real(tokens)))
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_dropout_zero_is_identity_of_training_flag(self):
        rng = np.random.default_rng(10)
        d = 8
        layers = [make_layer(rng, d, 16)]
        tokens = ad.Tensor(rng.normal(size=(2, 5, d)))
        train = encoder.encode(tokens, layers, 2, dropout=0.0,
                               training=True, rng=np.random.default_rng(0))
        infer = encoder.encode(tokens, layers, 2, training=False)
        np.testing.assert_array_equal(train.data, infer.data)

    def test_batch_norm_block_uses_and_fills_its_stats(self):
        # a block with running-stat dicts normalizes each feature over every token
        rng = np.random.default_rng(12)
        d = 8
        layers = [make_layer(rng, d, 16, with_attention=False, zero_ff=True, batch_norm=True)]
        tokens = rng.normal(2.0, 3.0, size=(2, 3, 5, d))
        out = encoder.encode(ad.Tensor(tokens), layers, 2, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)
        assert set(layers[0].bn1_stats) == set(layers[0].bn2_stats) == {"mean", "var"}
        assert layers[0].bn1_stats["mean"].shape == (d,)

    def test_gradients_match_finite_differences(self):
        # every block kind: attention or Fourier mixing, layer or batch norm
        for with_attention in (True, False):
            for batch_norm in (False, True):
                rng = np.random.default_rng(11)
                d, n = 8, 3
                block = make_layer(rng, d, 12, with_attention, batch_norm=batch_norm)
                tokens = rng.normal(size=(1, 2, n, d))
                probe = rng.normal(size=(1, 2, n, d))

                def scalar():
                    out = encoder.encode(ad.Tensor(tokens), [block], 2, training=batch_norm)
                    return (out * probe).sum()

                for p in (block.ff.w1, block.norm1_scale) + ((block.wq, block.wo) if with_attention else ()):
                    grads = scalar().backward()
                    num = numeric_grad(lambda: float(scalar().data), p.data)
                    assert rel_err(grads[p.node], num) < 1e-4
