import numpy as np
import pytest

from icuseq import autodiff as ad
from icuseq.embedder import (
    EmbedderParams,
    compose,
    compose_batch,
    encode_batch,
    init_embedder,
)
from icuseq.errors import IndexOutOfRange, ShapeMismatch
from icuseq.masking import MaskingRates, plan_masking
from icuseq.textvec import StubProvider
from icuseq.types import Special, Vocabularies
from icuseq.windows import truncate_and_pad

from conftest import dyn_token, make_window

D_PRE, D, W = 6, 8, 24


def params(seed=0, dropout=0.1, dtype=np.float64):
    return init_embedder(np.random.default_rng(seed), D_PRE, D, W, dropout, dtype)


def zero_params():
    p = params()
    for name, t in p.named_parameters():
        t.data = np.zeros_like(t.data)
    p.ln_gain.data = np.ones_like(p.ln_gain.data)
    return p


def rand(*shape):
    return np.random.default_rng(1).standard_normal(shape)


class TestCompose:
    def test_zero_inputs_zero_params_give_zero(self):
        out = compose(ad.constant(np.zeros((2, D_PRE))), ad.constant(np.zeros((2, D_PRE))),
                      np.zeros(2, dtype=int), np.zeros(2, dtype=int), zero_params())
        np.testing.assert_array_equal(out.data, np.zeros((2, D)))

    def test_eval_moments(self):
        p = params()
        out = compose(ad.constant(rand(32, D_PRE)), ad.constant(rand(32, D_PRE)),
                      np.arange(32) % W, np.arange(32) % W, p, mode="eval")
        normalized = (out.data - p.ln_bias.data) / p.ln_gain.data
        np.testing.assert_allclose(normalized.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(normalized.var(axis=-1), 1.0, atol=1e-4)

    def test_distinct_table_rows_selected(self):
        p = params()
        base = (ad.constant(np.zeros((1, D_PRE))), ad.constant(np.zeros((1, D_PRE))))
        a = compose(*base, np.array([0]), np.array([0]), p, apply_layernorm=False)
        b = compose(*base, np.array([1]), np.array([0]), p, apply_layernorm=False)
        assert not np.allclose(a.data, b.data)

    def test_index_out_of_range(self):
        p = params()
        with pytest.raises(IndexOutOfRange):
            compose(ad.constant(rand(1, D_PRE)), ad.constant(rand(1, D_PRE)),
                    np.array([W]), np.array([0]), p)
        with pytest.raises(IndexOutOfRange):
            compose(ad.constant(rand(1, D_PRE)), ad.constant(rand(1, D_PRE)),
                    np.array([0]), np.array([-1]), p)

    def test_affine_linearity_with_norm_disabled(self):
        p = params(dropout=0.0)
        tau = np.array([3, 5])
        delta = np.array([0, 2])
        val = ad.constant(rand(2, D_PRE))

        def f(feat):
            return compose(ad.constant(feat), val, tau, delta, p, apply_layernorm=False).data

        x = rand(2, D_PRE)
        zero = f(np.zeros((2, D_PRE)))
        np.testing.assert_allclose(f(3.0 * x) - zero, 3.0 * (f(x) - zero), atol=1e-10)

    def test_train_mode_requires_rng(self):
        with pytest.raises(ShapeMismatch):
            compose(ad.constant(rand(1, D_PRE)), ad.constant(rand(1, D_PRE)),
                    np.array([0]), np.array([0]), params(), mode="train")


def sample_window(n=5):
    tokens = [dyn_token("lab: a", float(i), i) for i in range(n - 2)]
    tokens.append(dyn_token("lab: b", "high", n))
    return truncate_and_pad(make_window(tokens), 12)


def window_of(real, padded):
    """A window of ``real`` tokens (CLS included) padded to ``padded``."""
    return truncate_and_pad(make_window([dyn_token("lab: a", float(i), i) for i in range(real - 1)]), padded)


class TestEncodeBatch:
    provider = StubProvider(dim=D_PRE, seed=0)

    def composed(self, seq, p, mode="eval", rng=None):
        batch = encode_batch([seq], self.provider, dtype=np.float64)
        return compose_batch(batch, p, mode, rng).data[0], batch.attention_mask[0]

    @pytest.mark.parametrize("reals, padded, expected", [
        ((3, 5), 40, 8),     # longest real window rounded up to a multiple of 8
        ((3, 9), 40, 16),
        ((16, 2), 40, 16),   # already a multiple of 8
        ((10, 4), 12, 12),   # never longer than the padded windows
        ((12,), 12, 12),
    ])
    def test_batch_length_follows_longest_real_window(self, reals, padded, expected):
        windows = [window_of(r, padded) for r in reals]
        batch = encode_batch(windows, self.provider)
        assert batch.seq_len == expected
        assert batch.feat_pre.shape == (len(reals), expected, D_PRE)
        assert batch.attention_mask.sum(axis=1).tolist() == list(reals)

    def test_plan_targets_cut_with_the_batch(self):
        vocab = Vocabularies(features=("[CLS]", "[PAD]", "[MASK]", "lab: a"),
                             categorical_values=("[MASK]", "[UNK]"), per_feature_stats={})
        windows = [window_of(4, 40), window_of(6, 40)]
        plans = [plan_masking(w, vocab, np.random.default_rng(i), MaskingRates(select=1.0))
                 for i, w in enumerate(windows)]
        batch = encode_batch(windows, self.provider, plans)
        assert batch.feature_target.shape == batch.cont_target.shape == (2, 8)
        for got, plan in zip(batch.feature_target, plans):
            np.testing.assert_array_equal(got, plan.feature_target[:8])
            assert np.all(plan.feature_target[8:] == -1)

    def test_eval_deterministic(self):
        seq = sample_window()
        a, _ = self.composed(seq, params())
        b, _ = self.composed(seq, params())
        assert a.tobytes() == b.tobytes()

    def test_train_dropout_reproducible_with_seed(self):
        seq = sample_window()
        p = params(dropout=0.5)
        a, _ = self.composed(seq, p, "train", np.random.default_rng(11))
        b, _ = self.composed(seq, p, "train", np.random.default_rng(11))
        c, _ = self.composed(seq, p, "train", np.random.default_rng(12))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_pad_rows_are_composed_pad_embedding(self):
        matrix, mask = self.composed(sample_window(), params())
        pad_rows = matrix[mask == 0]
        assert len(pad_rows) > 1
        # every PAD row is the same composed vector
        assert np.all(pad_rows == pad_rows[0][None, :])

    def test_special_selectors(self):
        seq = sample_window()
        batch = encode_batch([seq], self.provider)
        assert batch.feat_special[0, 0, 0] == 1.0  # CLS row
        assert batch.val_special[0, 0, 0] == 1.0
        pad_positions = np.flatnonzero(batch.attention_mask[0] == 0)
        assert np.all(batch.feat_special[0, pad_positions, 1] == 1.0)
        real = seq.real_length
        assert batch.feat_pre[0, 1 : real].any()

    def test_continuous_value_fill(self):
        seq = sample_window()
        batch = encode_batch([seq], self.provider)
        token = seq.tokens[1]
        assert token.is_continuous
        np.testing.assert_allclose(batch.val_pre[0, 1], float(token.value))

    def test_mixed_lengths_rejected(self):
        a = sample_window()
        b = truncate_and_pad(make_window([dyn_token("lab: a", 1.0, 0)]), 10)
        with pytest.raises(ShapeMismatch):
            encode_batch([a, b], self.provider)

    def test_learned_special_vectors_feed_the_graph(self):
        seq = sample_window()
        p = params()
        batch = encode_batch([seq], self.provider, dtype=np.float64)
        before = compose_batch(batch, p).data.copy()
        p.feature_specials.data = p.feature_specials.data + 5.0
        after = compose_batch(batch, p).data
        assert not np.allclose(before[0, 0], after[0, 0])  # CLS row moved
        assert np.allclose(before[0, 1], after[0, 1])  # ordinary rows untouched

    def test_masked_value_slot_uses_mask_vector(self):
        seq = sample_window()
        tokens = list(seq.tokens)
        tokens[1] = dyn_token("lab: a", 1.0, 1)
        masked = tokens[1].__class__("lab: a", Special.MASK, 1, 0, False, False)
        tokens[1] = masked
        batch = encode_batch([seq.with_tokens(tokens)], self.provider)
        assert batch.val_special[0, 1, 2] == 1.0
        assert not batch.val_pre[0, 1].any()
