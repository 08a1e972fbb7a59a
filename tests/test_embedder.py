import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq import autodiff as ad
from icuseq import encoder as enc
from icuseq.embedder import FILL_ID, EncodedBatch, compose_batch, encode_batch, init_embedder
from icuseq.errors import IndexOutOfRange, NonFiniteValue, ShapeMismatch
from icuseq.masking import MaskingRates, plan_masking
from icuseq.objective import masked_slots, mlvm_loss
from icuseq.textvec import EmbeddingProvider, StubProvider
from icuseq.training import Model, ModelConfig
from icuseq.types import CLS_TEXT, MASK_TEXT, PAD_TEXT, Vocabularies

from conftest import dyn_token, make_window
from reference import Special, Token, take_rows, tokens_of, truncate_and_pad

D_PRE, D, W = 6, 8, 24


def params(seed=0, dropout=0.1, dtype=np.float64):
    return init_embedder(ad.drawn(np.random.default_rng(seed), dtype), D_PRE, D, W, dropout)


def zero_params():
    p = params()
    for t in ad.named(p).values():
        t.data = np.zeros_like(t.data)
    p.ln_gain.data = np.ones_like(p.ln_gain.data)
    return p


def rand(*shape):
    return np.random.default_rng(1).standard_normal(shape)


# ---------------------------------------------------------------------------
# the paper's fill and the dense composition it feeds: the golden reference


def fill(x: float, dim: int, dtype=np.float32) -> np.ndarray:
    """Vector of length ``dim`` with every entry equal to ``x``."""
    if not math.isfinite(float(x)):
        raise NonFiniteValue(f"cannot fill with {x!r}")
    return np.full(dim, float(x), dtype=dtype)


_SPECIAL_TEXTS = (CLS_TEXT, PAD_TEXT, MASK_TEXT)
_SPECIAL_VALUES = (Special.CLS, Special.PAD, Special.MASK)


def dense_composition(windows, provider, p, length, mode="eval", rng=None):
    """Every token's frozen vector copied into (B, L, D_pre) arrays, specials picked by one-hot rows."""
    b, d_pre, dtype = len(windows), provider.dim, p.w_f.data.dtype
    feat_pre, val_pre = np.zeros((b, length, d_pre)), np.zeros((b, length, d_pre))
    feat_special, val_special = np.zeros((b, length, 3)), np.zeros((b, length, 3))
    tau, delta = np.zeros((b, length), dtype=int), np.zeros((b, length), dtype=int)
    for i, window in enumerate(windows):
        for j, tok in enumerate(window.tokens[:length]):
            tau[i, j], delta[i, j] = tok.tau_minutes, tok.delta_minutes
            if tok.feature_text in _SPECIAL_TEXTS:
                feat_special[i, j, _SPECIAL_TEXTS.index(tok.feature_text)] = 1.0
            else:
                feat_pre[i, j] = provider.embed_text(tok.feature_text)
            if isinstance(tok.value, Special):
                val_special[i, j, _SPECIAL_VALUES.index(tok.value)] = 1.0
            elif tok.is_continuous:
                val_pre[i, j] = fill(tok.value, d_pre, dtype)
            else:
                val_pre[i, j] = provider.embed_text(str(tok.value))
    feat = ad.add(ad.constant(feat_pre, dtype), ad.matmul(ad.constant(feat_special, dtype), p.feature_specials))
    val = ad.add(ad.constant(val_pre, dtype), ad.matmul(ad.constant(val_special, dtype), p.value_specials))
    e_f = ad.add(ad.matmul(feat, p.w_f), p.b_f)
    e_x = ad.add(ad.matmul(val, p.w_x), p.b_x)
    e_time = ad.add(ad.gather_rows(p.time_table, tau), ad.gather_rows(p.duration_table, delta))
    total = ad.add(ad.add(e_f, e_x), e_time)
    if mode == "train":
        total = ad.dropout(total, p.dropout_rate, rng, training=True)
    return ad.layer_norm(total, p.ln_gain, p.ln_bias)


class TestFill:
    def test_zero(self):
        assert np.array_equal(fill(0.0, 768), np.zeros(768, dtype=np.float32))

    def test_repeat(self):
        assert fill(2.5, 4).tolist() == [2.5, 2.5, 2.5, 2.5]

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteValue):
            fill(float("nan"), 768)
        with pytest.raises(NonFiniteValue):
            fill(float("inf"), 8)

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    def test_linearity(self, a, x):
        lhs = fill(np.float32(a * np.float32(x)), 8)
        rhs = np.float32(a) * fill(x, 8)
        assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-6)


GOLDEN_VOCAB = Vocabularies(features=(CLS_TEXT, PAD_TEXT, MASK_TEXT, "lab: a", "lab: b", "static: sex"),
                            categorical_values=(MASK_TEXT, "[UNK]", "high", "low", "female"),
                            per_feature_stats={})
UNSEEN_FEATURE = "lab: never in the train vocabulary"
GOLDEN_PADDED = 24
GOLDEN_CONFIG = ModelConfig(
    encoder=enc.EncoderConfig(layers=1, hidden=D, heads=2, ffn_dim=8, max_seq_len=GOLDEN_PADDED, dropout=0.2),
    d_pre=D_PRE, window_minutes=W, feature_vocab=GOLDEN_VOCAB.feature_size,
    value_vocab=GOLDEN_VOCAB.value_size)


@st.composite
def golden_window(draw):
    """CLS, statics, MASK features and values, zero, negative and categorical values, an unseen feature."""
    minute = st.integers(0, W - 1)
    tokens = [dyn_token("lab: a", 0.0, 0), dyn_token("lab: b", -2.5, draw(minute), draw(minute))]
    if draw(st.booleans()):
        tokens.append(Token("static: sex", "female", 0, 0, is_continuous=False, is_static=True))
    for _ in range(draw(st.integers(0, 12))):
        feature = draw(st.sampled_from(["lab: a", "lab: b", MASK_TEXT, UNSEEN_FEATURE]))
        kind = draw(st.sampled_from(["continuous", "categorical", "masked"]))
        if kind == "continuous":
            value = draw(st.one_of(st.just(0.0), st.floats(-100.0, 100.0)))
        elif kind == "categorical":
            value = draw(st.sampled_from(["high", "low", "a value never seen"]))
        else:
            value = Special.MASK
        tokens.append(Token(feature, value, draw(minute), draw(minute),
                            is_continuous=kind == "continuous", is_static=draw(st.booleans())))
    return truncate_and_pad(make_window(tokens), GOLDEN_PADDED)


def loss_and_grads(model, hidden, slots):
    for t in model.parameters().values():
        t.zero_grad()
    loss = mlvm_loss(enc.mlvm_outputs(take_rows(hidden, slots.rows), model.heads), slots)
    ad.backward(loss.node)
    return loss.l_total, {name: t.grad for name, t in model.parameters().items()}


class TestGoldenAgainstDenseFill:
    """Ids into per-batch tables compose exactly what dense fill/provider arrays compose."""

    provider = StubProvider(dim=D_PRE, seed=3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(golden_window(), min_size=1, max_size=3), st.sampled_from(["eval", "train"]),
           st.integers(0, 2**16))
    def test_hidden_states_loss_and_gradients(self, windows, mode, seed):
        model = Model.build(GOLDEN_CONFIG, seed, dtype=np.float64)
        columns = [tokens_of(w, GOLDEN_VOCAB) for w in windows]
        plans = [plan_masking(w, np.random.default_rng([seed, i]), MaskingRates(select=0.7))
                 for i, w in enumerate(columns)]
        batch = encode_batch(columns, self.provider, dtype=np.float64)

        hidden = model.hidden_states(batch, mode, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)  # the same draws, in the same order
        length = batch.feature_ids.shape[1]
        embedded = dense_composition(windows, self.provider, model.embedder, length, mode, rng)
        reference = enc.forward(embedded, batch.attention_mask, GOLDEN_CONFIG.encoder, model.encoder, mode, rng)
        np.testing.assert_allclose(hidden.data, reference.data, rtol=1e-10, atol=1e-10)

        slots = masked_slots(plans)
        if not slots.rows.shape[1]:
            return
        loss, grads = loss_and_grads(model, hidden, slots)
        ref_loss, ref_grads = loss_and_grads(model, reference, slots)
        assert loss == pytest.approx(ref_loss, rel=1e-10, abs=1e-10)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            if grad is None or ref_grads[name] is None:  # a head without slots in this batch
                assert grad is ref_grads[name] is None, name
            else:
                np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-10, atol=1e-10, err_msg=name)

    def test_float32_close_to_dense_reference(self):
        tokens = [dyn_token("lab: a", 0.0, 0), dyn_token("lab: b", -2.5, 3, 2), dyn_token("lab: a", 71.25, 5),
                  dyn_token(UNSEEN_FEATURE, "high", 7), Token(MASK_TEXT, Special.MASK, 9, 1, False),
                  Token("static: sex", "female", 0, 0, is_continuous=False, is_static=True)]
        windows = [truncate_and_pad(make_window(tokens[:k]), GOLDEN_PADDED) for k in (2, 4, 6)]
        p = params(dtype=np.float32)
        batch = encode_batch([tokens_of(w) for w in windows], self.provider, dtype=np.float32)
        got = compose_batch(batch, p).data
        want = dense_composition(windows, self.provider, p, batch.feature_ids.shape[1]).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# composition


def table_batch(tau, delta, feature_ids=None, value_ids=None, value_scale=None):
    """An EncodedBatch over two random feature rows and the fill row plus one categorical row."""
    tau = np.atleast_2d(tau)
    shape = tau.shape
    return EncodedBatch(
        feature_ids=np.full(shape, 3) if feature_ids is None else np.atleast_2d(feature_ids),
        value_ids=np.full(shape, FILL_ID) if value_ids is None else np.atleast_2d(value_ids),
        value_scale=np.ones(shape) if value_scale is None else np.atleast_2d(value_scale),
        feature_table=rand(2, D_PRE), value_table=np.vstack([np.ones(D_PRE), rand(1, D_PRE)]),
        tau=tau, delta=np.atleast_2d(delta), attention_mask=np.ones(shape),
    )


class TestCompose:
    def test_zero_inputs_zero_params_give_zero(self):
        out = compose_batch(table_batch(np.zeros(2, dtype=int), np.zeros(2, dtype=int)), zero_params())
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, D)))

    def test_eval_moments(self):
        p = params()
        ids = np.arange(32)
        batch = table_batch(ids % W, ids % W, 3 + ids % 2, np.where(ids % 3, FILL_ID, FILL_ID + 1), rand(32))
        out = compose_batch(batch, p, mode="eval")
        normalized = (out.data - p.ln_bias.data) / p.ln_gain.data
        np.testing.assert_allclose(normalized.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(normalized.var(axis=-1), 1.0, atol=1e-4)

    def test_distinct_table_rows_selected(self):
        p = params()
        a = compose_batch(table_batch([0], [0]), p)
        b = compose_batch(table_batch([1], [0]), p)
        assert not np.allclose(a.data, b.data)

    def test_index_out_of_range(self):
        p = params()
        with pytest.raises(IndexOutOfRange):
            compose_batch(table_batch([W], [0]), p)
        with pytest.raises(IndexOutOfRange):
            compose_batch(table_batch([0], [-1]), p)

    def test_train_mode_requires_rng(self):
        with pytest.raises(ShapeMismatch):
            compose_batch(table_batch([0], [0]), params(), mode="train")

    def test_provider_width_must_match_the_projection(self):
        batch = table_batch([0], [0])
        batch.feature_table = rand(2, D_PRE + 1)
        with pytest.raises(ShapeMismatch):
            compose_batch(batch, params())


# ---------------------------------------------------------------------------
# encoding


def sample_window(n=5):
    tokens = [dyn_token("lab: a", float(i), i) for i in range(n - 2)]
    tokens.append(dyn_token("lab: b", "high", n))
    return truncate_and_pad(make_window(tokens), 12)


def padded_window(real, padded):
    """Token columns of a window of ``real`` tokens (CLS included) cut to ``padded``."""
    tokens = [dyn_token("lab: a", float(i), i) for i in range(real - 1)]
    return tokens_of(truncate_and_pad(make_window(tokens), padded))


class CountingProvider(EmbeddingProvider):
    """Counts calls per text and refuses the reserved texts."""

    def __init__(self, dim=D_PRE):
        self.dim = dim
        self.inner = StubProvider(dim=dim, seed=0)
        self.calls = Counter()

    def embed_text(self, text):
        assert text not in (CLS_TEXT, PAD_TEXT, MASK_TEXT), f"provider asked for {text}"
        self.calls[text] += 1
        return self.inner.embed_text(text)


class TestEncodeBatch:
    provider = StubProvider(dim=D_PRE, seed=0)

    def composed(self, seq, p, mode="eval", rng=None):
        batch = encode_batch([tokens_of(seq)], self.provider, dtype=np.float64)
        return compose_batch(batch, p, mode, rng).data[0], batch.attention_mask[0]

    @pytest.mark.parametrize("reals, padded, expected", [
        ((3, 5), 40, 8),     # longest real window rounded up to a multiple of 8
        ((3, 9), 40, 16),
        ((16, 2), 40, 16),   # already a multiple of 8
        ((10, 4), 12, 12),   # never longer than the padded windows
        ((12,), 12, 12),
    ])
    def test_batch_length_follows_longest_real_window(self, reals, padded, expected):
        windows = [padded_window(r, padded) for r in reals]
        batch = encode_batch(windows, self.provider)
        assert batch.feature_ids.shape[1] == expected
        assert batch.feature_ids.shape == batch.value_scale.shape == (len(reals), expected)
        assert batch.attention_mask.sum(axis=1).tolist() == list(reals)

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
        batch = encode_batch([tokens_of(seq)], self.provider)
        assert batch.feature_ids[0, 0] == batch.value_ids[0, 0] == 0  # CLS row
        pad_positions = np.flatnonzero(batch.attention_mask[0] == 0)
        assert np.all(batch.feature_ids[0, pad_positions] == 1)
        assert np.all(batch.value_ids[0, pad_positions] == 1)
        real = seq.real_length
        assert np.all(batch.feature_ids[0, 1:real] >= 3)
        np.testing.assert_array_equal(batch.feature_table[batch.feature_ids[0, 1] - 3],
                                      self.provider.embed_text("lab: a"))

    def test_continuous_value_fill(self):
        seq = sample_window()
        batch = encode_batch([tokens_of(seq)], self.provider)
        token = seq.tokens[2]
        assert token.is_continuous
        assert batch.value_ids[0, 2] == FILL_ID
        assert batch.value_scale[0, 2] == float(token.value)
        np.testing.assert_array_equal(batch.value_table[FILL_ID - 3], np.ones(D_PRE))

    def test_mixed_lengths_rejected(self):
        a = sample_window()
        b = truncate_and_pad(make_window([dyn_token("lab: a", 1.0, 0)]), 10)
        with pytest.raises(ShapeMismatch):
            encode_batch([tokens_of(a), tokens_of(b)], self.provider)

    def test_non_finite_value_rejected(self):
        seq = truncate_and_pad(make_window([dyn_token("lab: a", float("nan"), 0)]), 8)
        with pytest.raises(NonFiniteValue):
            encode_batch([tokens_of(seq)], self.provider)

    def test_learned_special_vectors_feed_the_graph(self):
        seq = sample_window()
        p = params()
        batch = encode_batch([tokens_of(seq)], self.provider, dtype=np.float64)
        before = compose_batch(batch, p).data.copy()
        p.feature_specials.data = p.feature_specials.data + 5.0
        after = compose_batch(batch, p).data
        assert not np.allclose(before[0, 0], after[0, 0])  # CLS row moved
        assert np.allclose(before[0, 1], after[0, 1])  # ordinary rows untouched

    def test_masked_value_slot_uses_mask_vector(self):
        seq = sample_window()
        tokens = list(seq.tokens)
        tokens[1] = Token("lab: a", Special.MASK, 1, 0, False, False)
        batch = encode_batch([tokens_of(seq.with_tokens(tokens))], self.provider)
        assert batch.value_ids[0, 1] == 2
        assert batch.value_scale[0, 1] == 1.0

    def test_provider_called_once_per_distinct_text_never_for_specials(self):
        provider = CountingProvider()
        shared = [dyn_token("lab: a", 1.0, 0), dyn_token("lab: a", "lab: b", 1), dyn_token("lab: b", "high", 2),
                  Token(MASK_TEXT, "high", 3, 0, False), Token("lab: a", Special.MASK, 4, 0, False)]
        windows = [truncate_and_pad(make_window(shared * k), 24) for k in (1, 2, 3)]
        batch = encode_batch([tokens_of(w) for w in windows], provider)
        assert provider.calls == Counter({"lab: a": 1, "lab: b": 1, "high": 1})
        assert batch.feature_table.shape == (2, D_PRE)
        assert batch.value_table.shape == (3, D_PRE)  # fill, "lab: b", "high"

    def test_unseen_feature_gets_its_provider_vector(self):
        seq = truncate_and_pad(make_window([dyn_token("lab: never trained", 1.0, 0)]), 8)
        batch = encode_batch([tokens_of(seq)], self.provider)
        np.testing.assert_array_equal(batch.feature_table[batch.feature_ids[0, 1] - 3],
                                      self.provider.embed_text("lab: never trained"))

    def test_no_per_token_vectors(self):
        windows = [padded_window(12, 16) for _ in range(4)]
        batch = encode_batch(windows, self.provider, dtype=np.float64)
        arrays = {k: v for k, v in vars(batch).items() if isinstance(v, np.ndarray)}
        assert all(v.ndim <= 2 for v in arrays.values())
        assert batch.feature_table.shape == (1, D_PRE)
        assert batch.value_table.shape == (1, D_PRE)
