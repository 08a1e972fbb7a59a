"""Golden references: the per-event object pipeline, and the full-row task path.

Quadruplet ``Token`` objects, ``WindowSequence``s padded to L with PAD
tokens, and the functions that built, masked and encoded them one token at a
time, are the pipeline that columnar windows replaced. Golden tests run the
same stays through this pipeline and through ``icuseq`` and compare the
results bit for bit. ``tokens_of`` and ``sequence_of`` translate between the
two forms for unit tests that write tokens by hand or read a window token by
token.

``sum_all``, ``take_rows`` and the batched ``matmul`` are tape ops that
``icuseq.autodiff`` no longer has: the encoder's cut rows became a
``gather_rows``, and only the unfused attention chain multiplies stacks of
matrices.

``encoder_forward`` is the encoder as it was before each residual add was
fused into its layer norm, with or without the top layer cut to some rows.
``task_scores`` is the task path as it was before the top encoder layer was
cut to the CLS row: every layer computes every row, and the CLS vector is
read from the (B, L, d) final states.
``pretrain`` is the pre-training loop as it was before the top layer and
the heads were cut to the masked rows: every row reaches the heads, and the
loss picks the masked slots from the (B, L, ·) outputs. Its optimizer is
``UnfusedAdamW``, AdamW as it was before each update moved into the backward
pass: a plain ``ad.backward``, then one update per parameter from its
gradient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Optional, Sequence, Union

import numpy as np

from icuseq import autodiff as ad
from icuseq import encoder as enc
from icuseq import masking, training
from icuseq.embedder import FILL_ID, N_SPECIALS, EncodedBatch, compose_batch
from icuseq.errors import (
    EmptyStay,
    InvalidRegistry,
    NoEligibleTokens,
    NoMaskedSlots,
    NonFiniteValue,
    ShapeMismatch,
    StaticsOverflow,
)
from icuseq.ingest import Split
from icuseq.masking import KEEP, MASK, RANDOM, MaskingPlan, MaskingRates
from icuseq.objective import masked_slots, mlvm_loss
from icuseq.synth import SIGNAL_VALUE
from icuseq.types import CLS_TEXT, MASK_TEXT, PAD_TEXT, Registry, Vocabularies
from icuseq.windows import CLS_CODE, FILL_CODE, MASK_CODE, PAD_CODE, TOKEN_COLUMNS, Tokens

PAD_MULTIPLE = 8


class Special(enum.Enum):
    """Special value markers carried in a token's value slot."""

    CLS = "[CLS]"
    PAD = "[PAD]"
    MASK = "[MASK]"


TokenValue = Union[float, str, Special]


@dataclass(frozen=True)
class Token:
    """Quadruplet token: feature name, value, minutes since window start, duration."""

    feature_text: str
    value: TokenValue
    tau_minutes: int
    delta_minutes: int
    is_continuous: bool
    is_static: bool = False

    @property
    def is_special(self) -> bool:
        """True for CLS/PAD placeholder tokens (both slots reserved)."""
        return self.feature_text in (CLS_TEXT, PAD_TEXT) and isinstance(self.value, Special)

    @property
    def is_pad(self) -> bool:
        return self.feature_text == PAD_TEXT

    @property
    def is_cls(self) -> bool:
        return self.feature_text == CLS_TEXT


def cls_token() -> Token:
    return Token(CLS_TEXT, Special.CLS, 0, 0, is_continuous=False)


def pad_token() -> Token:
    return Token(PAD_TEXT, Special.PAD, 0, 0, is_continuous=False)


def token_from_registry(r: Registry, tau_minutes: int, delta_minutes: int) -> Token:
    value = float(r.value) if r.is_continuous else str(r.value).strip()
    return Token(r.feature_text, value, tau_minutes, delta_minutes, r.is_continuous, r.is_static)


@dataclass(frozen=True)
class WindowSequence:
    """Ordered token list for one window of one stay; CLS first, PADs (if any) last."""

    stay_id: str
    window_index: int
    window_start: Optional[datetime]
    tokens: tuple[Token, ...]
    label: Optional[object] = None

    def __post_init__(self):
        if not self.tokens or not self.tokens[0].is_cls:
            raise InvalidRegistry("window sequence must begin with CLS")
        if any(t.is_cls for t in self.tokens[1:]):
            raise InvalidRegistry("CLS must appear only at position 0")
        seen_pad = False
        for t in self.tokens[1:]:
            if t.is_pad:
                seen_pad = True
            elif seen_pad:
                raise InvalidRegistry("PAD tokens must form a contiguous suffix")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def real_length(self) -> int:
        return sum(1 for t in self.tokens if not t.is_pad)

    def with_tokens(self, tokens: Sequence[Token]) -> "WindowSequence":
        return WindowSequence(self.stay_id, self.window_index, self.window_start, tuple(tokens), self.label)


# ---------------------------------------------------------------------------
# windows


def segment_windows(stay, window_minutes: int = 1440, emit_empty: bool = True,
                    max_windows: Optional[int] = None) -> list[WindowSequence]:
    """Brute force: for each window, filter every dynamic by the window's offset range."""
    if window_minutes < 1:
        raise EmptyStay(f"window length {window_minutes} must be >= 1 minute")
    if not stay.dynamics and not stay.statics:
        raise EmptyStay(f"stay {stay.stay_id!r} has no registries")
    start = min(r.timestamp for r in stay.dynamics or stay.statics)

    def offset(ts):
        return int((ts - start).total_seconds() // 60)

    statics = [token_from_registry(r, 0, 0) for r in stay.statics]
    last = max((offset(r.timestamp) for r in stay.dynamics), default=0)
    out = []
    for j in range(last // window_minutes + 1):
        lo, hi = j * window_minutes, (j + 1) * window_minutes
        dynamics = [token_from_registry(r, offset(r.timestamp) - lo, min(r.duration_minutes, window_minutes - 1))
                    for r in stay.dynamics if lo <= offset(r.timestamp) < hi]
        dynamics.sort(key=lambda t: t.tau_minutes)
        if not dynamics and j > 0 and not emit_empty:
            continue
        out.append(WindowSequence(stay.stay_id, j, start + timedelta(minutes=lo), (cls_token(), *statics, *dynamics)))
    return out[:max_windows]


def truncate_and_pad(seq: WindowSequence, max_seq_len: int = 512) -> WindowSequence:
    """Force a window to exactly ``max_seq_len`` tokens.

    Overlong windows keep CLS, all statics, and the most recent dynamics in
    their existing chronological order; short ones get a PAD suffix.
    """
    tokens = [t for t in seq.tokens if not t.is_pad]
    statics = [t for t in tokens[1:] if t.is_static]
    dynamics = [t for t in tokens[1:] if not t.is_static]
    if 1 + len(statics) > max_seq_len:
        raise StaticsOverflow(f"CLS + {len(statics)} statics exceed the {max_seq_len}-token limit")
    room = max_seq_len - 1 - len(statics)
    if len(dynamics) > room:
        dynamics = dynamics[len(dynamics) - room :]
    kept = [tokens[0], *statics, *dynamics]
    kept.extend(pad_token() for _ in range(max_seq_len - len(kept)))
    return seq.with_tokens(kept)


def normalize_value(vocab: Vocabularies, feature: str, x: float) -> float:
    """Z-score ``x`` with the feature's train-split statistics.

    Zero-stddev features pass through centred only; features never seen in
    training keep the raw value. A z-score outside the float32 range is a
    ``NonFiniteValue``.
    """
    stats = vocab.per_feature_stats.get(feature)
    if stats is None:
        z = float(x)
    elif stats.stddev > 0:
        z = (float(x) - stats.mean) / stats.stddev
    else:
        z = float(x) - stats.mean
    if not abs(z) <= float(np.finfo(np.float32).max):
        raise NonFiniteValue(f"{feature!r} z-scores to {z!r}")
    return z


def normalize_values(seq: WindowSequence, vocab: Vocabularies) -> WindowSequence:
    """Replace continuous token values by their z-scored form."""
    return seq.with_tokens([
        t if not t.is_continuous
        else Token(t.feature_text, normalize_value(vocab, t.feature_text, t.value),
                   t.tau_minutes, t.delta_minutes, True, t.is_static)
        for t in seq.tokens
    ])


def eligible_mask(seq: WindowSequence, vocab: Vocabularies) -> np.ndarray:
    """Tokens that can be masked: real quadruplets whose feature is in-vocabulary."""
    return np.array([not t.is_special and vocab.feature_index(t.feature_text) is not None for t in seq.tokens],
                    dtype=bool)


def cut_and_normalize(seq: WindowSequence, vocab: Vocabularies, max_seq_len: int) -> WindowSequence:
    """The window truncated and padded, then z-scored.

    Every value of the whole window must z-score into float32, the dynamics
    that truncation drops too: ``windows.stay_tokens`` checks each one of
    the stay's table.
    """
    cut = truncate_and_pad(seq, max_seq_len)
    normalize_values(seq, vocab)
    return normalize_values(cut, vocab)


def prepare_windows(stays, vocab: Vocabularies, window_minutes: int, max_seq_len: int) -> list[WindowSequence]:
    out = []
    for stay in stays:
        for seq in segment_windows(stay, window_minutes):
            seq = cut_and_normalize(seq, vocab, max_seq_len)
            if eligible_mask(seq, vocab).any():
                out.append(seq)
    return out


def sample_windows(stay, vocab: Vocabularies, window_minutes: int, max_seq_len: int,
                   n_windows: int) -> list[WindowSequence]:
    windows = segment_windows(stay, window_minutes, max_windows=n_windows)
    return [cut_and_normalize(w, vocab, max_seq_len) for w in windows]


# ---------------------------------------------------------------------------
# masking


def plan_masking(seq: WindowSequence, vocab: Vocabularies, rng: np.random.Generator,
                 rates: MaskingRates = MaskingRates()) -> MaskingPlan:
    n = len(seq.tokens)
    eligible = eligible_mask(seq, vocab)
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        raise NoEligibleTokens(f"window {seq.stay_id}/{seq.window_index} has no maskable tokens")

    selected = np.zeros(n, dtype=bool)
    selected[eligible] = rng.random(n_eligible) < rates.select
    mask_feature = np.zeros(n, dtype=bool)
    mask_value = np.zeros(n, dtype=bool)
    sel_idx = np.flatnonzero(selected)
    u_mode = rng.random(len(sel_idx))
    both = u_mode < rates.both
    value_only = (~both) & (u_mode < rates.both + rates.value_only)
    feature_only = ~(both | value_only)
    mask_feature[sel_idx[both | feature_only]] = True
    mask_value[sel_idx[both | value_only]] = True

    feature_corruption = np.zeros(n, dtype=np.int8)
    value_corruption = np.zeros(n, dtype=np.int8)
    feature_corruption[mask_feature] = _draw_corruption(rng, int(mask_feature.sum()), rates)
    value_corruption[mask_value] = _draw_corruption(rng, int(mask_value.sum()), rates)

    feature_target = np.full(n, -1, dtype=np.int64)
    value_is_continuous = np.zeros(n, dtype=bool)
    cat_target = np.full(n, -1, dtype=np.int64)
    cont_target = np.zeros(n, dtype=np.float32)
    for i in np.flatnonzero(selected):
        tok = seq.tokens[i]
        if mask_feature[i]:
            feature_target[i] = vocab.feature_index(tok.feature_text)
        if mask_value[i]:
            if tok.is_continuous:
                value_is_continuous[i] = True
                cont_target[i] = float(tok.value)
            else:
                cat_target[i] = vocab.value_index(str(tok.value))
    return MaskingPlan(selected, mask_feature, mask_value, feature_corruption, value_corruption,
                       feature_target, value_is_continuous, cat_target, cont_target)


def _draw_corruption(rng, count, rates):
    u = rng.random(count)
    out = np.full(count, MASK, dtype=np.int8)
    out[u >= rates.corrupt_mask] = RANDOM
    out[u >= rates.corrupt_mask + rates.corrupt_random] = KEEP
    return out


def apply_masking(seq: WindowSequence, plan: MaskingPlan, vocab: Vocabularies,
                  rng: np.random.Generator) -> WindowSequence:
    if len(plan) != len(seq.tokens):
        raise ShapeMismatch(f"plan length {len(plan)} vs window length {len(seq.tokens)}")
    tokens = list(seq.tokens)
    for i in np.flatnonzero(plan.selected):
        tok = tokens[i]
        feature, value, continuous = tok.feature_text, tok.value, tok.is_continuous
        code = plan.feature_corruption[i]
        if code == MASK:
            feature = MASK_TEXT
        elif code == RANDOM:
            lo = vocab.n_reserved_features
            feature = MASK_TEXT if vocab.feature_size <= lo \
                else vocab.features[int(rng.integers(lo, vocab.feature_size))]
        code = plan.value_corruption[i]
        if code == MASK:
            value, continuous = Special.MASK, False
        elif code == RANDOM:
            if tok.is_continuous:
                value, continuous = float(rng.standard_normal()), True
            else:
                lo = vocab.n_reserved_values
                value = Special.MASK if vocab.value_size <= lo \
                    else vocab.categorical_values[int(rng.integers(lo, vocab.value_size))]
                continuous = False
        tokens[i] = Token(feature, value, tok.tau_minutes, tok.delta_minutes, continuous, tok.is_static)
    return seq.with_tokens(tokens)


# ---------------------------------------------------------------------------
# encoding

_SPECIAL_ROW = {CLS_TEXT: 0, PAD_TEXT: 1, MASK_TEXT: 2}
_SPECIAL_VALUE_ROW = {Special.CLS: 0, Special.PAD: 1, Special.MASK: 2}


def encode_batch(windows: Sequence[WindowSequence], provider, dtype=np.float32) -> EncodedBatch:
    """Equal-length padded windows to ids, scales and text tables, one token at a time."""
    lengths = {len(w.tokens) for w in windows}
    if len(lengths) != 1:
        raise ShapeMismatch(f"windows have mixed lengths {sorted(lengths)}")
    b, padded = len(windows), lengths.pop()
    longest = max(w.real_length for w in windows)
    length = min(padded, -(-longest // PAD_MULTIPLE) * PAD_MULTIPLE)

    feature_ids = np.zeros((b, length), dtype=np.int64)
    value_ids = np.zeros((b, length), dtype=np.int64)
    value_scale = np.ones((b, length), dtype=dtype)
    tau = np.zeros((b, length), dtype=np.int64)
    delta = np.zeros((b, length), dtype=np.int64)
    attention = np.zeros((b, length), dtype=dtype)
    feature_texts: dict[str, int] = {}
    value_texts: dict[str, int] = {}
    for i, window in enumerate(windows):
        for j, tok in enumerate(window.tokens[:length]):
            tau[i, j] = tok.tau_minutes
            delta[i, j] = tok.delta_minutes
            attention[i, j] = 0.0 if tok.is_pad else 1.0
            row = _SPECIAL_ROW.get(tok.feature_text)
            if row is None:
                row = feature_texts.setdefault(tok.feature_text, N_SPECIALS + len(feature_texts))
            feature_ids[i, j] = row
            if isinstance(tok.value, Special):
                value_ids[i, j] = _SPECIAL_VALUE_ROW[tok.value]
            elif tok.is_continuous:
                x = float(tok.value)
                if not np.isfinite(x):
                    raise NonFiniteValue(f"token value {tok.value!r}")
                value_ids[i, j] = FILL_ID
                value_scale[i, j] = x
            else:
                value_ids[i, j] = value_texts.setdefault(str(tok.value), FILL_ID + 1 + len(value_texts))

    vectors = {text: provider.embed_text(text) for text in dict.fromkeys([*feature_texts, *value_texts])}
    return EncodedBatch(
        feature_ids=feature_ids, value_ids=value_ids, value_scale=value_scale,
        feature_table=np.array([vectors[t] for t in feature_texts], dtype=dtype).reshape(-1, provider.dim),
        value_table=np.array([np.ones(provider.dim), *(vectors[t] for t in value_texts)], dtype=dtype),
        tau=tau, delta=delta, attention_mask=attention,
    )


# ---------------------------------------------------------------------------
# label oracles, one registry at a time


def oracle_presence(stay, spec) -> int:
    start = stay.start
    for r in stay.dynamics:
        if r.feature_text != spec.signal_feature_text or r.is_continuous:
            continue
        minute = (r.timestamp - start).total_seconds() / 60
        if str(r.value).strip() == SIGNAL_VALUE and minute < spec.window_minutes:
            return 1
    return 0


def oracle_cont_target(stay, spec) -> float:
    start = stay.start
    values = [
        float(r.value)
        for r in stay.dynamics
        if r.feature_text == spec.anchor_feature_text and r.is_continuous
        and (r.timestamp - start).total_seconds() / 60 < spec.window_minutes
    ]
    base = float(np.mean(values)) if values else 0.0
    return base + spec.cont_target_shift * oracle_presence(stay, spec)


# ---------------------------------------------------------------------------
# translation between the two forms

_SPECIAL_CODE = {CLS_TEXT: CLS_CODE, PAD_TEXT: PAD_CODE, MASK_TEXT: MASK_CODE}
_SPECIAL_VALUE_CODE = {Special.CLS: CLS_CODE, Special.PAD: PAD_CODE, Special.MASK: MASK_CODE}
_TEXT_OF_CODE = {code: text for text, code in _SPECIAL_CODE.items()}
_SPECIAL_OF_CODE = {code: special for special, code in _SPECIAL_VALUE_CODE.items()}


def tokens_of(seq: WindowSequence, vocab: Optional[Vocabularies] = None) -> Tokens:
    """The token columns of a padded reference window: its real tokens, cut to its padded length.

    Without a vocabulary no token is maskable and no value has an id.
    """
    texts: dict[str, int] = {}
    feature, value, scale, tau, delta, feature_id, value_id = [], [], [], [], [], [], []
    for tok in seq.tokens:
        if tok.is_pad:
            break
        feature.append(_SPECIAL_CODE.get(tok.feature_text) if tok.feature_text in _SPECIAL_CODE
                       else texts.setdefault(tok.feature_text, len(texts)))
        maskable = vocab is not None and not tok.is_special and vocab.feature_index(tok.feature_text) is not None
        feature_id.append(vocab.feature_index(tok.feature_text) if maskable else -1)
        if isinstance(tok.value, Special):
            value.append(_SPECIAL_VALUE_CODE[tok.value])
            scale.append(1.0)
            value_id.append(-1)
        elif tok.is_continuous:
            value.append(FILL_CODE)
            scale.append(float(tok.value))
            value_id.append(-1)
        else:
            value.append(texts.setdefault(str(tok.value), len(texts)))
            scale.append(1.0)
            value_id.append(-1 if vocab is None else vocab.value_index(str(tok.value)))
        tau.append(tok.tau_minutes)
        delta.append(tok.delta_minutes)
    records = np.array(list(zip(feature, value, scale, tau, delta, feature_id, value_id)), dtype=TOKEN_COLUMNS)
    return Tokens(seq.stay_id, tuple(texts), len(seq.tokens), records)


def sequence_of(cols: Tokens, n_statics: int = 0, index: int = 0) -> WindowSequence:
    """Reference window ``index`` with the same real tokens, the ``n_statics`` after CLS marked static."""
    out = []
    for i in range(len(cols)):
        code = int(cols.feature[i])
        feature = cols.texts[code] if code >= 0 else _TEXT_OF_CODE[code]
        code = int(cols.value[i])
        continuous = code == FILL_CODE
        if continuous:
            value = float(cols.scale[i])
        elif code >= 0:
            value = cols.texts[code]
        else:
            value = _SPECIAL_OF_CODE[code]
        out.append(Token(feature, value, int(cols.tau[i]), int(cols.delta[i]), continuous, 1 <= i <= n_statics))
    return WindowSequence(cols.stay_id, index, None, tuple(out))


# ---------------------------------------------------------------------------
# tape ops that icuseq.autodiff no longer has


def sum_all(a):
    """The scalar sum of every entry of ``a``; its gradient is ``g`` at every entry."""
    an = a._node

    def bwd(g):
        an.accumulate(np.full(an.shape, g, an.dtype))

    return ad._make(np.asarray(a.data.sum()), (a,), bwd)


def take_rows(a, rows):
    """Positions ``rows[b]`` along axis 1 of a (B, L, d) tensor: (B, m, d) for (B, m) ``rows``.

    The backward scatter-adds with ``np.add.at``, so a position taken twice
    gets both rows' gradients.
    """
    rows = np.asarray(rows)
    out = np.take_along_axis(a.data, rows[:, :, None], axis=1)
    an = a._node

    def bwd(g):
        grad = np.zeros(an.shape, an.dtype)
        np.add.at(grad, (np.arange(rows.shape[0])[:, None], rows), g)
        an.accumulate(grad)

    return ad._make(out, (a,), bwd)


def matmul(a, b):
    """``a @ b`` with numpy's broadcasting, one product per matrix of a stack: the unfused attention chain's."""
    an, bn = ad._grad_node(a), ad._grad_node(b)
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def bwd(g):
        if an is not None:
            an.accumulate(ad._unbroadcast(g @ b_data.swapaxes(-1, -2), an.shape))
        if bn is not None:
            bn.accumulate(ad._unbroadcast(a_data.swapaxes(-1, -2) @ g, bn.shape))

    return ad._make(a.data @ b.data, (a, b), bwd)


# ---------------------------------------------------------------------------
# the full-row task path


def encoder_forward(x, attention_mask, config, params, mode="eval", rng=None, rows=None):
    """The post-norm encoder stack with each residual added by ``ad.add`` before a plain ``ad.layer_norm``.

    Without ``rows`` every layer computes all L rows. With (B, m) ``rows``
    the top layer computes those rows only, as ``enc.forward`` does: its
    queries and residuals are the taken rows, its keys and values every row,
    and its dropout masks are drawn at those rows.
    """
    b, length, _ = x.shape
    heads, dh = config.heads, config.head_dim
    keep = (np.asarray(attention_mask) > 0)[:, None, None, :]
    training = mode == "train"
    top = len(params.layers) - 1

    def split_heads(t):
        return ad.transpose(ad.reshape(t, (b, t.shape[1], heads, dh)), (0, 2, 1, 3))

    def drop(t, cut):
        return ad.dropout(t, config.dropout, rng, training, rows=cut, length=length)

    for i, layer in enumerate(params.layers):
        cut = rows if i == top else None
        h = x if cut is None else take_rows(x, cut)
        q = split_heads(ad.add(ad.matmul(h, layer.wq), layer.bq))
        k = split_heads(ad.add(ad.matmul(x, layer.wk), layer.bk))
        v = split_heads(ad.add(ad.matmul(x, layer.wv), layer.bv))
        heads_out = ad.attention(q, k, v, keep, 1.0 / np.sqrt(dh), config.dropout, rng, training, rows=cut)
        context = ad.reshape(ad.transpose(heads_out, (0, 2, 1, 3)), h.shape)
        attn_out = drop(ad.add(ad.matmul(context, layer.wo), layer.bo), cut)
        x = ad.layer_norm(ad.add(h, attn_out), layer.ln1_gain, layer.ln1_bias)
        inner = ad.gelu(ad.add(ad.matmul(x, layer.ffn_w1), layer.ffn_b1))
        ffn_out = drop(ad.add(ad.matmul(inner, layer.ffn_w2), layer.ffn_b2), cut)
        x = ad.layer_norm(ad.add(x, ffn_out), layer.ln2_gain, layer.ln2_bias)
    return x


def task_scores(model, window_batches, mode="eval", rng=None, below=None):
    """``Model.task_scores`` with the CLS vector read from full-row final states."""
    cls_sum = None
    for i, batch in enumerate(window_batches):
        if below is None:
            depth, x = 0, compose_batch(batch, model.embedder, mode, rng)
        else:
            depth, x = below[i].depth, below[i].hidden
        hidden = encoder_forward(x, batch.attention_mask, model.config.encoder,
                                 enc.EncoderParams(model.encoder.layers[depth:]), mode, rng)
        cls_vec = enc.cls_output(take_rows(hidden, np.zeros((hidden.shape[0], 1), dtype=np.intp)))
        cls_sum = cls_vec if cls_sum is None else ad.add(cls_sum, cls_vec)
    return enc.task_output(ad.scale(cls_sum, 1.0 / len(window_batches)), model.heads, mode, rng)


# ---------------------------------------------------------------------------
# the full-row pre-training loop


class UnfusedAdamW:
    """AdamW that updates from the gradients a full ``ad.backward`` left on the parameters.

    The moments are allocated up front, and ``step`` updates every parameter
    with a gradient, in parameter order, by the formula ``training.AdamW``
    applies inside the backward pass.
    """

    def __init__(self, params, weight_decay=0.0):
        self.params = params
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = training.ADAMW_BETA1, training.ADAMW_BETA2
        self.eps = training.ADAMW_EPS
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            update = np.multiply(g, 1.0 - self.beta1, out=np.empty_like(m))
            m *= self.beta1
            m += update
            np.multiply(g, g, out=update)
            update *= 1.0 - self.beta2
            v *= self.beta2
            v += update
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bc1, out=update)
            update /= denom
            if self.weight_decay:
                update += np.multiply(p.data, self.weight_decay, out=denom)
            update *= lr
            p.data = p.data - update


def pretrain_outputs(model, batch, rows, mode="eval", rng=None):
    """The three heads' outputs at (B, m) ``rows`` of the final states of every row of ``batch``.

    The heads act on each row alone, so they run on the taken rows: their
    bias gradients then sum the same (B, m) entries in the same order as the
    masked-row path's. A sum whose terms cancel exactly (the continuous
    head's ±1/n under the MAE) is 0 in one order and a rounding residue in
    another, and AdamW makes either a step of about ``lr``.
    """
    x = compose_batch(batch, model.embedder, mode, rng)
    hidden = encoder_forward(x, batch.attention_mask, model.config.encoder, model.encoder, mode, rng)
    return enc.mlvm_outputs(take_rows(hidden, rows), model.heads)


def pretrain(corpus, vocab, provider, model_config, cfg, rates=MaskingRates(), dtype=np.float32, drawn=None):
    """``training.pretrain`` with full-row encoder passes: returns the model and the loss rows.

    Every layer runs every row, and the masked slots' rows are taken from the
    final states before the heads and the loss. A batch without a masked
    slot is skipped.
    Each train step's dropout generator is appended to ``drawn`` after use.
    The divergence checks are left out; they do not change what a run does.
    """
    shape = (model_config.window_minutes, model_config.encoder.max_seq_len)
    train_windows = training.prepare_windows(corpus, Split.TRAIN, vocab, *shape)
    val_windows = training.prepare_windows(corpus, Split.VAL, vocab, *shape)
    model = training.Model.build(model_config, cfg.seed, dtype)
    optimizer = UnfusedAdamW(model.parameters(), weight_decay=cfg.weight_decay)
    val_plans = [masking.plan_masking(w, np.random.default_rng([cfg.seed, 40, i]), rates)
                 for i, w in enumerate(val_windows)]
    val_batches = []
    for start in range(0, len(val_windows), cfg.batch_size):
        chunk = slice(start, start + cfg.batch_size)
        masked = [masking.apply_masking(w, p, vocab, np.random.default_rng([cfg.seed, 41, start, j]))
                  for j, (w, p) in enumerate(zip(val_windows[chunk], val_plans[chunk]))]
        slots = masked_slots(val_plans[chunk])
        if slots.rows.shape[1]:
            val_batches.append((training.encode_batch(masked, provider, dtype=dtype), slots))

    rows, best_val, best_state, since_best = [], np.inf, {}, 0
    for epoch in range(1, cfg.epochs + 1):
        lr = training.linear_lr(cfg.lr, epoch, cfg.epochs, cfg.resolved_warmup)
        order = np.random.default_rng([cfg.seed, 50, epoch]).permutation(len(train_windows))
        agg = training._LossAggregator(cfg.alpha, cfg.beta)
        for start in range(0, len(order), cfg.batch_size):
            windows, plans = [], []
            for i in order[start:start + cfg.batch_size]:
                rng = np.random.default_rng([cfg.seed, 60, epoch, int(i)])
                plans.append(masking.plan_masking(train_windows[i], rng, rates))
                windows.append(masking.apply_masking(train_windows[i], plans[-1], vocab, rng))
            slots = masked_slots(plans)
            if not slots.rows.shape[1]:
                continue
            rng = np.random.default_rng([cfg.seed, 70, epoch, start])
            outputs = pretrain_outputs(model, training.encode_batch(windows, provider, dtype=dtype), slots.rows,
                                       "train", rng)
            breakdown = mlvm_loss(outputs, slots, cfg.alpha, cfg.beta)
            if drawn is not None:
                drawn.append(rng)
            optimizer.zero_grad()
            ad.backward(breakdown.node)
            optimizer.step(lr)
            agg.add(breakdown)
        if not agg.n_f + agg.n_cat + agg.n_cont:
            raise NoMaskedSlots(f"no train batch of epoch {epoch} has a masked slot")
        rows.append(training.LossRow(epoch, "train", *agg.totals(), lr))
        if not val_batches:
            continue
        agg = training._LossAggregator(cfg.alpha, cfg.beta)
        for batch, slots in val_batches:
            agg.add(mlvm_loss(pretrain_outputs(model.detached(), batch, slots.rows), slots, cfg.alpha, cfg.beta))
        rows.append(training.LossRow(epoch, "val", *agg.totals(), lr))
        if rows[-1].l_total < best_val:
            best_val, since_best = rows[-1].l_total, 0
            best_state = {k: t.data.copy() for k, t in model.parameters().items()}
        else:
            since_best += 1
            if cfg.patience is not None and since_best > cfg.patience:
                break
    for name, tensor in model.parameters().items():
        tensor.data = best_state.get(name, tensor.data)
    return model, rows
