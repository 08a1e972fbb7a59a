"""Composition of token embeddings from frozen text vectors and learned time tables.

``encode_batch`` reads one ``windows.Tokens`` per window: CLS first, no PAD,
all cut to one ``max_len``; it alone pads. A token's feature and value codes
name a text of its ``texts`` when non-negative; ``-1 - r`` names row ``r`` of
the special rows (CLS, PAD, MASK, and for values the fill row).

A batch carries its frozen inputs as integer ids into two small per-batch
tables, not as copied vectors. ``encode_batch`` asks the provider once for
each distinct feature text and categorical value text in the batch, keyed by
text (so features unseen in training keep their own vector), in first-seen
order, and never for CLS/PAD/MASK. In both tables ids 0-2 are CLS/PAD/MASK,
the rows of the learned ``feature_specials`` / ``value_specials``; the
per-batch rows follow. The value table's first row (id 3, ``FILL_ID``) is
all ones: a continuous token points there and carries its value ``x`` in the
scale column, so the paper's fill vector ``fill(x) = (x, ..., x)`` projects
to ``x · colsum(w_x)``. Every other token has scale 1. ``compose_batch``
then computes

    e_f = (concat_rows(feature_specials, T_f) @ w_f)[feature_ids] + b_f
    e_x = (concat_rows(value_specials, T_x) @ w_x)[value_ids] · scale + b_x

and adds the time and duration rows, applies dropout (train only) and
layer norm.

The parameters come from a ``make(name, shape, init)`` (``ad.Maker``):
``ad.drawn`` draws a fresh model's, and ``Model.load`` hands out a
checkpoint's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import IndexOutOfRange, NonFiniteValue, ShapeMismatch
from .textvec import EmbeddingProvider
from .types import DEFAULT_WINDOW_MINUTES
from .windows import FILL_CODE, PAD_CODE, Tokens

# ids 0-2 of both tables are the learned CLS/PAD/MASK rows; the value table's fill row comes next
N_SPECIALS = 3
FILL_ID = -1 - FILL_CODE
PAD_ID = -1 - PAD_CODE

DEFAULT_DROPOUT = 0.1
PAD_MULTIPLE = 8  # batch lengths are rounded up to this many tokens


@dataclass
class EmbedderParams:
    """Trainable pieces of the embedding composition."""

    w_f: Tensor
    b_f: Tensor
    w_x: Tensor
    b_x: Tensor
    time_table: Tensor
    duration_table: Tensor
    feature_specials: Tensor
    value_specials: Tensor
    ln_gain: Tensor
    ln_bias: Tensor
    dropout_rate: float = DEFAULT_DROPOUT

    @property
    def d_pre(self) -> int:
        return self.w_f.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_f.shape[1]

    @property
    def window_minutes(self) -> int:
        return self.time_table.shape[0]


def init_embedder(make: ad.Maker, d_pre: int, hidden: int,
                  window_minutes: int = DEFAULT_WINDOW_MINUTES,
                  dropout_rate: float = DEFAULT_DROPOUT) -> EmbedderParams:
    """The embedder's parameters, each named once and made by ``make`` (see ``ad.Maker``)."""
    return EmbedderParams(
        w_f=make("embedder.w_f", (d_pre, hidden), "uniform"),
        b_f=make("embedder.b_f", (hidden,), "zeros"),
        w_x=make("embedder.w_x", (d_pre, hidden), "uniform"),
        b_x=make("embedder.b_x", (hidden,), "zeros"),
        time_table=make("embedder.time_table", (window_minutes, hidden), "normal"),
        duration_table=make("embedder.duration_table", (window_minutes, hidden), "normal"),
        feature_specials=make("embedder.feature_specials", (N_SPECIALS, d_pre), "normal"),
        value_specials=make("embedder.value_specials", (N_SPECIALS, d_pre), "normal"),
        ln_gain=make("embedder.ln_gain", (hidden,), "ones"),
        ln_bias=make("embedder.ln_bias", (hidden,), "zeros"),
        dropout_rate=dropout_rate,
    )


@dataclass
class EncodedBatch:
    """Ids into per-batch text tables for a batch of windows cut to a common length."""

    feature_ids: np.ndarray    # (B, L) int rows of [feature_specials; feature_table]
    value_ids: np.ndarray      # (B, L) int rows of [value_specials; value_table]
    value_scale: np.ndarray    # (B, L) a continuous token's value, 1 elsewhere
    feature_table: np.ndarray  # (n_features, D_pre) provider vectors of the distinct feature texts
    value_table: np.ndarray    # (1 + n_values, D_pre) the fill row, then categorical value vectors
    tau: np.ndarray            # (B, L) int
    delta: np.ndarray          # (B, L) int
    attention_mask: np.ndarray  # (B, L) 1 for real tokens, 0 for PAD


def encode_batch(tokens: Sequence[Tokens], provider: EmbeddingProvider, dtype=np.float32) -> EncodedBatch:
    """Turn windows cut to one ``max_len`` into ids, scales and text tables.

    The batch is as long as its longest window, rounded up to a multiple of
    ``PAD_MULTIPLE`` and never longer than ``max_len``; shorter windows are
    padded with PAD ids, so attention cost follows the real tokens.
    """
    caps = {t.max_len for t in tokens}
    if len(caps) != 1:
        raise ShapeMismatch(f"windows cut to mixed lengths {sorted(caps)}")
    b, cap = len(tokens), caps.pop()
    longest = max(len(t) for t in tokens)
    length = min(cap, -(-longest // PAD_MULTIPLE) * PAD_MULTIPLE)

    feature_ids = np.full((b, length), PAD_ID, dtype=np.int64)
    value_ids = np.full((b, length), PAD_ID, dtype=np.int64)
    value_scale = np.ones((b, length), dtype=dtype)
    tau = np.zeros((b, length), dtype=np.int64)
    delta = np.zeros((b, length), dtype=np.int64)
    attention = np.zeros((b, length), dtype=dtype)
    feature_texts: dict[str, int] = {}  # text -> id, in first-seen order
    value_texts: dict[str, int] = {}

    for i, t in enumerate(tokens):
        if not np.isfinite(t.scale).all():
            raise NonFiniteValue(f"a token value of stay {t.stay_id!r} is not finite")
        n = len(t)
        feature_ids[i, :n] = _table_ids(t.feature, t.texts, feature_texts, N_SPECIALS)
        value_ids[i, :n] = _table_ids(t.value, t.texts, value_texts, FILL_ID + 1)
        value_scale[i, :n] = t.scale
        tau[i, :n] = t.tau
        delta[i, :n] = t.delta
        attention[i, :n] = 1.0

    vectors = {text: provider.embed_text(text) for text in dict.fromkeys([*feature_texts, *value_texts])}
    return EncodedBatch(
        feature_ids=feature_ids, value_ids=value_ids, value_scale=value_scale,
        feature_table=np.array([vectors[t] for t in feature_texts], dtype=dtype).reshape(-1, provider.dim),
        value_table=np.array([np.ones(provider.dim), *(vectors[t] for t in value_texts)], dtype=dtype),
        tau=tau, delta=delta, attention_mask=attention,
    )


def _table_ids(codes: np.ndarray, texts: Sequence[str], table: dict[str, int], first_row: int) -> np.ndarray:
    """Table ids of one window's codes; its new texts join ``table`` in first-seen order."""
    ids = -1 - codes  # the special rows
    text = codes >= 0
    if text.any():
        used, first = np.unique(codes[text], return_index=True)
        used = used[np.argsort(first)]
        lookup = np.empty(int(used.max()) + 1, dtype=np.int64)
        lookup[used] = [table.setdefault(texts[c], first_row + len(table)) for c in used.tolist()]
        ids[text] = lookup[codes[text]]
    return ids


def compose_batch(batch: EncodedBatch, params: EmbedderParams, mode: str = "eval",
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Sum the four embedding sources, apply dropout (train only), then layer norm."""
    w = params.window_minutes
    for name, arr in (("tau", batch.tau), ("delta", batch.delta)):
        if arr.size and (arr.min() < 0 or arr.max() >= w):
            raise IndexOutOfRange(f"{name} outside [0, {w})")
    dtype = params.w_f.data.dtype
    features = ad.matmul(ad.concat_rows(params.feature_specials, ad.constant(batch.feature_table, dtype)),
                         params.w_f)
    values = ad.matmul(ad.concat_rows(params.value_specials, ad.constant(batch.value_table, dtype)),
                       params.w_x)
    e_f = ad.add(ad.gather_rows(features, batch.feature_ids), params.b_f)
    e_x = ad.add(ad.mul(ad.gather_rows(values, batch.value_ids),
                        ad.constant(batch.value_scale[..., None], dtype)), params.b_x)
    e_tau = ad.gather_rows(params.time_table, batch.tau)
    e_delta = ad.gather_rows(params.duration_table, batch.delta)
    total = ad.add(ad.add(e_f, e_x), ad.add(e_tau, e_delta))
    if mode == "train":
        if rng is None:
            raise ShapeMismatch("train mode needs an rng for dropout")
        total = ad.dropout(total, params.dropout_rate, rng, training=True)
    return ad.layer_norm(total, params.ln_gain, params.ln_bias)
