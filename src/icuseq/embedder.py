"""Composition of token embeddings from feature/value vectors and time tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import IndexOutOfRange, NonFiniteValue, ShapeMismatch
from .masking import MaskingPlan
from .textvec import EmbeddingProvider
from .types import CLS_TEXT, MASK_TEXT, PAD_TEXT, DEFAULT_WINDOW_MINUTES, Special, Vocabularies, WindowSequence

# rows of the learned special-vector tables
_SPECIAL_ROW = {CLS_TEXT: 0, PAD_TEXT: 1, MASK_TEXT: 2}
_SPECIAL_VALUE_ROW = {Special.CLS: 0, Special.PAD: 1, Special.MASK: 2}

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

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [
            ("embedder.w_f", self.w_f),
            ("embedder.b_f", self.b_f),
            ("embedder.w_x", self.w_x),
            ("embedder.b_x", self.b_x),
            ("embedder.time_table", self.time_table),
            ("embedder.duration_table", self.duration_table),
            ("embedder.feature_specials", self.feature_specials),
            ("embedder.value_specials", self.value_specials),
            ("embedder.ln_gain", self.ln_gain),
            ("embedder.ln_bias", self.ln_bias),
        ]

    def special_value_vectors(self) -> dict[Special, np.ndarray]:
        table = self.value_specials.data
        return {s: table[row] for s, row in _SPECIAL_VALUE_ROW.items()}


def init_embedder(rng: np.random.Generator, d_pre: int, hidden: int,
                  window_minutes: int = DEFAULT_WINDOW_MINUTES,
                  dropout_rate: float = DEFAULT_DROPOUT,
                  dtype=np.float32) -> EmbedderParams:
    bound = 1.0 / np.sqrt(d_pre)

    def uniform(*shape):
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    def small_normal(*shape):
        return (rng.standard_normal(shape) * 0.02).astype(dtype)

    return EmbedderParams(
        w_f=ad.parameter(uniform(d_pre, hidden), "embedder.w_f"),
        b_f=ad.parameter(np.zeros(hidden, dtype=dtype), "embedder.b_f"),
        w_x=ad.parameter(uniform(d_pre, hidden), "embedder.w_x"),
        b_x=ad.parameter(np.zeros(hidden, dtype=dtype), "embedder.b_x"),
        time_table=ad.parameter(small_normal(window_minutes, hidden), "embedder.time_table"),
        duration_table=ad.parameter(small_normal(window_minutes, hidden), "embedder.duration_table"),
        feature_specials=ad.parameter(small_normal(3, d_pre), "embedder.feature_specials"),
        value_specials=ad.parameter(small_normal(3, d_pre), "embedder.value_specials"),
        ln_gain=ad.parameter(np.ones(hidden, dtype=dtype), "embedder.ln_gain"),
        ln_bias=ad.parameter(np.zeros(hidden, dtype=dtype), "embedder.ln_bias"),
        dropout_rate=dropout_rate,
    )


def compose(feat_pre: Tensor, val_pre: Tensor, tau: np.ndarray, delta: np.ndarray,
            params: EmbedderParams, mode: str = "eval",
            rng: Optional[np.random.Generator] = None,
            apply_layernorm: bool = True) -> Tensor:
    """Sum the four embedding sources, apply dropout (train only), then layernorm.

    ``apply_layernorm=False`` is a test hook exposing the raw sum's linearity.
    """
    w = params.window_minutes
    tau = np.asarray(tau)
    delta = np.asarray(delta)
    for name, arr in (("tau", tau), ("delta", delta)):
        if arr.size and (arr.min() < 0 or arr.max() >= w):
            raise IndexOutOfRange(f"{name} outside [0, {w})")
    e_f = ad.add(ad.matmul(feat_pre, params.w_f), params.b_f)
    e_x = ad.add(ad.matmul(val_pre, params.w_x), params.b_x)
    e_tau = ad.gather_rows(params.time_table, tau)
    e_delta = ad.gather_rows(params.duration_table, delta)
    total = ad.add(ad.add(e_f, e_x), ad.add(e_tau, e_delta))
    if mode == "train":
        if rng is None:
            raise ShapeMismatch("train mode needs an rng for dropout")
        total = ad.dropout(total, params.dropout_rate, rng, training=True)
    if apply_layernorm:
        total = ad.layer_norm(total, params.ln_gain, params.ln_bias)
    return total


@dataclass
class EncodedBatch:
    """Input arrays for a batch of windows cut to a common length, plus MLVM targets."""

    feat_pre: np.ndarray       # (B, L, D_pre) provider vectors, 0 at special slots
    feat_special: np.ndarray   # (B, L, 3) one-hot rows into the learned specials
    val_pre: np.ndarray        # (B, L, D_pre) fill/provider vectors, 0 at special slots
    val_special: np.ndarray    # (B, L, 3)
    tau: np.ndarray            # (B, L) int
    delta: np.ndarray          # (B, L) int
    attention_mask: np.ndarray  # (B, L) 1 for real tokens, 0 for PAD
    feature_target: Optional[np.ndarray] = None  # (B, L) int, -1 outside masked slots
    cat_target: Optional[np.ndarray] = None
    cont_target: Optional[np.ndarray] = None
    value_is_continuous: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    stay_ids: tuple[str, ...] = ()

    @property
    def batch_size(self) -> int:
        return self.feat_pre.shape[0]

    @property
    def seq_len(self) -> int:
        return self.feat_pre.shape[1]


def encode_batch(windows: Sequence[WindowSequence], provider: EmbeddingProvider,
                 plans: Optional[Sequence[MaskingPlan]] = None,
                 dtype=np.float32) -> EncodedBatch:
    """Turn equal-length (already padded) windows into model input arrays.

    The batch is as long as its longest real window, rounded up to a multiple
    of ``PAD_MULTIPLE`` and never longer than the padded windows. PAD is a
    suffix, so only PAD columns are dropped, and attention cost follows the
    real tokens. The plans' targets are cut the same way; PAD is never
    eligible for masking, so the cut loses no target.
    """
    lengths = {len(w.tokens) for w in windows}
    if len(lengths) != 1:
        raise ShapeMismatch(f"windows have mixed lengths {sorted(lengths)}")
    b, padded = len(windows), lengths.pop()
    longest = max(w.real_length for w in windows)
    length = min(padded, -(-longest // PAD_MULTIPLE) * PAD_MULTIPLE)
    d_pre = provider.dim

    feat_pre = np.zeros((b, length, d_pre), dtype=dtype)
    feat_special = np.zeros((b, length, 3), dtype=dtype)
    val_pre = np.zeros((b, length, d_pre), dtype=dtype)
    val_special = np.zeros((b, length, 3), dtype=dtype)
    tau = np.zeros((b, length), dtype=np.int64)
    delta = np.zeros((b, length), dtype=np.int64)
    attention = np.zeros((b, length), dtype=dtype)

    for i, window in enumerate(windows):
        for j, tok in enumerate(window.tokens[:length]):
            tau[i, j] = tok.tau_minutes
            delta[i, j] = tok.delta_minutes
            attention[i, j] = 0.0 if tok.is_pad else 1.0
            row = _SPECIAL_ROW.get(tok.feature_text)
            if row is not None:
                feat_special[i, j, row] = 1.0
            else:
                feat_pre[i, j] = provider.embed_text(tok.feature_text)
            if isinstance(tok.value, Special):
                val_special[i, j, _SPECIAL_VALUE_ROW[tok.value]] = 1.0
            elif tok.is_continuous:
                x = float(tok.value)
                if not np.isfinite(x):
                    raise NonFiniteValue(f"token value {tok.value!r}")
                val_pre[i, j] = x
            else:
                val_pre[i, j] = provider.embed_text(str(tok.value))

    batch = EncodedBatch(
        feat_pre=feat_pre, feat_special=feat_special, val_pre=val_pre,
        val_special=val_special, tau=tau, delta=delta, attention_mask=attention,
        stay_ids=tuple(w.stay_id for w in windows),
    )
    if plans is not None:
        if len(plans) != b:
            raise ShapeMismatch(f"{b} windows but {len(plans)} masking plans")
        batch.feature_target = np.stack([p.feature_target[:length] for p in plans])
        batch.cat_target = np.stack([p.cat_target[:length] for p in plans])
        batch.cont_target = np.stack([p.cont_target[:length] for p in plans]).astype(dtype)
        batch.value_is_continuous = np.stack([p.value_is_continuous[:length] for p in plans])
    labels = [w.label for w in windows]
    if all(lab is not None for lab in labels):
        batch.labels = np.asarray(labels, dtype=dtype)
    return batch


def compose_batch(batch: EncodedBatch, params: EmbedderParams, mode: str = "eval",
                  rng: Optional[np.random.Generator] = None,
                  apply_layernorm: bool = True) -> Tensor:
    """Differentiable composition for a whole batch, injecting learned specials."""
    dtype = params.w_f.data.dtype
    feat = ad.add(ad.constant(batch.feat_pre, dtype),
                  ad.matmul(ad.constant(batch.feat_special, dtype), params.feature_specials))
    val = ad.add(ad.constant(batch.val_pre, dtype),
                 ad.matmul(ad.constant(batch.val_special, dtype), params.value_specials))
    return compose(feat, val, batch.tau, batch.delta, params, mode, rng, apply_layernorm)
