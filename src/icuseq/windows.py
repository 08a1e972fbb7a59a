"""Windows of a stay as index ranges over its token columns.

A stay is cut into consecutive, non-overlapping windows measured from its
earliest dynamic timestamp. Every window holds CLS, all statics (tau = delta
= 0), then its dynamics in chronological order, input order breaking ties.
A window is ``(table, index, lo, hi)``: the rows ``lo:hi`` of the stay's
dynamics, found by one ``searchsorted`` of the window boundaries over the
sorted minute offsets. A window longer than ``max_seq_len`` keeps CLS, the
statics and its latest dynamics: truncation only moves ``lo``. PAD is never
built; ``encode_batch`` pads each batch to its own length.

The table (``Tokens``) has one row per token of the whole stay under one
vocabulary and window length, built once per stay per call from
``Stay.columns`` with one vocabulary lookup per distinct text of the stay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import EmptyStay, StaticsOverflow
from .ingest import Stay
from .types import Vocabularies

# Negative codes in the feature and value columns name a row of the embedder's special
# tables: code -1 - r is row r. Non-negative codes index ``Tokens.texts``.
CLS_CODE, PAD_CODE, MASK_CODE, FILL_CODE = -1, -2, -3, -4


@dataclass(frozen=True, eq=False)
class Tokens:
    """Token columns, one row per token, CLS first; what ``encode_batch`` reads.

    ``feature_id`` and ``value_id`` are the vocabulary ids of the uncorrupted
    token (the masking targets): ``feature_id`` is -1 where the token cannot
    be masked (CLS, or a feature unseen in training), ``value_id`` is -1 for
    CLS and continuous values. ``max_len`` is the length windows were cut to.
    """

    stay_id: str
    texts: tuple[str, ...]
    max_len: int
    feature: np.ndarray     # (n,) int64 code into texts, or a negative special code
    value: np.ndarray       # (n,) int64 code into texts, FILL_CODE if continuous, or a special code
    scale: np.ndarray       # (n,) float64 z-scored value of a continuous token, 1 elsewhere
    tau: np.ndarray         # (n,) int64 minutes since window start
    delta: np.ndarray       # (n,) int64 duration, clamped to the window
    feature_id: np.ndarray  # (n,) int64
    value_id: np.ndarray    # (n,) int64

    def __len__(self) -> int:
        return len(self.feature)

    def take(self, rows: Union[slice, np.ndarray]) -> "Tokens":
        return replace(self, **{name: getattr(self, name)[rows] for name in _ROW_COLUMNS})


_ROW_COLUMNS = ("feature", "value", "scale", "tau", "delta", "feature_id", "value_id")


@dataclass(frozen=True, eq=False, slots=True)
class Window:
    """Rows CLS, statics and dynamics ``lo:hi`` of a stay's token table."""

    table: Tokens
    n_statics: int
    index: int
    lo: int
    hi: int

    @property
    def real_length(self) -> int:
        return 1 + self.n_statics + self.hi - self.lo

    def tokens(self) -> Tokens:
        head = 1 + self.n_statics
        if self.lo == 0:
            return self.table.take(slice(0, head + self.hi))
        return self.table.take(np.r_[0:head, head + self.lo : head + self.hi])


def as_tokens(window: Union[Window, Tokens]) -> Tokens:
    return window.tokens() if isinstance(window, Window) else window


def stay_tokens(stay: Stay, vocab: Vocabularies, window_minutes: int, max_len: int, n_dynamics: int) -> Tokens:
    """The token table of a stay: CLS, statics, then its first ``n_dynamics`` dynamics."""
    cols, texts = stay.columns, stay.columns.texts
    n = cols.n_statics + n_dynamics
    stats = [vocab.per_feature_stats.get(t) for t in texts]
    # z-scores (x - mean) / stddev with train-split statistics: only centred at zero stddev, raw
    # without statistics ((x - 0) / 1 is x); float64 arrays round as Python floats do
    shift = np.array([st.mean if st else 0.0 for st in stats])
    divisor = np.array([st.stddev if st and st.stddev > 0 else 1.0 for st in stats])
    feature_of = np.array([-1 if (i := vocab.feature_index(t)) is None else i for t in texts], dtype=np.int64)
    value_of = np.array([vocab.value_index(t) for t in texts], dtype=np.int64)
    feature, value_code = cols.feature[:n], cols.value_code[:n]
    continuous = value_code < 0

    def with_cls(first, column):
        return np.concatenate([[first], column])

    # statics have offset and duration 0, so tau = delta = 0
    return Tokens(
        stay.stay_id, texts, max_len,
        feature=with_cls(CLS_CODE, feature),
        value=with_cls(CLS_CODE, np.where(continuous, FILL_CODE, value_code)),
        scale=with_cls(1.0, np.where(continuous, (cols.value[:n] - shift[feature]) / divisor[feature], 1.0)),
        tau=with_cls(0, cols.offset[:n] % window_minutes),
        delta=with_cls(0, np.minimum(cols.duration[:n], window_minutes - 1)),
        feature_id=with_cls(-1, feature_of[feature]),
        value_id=with_cls(-1, np.where(continuous, -1, value_of[value_code])),
    )


def segment_windows(stay: Stay, vocab: Vocabularies, window_minutes: int, max_seq_len: int,
                    max_windows: Optional[int] = None) -> list[Window]:
    """Cut a stay into windows of at most ``max_seq_len`` tokens.

    Every window up to the last dynamic event is emitted, statics only when
    no dynamic falls in it; a stay without dynamics has one window.
    ``max_windows`` keeps only the first that many, and the table holds no
    row past them.
    """
    if window_minutes < 1:
        raise EmptyStay(f"window length {window_minutes} must be >= 1 minute")
    if not stay.dynamics and not stay.statics:
        raise EmptyStay(f"stay {stay.stay_id!r} has no registries")
    cols = stay.columns
    s = cols.n_statics
    if 1 + s > max_seq_len:
        raise StaticsOverflow(f"CLS + {s} statics exceed the {max_seq_len}-token limit")

    offset = cols.offset[s:]
    n_windows = int(offset[-1]) // window_minutes + 1 if len(offset) else 1
    if max_windows is not None:
        n_windows = min(n_windows, max_windows)
    bounds = np.searchsorted(offset, np.arange(n_windows + 1) * window_minutes)
    table = stay_tokens(stay, vocab, window_minutes, max_seq_len, int(bounds[-1]))
    hi = bounds[1:]
    lo = np.maximum(bounds[:-1], hi - (max_seq_len - 1 - s))
    return [Window(table, s, j, a, b) for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))]


def maskable(windows: list[Window]) -> list[Window]:
    """The windows of one stay that hold at least one maskable token."""
    if not windows:
        return windows
    table, s = windows[0].table, windows[0].n_statics
    if (table.feature_id[1 : 1 + s] >= 0).any():
        return windows
    seen = np.concatenate([[0], np.cumsum(table.feature_id[1 + s :] >= 0)])
    return [w for w in windows if seen[w.hi] > seen[w.lo]]
