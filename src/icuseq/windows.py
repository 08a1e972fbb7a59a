"""Windows of a stay, each its own token table.

A stay is cut into consecutive, non-overlapping windows measured from its
earliest dynamic timestamp. Every window holds CLS, all statics (tau = delta
= 0), then its dynamics in chronological order, input order breaking ties.
The dynamics of window ``j`` are found by one ``searchsorted`` of the window
boundaries over the stay's sorted minute offsets. A window longer than
``max_seq_len`` keeps CLS, the statics and its latest dynamics. PAD is never
built; ``encode_batch`` pads each batch to its own length.

The stay's token table (``Tokens``) is built once per call from
``Stay.columns``, with one vocabulary lookup per distinct text of the stay,
and every window is cut from it in one gather: each window's ``Tokens`` is a
slice of that gather and holds exactly its real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import EmptyStay, StaticsOverflow
from .ingest import Stay
from .types import Vocabularies

# Negative codes in the feature and value columns name a row of the embedder's special
# tables: code -1 - r is row r. Non-negative codes index ``Tokens.texts``.
CLS_CODE, PAD_CODE, MASK_CODE, FILL_CODE = -1, -2, -3, -4

# one record per token: a window holds one array, not one per column, so 10^5 short windows stay small
TOKEN_COLUMNS = np.dtype([("feature", np.int64), ("value", np.int64), ("scale", np.float64), ("tau", np.int64),
                          ("delta", np.int64), ("feature_id", np.int64), ("value_id", np.int64)])


def _column(name: str, doc: str) -> property:
    return property(lambda self: self.records[name], doc=doc)


@dataclass(frozen=True, eq=False, slots=True)
class Tokens:
    """A window's tokens, one ``TOKEN_COLUMNS`` record each, CLS first; what masking and ``encode_batch`` read.

    ``feature_id`` and ``value_id`` are the vocabulary ids of the uncorrupted
    token (the masking targets): ``feature_id`` is -1 where the token cannot
    be masked (CLS, or a feature unseen in training), ``value_id`` is -1 for
    CLS and continuous values. ``max_len`` is the length windows were cut to.
    """

    stay_id: str
    texts: tuple[str, ...]
    max_len: int
    records: np.ndarray  # (n,) TOKEN_COLUMNS

    feature = _column("feature", "(n,) int64 code into texts, or a negative special code")
    value = _column("value", "(n,) int64 code into texts, FILL_CODE if continuous, or a special code")
    scale = _column("scale", "(n,) float64 z-scored value of a continuous token, 1 elsewhere")
    tau = _column("tau", "(n,) int64 minutes since window start")
    delta = _column("delta", "(n,) int64 duration, clamped to the window")
    feature_id = _column("feature_id", "(n,) int64")
    value_id = _column("value_id", "(n,) int64")

    def __len__(self) -> int:
        return len(self.records)

    real_length = property(__len__, doc="the token count: a window holds no PAD")

    def take(self, rows: Union[slice, np.ndarray]) -> "Tokens":
        return Tokens(self.stay_id, self.texts, self.max_len, self.records[rows])


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

    records = np.empty(1 + n, TOKEN_COLUMNS)
    records[0] = (CLS_CODE, CLS_CODE, 1.0, 0, 0, -1, -1)
    body = records[1:]  # statics have offset and duration 0, so tau = delta = 0
    body["feature"] = feature
    body["value"] = np.where(continuous, FILL_CODE, value_code)
    body["scale"] = np.where(continuous, (cols.value[:n] - shift[feature]) / divisor[feature], 1.0)
    body["tau"] = cols.offset[:n] % window_minutes
    body["delta"] = np.minimum(cols.duration[:n], window_minutes - 1)
    body["feature_id"] = feature_of[feature]
    body["value_id"] = np.where(continuous, -1, value_of[value_code])
    return Tokens(stay.stay_id, texts, max_len, records)


def segment_windows(stay: Stay, vocab: Vocabularies, window_minutes: int, max_seq_len: int,
                    max_windows: Optional[int] = None) -> list[Tokens]:
    """Cut a stay into windows of at most ``max_seq_len`` tokens, in window order.

    Every window up to the last dynamic event is emitted, statics only when
    no dynamic falls in it; a stay without dynamics has one window.
    ``max_windows`` keeps only the first that many, and no token past them
    is built.
    """
    if window_minutes < 1:
        raise EmptyStay(f"window length {window_minutes} must be >= 1 minute")
    if not stay.dynamics and not stay.statics:
        raise EmptyStay(f"stay {stay.stay_id!r} has no registries")
    cols = stay.columns
    head = 1 + cols.n_statics  # CLS and the statics, the table's first rows
    if head > max_seq_len:
        raise StaticsOverflow(f"CLS + {cols.n_statics} statics exceed the {max_seq_len}-token limit")

    offset = cols.offset[cols.n_statics:]
    n_windows = int(offset[-1]) // window_minutes + 1 if len(offset) else 1
    if max_windows is not None:
        n_windows = min(n_windows, max_windows)
    bounds = np.searchsorted(offset, np.arange(n_windows + 1) * window_minutes)
    table = stay_tokens(stay, vocab, window_minutes, max_seq_len, int(bounds[-1]))
    # window j keeps dynamics lo[j]:hi[j], the latest ones when it is too long
    hi = bounds[1:]
    lo = np.maximum(bounds[:-1], hi - (max_seq_len - head))
    length = head + hi - lo
    end = np.cumsum(length)
    # position of each cut row within its window; past the head it reads dynamic lo + at - head
    at = np.arange(length.sum()) - np.repeat(end - length, length)
    cut = table.take(np.where(at < head, at, at + np.repeat(lo, length)))
    return [cut.take(slice(b - n, b)) for b, n in zip(end.tolist(), length.tolist())]


def maskable(windows: list[Tokens]) -> list[Tokens]:
    """The windows that hold at least one maskable token."""
    return [w for w in windows if (w.feature_id >= 0).any()]
