"""Segment stays into windows of quadruplet tokens; truncation and padding.

A stay is cut into consecutive, non-overlapping windows measured from its
earliest dynamic timestamp. Segmentation is one pass over the stay: each dynamic
registry's minute offset is computed once and picks its window by integer
division.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Optional

from .errors import EmptyStay, StaticsOverflow
from .ingest import Stay
from .types import (
    DEFAULT_WINDOW_MINUTES,
    Token,
    Vocabularies,
    WindowSequence,
    cls_token,
    pad_token,
    token_from_registry,
)

DEFAULT_MAX_SEQ_LEN = 512


def _minutes_since(ts: datetime, start: datetime) -> int:
    return int((ts - start).total_seconds() // 60)


def segment_windows(stay: Stay, window_minutes: int = DEFAULT_WINDOW_MINUTES,
                    emit_empty: bool = True, max_windows: Optional[int] = None) -> list[WindowSequence]:
    """Partition a stay into consecutive non-overlapping windows.

    Every dynamic registry lands in exactly one window by timestamp; statics
    are replicated into each window with tau = delta = 0. Each window holds
    CLS, then statics, then its dynamics in chronological order, input order
    breaking ties. Windows without any dynamic event are emitted (statics
    only) unless ``emit_empty`` is false; the first window always is.
    ``max_windows`` keeps only the first that many windows, and no token is
    built for a dynamic that falls after them.
    """
    if window_minutes < 1:
        raise EmptyStay(f"window length {window_minutes} must be >= 1 minute")
    if not stay.dynamics and not stay.statics:
        raise EmptyStay(f"stay {stay.stay_id!r} has no registries")

    start = stay.start
    placed = [divmod(_minutes_since(r.timestamp, start), window_minutes) for r in stay.dynamics]
    n_windows = max(j for j, _ in placed) + 1 if placed else 1
    emitted = range(n_windows) if emit_empty else sorted({0, *(j for j, _ in placed)})
    emitted = emitted[:max_windows]
    if not emitted:
        return []

    statics = [token_from_registry(r, 0, 0) for r in stay.statics]
    buckets: dict[int, list[Token]] = {}
    for r, (j, tau) in zip(stay.dynamics, placed):
        if j <= emitted[-1]:
            delta = min(r.duration_minutes, window_minutes - 1)
            buckets.setdefault(j, []).append(token_from_registry(r, tau, delta))

    out = []
    for j in emitted:
        dynamics = buckets.get(j, [])
        dynamics.sort(key=lambda tok: tok.tau_minutes)  # stable: input order breaks ties
        window_start = start + timedelta(minutes=j * window_minutes)
        out.append(WindowSequence(stay.stay_id, j, window_start, (cls_token(), *statics, *dynamics)))
    return out


def truncate_and_pad(seq: WindowSequence, max_seq_len: int = DEFAULT_MAX_SEQ_LEN) -> WindowSequence:
    """Force a window to exactly ``max_seq_len`` tokens.

    Overlong windows keep CLS, all statics, and the most recent dynamics in
    their existing chronological order; short ones get a PAD suffix.
    Idempotent: applying it twice equals applying it once.
    """
    tokens = [t for t in seq.tokens if not t.is_pad]
    statics = [t for t in tokens[1:] if t.is_static]
    dynamics = [t for t in tokens[1:] if not t.is_static]
    if 1 + len(statics) > max_seq_len:
        raise StaticsOverflow(
            f"CLS + {len(statics)} statics exceed the {max_seq_len}-token limit"
        )
    room = max_seq_len - 1 - len(statics)
    if len(dynamics) > room:
        dynamics = dynamics[len(dynamics) - room :]
    kept = [tokens[0], *statics, *dynamics]
    kept.extend(pad_token() for _ in range(max_seq_len - len(kept)))
    return seq.with_tokens(kept)


def normalize_values(seq: WindowSequence, vocab: Vocabularies) -> WindowSequence:
    """Replace continuous token values by their z-scored form."""
    tokens = [
        t if not t.is_continuous
        else Token(t.feature_text, vocab.normalize_value(t.feature_text, t.value),
                   t.tau_minutes, t.delta_minutes, True, t.is_static)
        for t in seq.tokens
    ]
    return seq.with_tokens(tokens)
