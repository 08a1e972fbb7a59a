"""Event-file parsing, patient-level split assignment, and vocabulary building.

Event-line format: one JSON object per line with fields patient_id, stay_id,
source, variable, value (number or quoted text), timestamp (ISO-8601, minute
precision), duration_minutes (optional, default 0), static (optional boolean,
default false).

Timestamps may be timezone-naive or carry a UTC offset, but all registries of
one stay must agree: a stay that mixes naive and offset timestamps is rejected
at the first line that breaks the stay's convention, because its events could
not be put in order. A stay's dynamic timestamps may span at most
``MAX_STAY_SPAN``: a stay is cut into one window per window length of that
span, so one stray timestamp decades off would otherwise make thousands of
windows. The stay is rejected at the first line that stretches it further.
Static timestamps are not bounded, since statics repeat in every window.
A registry's ``duration_minutes`` may not exceed ``MAX_STAY_SPAN`` either
(525,600 minutes): durations are stored as 64-bit integers, and a longer one
is rejected with a ``ParseError`` naming its line.

Each line is decoded with ``json.loads`` and checked field by field, in a
fixed order, so each malformed line raises the same ``ParseError`` with its
line number. The checks test decoded types with ``type(x) is ...``, which
for ``json.loads`` output decides as ``isinstance`` does, and a timestamp is
floored to the minute only when it has seconds.

Each ``Stay`` carries ``columns`` (``StayColumns``): numpy arrays of its
registries that do not depend on the vocabulary, built once when the stay is
constructed, so their cost is part of ingest. Minute offsets and durations
are built as arrays from each registry's days and seconds since the stay's
start, with no ``timedelta`` division per registry. Windowing, masking and
the label oracles read the columns; no per-event object is built after
ingest.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyTrainSplit, InvalidRatios, InvalidRegistry, ParseError
from .types import (
    RESERVED_FEATURE_TEXTS,
    RESERVED_VALUE_TEXTS,
    FeatureStats,
    Registry,
    Vocabularies,
    validate_registry,
)

MAX_STAY_SPAN = timedelta(days=365)
MAX_DURATION_MINUTES = MAX_STAY_SPAN // timedelta(minutes=1)
_DAYS, _SECONDS = attrgetter("days"), attrgetter("seconds")


class Split(enum.Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


@dataclass(frozen=True, eq=False)
class StayColumns:
    """A stay's registries as arrays: statics in input order, then dynamics stably sorted by minute offset."""

    texts: tuple[str, ...]     # distinct feature texts and categorical value texts
    feature: np.ndarray        # (n,) int64 code into texts
    value_code: np.ndarray     # (n,) int64 code into texts, -1 for a continuous value
    value: np.ndarray          # (n,) float64, NaN for a categorical value
    offset: np.ndarray         # (n,) int64 minutes since Stay.start, 0 for statics
    duration: np.ndarray       # (n,) int64 minutes, 0 for statics
    registry: np.ndarray       # (n,) int64 position in Stay.all_registries
    n_statics: int


def _columns(statics: tuple[Registry, ...], dynamics: tuple[Registry, ...], start: datetime) -> StayColumns:
    codes: dict[str, int] = {}
    feature, value_code, value = [], [], []
    for r in statics + dynamics:
        feature.append(codes.setdefault(r.feature_text, len(codes)))
        if r.is_continuous:
            value_code.append(-1)
            value.append(float(r.value))
        else:
            value_code.append(codes.setdefault(str(r.value).strip(), len(codes)))
            value.append(math.nan)
    n, s = len(feature), len(statics)
    offset = np.zeros(n, dtype=np.int64)
    duration = np.zeros(n, dtype=np.int64)
    # a timedelta's seconds lie in [0, 86400) and its microseconds under one second, so
    # days * 1440 + seconds // 60 is delta // 1 minute, without a division per registry
    delta = [r.timestamp - start for r in dynamics]
    offset[s:] = np.fromiter(map(_DAYS, delta), np.int64, len(delta)) * 1440 \
        + np.fromiter(map(_SECONDS, delta), np.int64, len(delta)) // 60
    duration[s:] = [r.duration_minutes for r in dynamics]
    order = np.concatenate([np.arange(s), s + np.argsort(offset[s:], kind="stable")])
    return StayColumns(tuple(codes), np.array(feature, dtype=np.int64)[order],
                       np.array(value_code, dtype=np.int64)[order], np.array(value, dtype=np.float64)[order],
                       offset[order], duration[order], order, s)


@dataclass(frozen=True)
class Stay:
    """One ICU stay's registries; ``start`` and ``columns`` are built when it is constructed."""

    stay_id: str
    patient_id: str
    dynamics: tuple[Registry, ...]
    statics: tuple[Registry, ...]
    start: Optional[datetime] = field(init=False, repr=False, compare=False)
    columns: StayColumns = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # earliest dynamic timestamp, earliest static if none, None for an empty stay
        pool = self.dynamics or self.statics
        start = min(r.timestamp for r in pool) if pool else None
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "columns", _columns(self.statics, self.dynamics, start))

    @property
    def all_registries(self) -> tuple[Registry, ...]:
        return self.statics + self.dynamics


@dataclass(frozen=True)
class Corpus:
    stays: tuple[Stay, ...]
    splits: dict[str, Split] = field(default_factory=dict)

    @property
    def patient_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for stay in self.stays:
            seen.setdefault(stay.patient_id, None)
        return list(seen)

    @property
    def n_registries(self) -> int:
        return sum(len(s.dynamics) + len(s.statics) for s in self.stays)

    def stays_in(self, split: Split) -> list[Stay]:
        return [s for s in self.stays if self.splits.get(s.patient_id) is split]

    def with_splits(self, splits: dict[str, Split]) -> "Corpus":
        return Corpus(self.stays, dict(splits))


def parse_events(path: str) -> Corpus:
    """Parse a UTF-8 event-line file into a Corpus of validated registries.

    Lines end with ``\\n`` (``\\r\\n`` too); a line that is not valid UTF-8
    is a ``ParseError`` naming it.
    """
    with open(path, "rb") as f:
        return parse_event_lines(_decoded_lines(f))


def _decoded_lines(raw_lines: Iterable[bytes]) -> Iterable[str]:
    for line_no, raw in enumerate(raw_lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(line_no, f"not valid UTF-8 (byte {exc.start} of the line)") from exc


def parse_event_lines(lines: Iterable[str]) -> Corpus:
    dynamics: dict[str, list[Registry]] = {}
    statics: dict[str, list[Registry]] = {}
    stay_patient: dict[str, str] = {}
    stay_aware: dict[str, bool] = {}
    stay_span: dict[str, list[datetime]] = {}  # earliest and latest dynamic timestamp so far
    order: list[str] = []

    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer past the interpreter's digit limit
            raise ParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
        if type(record) is not dict:
            raise ParseError(line_no, "record is not an object")
        registry = _registry_from_record(record, line_no)
        stay, ts = registry.stay_id, registry.timestamp
        aware = ts.tzinfo is not None  # fromisoformat's offsets are fixed, never None
        if stay not in stay_patient:
            stay_patient[stay] = registry.patient_id
            stay_aware[stay] = aware
            order.append(stay)
            dynamics[stay] = []
            statics[stay] = []
        elif stay_patient[stay] != registry.patient_id:
            raise ParseError(line_no, f"stay {stay!r} claimed by two patients")
        elif stay_aware[stay] != aware:
            raise ParseError(line_no, f"stay {stay!r} mixes timezone-naive and offset timestamps")
        if registry.is_static:
            statics[stay].append(registry)
            continue
        dynamics[stay].append(registry)
        span = stay_span.get(stay)
        if span is None:
            stay_span[stay] = [ts, ts]
            continue
        if ts > span[1]:
            span[1] = ts
        elif ts < span[0]:
            span[0] = ts
        else:
            continue
        if span[1] - span[0] > MAX_STAY_SPAN:
            raise ParseError(line_no, f"stay {stay!r} spans {span[1] - span[0]} of dynamic timestamps, "
                                      f"more than the {MAX_STAY_SPAN.days}-day maximum")

    stays = tuple(
        Stay(stay_id=s, patient_id=stay_patient[s], dynamics=tuple(dynamics[s]), statics=tuple(statics[s]))
        for s in order
    )
    return Corpus(stays)


def _registry_from_record(record: dict, line_no: int) -> Registry:
    # ``json.loads`` makes only exact str, int, float, bool, list, dict and None, so exact type tests
    # decide as isinstance would, with bool apart from int
    for key in ("patient_id", "stay_id", "source", "variable"):
        if key not in record:
            raise ParseError(line_no, f"missing {key}")
        if type(record[key]) is not str:
            raise ParseError(line_no, f"{key} must be text")
    if "value" not in record:
        raise ParseError(line_no, "missing value")
    if "timestamp" not in record:
        raise ParseError(line_no, "missing timestamp")

    value = record["value"]
    kind = type(value)
    if kind is int:
        try:
            value = float(value)
        except OverflowError:
            raise ParseError(line_no, "numeric value too large for a float")
    elif kind is not float and kind is not str:
        raise ParseError(line_no, "value must be a number or quoted text")

    try:
        ts = datetime.fromisoformat(record["timestamp"])
    except (TypeError, ValueError):
        raise ParseError(line_no, f"bad timestamp {record['timestamp']!r}")
    if ts.second or ts.microsecond:  # all times are minute precision; floor anything finer
        ts = ts.replace(second=0, microsecond=0)

    duration = record.get("duration_minutes", 0)
    if type(duration) is not int:
        raise ParseError(line_no, "duration_minutes must be an integer")
    if duration > MAX_DURATION_MINUTES:
        raise ParseError(line_no, f"duration_minutes {duration} exceeds the {MAX_DURATION_MINUTES}-minute maximum")
    static = record.get("static", False)
    if type(static) is not bool:
        raise ParseError(line_no, "static must be a boolean")

    try:
        # positional, in field order: a frozen dataclass takes keywords ~25% slower
        return validate_registry(Registry(record["patient_id"], record["stay_id"], record["source"],
                                          record["variable"], value, ts, duration, static))
    except InvalidRegistry as exc:
        raise ParseError(line_no, str(exc)) from exc


def assign_splits(corpus: Corpus, ratios: Sequence[float], seed: int) -> Corpus:
    """Assign every patient to train/val/test, deterministically for a seed.

    Counts follow the largest-remainder rule so e.g. 100 patients under
    (0.7, 0.15, 0.15) come out exactly 70/15/15; all stays of a patient share
    one split.
    """
    if len(ratios) != 3:
        raise InvalidRatios(f"expected 3 ratios, got {len(ratios)}")
    if not all(math.isfinite(r) for r in ratios):
        raise InvalidRatios(f"ratios must be finite, got {tuple(ratios)!r}")
    if any(r < 0 for r in ratios):
        raise InvalidRatios("ratios must be non-negative")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidRatios(f"ratios sum to {sum(ratios)!r}, not 1")

    import numpy as np

    patients = sorted(corpus.patient_ids)
    rng = np.random.default_rng(seed)
    shuffled = [patients[i] for i in rng.permutation(len(patients))]

    n = len(patients)
    floors = [math.floor(r * n) for r in ratios]
    remainders = [r * n - f for r, f in zip(ratios, floors)]
    leftover = n - sum(floors)
    # ties broken in split order: train, then val, then test
    for idx in sorted(range(3), key=lambda i: (-remainders[i], i))[:leftover]:
        floors[idx] += 1

    splits: dict[str, Split] = {}
    cursor = 0
    for count, split in zip(floors, (Split.TRAIN, Split.VAL, Split.TEST)):
        for pid in shuffled[cursor : cursor + count]:
            splits[pid] = split
        cursor += count
    return corpus.with_splits(splits)


def build_vocabularies(corpus: Corpus) -> Vocabularies:
    """Feature/value vocabularies and per-feature statistics from the train split."""
    train_stays = corpus.stays_in(Split.TRAIN)
    registries = [r for stay in train_stays for r in stay.all_registries]
    if not registries:
        raise EmptyTrainSplit("no registries in the train split")

    features: set[str] = set()
    values: set[str] = set()
    sums: dict[str, float] = {}
    sq_sums: dict[str, float] = {}
    counts: dict[str, int] = {}

    for r in registries:
        text = r.feature_text
        features.add(text)
        if r.is_continuous:
            x = float(r.value)
            sums[text] = sums.get(text, 0.0) + x
            sq_sums[text] = sq_sums.get(text, 0.0) + x * x
            counts[text] = counts.get(text, 0) + 1
        else:
            v = str(r.value).strip()
            if v not in RESERVED_VALUE_TEXTS:
                values.add(v)

    stats: dict[str, FeatureStats] = {}
    for text, count in counts.items():
        mean = sums[text] / count
        var = max(sq_sums[text] / count - mean * mean, 0.0)
        stats[text] = FeatureStats(mean=mean, stddev=math.sqrt(var), count=count)

    return Vocabularies(
        features=RESERVED_FEATURE_TEXTS + tuple(sorted(features)),
        categorical_values=RESERVED_VALUE_TEXTS + tuple(sorted(values)),
        per_feature_stats=stats,
    )
