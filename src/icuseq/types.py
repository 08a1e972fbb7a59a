"""Core domain model: registries, quadruplet tokens, window sequences, vocabularies."""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional, Sequence, Union

from .errors import InvalidRegistry

DEFAULT_WINDOW_MINUTES = 1440
# distinct (source, variable) pairs whose feature text is kept; an ICU database has a few thousand
FEATURE_TEXT_CACHE_SIZE = 1 << 14

CLS_TEXT = "[CLS]"
PAD_TEXT = "[PAD]"
MASK_TEXT = "[MASK]"
UNK_TEXT = "[UNK]"

RESERVED_FEATURE_TEXTS = (CLS_TEXT, PAD_TEXT, MASK_TEXT)
RESERVED_VALUE_TEXTS = (MASK_TEXT, UNK_TEXT)

_WHITESPACE = re.compile(r"\s+")


class Special(enum.Enum):
    """Special value markers carried in a token's value slot."""

    CLS = "[CLS]"
    PAD = "[PAD]"
    MASK = "[MASK]"


# A recorded value is either numeric (continuous) or free text (categorical).
RegistryValue = Union[float, str]
TokenValue = Union[float, str, Special]


@functools.lru_cache(maxsize=FEATURE_TEXT_CACHE_SIZE)
def feature_text(source: str, variable: str) -> str:
    """Canonical feature name: lowercase, whitespace-collapsed "<source>: <variable>".

    Deterministic so the same (source, variable) pair always maps to one
    embedding-cache key and one vocabulary entry. Results are cached because
    every token of every window asks for the name of its registry.
    """
    src = _WHITESPACE.sub(" ", source).strip().lower()
    var = _WHITESPACE.sub(" ", variable).strip().lower()
    if not src:
        raise InvalidRegistry("empty source")
    if not var:
        raise InvalidRegistry("empty variable")
    return f"{src}: {var}"


@dataclass(frozen=True)
class Registry:
    """One raw medical record entry: where it came from, what it measured, when."""

    patient_id: str
    stay_id: str
    source: str
    variable: str
    value: RegistryValue
    timestamp: datetime
    duration_minutes: int = 0
    is_static: bool = False

    @property
    def is_continuous(self) -> bool:
        return not isinstance(self.value, (str, bool)) and isinstance(self.value, (int, float))

    @property
    def feature_text(self) -> str:
        return feature_text(self.source, self.variable)


def validate_registry(r: Registry) -> Registry:
    """Return ``r`` unchanged if it satisfies every Registry invariant."""
    if not r.source or not r.source.strip():
        raise InvalidRegistry("empty source")
    if not r.variable or not r.variable.strip():
        raise InvalidRegistry("empty variable")
    if r.duration_minutes < 0:
        raise InvalidRegistry("negative duration")
    if isinstance(r.value, bool):
        raise InvalidRegistry("boolean value is neither numeric nor categorical")
    if isinstance(r.value, (int, float)):
        if not math.isfinite(float(r.value)):
            raise InvalidRegistry("non-finite numeric value")
    elif isinstance(r.value, str):
        if not r.value.strip():
            raise InvalidRegistry("empty categorical value")
    else:
        raise InvalidRegistry(f"malformed value of type {type(r.value).__name__}")
    return r


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
    value: TokenValue
    if r.is_continuous:
        value = float(r.value)
    else:
        value = str(r.value).strip()
    return Token(
        feature_text=r.feature_text,
        value=value,
        tau_minutes=tau_minutes,
        delta_minutes=delta_minutes,
        is_continuous=r.is_continuous,
        is_static=r.is_static,
    )


@dataclass(frozen=True)
class WindowSequence:
    """Ordered token list for one window of one stay; CLS first, PADs (if any) last."""

    stay_id: str
    window_index: int
    window_start: datetime
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


@dataclass(frozen=True)
class FeatureStats:
    mean: float
    stddev: float
    count: int


@dataclass(frozen=True)
class Vocabularies:
    """Train-split vocabularies for the reconstruction heads, plus value statistics.

    Reserved entries occupy the lowest indices and are never produced by data:
    features start with [CLS], [PAD], [MASK]; categorical values with [MASK], [UNK].
    """

    features: tuple[str, ...]
    categorical_values: tuple[str, ...]
    per_feature_stats: dict[str, FeatureStats]
    _feature_index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)
    _value_index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.features[: len(RESERVED_FEATURE_TEXTS)] != RESERVED_FEATURE_TEXTS:
            raise InvalidRegistry("feature vocabulary must start with the reserved entries")
        if self.categorical_values[: len(RESERVED_VALUE_TEXTS)] != RESERVED_VALUE_TEXTS:
            raise InvalidRegistry("value vocabulary must start with the reserved entries")
        object.__setattr__(self, "_feature_index", {t: i for i, t in enumerate(self.features)})
        object.__setattr__(self, "_value_index", {t: i for i, t in enumerate(self.categorical_values)})

    @property
    def feature_size(self) -> int:
        return len(self.features)

    @property
    def value_size(self) -> int:
        return len(self.categorical_values)

    @property
    def unk_value_index(self) -> int:
        return self._value_index[UNK_TEXT]

    @property
    def n_reserved_features(self) -> int:
        return len(RESERVED_FEATURE_TEXTS)

    @property
    def n_reserved_values(self) -> int:
        return len(RESERVED_VALUE_TEXTS)

    def feature_index(self, text: str) -> Optional[int]:
        return self._feature_index.get(text)

    def value_index(self, text: str) -> int:
        """Categorical value index; unseen-at-train values map to [UNK]."""
        return self._value_index.get(text, self.unk_value_index)

    def normalize_value(self, feature: str, x: float) -> float:
        """Z-score ``x`` with the feature's train-split statistics.

        Zero-stddev features pass through centred only; features never seen in
        training keep the raw value.
        """
        stats = self.per_feature_stats.get(feature)
        if stats is None:
            return float(x)
        if stats.stddev > 0:
            return (float(x) - stats.mean) / stats.stddev
        return float(x) - stats.mean
