"""Core domain model: registries, feature texts, vocabularies."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional, Union

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


# A recorded value is either numeric (continuous) or free text (categorical).
RegistryValue = Union[float, str]


@functools.lru_cache(maxsize=FEATURE_TEXT_CACHE_SIZE)
def feature_text(source: str, variable: str) -> str:
    """Canonical feature name: lowercase, whitespace-collapsed "<source>: <variable>".

    Deterministic so the same (source, variable) pair always maps to one
    embedding-cache key and one vocabulary entry. Results are cached because
    every registry asks for the name of its pair when its stay is built.
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
