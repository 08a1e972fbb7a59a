"""Masked language-value modelling on token columns: slot selection, corruption, and targets."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidSpec, NoEligibleTokens, ShapeMismatch
from .types import Vocabularies
from .windows import FILL_CODE, MASK_CODE, Tokens

# corruption codes recorded per masked slot
NONE, MASK, RANDOM, KEEP = 0, 1, 2, 3


@dataclass(frozen=True)
class MaskingRates:
    select: float = 0.15
    both: float = 0.5
    value_only: float = 0.25
    feature_only: float = 0.25
    corrupt_mask: float = 0.8
    corrupt_random: float = 0.1
    corrupt_keep: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.select <= 1.0:
            raise ShapeMismatch("selection rate must be in (0, 1]")
        split = (self.both, self.value_only, self.feature_only, self.corrupt_mask, self.corrupt_random,
                 self.corrupt_keep)
        if not all(0.0 <= rate <= 1.0 for rate in split):  # a NaN rate passes the sums below
            raise InvalidSpec(f"masking and corruption rates must lie in [0, 1], got {split}")
        if abs(self.both + self.value_only + self.feature_only - 1.0) > 1e-9:
            raise ShapeMismatch("both/value-only/feature-only rates must sum to 1")
        if abs(self.corrupt_mask + self.corrupt_random + self.corrupt_keep - 1.0) > 1e-9:
            raise ShapeMismatch("corruption rates must sum to 1")


@dataclass(frozen=True)
class MaskingPlan:
    """Masking decisions for each of a window's n tokens, plus the uncorrupted reconstruction targets."""

    selected: np.ndarray          # (n,) bool
    mask_feature: np.ndarray      # (n,) bool
    mask_value: np.ndarray        # (n,) bool
    feature_corruption: np.ndarray  # (n,) int8, codes above
    value_corruption: np.ndarray    # (n,) int8
    feature_target: np.ndarray    # (n,) int64, -1 where not a feature slot
    value_is_continuous: np.ndarray  # (n,) bool, continuity of the original value
    cat_target: np.ndarray        # (n,) int64, -1 where not a categorical slot
    cont_target: np.ndarray       # (n,) float32, 0 where not a continuous slot

    def __len__(self) -> int:
        return len(self.selected)

    @property
    def n_feature_slots(self) -> int:
        return int(self.mask_feature.sum())

    @property
    def n_cat_slots(self) -> int:
        return int((self.mask_value & ~self.value_is_continuous).sum())

    @property
    def n_cont_slots(self) -> int:
        return int((self.mask_value & self.value_is_continuous).sum())


def plan_masking(tokens: Tokens, rng: np.random.Generator, rates: MaskingRates = MaskingRates()) -> MaskingPlan:
    """Draw the masking decisions for one window, one slot per token.

    Each maskable token (one with a ``feature_id``: not CLS, and a feature
    seen in training) is selected independently; selected tokens mask both
    slots, the value only, or the feature only; each masked slot is then
    corrupted as mask/random/keep. Targets are the uncorrupted token's ids
    and value, so they survive every corruption mode.
    """
    n = len(tokens)
    eligible = tokens.feature_id >= 0
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        raise NoEligibleTokens(f"a window of stay {tokens.stay_id!r} has no maskable tokens")

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

    continuous = tokens.value == FILL_CODE
    value_is_continuous = mask_value & continuous
    return MaskingPlan(
        selected, mask_feature, mask_value, feature_corruption, value_corruption,
        feature_target=np.where(mask_feature, tokens.feature_id, -1),
        value_is_continuous=value_is_continuous,
        cat_target=np.where(mask_value & ~continuous, tokens.value_id, -1),
        cont_target=np.where(value_is_continuous, tokens.scale, 0.0).astype(np.float32),
    )


def _draw_corruption(rng: np.random.Generator, count: int, rates: MaskingRates) -> np.ndarray:
    u = rng.random(count)
    out = np.full(count, MASK, dtype=np.int8)
    out[u >= rates.corrupt_mask] = RANDOM
    out[u >= rates.corrupt_mask + rates.corrupt_random] = KEEP
    return out


def apply_masking(tokens: Tokens, plan: MaskingPlan, vocab: Vocabularies, rng: np.random.Generator) -> Tokens:
    """The window's tokens corrupted according to a plan drawn for it.

    Random feature/categorical replacements draw uniformly from the
    non-reserved vocabulary entries and are appended to the texts;
    random continuous replacements are standard-normal draws (values are
    z-scored by this point). Only the slots with a RANDOM corruption loop,
    drawing in slot order, feature before value. Relative time and duration
    are never altered, and neither are ``feature_id``/``value_id``, the
    uncorrupted token's ids.
    """
    if len(plan) != len(tokens):
        raise ShapeMismatch(f"plan length {len(plan)} vs window length {len(tokens)}")

    feature_corruption, value_corruption = plan.feature_corruption, plan.value_corruption
    records = tokens.records.copy()
    feature, value, scale = records["feature"], records["value"], records["scale"]  # views into the copy
    feature[feature_corruption == MASK] = MASK_CODE
    value_mask = value_corruption == MASK
    value[value_mask] = MASK_CODE
    scale[value_mask] = 1.0

    texts = list(tokens.texts)

    def code_of(text: Optional[str]) -> int:
        if text is None:  # the vocabulary has no entry to draw
            return MASK_CODE
        texts.append(text)
        return len(texts) - 1

    for i in np.flatnonzero((feature_corruption == RANDOM) | (value_corruption == RANDOM)):
        if feature_corruption[i] == RANDOM:
            feature[i] = code_of(_random_text(vocab.features, vocab.n_reserved_features, rng))
        if value_corruption[i] == RANDOM:
            if tokens.value[i] == FILL_CODE:
                scale[i] = float(rng.standard_normal())
            else:
                value[i] = code_of(_random_text(vocab.categorical_values, vocab.n_reserved_values, rng))
    return replace(tokens, texts=tuple(texts), records=records)


def _random_text(texts: tuple[str, ...], n_reserved: int, rng: np.random.Generator) -> Optional[str]:
    """A uniform draw from the non-reserved entries; None when there are none."""
    if len(texts) <= n_reserved:
        return None
    return texts[int(rng.integers(n_reserved, len(texts)))]
