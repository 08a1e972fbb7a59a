"""Multi-task pre-training loss over a batch's masked slots, and the fine-tuning losses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NoMaskedSlots, ShapeMismatch, UnknownTask
from .masking import MaskingPlan

DEFAULT_ALPHA = 3.0
DEFAULT_BETA = 1.0


@dataclass
class LossBreakdown:
    l_f: float
    l_cat: float
    l_cont: float
    n_cat: int
    n_cont: int
    l_total: float
    n_feature_slots: int = 0
    node: Optional[Tensor] = field(default=None, repr=False, compare=False)


def value_term_coefficients(n_cat: int, n_cont: int, alpha: float, beta: float) -> tuple[float, float]:
    """Weights multiplying the categorical and continuous value losses.

    Slot types with zero count are excluded from the shared denominator, so a
    batch whose masked values are all one type still gets a clean average.
    """
    denom = n_cat + n_cont
    if denom == 0:
        return 0.0, 0.0
    return beta * n_cat / denom, beta * alpha * n_cont / denom


def combine_losses(l_f: float, l_cat: float, n_cat: int, l_cont: float, n_cont: int,
                   alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA) -> float:
    """Total loss from already-averaged components (plain-number form)."""
    c_cat, c_cont = value_term_coefficients(n_cat, n_cont, alpha, beta)
    return l_f + c_cat * l_cat + c_cont * l_cont


@dataclass(frozen=True)
class MaskedSlots:
    """A batch's masked feature and value slots: one (B, m) row of entries per window.

    ``rows[b]`` lists window ``b``'s masked positions in ascending order,
    padded with position 0 to the batch's largest count. Each entry's
    targets are those of the slots its position masks; a padding entry masks
    none, so its targets are -1 and ``cont`` is False there.
    """

    rows: np.ndarray            # (B, m) intp positions
    feature_target: np.ndarray  # (B, m) int64 feature id, -1 where no feature slot
    cat_target: np.ndarray      # (B, m) int64 categorical value id, -1 where no categorical slot
    cont: np.ndarray            # (B, m) bool, a continuous value slot
    cont_target: np.ndarray     # (B, m) float32 value, 0 where not ``cont``


def masked_slots(plans: Sequence[MaskingPlan]) -> MaskedSlots:
    """The masked slots of a batch's plans, one row per plan."""
    positions = [np.flatnonzero(p.mask_feature | p.mask_value) for p in plans]
    shape = (len(plans), max((len(x) for x in positions), default=0))
    slots = MaskedSlots(rows=np.zeros(shape, dtype=np.intp),
                        feature_target=np.full(shape, -1, dtype=np.int64),
                        cat_target=np.full(shape, -1, dtype=np.int64),
                        cont=np.zeros(shape, dtype=bool),
                        cont_target=np.zeros(shape, dtype=np.float32))
    for i, (p, x) in enumerate(zip(plans, positions)):
        n = len(x)
        slots.rows[i, :n] = x
        slots.feature_target[i, :n] = p.feature_target[x]
        slots.cat_target[i, :n] = p.cat_target[x]
        slots.cont[i, :n] = p.value_is_continuous[x]
        slots.cont_target[i, :n] = p.cont_target[x]
    return slots


def mlvm_loss(outputs: tuple[Tensor, Tensor, Tensor], slots: MaskedSlots,
              alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA) -> LossBreakdown:
    """Reconstruction loss over every masked slot, keep-corrupted ones included.

    ``outputs`` are the heads' outputs at ``slots.rows``: output row ``j``
    of batch entry ``b`` is position ``slots.rows[b, j]``. Feature and
    categorical slots use mean cross-entropy, continuous slots use mean
    absolute error, and the two value losses are blended by slot counts with
    the continuous side scaled by ``alpha``. Slots are taken in
    (b, position) order.
    """
    feature_logits, cat_logits, cont_pred = outputs
    b, m = feature_logits.shape[:2]
    if slots.rows.shape != (b, m):
        raise ShapeMismatch(f"slot rows {slots.rows.shape} vs outputs {(b, m)}")
    feature_target, cat_target = slots.feature_target.reshape(-1), slots.cat_target.reshape(-1)
    feat, cat, cont = np.flatnonzero(feature_target >= 0), np.flatnonzero(cat_target >= 0), np.flatnonzero(slots.cont)
    n_feat, n_cat, n_cont = len(feat), len(cat), len(cont)
    if n_feat == 0 and n_cat == 0 and n_cont == 0:
        raise NoMaskedSlots("batch contains no masked slots")

    def at(out: Tensor, entries: np.ndarray) -> Tensor:  # rows of a (B, m, ...) output at flat slot entries
        return ad.gather_rows(ad.reshape(out, (b * m, -1)), entries)

    zero = ad.constant(np.zeros((), dtype=feature_logits.dtype))
    l_f = ad.cross_entropy_mean(at(feature_logits, feat), feature_target[feat]) if n_feat else zero
    l_cat = ad.cross_entropy_mean(at(cat_logits, cat), cat_target[cat]) if n_cat else zero
    l_cont = ad.mae_mean(ad.reshape(at(cont_pred, cont), (n_cont,)),
                         slots.cont_target.reshape(-1)[cont]) if n_cont else zero
    c_cat, c_cont = value_term_coefficients(n_cat, n_cont, alpha, beta)
    total = ad.add(l_f, ad.add(ad.scale(l_cat, c_cat), ad.scale(l_cont, c_cont)))

    return LossBreakdown(
        l_f=l_f.item(), l_cat=l_cat.item(), l_cont=l_cont.item(),
        n_cat=n_cat, n_cont=n_cont, l_total=total.item(),
        n_feature_slots=n_feat, node=total,
    )


def finetune_loss(task_kind: str, predictions: Tensor, labels: np.ndarray,
                  class_weight: float | np.ndarray = 1.0) -> Tensor:
    """Task loss: weighted BCE for (multi-)label tasks, MAE for regression."""
    if np.any(np.asarray(class_weight) <= 0):
        raise ShapeMismatch("class weights must be positive")
    labels = np.asarray(labels)
    if task_kind == "binary":
        if predictions.data.ndim != 1:
            raise ShapeMismatch(f"binary task expects one logit per sample, got {predictions.shape}")
        return ad.bce_logits_mean(predictions, labels, class_weight)
    if task_kind == "multilabel":
        if predictions.data.ndim != 2:
            raise ShapeMismatch(f"multi-label task expects (batch, labels) logits, got {predictions.shape}")
        return ad.bce_logits_mean(predictions, labels, class_weight)
    if task_kind == "regression":
        return ad.mae_mean(predictions, labels.astype(predictions.dtype))
    raise UnknownTask(f"unknown task kind {task_kind!r}")
