"""Multi-task pre-training loss and the fine-tuning losses."""

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
    alpha: float
    beta: float
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


def masked_rows(plans: Sequence[MaskingPlan], length: int) -> tuple[np.ndarray, np.ndarray]:
    """The (B, m) positions below ``length`` where each plan masks a feature or a value, and which are real.

    Each row lists its plan's masked positions in ascending order and is
    padded with position 0 to the batch's largest count; ``valid`` is False
    on the padding. ``mlvm_loss`` reads outputs and targets at these rows.
    """
    positions = [np.flatnonzero((p.mask_feature[:length] | p.mask_value[:length])) for p in plans]
    m = max((len(x) for x in positions), default=0)
    rows = np.zeros((len(plans), m), dtype=np.intp)
    valid = np.zeros((len(plans), m), dtype=bool)
    for i, x in enumerate(positions):
        rows[i, :len(x)] = x
        valid[i, :len(x)] = True
    return rows, valid


def mlvm_loss(outputs: tuple[Tensor, Tensor, Tensor], plans: Sequence[MaskingPlan],
              alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA,
              rows: Optional[np.ndarray] = None, valid: Optional[np.ndarray] = None) -> LossBreakdown:
    """Reconstruction loss over every masked slot, keep-corrupted ones included.

    Feature and categorical slots use mean cross-entropy, continuous slots use
    mean absolute error, and the two value losses are blended by slot counts
    with the continuous side scaled by ``alpha``. Plans may be longer than the
    outputs (a batch cut to its real tokens) as long as they mask nothing past
    the output length; the rest is cut off.

    ``rows=None`` means the outputs are (B, L, ·), one row per position.
    Otherwise output row ``j`` of batch entry ``b`` is position
    ``rows[b, j]``, as ``masked_rows`` builds them, and entries where
    ``valid`` is False are ignored; the valid rows must hold every masked
    slot once. Slots are taken in (b, position) order either way, so both
    forms give the same loss for the same states.
    """
    feature_logits, cat_logits, cont_pred = outputs
    b, length = feature_logits.shape[:2]
    if len(plans) != b:
        raise ShapeMismatch(f"{b} output rows but {len(plans)} plans")
    if rows is None:
        if any(len(p) < length or (p.mask_feature[length:] | p.mask_value[length:]).any() for p in plans):
            raise ShapeMismatch("plan length disagrees with output length")

        def stacked(field: str) -> np.ndarray:
            return np.stack([getattr(p, field)[:length] for p in plans])
    else:
        rows = np.asarray(rows)
        valid = np.ones(rows.shape, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
        if rows.shape != (b, length) or valid.shape != rows.shape:
            raise ShapeMismatch(f"rows {rows.shape} and valid {valid.shape} vs outputs {(b, length)}")
        if rows.size and (rows.min() < 0 or any(len(p) <= rows[i].max() for i, p in enumerate(plans))):
            raise ShapeMismatch("rows reach past their plan")

        def stacked(field: str) -> np.ndarray:
            return np.stack([getattr(p, field)[r] for p, r in zip(plans, rows)])

    mask_feature = stacked("mask_feature")
    mask_value = stacked("mask_value")
    value_cont = stacked("value_is_continuous")
    if rows is not None:
        mask_feature &= valid
        mask_value &= valid
        if mask_feature.sum() + mask_value.sum() != sum(int(p.mask_feature.sum() + p.mask_value.sum()) for p in plans):
            raise ShapeMismatch("the valid rows do not hold every masked slot once")

    feat_slots = np.flatnonzero(mask_feature.reshape(-1))
    cat_slots = np.flatnonzero((mask_value & ~value_cont).reshape(-1))
    cont_slots = np.flatnonzero((mask_value & value_cont).reshape(-1))
    n_feat, n_cat, n_cont = len(feat_slots), len(cat_slots), len(cont_slots)
    if n_feat == 0 and n_cat == 0 and n_cont == 0:
        raise NoMaskedSlots("batch contains no masked slots")

    dtype = feature_logits.dtype
    zero = ad.constant(np.zeros((), dtype=dtype))

    if n_feat:
        targets = stacked("feature_target").reshape(-1)[feat_slots]
        picked = ad.gather_rows(ad.reshape(feature_logits, (b * length, feature_logits.shape[2])), feat_slots)
        l_f_node = ad.cross_entropy_mean(picked, targets)
    else:
        l_f_node = zero

    if n_cat:
        targets = stacked("cat_target").reshape(-1)[cat_slots]
        picked = ad.gather_rows(ad.reshape(cat_logits, (b * length, cat_logits.shape[2])), cat_slots)
        l_cat_node = ad.cross_entropy_mean(picked, targets)
    else:
        l_cat_node = zero

    if n_cont:
        targets = stacked("cont_target").reshape(-1)[cont_slots]
        preds = ad.gather_rows(ad.reshape(cont_pred, (b * length, 1)), cont_slots)
        l_cont_node = ad.mae_mean(ad.squeeze_last(preds), targets)
    else:
        l_cont_node = zero

    c_cat, c_cont = value_term_coefficients(n_cat, n_cont, alpha, beta)
    total = ad.add(l_f_node, ad.add(ad.scale(l_cat_node, c_cat), ad.scale(l_cont_node, c_cont)))

    return LossBreakdown(
        l_f=l_f_node.item(), l_cat=l_cat_node.item(), l_cont=l_cont_node.item(),
        n_cat=n_cat, n_cont=n_cont, l_total=total.item(),
        alpha=alpha, beta=beta, n_feature_slots=n_feat, node=total,
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
