"""Ranking and error metrics for task evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, NonFiniteValue, ShapeMismatch


def _check_binary(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise ShapeMismatch(f"scores {scores.shape} vs labels {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise NonFiniteValue("scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise DegenerateLabels("labels must be 0/1")
    if labels.min() == labels.max():
        raise DegenerateLabels("both classes must be present")
    return scores, labels.astype(bool)


def auroc(scores, labels) -> float:
    """P(random positive outscores random negative), ties counted one half.

    Computed from midranks, which is the Mann-Whitney U statistic normalized
    by the number of (positive, negative) pairs.
    """
    scores, labels = _check_binary(scores, labels)
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0  # 1-based, shared by a tie group
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = midranks[group][labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Area under the precision-recall step curve swept by descending score.

    Tied scores enter as one threshold group, so the curve is well defined
    regardless of input order.
    """
    scores, labels = _check_binary(scores, labels)
    _, group = np.unique(-scores, return_inverse=True)  # threshold groups, highest score first
    tp = np.cumsum(np.bincount(group, weights=labels))
    taken = np.cumsum(np.bincount(group))
    recall = tp / labels.sum()
    return float(np.sum(np.diff(recall, prepend=0.0) * (tp / taken)))


def mae(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ShapeMismatch(f"predictions {predictions.shape} vs targets {targets.shape}")
    return float(np.mean(np.abs(predictions - targets)))


@dataclass(frozen=True)
class MetricReport:
    """Per-fold metric values with their mean and standard deviation."""

    metric_names: tuple[str, ...]
    per_fold: tuple[dict[str, float], ...]

    def values(self, name: str) -> list[float]:
        return [fold[name] for fold in self.per_fold]

    def mean(self, name: str) -> float:
        return float(np.mean(self.values(name)))

    def stddev(self, name: str) -> float:
        return float(np.std(self.values(name)))

    def summary(self) -> str:
        lines = []
        for name in self.metric_names:
            folds = ", ".join(f"{v:.4f}" for v in self.values(name))
            lines.append(f"{name}: mean {self.mean(name):.4f} +/- {self.stddev(name):.4f} (folds: {folds})")
        return "\n".join(lines)
