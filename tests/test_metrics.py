import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq.errors import DegenerateLabels, NonFiniteValue, ShapeMismatch
from icuseq.metrics import MetricReport, auprc, auroc, mae


def auroc_pairwise_oracle(scores, labels):
    """Brute force over every (positive, negative) pair, ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auprc_sweep_oracle(scores, labels):
    """Step-curve area recomputed by explicit counting at each distinct threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for threshold in thresholds:
        taken = scores >= threshold
        tp = int((labels[taken] == 1).sum())
        precision = tp / int(taken.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def auroc_midrank_loop(scores, labels):
    """Mann-Whitney U from midranks assigned by walking each tie run of the sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc_tie_group_loop(scores, labels):
    """Step-curve area accumulated one tie group at a time, highest score first."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    n_pos = int(labels.sum())
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int(sorted_labels[i : j + 1].sum())
        fp += (j - i + 1) - int(sorted_labels[i : j + 1].sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return float(area)


def random_instance(rng, max_points=50, tie_prone=False):
    n = int(rng.integers(4, max_points + 1))
    while True:
        labels = (rng.random(n) < 0.4).astype(int)
        if 0 < labels.sum() < n:
            break
    if tie_prone:
        scores = rng.integers(0, 5, size=n).astype(float)  # heavy ties
    else:
        scores = rng.standard_normal(n)
    return scores, labels


class TestAuroc:
    def test_worked_example(self):
        assert auroc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            scores, labels = random_instance(rng, tie_prone=(trial % 2 == 0))
            assert auroc(scores, labels) == pytest.approx(
                auroc_pairwise_oracle(scores, labels), abs=1e-9)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auroc([0.5, 0.4], [1, 1])
        with pytest.raises(DegenerateLabels):
            auroc([0.5, 0.4], [0, 2])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_instance(rng)
        base = auroc(scores, labels)
        assert auroc(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)
        assert auroc(np.tanh(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_negation_identity_without_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores, labels = random_instance(rng)
            assert auroc(scores, labels) + auroc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


class TestAuprc:
    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            scores, labels = random_instance(rng, tie_prone=(trial % 2 == 0))
            assert auprc(scores, labels) == pytest.approx(
                auprc_sweep_oracle(scores, labels), abs=1e-9)

    def test_all_positives_ranked_last(self):
        # single positive with the lowest score: precision at full recall is 1/n
        assert auprc([0.9, 0.8, 0.1], [0, 0, 1]) == pytest.approx(1.0 / 3.0)


binary_instances = st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, -3.0]) | st.floats(-1e6, 1e6),
             min_size=n, max_size=n),
    st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < len(y))))


class TestAgainstLoops:
    """The vectorised metrics equal the tie-run loops they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(binary_instances)
    def test_auroc(self, instance):
        scores, labels = instance
        assert auroc(scores, labels) == pytest.approx(auroc_midrank_loop(scores, labels), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(binary_instances)
    def test_auprc(self, instance):
        scores, labels = instance
        assert auprc(scores, labels) == pytest.approx(auprc_tie_group_loop(scores, labels), abs=1e-12)

    def test_non_finite_scores_rejected(self):
        for metric in (auroc, auprc):
            with pytest.raises(NonFiniteValue):
                metric([0.5, float("nan"), 0.1], [1, 0, 1])


class TestMae:
    def test_floor(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_value(self):
        assert mae([1.0, 3.0], [2.0, 1.0]) == pytest.approx(1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mae([1.0], [1.0, 2.0])


class TestMetricReport:
    def test_mean_and_stddev(self):
        report = MetricReport(("auroc",), tuple({"auroc": v} for v in (0.8, 0.9, 1.0)))
        assert report.mean("auroc") == pytest.approx(0.9)
        assert report.stddev("auroc") == pytest.approx(np.std([0.8, 0.9, 1.0]))
        assert "auroc" in report.summary()
