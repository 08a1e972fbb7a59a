import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icuseq import autodiff as ad
from icuseq.errors import NoMaskedSlots, ShapeMismatch, UnknownTask
from icuseq.masking import MaskingPlan
from icuseq.objective import combine_losses, finetune_loss, mlvm_loss, value_term_coefficients


def make_plan(length, feature_targets=(), cat_targets=(), cont_targets=()):
    """Plan with explicit masked slots; targets given as {position: value}."""
    feature_targets, cat_targets, cont_targets = map(dict, (feature_targets, cat_targets, cont_targets))
    selected = np.zeros(length, dtype=bool)
    mask_feature = np.zeros(length, dtype=bool)
    mask_value = np.zeros(length, dtype=bool)
    f_target = np.full(length, -1, dtype=np.int64)
    c_target = np.full(length, -1, dtype=np.int64)
    x_target = np.zeros(length, dtype=np.float32)
    is_cont = np.zeros(length, dtype=bool)
    for pos, target in feature_targets.items():
        selected[pos] = mask_feature[pos] = True
        f_target[pos] = target
    for pos, target in cat_targets.items():
        selected[pos] = mask_value[pos] = True
        c_target[pos] = target
    for pos, target in cont_targets.items():
        selected[pos] = mask_value[pos] = is_cont[pos] = True
        x_target[pos] = target
    codes = np.zeros(length, dtype=np.int8)
    return MaskingPlan(selected, mask_feature, mask_value, codes.copy(), codes.copy(),
                       f_target, is_cont, c_target, x_target)


def outputs(b, length, n_feat, n_val, feature=None, cat=None, cont=None, dtype=np.float64):
    rng = np.random.default_rng(0)
    f = feature if feature is not None else rng.standard_normal((b, length, n_feat))
    c = cat if cat is not None else rng.standard_normal((b, length, n_val))
    x = cont if cont is not None else rng.standard_normal((b, length))
    return (ad.parameter(np.asarray(f, dtype=dtype), "f"),
            ad.parameter(np.asarray(c, dtype=dtype), "c"),
            ad.parameter(np.asarray(x, dtype=dtype), "x"))


class TestCombination:
    def test_worked_example(self):
        # two categorical slots at loss 1.0, two continuous at 0.5, alpha 3:
        # 0.7 + (1.0*2 + 3*0.5*2) / 4 = 1.95
        total = combine_losses(l_f=0.7, l_cat=1.0, n_cat=2, l_cont=0.5, n_cont=2,
                               alpha=3.0, beta=1.0)
        assert total == pytest.approx(1.95, abs=1e-12)

    def test_zero_counts_excluded(self):
        assert combine_losses(0.5, 0.0, 0, 2.0, 3, alpha=3.0, beta=1.0) == pytest.approx(0.5 + 3 * 2.0)
        assert combine_losses(0.5, 2.0, 3, 0.0, 0, alpha=3.0, beta=1.0) == pytest.approx(0.5 + 2.0)
        assert combine_losses(0.5, 0.0, 0, 0.0, 0) == pytest.approx(0.5)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_monotone_in_alpha(self, alpha, bump):
        low = combine_losses(1.0, 1.0, 2, 0.7, 3, alpha=alpha, beta=1.0)
        high = combine_losses(1.0, 1.0, 2, 0.7, 3, alpha=alpha + bump, beta=1.0)
        assert high > low

    @given(st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.integers(1, 10), st.integers(1, 10),
           st.floats(0.5, 4.0))
    def test_value_term_between_min_and_max(self, l_cat, l_cont, n_cat, n_cont, alpha):
        c_cat, c_cont = value_term_coefficients(n_cat, n_cont, alpha, 1.0)
        term = c_cat * l_cat + c_cont * l_cont
        lo = min(l_cat, alpha * l_cont)
        hi = max(l_cat, alpha * l_cont)
        assert lo - 1e-12 <= term <= hi + 1e-12


class TestMlvmLoss:
    def test_perfect_predictions_zero_loss(self):
        plan = make_plan(4, feature_targets={1: 2}, cat_targets={2: 1}, cont_targets={3: 0.25})
        feature = np.zeros((1, 4, 5))
        feature[0, 1] = 1000.0 * np.eye(5)[2]
        cat = np.zeros((1, 4, 3))
        cat[0, 2] = 1000.0 * np.eye(3)[1]
        cont = np.zeros((1, 4))
        cont[0, 3] = 0.25
        out = outputs(1, 4, 5, 3, feature, cat, cont)
        breakdown = mlvm_loss(out, [plan])
        assert breakdown.l_f == 0.0
        assert breakdown.l_cat == 0.0
        assert breakdown.l_cont == 0.0
        assert breakdown.l_total == 0.0

    def test_uniform_feature_logits(self):
        plan = make_plan(3, feature_targets={1: 0})
        out = outputs(1, 3, 4, 3, feature=np.zeros((1, 3, 4)))
        breakdown = mlvm_loss(out, [plan])
        assert breakdown.l_f == pytest.approx(np.log(4.0))

    def test_slot_counts(self):
        plans = [make_plan(4, feature_targets={1: 0}, cat_targets={2: 1}),
                 make_plan(4, cont_targets={1: 0.5, 3: -1.0})]
        breakdown = mlvm_loss(outputs(2, 4, 5, 3), plans)
        assert breakdown.n_cat == 1
        assert breakdown.n_cont == 2
        assert breakdown.n_feature_slots == 1

    def test_no_masked_slots(self):
        with pytest.raises(NoMaskedSlots):
            mlvm_loss(outputs(1, 4, 5, 3), [make_plan(4)])

    def test_zero_count_value_terms_no_nan(self):
        plan = make_plan(4, feature_targets={1: 0})
        breakdown = mlvm_loss(outputs(1, 4, 5, 3), [plan])
        assert breakdown.l_cat == 0.0 and breakdown.l_cont == 0.0
        assert np.isfinite(breakdown.l_total)
        assert breakdown.l_total == pytest.approx(breakdown.l_f)

    def test_total_matches_plain_combination(self):
        plans = [make_plan(6, feature_targets={1: 0, 2: 3}, cat_targets={3: 2},
                           cont_targets={4: 1.5, 5: -0.5})]
        breakdown = mlvm_loss(outputs(1, 6, 5, 4), plans, alpha=3.0, beta=1.0)
        assert breakdown.l_total == pytest.approx(
            combine_losses(breakdown.l_f, breakdown.l_cat, breakdown.n_cat,
                           breakdown.l_cont, breakdown.n_cont, 3.0, 1.0))

    def test_gradients_match_central_differences(self):
        plans = [make_plan(5, feature_targets={1: 0}, cat_targets={2: 1},
                           cont_targets={3: 0.75})]
        out = outputs(1, 5, 4, 3)

        def loss():
            return mlvm_loss(out, plans, alpha=3.0, beta=1.0).node

        node = loss()
        ad.backward(node)
        eps = 1e-6
        for tensor in out:
            analytic = tensor.grad
            flat = tensor.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = loss().item()
                flat[i] = orig - eps
                f_minus = loss().item()
                flat[i] = orig
                numeric[i] = (f_plus - f_minus) / (2 * eps)
            np.testing.assert_allclose(analytic.reshape(-1), numeric, atol=1e-6, rtol=1e-6)

    def test_longer_plans_cut_to_the_outputs(self):
        targets = dict(feature_targets={1: 0}, cat_targets={2: 1}, cont_targets={3: 0.5})
        out = outputs(1, 4, 5, 3)
        cut = mlvm_loss(out, [make_plan(10, **targets)])
        exact = mlvm_loss(out, [make_plan(4, **targets)])
        assert (cut.l_total, cut.n_cat, cut.n_cont) == (exact.l_total, exact.n_cat, exact.n_cont)

    @pytest.mark.parametrize("plan", [
        make_plan(3, feature_targets={1: 0}),        # shorter than the outputs
        make_plan(6, feature_targets={4: 0}),        # masks a feature past the outputs
        make_plan(6, cont_targets={1: 0.5, 5: 1.0}),  # masks a value past the outputs
    ])
    def test_plan_length_mismatch_rejected(self, plan):
        with pytest.raises(ShapeMismatch):
            mlvm_loss(outputs(1, 4, 5, 3), [plan])


class TestFinetuneLoss:
    def test_binary_half_probability(self):
        loss = finetune_loss("binary", ad.constant(np.zeros(1)), np.array([1.0]), 1.0)
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_regression_floor(self):
        preds = ad.constant(np.array([1.0, -2.0, 0.5]))
        assert finetune_loss("regression", preds, np.array([1.0, -2.0, 0.5])).item() == 0.0

    def test_multilabel_floor_at_negative_infinity(self):
        preds = ad.constant(np.full((2, 25), -np.inf))
        labels = np.zeros((2, 25))
        assert finetune_loss("multilabel", preds, labels).item() == 0.0

    def test_multilabel_mean_of_per_label_bce(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 3))
        labels = (rng.random((6, 3)) < 0.4).astype(float)
        total = finetune_loss("multilabel", ad.constant(logits), labels).item()
        per_label = [
            finetune_loss("binary", ad.constant(logits[:, j]), labels[:, j]).item()
            for j in range(3)
        ]
        assert total == pytest.approx(np.mean(per_label))

    def test_class_weight_scales_positives(self):
        logits = ad.constant(np.zeros(2))
        labels = np.array([1.0, 0.0])
        unweighted = finetune_loss("binary", logits, labels, 1.0).item()
        weighted = finetune_loss("binary", logits, labels, 3.0).item()
        assert weighted == pytest.approx((3.0 * np.log(2) + np.log(2)) / 2)
        assert weighted > unweighted

    def test_unknown_task(self):
        with pytest.raises(UnknownTask):
            finetune_loss("ranking", ad.constant(np.zeros(1)), np.array([1.0]))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ShapeMismatch):
            finetune_loss("binary", ad.constant(np.zeros(1)), np.array([1.0]), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            finetune_loss("binary", ad.constant(np.zeros((2, 2))), np.zeros((2, 2)))
