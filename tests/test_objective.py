import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq import autodiff as ad
from icuseq.errors import NoMaskedSlots, ShapeMismatch, UnknownTask
from icuseq.masking import MaskingPlan
from icuseq.objective import combine_losses, finetune_loss, masked_slots, mlvm_loss, value_term_coefficients


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


def outputs(slots, length, n_feat, n_val, feature=None, cat=None, cont=None, dtype=np.float64):
    """The heads' outputs at ``slots.rows``, cut from full-row (B, L, ·) arrays that are random where not given."""
    rng = np.random.default_rng(0)
    b = slots.rows.shape[0]
    full = (feature if feature is not None else rng.standard_normal((b, length, n_feat)),
            cat if cat is not None else rng.standard_normal((b, length, n_val)),
            cont if cont is not None else rng.standard_normal((b, length)))
    return tuple(ad.parameter(np.asarray(a, dtype=dtype)[np.arange(b)[:, None], slots.rows], name)
                 for a, name in zip(full, "fcx"))


@st.composite
def random_plans(draw):
    """One to three plans of a common length, each position masking nothing, a feature, a value, or both."""
    length = draw(st.integers(1, 10))
    plans = []
    for _ in range(draw(st.integers(1, 3))):
        slots = {"feature_targets": {}, "cat_targets": {}, "cont_targets": {}}
        for pos in range(length):
            kind = draw(st.sampled_from(["", "f", "c", "x", "fc", "fx"]))
            if "f" in kind:
                slots["feature_targets"][pos] = draw(st.integers(0, 4))
            if "c" in kind:
                slots["cat_targets"][pos] = draw(st.integers(0, 2))
            if "x" in kind:
                slots["cont_targets"][pos] = draw(st.floats(-3.0, 3.0, width=32))
        plans.append(make_plan(length, **slots))
    return plans


def full_row_loss(plans, feature, cat, cont, alpha, beta):
    """The MLVM loss straight from the plans and (B, L, ·) outputs: (l_f, l_cat, l_cont, n_cat, n_cont, l_total)."""
    def cross_entropy(logits, targets):
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-log_p[np.arange(len(targets)), targets].mean()) if len(targets) else 0.0

    stacked = {name: np.stack([getattr(p, name) for p in plans]) for name in
               ("mask_feature", "mask_value", "value_is_continuous", "feature_target", "cat_target", "cont_target")}
    feat = stacked["mask_feature"]
    cat_slot = stacked["mask_value"] & ~stacked["value_is_continuous"]
    cont_slot = stacked["mask_value"] & stacked["value_is_continuous"]
    l_f = cross_entropy(feature[feat], stacked["feature_target"][feat])
    l_cat = cross_entropy(cat[cat_slot], stacked["cat_target"][cat_slot])
    diff = np.abs(cont[cont_slot] - stacked["cont_target"][cont_slot])
    l_cont = float(diff.mean()) if diff.size else 0.0
    n_cat, n_cont = int(cat_slot.sum()), int(cont_slot.sum())
    return l_f, l_cat, l_cont, n_cat, n_cont, combine_losses(l_f, l_cat, n_cat, l_cont, n_cont, alpha, beta)


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


class TestMaskedSlots:
    @given(random_plans())
    def test_every_masked_position_once_in_order(self, plans):
        slots = masked_slots(plans)
        fields = ("rows", "feature_target", "cat_target", "cont", "cont_target")
        assert {getattr(slots, f).shape for f in fields} == {(len(plans), slots.rows.shape[1])}
        for b, plan in enumerate(plans):
            positions = np.flatnonzero(plan.mask_feature | plan.mask_value)
            n = len(positions)
            np.testing.assert_array_equal(slots.rows[b, :n], positions)
            np.testing.assert_array_equal(slots.feature_target[b, :n], plan.feature_target[positions])
            np.testing.assert_array_equal(slots.cat_target[b, :n], plan.cat_target[positions])
            np.testing.assert_array_equal(slots.cont[b, :n], plan.value_is_continuous[positions])
            np.testing.assert_array_equal(slots.cont_target[b, :n], plan.cont_target[positions])
            # a padding entry masks no slot
            assert not slots.rows[b, n:].any() and not slots.cont[b, n:].any() and not slots.cont_target[b, n:].any()
            assert (slots.feature_target[b, n:] == -1).all() and (slots.cat_target[b, n:] == -1).all()
        assert slots.rows.shape[1] == max(int((p.mask_feature | p.mask_value).sum()) for p in plans)

    @settings(max_examples=60)
    @given(random_plans(), st.integers(0, 2**16), st.floats(0.5, 4.0), st.floats(0.5, 2.0))
    def test_loss_equals_full_row_loss(self, plans, seed, alpha, beta):
        slots = masked_slots(plans)
        rng = np.random.default_rng(seed)
        b, length = len(plans), len(plans[0])
        full = rng.standard_normal((b, length, 5)), rng.standard_normal((b, length, 3)), rng.standard_normal((b, length))
        want = full_row_loss(plans, *full, alpha, beta)
        if slots.rows.shape[1] == 0:
            with pytest.raises(NoMaskedSlots):
                mlvm_loss(outputs(slots, length, 5, 3, *full), slots, alpha, beta)
            return
        got = mlvm_loss(outputs(slots, length, 5, 3, *full), slots, alpha, beta)
        assert (got.n_cat, got.n_cont) == want[3:5]
        assert got.n_feature_slots == sum(int(p.mask_feature.sum()) for p in plans)
        for value, expected in zip((got.l_f, got.l_cat, got.l_cont, got.l_total), want[:3] + want[5:]):
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestMlvmLoss:
    def test_perfect_predictions_zero_loss(self):
        slots = masked_slots([make_plan(4, feature_targets={1: 2}, cat_targets={2: 1}, cont_targets={3: 0.25})])
        feature = np.zeros((1, 4, 5))
        feature[0, 1] = 1000.0 * np.eye(5)[2]
        cat = np.zeros((1, 4, 3))
        cat[0, 2] = 1000.0 * np.eye(3)[1]
        cont = np.zeros((1, 4))
        cont[0, 3] = 0.25
        breakdown = mlvm_loss(outputs(slots, 4, 5, 3, feature, cat, cont), slots)
        assert breakdown.l_f == 0.0
        assert breakdown.l_cat == 0.0
        assert breakdown.l_cont == 0.0
        assert breakdown.l_total == 0.0

    def test_uniform_feature_logits(self):
        slots = masked_slots([make_plan(3, feature_targets={1: 0})])
        breakdown = mlvm_loss(outputs(slots, 3, 4, 3, feature=np.zeros((1, 3, 4))), slots)
        assert breakdown.l_f == pytest.approx(np.log(4.0))

    def test_slot_counts(self):
        slots = masked_slots([make_plan(4, feature_targets={1: 0}, cat_targets={2: 1}),
                              make_plan(4, cont_targets={1: 0.5, 3: -1.0})])
        breakdown = mlvm_loss(outputs(slots, 4, 5, 3), slots)
        assert breakdown.n_cat == 1
        assert breakdown.n_cont == 2
        assert breakdown.n_feature_slots == 1

    def test_no_masked_slots(self):
        slots = masked_slots([make_plan(4)])
        assert slots.rows.shape == (1, 0)
        with pytest.raises(NoMaskedSlots):
            mlvm_loss(outputs(slots, 4, 5, 3), slots)

    def test_zero_count_value_terms_no_nan(self):
        slots = masked_slots([make_plan(4, feature_targets={1: 0})])
        breakdown = mlvm_loss(outputs(slots, 4, 5, 3), slots)
        assert breakdown.l_cat == 0.0 and breakdown.l_cont == 0.0
        assert np.isfinite(breakdown.l_total)
        assert breakdown.l_total == pytest.approx(breakdown.l_f)

    def test_total_matches_plain_combination(self):
        slots = masked_slots([make_plan(6, feature_targets={1: 0, 2: 3}, cat_targets={3: 2},
                                        cont_targets={4: 1.5, 5: -0.5})])
        breakdown = mlvm_loss(outputs(slots, 6, 5, 4), slots, alpha=3.0, beta=1.0)
        assert breakdown.l_total == pytest.approx(
            combine_losses(breakdown.l_f, breakdown.l_cat, breakdown.n_cat,
                           breakdown.l_cont, breakdown.n_cont, 3.0, 1.0))

    def test_gradients_match_central_differences(self):
        slots = masked_slots([make_plan(5, feature_targets={1: 0}, cat_targets={2: 1},
                                        cont_targets={3: 0.75})])
        out = outputs(slots, 5, 4, 3)

        def loss():
            return mlvm_loss(out, slots, alpha=3.0, beta=1.0).node

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
        """A plan covering more positions than its batch keeps gives the same slots and loss."""
        targets = dict(feature_targets={1: 0}, cat_targets={2: 1}, cont_targets={3: 0.5})
        long, exact = masked_slots([make_plan(10, **targets)]), masked_slots([make_plan(4, **targets)])
        for name in ("rows", "feature_target", "cat_target", "cont", "cont_target"):
            np.testing.assert_array_equal(getattr(long, name), getattr(exact, name))
        cut = mlvm_loss(outputs(long, 4, 5, 3), long)
        want = mlvm_loss(outputs(exact, 4, 5, 3), exact)
        assert (cut.l_total, cut.n_cat, cut.n_cont) == (want.l_total, want.n_cat, want.n_cont)

    @pytest.mark.parametrize("plan", [
        make_plan(3, feature_targets={1: 0}),        # one slot
        make_plan(6, feature_targets={4: 0}),        # one slot, past the outputs' length
        make_plan(6, cont_targets={1: 0.5, 5: 1.0}),  # two slots
    ])
    def test_outputs_not_at_the_slots_rejected(self, plan):
        """Full-row (1, 4, ·) outputs are refused: they are not one row per slot entry."""
        full = tuple(ad.parameter(np.zeros(shape), "o") for shape in ((1, 4, 5), (1, 4, 3), (1, 4)))
        with pytest.raises(ShapeMismatch):
            mlvm_loss(full, masked_slots([plan]))


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
