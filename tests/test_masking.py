from datetime import timedelta

import numpy as np
import pytest

from icuseq.errors import InvalidSpec, NoEligibleTokens
from icuseq.ingest import Stay
from icuseq.masking import KEEP, MASK, RANDOM, MaskingRates, apply_masking, plan_masking
from icuseq.types import MASK_TEXT, FeatureStats, Registry, Vocabularies
from icuseq.windows import segment_windows

from conftest import BASE, dyn_token, make_window
from reference import Special, cls_token, pad_token, sequence_of, tokens_of

VOCAB = Vocabularies(
    features=("[CLS]", "[PAD]", "[MASK]", "lab: a", "lab: b", "lab: c"),
    categorical_values=("[MASK]", "[UNK]", "high", "low", "normal"),
    per_feature_stats={"lab: a": FeatureStats(0.0, 1.0, 5)},
)


def window(n_cont=4, n_cat=4, pad_to=None):
    tokens = [dyn_token("lab: a", float(i), i) for i in range(n_cont)]
    tokens += [dyn_token("lab: b", ("high", "low", "normal")[i % 3], i) for i in range(n_cat)]
    seq = make_window(tokens)
    if pad_to:
        seq = seq.with_tokens(list(seq.tokens) + [pad_token()] * (pad_to - len(seq.tokens)))
    return tokens_of(seq, VOCAB)


def tokens(cols):
    return sequence_of(cols).tokens


class TestRates:
    @pytest.mark.parametrize("rates", [dict(both=float("nan")), dict(both=-1.0, value_only=1.0, feature_only=1.0),
                                       dict(corrupt_mask=2.0, corrupt_random=-0.5, corrupt_keep=-0.5)])
    def test_a_rate_outside_zero_one_is_rejected(self, rates):
        """Each split sums to 1 with these rates, or NaN compares false: only the range check refuses them."""
        with pytest.raises(InvalidSpec, match="rates must lie in"):
            MaskingRates(**rates)


class TestPlanMasking:
    def test_cls_and_pad_never_selected(self):
        seq = window(pad_to=16)
        rng = np.random.default_rng(0)
        for _ in range(50):
            plan = plan_masking(seq, rng, MaskingRates(select=1.0))
            assert len(plan) == len(seq) == 9 and seq.max_len == 16  # a plan has no PAD slot
            assert not plan.selected[0]

    def test_no_eligible_tokens(self):
        seq = tokens_of(make_window([]).with_tokens([cls_token(), pad_token()]), VOCAB)
        with pytest.raises(NoEligibleTokens):
            plan_masking(seq, np.random.default_rng(0))

    def test_out_of_vocab_features_ineligible(self):
        stay = Stay("s0", "p0", (Registry("p0", "s0", "lab", "unseen", 1.0, BASE),
                                 Registry("p0", "s0", "lab", "a", 1.0, BASE + timedelta(minutes=1))), ())
        [win] = segment_windows(stay, VOCAB, 1440, 8)
        assert (win.feature_id >= 0).tolist() == [False, False, True]
        plan = plan_masking(win, np.random.default_rng(0), MaskingRates(select=1.0))
        assert plan.selected.tolist() == [False, False, True]

    def test_selected_implies_some_slot(self):
        seq = window()
        plan = plan_masking(seq, np.random.default_rng(1), MaskingRates(select=1.0))
        assert np.all(plan.selected == (plan.mask_feature | plan.mask_value))
        assert not (plan.mask_feature[~plan.selected]).any()

    def test_targets_recorded_from_original(self):
        seq = window()
        before = tokens(seq)
        for seed in range(20):
            plan = plan_masking(seq, np.random.default_rng(seed), MaskingRates(select=0.9))
            for i in np.flatnonzero(plan.mask_feature):
                assert plan.feature_target[i] == VOCAB.feature_index(before[i].feature_text)
            for i in np.flatnonzero(plan.mask_value):
                tok = before[i]
                if tok.is_continuous:
                    assert plan.value_is_continuous[i]
                    assert plan.cont_target[i] == pytest.approx(float(tok.value))
                else:
                    assert plan.cat_target[i] == VOCAB.value_index(str(tok.value))

    def test_deterministic_given_seed(self):
        seq = window()
        a = plan_masking(seq, np.random.default_rng(5))
        b = plan_masking(seq, np.random.default_rng(5))
        assert np.array_equal(a.selected, b.selected)
        assert np.array_equal(a.feature_corruption, b.feature_corruption)

    def test_rates_within_three_sigma(self):
        # moderate-size unit check; the acceptance suite runs the 100k version
        seqs = [window(n_cont=20, n_cat=20) for _ in range(200)]
        rng = np.random.default_rng(0)
        n_eligible = n_selected = n_both = 0
        for seq in seqs:
            plan = plan_masking(seq, rng)
            n_eligible += int((seq.feature_id >= 0).sum())
            n_selected += int(plan.selected.sum())
            n_both += int((plan.mask_feature & plan.mask_value).sum())
        sigma = np.sqrt(n_eligible * 0.15 * 0.85)
        assert abs(n_selected - 0.15 * n_eligible) <= 3 * sigma
        sigma_both = np.sqrt(n_selected * 0.25)
        assert abs(n_both - 0.5 * n_selected) <= 3 * sigma_both


class TestApplyMasking:
    def all_keep_plan(self, seq):
        plan = plan_masking(seq, np.random.default_rng(0), MaskingRates(select=1.0))
        plan.feature_corruption[plan.mask_feature] = KEEP
        plan.value_corruption[plan.mask_value] = KEEP
        return plan

    def test_all_keep_is_identity(self):
        seq = window()
        out = apply_masking(seq, self.all_keep_plan(seq), VOCAB, np.random.default_rng(1))
        assert tokens(out) == tokens(seq)

    def test_mask_token_feature_slot(self):
        seq = window()
        plan = plan_masking(seq, np.random.default_rng(0), MaskingRates(select=1.0))
        plan.feature_corruption[plan.mask_feature] = MASK
        plan.value_corruption[plan.mask_value] = KEEP
        out = apply_masking(seq, plan, VOCAB, np.random.default_rng(1))
        for i in np.flatnonzero(plan.mask_feature):
            assert tokens(out)[i].feature_text == MASK_TEXT
            assert tokens(out)[i].value == tokens(seq)[i].value

    def test_mask_token_value_slot(self):
        seq = window()
        plan = plan_masking(seq, np.random.default_rng(2), MaskingRates(select=1.0))
        plan.value_corruption[plan.mask_value] = MASK
        plan.feature_corruption[plan.mask_feature] = KEEP
        out = apply_masking(seq, plan, VOCAB, np.random.default_rng(1))
        for i in np.flatnonzero(plan.mask_value):
            assert tokens(out)[i].value is Special.MASK
            assert not tokens(out)[i].is_continuous

    def test_random_replacements_from_vocab(self):
        seq = window()
        plan = plan_masking(seq, np.random.default_rng(3), MaskingRates(select=1.0))
        plan.feature_corruption[plan.mask_feature] = RANDOM
        plan.value_corruption[plan.mask_value] = RANDOM
        out = apply_masking(seq, plan, VOCAB, np.random.default_rng(4))
        for i in np.flatnonzero(plan.mask_feature):
            assert tokens(out)[i].feature_text in VOCAB.features[3:]
        for i in np.flatnonzero(plan.mask_value):
            tok, orig = tokens(out)[i], tokens(seq)[i]
            if orig.is_continuous:
                assert tok.is_continuous and isinstance(tok.value, float)
            else:
                assert tok.value in VOCAB.categorical_values[2:]

    def test_tau_delta_never_altered(self):
        seq = window()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            plan = plan_masking(seq, rng, MaskingRates(select=0.8))
            out = apply_masking(seq, plan, VOCAB, rng)
            for before, after in zip(tokens(seq), tokens(out)):
                assert before.tau_minutes == after.tau_minutes
                assert before.delta_minutes == after.delta_minutes

    def test_unselected_tokens_bitwise_unchanged(self):
        seq = window()
        rng = np.random.default_rng(9)
        plan = plan_masking(seq, rng)
        out = apply_masking(seq, plan, VOCAB, rng)
        for i, (before, after) in enumerate(zip(tokens(seq), tokens(out))):
            if not plan.selected[i]:
                assert before == after

    def test_seeded_determinism(self):
        seq = window()
        plan = plan_masking(seq, np.random.default_rng(1), MaskingRates(select=1.0))
        a = apply_masking(seq, plan, VOCAB, np.random.default_rng(42))
        b = apply_masking(seq, plan, VOCAB, np.random.default_rng(42))
        assert tokens(a) == tokens(b)

    def test_source_window_is_not_written(self):
        stay = Stay("s0", "p0", tuple(Registry("p0", "s0", "lab", "a", float(i), BASE + timedelta(minutes=i))
                                      for i in range(6)), ())
        [win] = segment_windows(stay, VOCAB, 1440, 8)
        before = win.records.copy()
        plan = plan_masking(win, np.random.default_rng(0), MaskingRates(select=1.0))
        apply_masking(win, plan, VOCAB, np.random.default_rng(1))
        assert win.records.tobytes() == before.tobytes()
