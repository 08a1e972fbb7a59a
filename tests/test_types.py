from datetime import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icuseq.errors import InvalidRegistry
from icuseq.ingest import Stay
from icuseq.types import FeatureStats, Registry, Vocabularies, feature_text, validate_registry
from icuseq.windows import segment_windows

from reference import Token, WindowSequence, cls_token, pad_token

TS = datetime(2023, 1, 1, 12, 0)


def make_registry(**overrides):
    base = dict(patient_id="p1", stay_id="s1", source="chartevents", variable="Heart Rate",
                value=80.0, timestamp=TS, duration_minutes=0)
    base.update(overrides)
    return Registry(**base)


class TestValidateRegistry:
    def test_valid_numeric(self):
        r = make_registry()
        assert validate_registry(r) is r

    def test_empty_source(self):
        with pytest.raises(InvalidRegistry, match="empty source"):
            validate_registry(make_registry(source=""))

    def test_whitespace_source(self):
        with pytest.raises(InvalidRegistry, match="empty source"):
            validate_registry(make_registry(source="   "))

    def test_negative_duration(self):
        with pytest.raises(InvalidRegistry, match="negative duration"):
            validate_registry(make_registry(duration_minutes=-5))

    def test_boolean_value_rejected(self):
        with pytest.raises(InvalidRegistry):
            validate_registry(make_registry(value=True))

    def test_nan_value_rejected(self):
        with pytest.raises(InvalidRegistry):
            validate_registry(make_registry(value=float("nan")))

    def test_categorical_value(self):
        r = make_registry(value="elevated")
        assert validate_registry(r) is r
        assert not r.is_continuous


class TestFeatureText:
    def test_plain(self):
        assert feature_text("chartevents", "Heart Rate") == "chartevents: heart rate"

    def test_lab(self):
        assert feature_text("labevents", "Creatinine") == "labevents: creatinine"

    def test_normalization(self):
        assert feature_text("LabEvents ", " Creatinine  (serum)") == "labevents: creatinine (serum)"

    def test_empty_raises(self):
        with pytest.raises(InvalidRegistry):
            feature_text("", "Heart Rate")

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_deterministic(self, source, variable):
        try:
            first = feature_text(source, variable)
        except InvalidRegistry:
            return
        assert first == feature_text(source, variable)

    _word = st.text(alphabet="abcdefgh ()0123456789", min_size=1).filter(lambda s: s.strip())

    @given(_word, _word, _word, _word)
    def test_injective_without_colons(self, s1, v1, s2, v2):
        """Pairs that differ after normalization map to different texts."""
        def norm(x):
            return " ".join(x.lower().split())

        if (norm(s1), norm(v1)) != (norm(s2), norm(v2)):
            assert feature_text(s1, v1) != feature_text(s2, v2)


class TestWindowSequence:
    """The reference window the golden tests compare against keeps CLS first and PAD last."""

    def test_must_start_with_cls(self):
        with pytest.raises(InvalidRegistry):
            WindowSequence("s1", 0, TS, (pad_token(),))

    def test_single_cls(self):
        with pytest.raises(InvalidRegistry):
            WindowSequence("s1", 0, TS, (cls_token(), cls_token()))

    def test_pad_suffix_contiguous(self):
        real = Token("a: b", 1.0, 0, 0, is_continuous=True)
        with pytest.raises(InvalidRegistry):
            WindowSequence("s1", 0, TS, (cls_token(), pad_token(), real))

    def test_real_length(self):
        real = Token("a: b", 1.0, 0, 0, is_continuous=True)
        seq = WindowSequence("s1", 0, TS, (cls_token(), real, pad_token()))
        assert seq.real_length == 2


class TestVocabularies:
    def make(self):
        return Vocabularies(
            features=("[CLS]", "[PAD]", "[MASK]", "lab: a", "lab: b"),
            categorical_values=("[MASK]", "[UNK]", "high", "low"),
            per_feature_stats={"lab: a": FeatureStats(2.0, 0.5, 10),
                               "lab: b": FeatureStats(5.0, 0.0, 2)},
        )

    def test_reserved_prefix_enforced(self):
        with pytest.raises(InvalidRegistry):
            Vocabularies(features=("lab: a",), categorical_values=("[MASK]", "[UNK]"),
                         per_feature_stats={})

    def test_sizes(self):
        v = self.make()
        assert v.feature_size == 5
        assert v.value_size == 4

    def test_lookups(self):
        v = self.make()
        assert v.feature_index("lab: a") == 3
        assert v.feature_index("lab: zz") is None
        assert v.value_index("high") == 2
        assert v.value_index("never seen") == v.unk_value_index

    def test_normalize(self):
        """A window's continuous values are z-scored with the vocabulary's train-split statistics."""
        values = {"a": 3.0, "b": 6.0, "zz": 7.0}
        stay = Stay("s1", "p1", tuple(make_registry(source="lab", variable=k, value=x) for k, x in values.items()), ())
        [window] = segment_windows(stay, self.make(), 1440, 8)
        # lab: a is z-scored; lab: b has zero stddev and is centred only; lab: zz is unknown and passes through
        assert window.scale[1:].tolist() == [2.0, 1.0, 7.0]
