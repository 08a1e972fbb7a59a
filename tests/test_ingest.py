import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq.errors import EmptyTrainSplit, InvalidRatios, ParseError
from icuseq.ingest import (
    MAX_DURATION_MINUTES,
    MAX_STAY_SPAN,
    Split,
    Stay,
    assign_splits,
    build_vocabularies,
    parse_event_lines,
    parse_events,
)
from icuseq.types import UNK_TEXT, Registry


def line(patient="p1", stay="s1", source="chartevents", variable="Heart Rate",
         value=80, timestamp="2023-01-01T00:05", **extra):
    record = dict(patient_id=patient, stay_id=stay, source=source, variable=variable,
                  value=value, timestamp=timestamp)
    record.update(extra)
    return json.dumps(record)


class TestParseEvents:
    def test_three_valid_lines(self):
        lines = [line(value=80), line(value=81, timestamp="2023-01-01T00:10"),
                 line(value="sinus rhythm", variable="Rhythm")]
        corpus = parse_event_lines(lines)
        assert corpus.n_registries == 3
        assert len(corpus.stays) == 1

    def test_missing_timestamp_reports_line(self):
        lines = [line(), json.dumps({"patient_id": "p1", "stay_id": "s1", "source": "a",
                                     "variable": "b", "value": 1})]
        with pytest.raises(ParseError, match="line 2: missing timestamp"):
            parse_event_lines(lines)

    def test_empty_file(self):
        corpus = parse_event_lines([])
        assert corpus.n_registries == 0
        assert corpus.stays == ()

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_event_lines(["{not json"])

    def test_boolean_value_rejected(self):
        with pytest.raises(ParseError, match="number or quoted text"):
            parse_event_lines([line(value=True)])

    def test_stay_owned_by_one_patient(self):
        with pytest.raises(ParseError, match="two patients"):
            parse_event_lines([line(patient="p1"), line(patient="p2")])

    def test_sub_minute_timestamps_floored(self):
        corpus = parse_event_lines([line(timestamp="2023-01-01T00:05:45")])
        assert corpus.stays[0].dynamics[0].timestamp == datetime(2023, 1, 1, 0, 5)

    def test_static_flag(self):
        corpus = parse_event_lines([line(static=True, variable="age", value=70)])
        stay = corpus.stays[0]
        assert len(stay.statics) == 1 and not stay.dynamics

    def test_mixed_naive_and_offset_timestamps_rejected(self):
        lines = [line(timestamp="2023-01-01T00:05"), line(timestamp="2023-01-01T00:10+02:00")]
        with pytest.raises(ParseError, match="line 2: .*timezone-naive and offset"):
            parse_event_lines(lines)
        # one convention per stay is enough; stays may differ from each other
        corpus = parse_event_lines([line(stay="s1"), line(stay="s2", timestamp="2023-01-01T00:05+02:00")])
        assert len(corpus.stays) == 2

    def test_integer_too_large_for_float(self):
        with pytest.raises(ParseError, match="line 1: numeric value too large"):
            parse_event_lines([line(value=10**400)])

    def test_negative_duration_rejected(self):
        with pytest.raises(ParseError, match="negative duration"):
            parse_event_lines([line(duration_minutes=-1)])

    @pytest.mark.parametrize("duration", [MAX_DURATION_MINUTES + 1, 2**63, 10**30])
    def test_duration_past_the_bound_names_its_line(self, duration):
        with pytest.raises(ParseError, match=f"line 2: duration_minutes {duration} exceeds"):
            parse_event_lines([line(), line(duration_minutes=duration)])

    def test_duration_bound_is_inclusive(self):
        corpus = parse_event_lines([line(duration_minutes=MAX_DURATION_MINUTES)])
        assert corpus.stays[0].columns.duration.tolist() == [MAX_DURATION_MINUTES]

    def test_stay_spanning_decades_fails_at_its_line(self):
        def lines():
            yield line(timestamp="1990-01-01T00:00")
            yield line(stay="s2", timestamp="1990-01-01T00:00")
            yield line(timestamp="2020-01-01T00:00")
            raise AssertionError("read past the line that stretched the stay")

        with pytest.raises(ParseError, match="line 3: stay 's1' spans 10957 days"):
            parse_event_lines(lines())

    def test_stay_span_bound_is_inclusive_and_order_free(self):
        last = (datetime(2023, 1, 1) + MAX_STAY_SPAN).isoformat()
        corpus = parse_event_lines([line(timestamp=last), line(timestamp="2023-01-01T00:00"),
                                    line(static=True, variable="age", timestamp="1950-01-01T00:00")])
        assert len(corpus.stays[0].dynamics) == 2
        with pytest.raises(ParseError, match="line 3: stay 's1'"):
            parse_event_lines([line(timestamp=last), line(timestamp="2023-01-01T00:00"),
                               line(timestamp="2022-12-31T23:59")])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(line() + "\n" + line(value=90, timestamp="2023-01-01T01:00") + "\n")
        assert parse_events(str(path)).n_registries == 2


OFFSETS = (timedelta(0), timedelta(hours=-11), timedelta(hours=5, minutes=30, seconds=15, microseconds=500_000))


class TestColumns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.datetimes(datetime(2023, 1, 1), datetime(2024, 1, 1)), st.sampled_from(OFFSETS)),
                    min_size=1, max_size=12), st.booleans())
    def test_offsets_are_floored_minutes_since_start(self, times, aware):
        """Each row's offset is ``(timestamp - start) // 1 minute``, seconds and odd UTC offsets included."""
        dynamics = tuple(Registry("p", "s", "lab", "x", 1.0, t.replace(tzinfo=timezone(z)) if aware else t)
                         for t, z in times)
        stay = Stay("s", "p", dynamics, ())
        cols = stay.columns
        assert cols.offset.tolist() == [(dynamics[i].timestamp - stay.start) // timedelta(minutes=1)
                                        for i in cols.registry.tolist()]
        assert np.all(np.diff(cols.offset) >= 0)


def multi_patient_corpus(n_patients, stays_per_patient=1):
    lines = []
    for p in range(n_patients):
        for s in range(stays_per_patient):
            lines.append(line(patient=f"p{p}", stay=f"s{p}-{s}", value=float(p)))
    return parse_event_lines(lines)


class TestAssignSplits:
    def test_exact_70_15_15(self):
        corpus = assign_splits(multi_patient_corpus(100), (0.7, 0.15, 0.15), seed=1)
        counts = {split: 0 for split in Split}
        for split in corpus.splits.values():
            counts[split] += 1
        assert counts == {Split.TRAIN: 70, Split.VAL: 15, Split.TEST: 15}

    def test_single_patient_goes_to_train(self):
        corpus = assign_splits(multi_patient_corpus(1), (0.7, 0.15, 0.15), seed=0)
        assert list(corpus.splits.values()) == [Split.TRAIN]

    def test_deterministic(self):
        a = assign_splits(multi_patient_corpus(50), (0.7, 0.15, 0.15), seed=7)
        b = assign_splits(multi_patient_corpus(50), (0.7, 0.15, 0.15), seed=7)
        assert a.splits == b.splits

    def test_seed_changes_assignment(self):
        a = assign_splits(multi_patient_corpus(200), (0.7, 0.15, 0.15), seed=0)
        b = assign_splits(multi_patient_corpus(200), (0.7, 0.15, 0.15), seed=1)
        assert a.splits != b.splits

    def test_patient_level(self):
        corpus = assign_splits(multi_patient_corpus(30, stays_per_patient=3), (0.5, 0.25, 0.25), seed=2)
        for split in Split:
            assert all(corpus.splits[s.patient_id] is split for s in corpus.stays_in(split))
        assert sum(len(corpus.stays_in(split)) for split in Split) == len(corpus.stays)
        # no patient in two splits by construction of the map; check coverage
        assert len(corpus.splits) == 30

    def test_bad_ratios(self):
        corpus = multi_patient_corpus(10)
        with pytest.raises(InvalidRatios):
            assign_splits(corpus, (0.5, 0.3, 0.3), seed=0)
        with pytest.raises(InvalidRatios):
            assign_splits(corpus, (-0.1, 0.6, 0.5), seed=0)

    @pytest.mark.parametrize("ratios", [(float("nan"), 0.5, 0.5), (0.5, float("inf"), 0.5),
                                        (float("nan"),) * 3])
    def test_non_finite_ratios(self, ratios):
        with pytest.raises(InvalidRatios, match="finite"):
            assign_splits(multi_patient_corpus(10), ratios, seed=0)


class TestBuildVocabularies:
    def build(self, lines, seed=0, ratios=(1.0, 0.0, 0.0)):
        corpus = assign_splits(parse_event_lines(lines), ratios, seed)
        return corpus, build_vocabularies(corpus)

    def test_counts(self):
        lines = [
            line(variable="A", value=1.0),
            line(variable="B", value="x", timestamp="2023-01-01T00:06"),
            line(variable="B", value="y", timestamp="2023-01-01T00:07"),
            line(variable="B", value="z", timestamp="2023-01-01T00:08"),
        ]
        _, vocab = self.build(lines)
        assert vocab.feature_size == 3 + 2  # reserved + {A, B}
        assert vocab.value_size == 2 + 3  # reserved + {x, y, z}

    def test_constant_feature_stats(self):
        lines = [line(value=5.0), line(value=5.0, timestamp="2023-01-01T00:06")]
        _, vocab = self.build(lines)
        stats = vocab.per_feature_stats["chartevents: heart rate"]
        assert stats.mean == pytest.approx(5.0)
        assert stats.stddev == pytest.approx(0.0)
        assert stats.count == 2

    def test_unseen_categorical_maps_to_unk(self):
        # train split sees only "x"; the held-out value resolves to [UNK]
        lines = [line(patient="p0", stay="s0", value="x"),
                 line(patient="p1", stay="s1", value="held out")]
        corpus = assign_splits(parse_event_lines(lines), (0.5, 0.5, 0.0), seed=0)
        train_values = {
            str(r.value)
            for stay in corpus.stays_in(Split.TRAIN)
            for r in stay.dynamics
        }
        vocab = build_vocabularies(corpus)
        held_out = ({"x", "held out"} - train_values).pop()
        assert vocab.value_index(held_out) == vocab.unk_value_index
        assert vocab.categorical_values[vocab.unk_value_index] == UNK_TEXT

    def test_vocab_only_from_train(self):
        lines = [line(patient="p0", stay="s0", variable="A", value=1.0),
                 line(patient="p1", stay="s1", variable="OnlyInVal", value=2.0)]
        corpus = assign_splits(parse_event_lines(lines), (0.5, 0.5, 0.0), seed=0)
        vocab = build_vocabularies(corpus)
        val_stays = corpus.stays_in(Split.VAL)
        assert len(val_stays) == 1
        val_feature = val_stays[0].dynamics[0].feature_text
        assert vocab.feature_index(val_feature) is None

    def test_empty_train_split(self):
        corpus = assign_splits(parse_event_lines([line()]), (0.0, 1.0, 0.0), seed=0)
        with pytest.raises(EmptyTrainSplit):
            build_vocabularies(corpus)


def test_split_fractions_on_synthetic(small_corpus):
    counts = {split: 0 for split in Split}
    for split in small_corpus.splits.values():
        counts[split] += 1
    n = sum(counts.values())
    assert counts[Split.TRAIN] == round(0.7 * n)
    assert np.isclose(counts[Split.VAL] + counts[Split.TEST], n - counts[Split.TRAIN])
