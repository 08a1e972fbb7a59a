import tracemalloc
from collections import Counter
from datetime import timedelta
from time import perf_counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icuseq import training, windows
from icuseq.errors import EmptyStay, StaticsOverflow
from icuseq.ingest import Corpus, Split, Stay, assign_splits, build_vocabularies, parse_event_lines
from icuseq.synth import GeneratorSpec, generate_lines
from icuseq.types import RESERVED_FEATURE_TEXTS, RESERVED_VALUE_TEXTS, Registry, Vocabularies
from icuseq.windows import maskable, segment_windows, stay_tokens

import reference
from conftest import BASE
from reference import sequence_of

# no feature is known and none has statistics: values stay raw and nothing is maskable
RAW = Vocabularies(RESERVED_FEATURE_TEXTS, RESERVED_VALUE_TEXTS, {})


def registry(minute, value=1.0, variable="hr", duration=0, static=False):
    return Registry("p1", "s1", "chartevents", variable, value,
                    BASE + timedelta(minutes=minute), duration, static)


def stay_of(dynamics, statics=()):
    return Stay("s1", "p1", tuple(dynamics), tuple(statics))


def views(stay, window_minutes=1440, max_seq_len=512, vocab=RAW, **kwargs):
    windows = segment_windows(stay, vocab, window_minutes, max_seq_len, **kwargs)
    return [sequence_of(w, len(stay.statics), j) for j, w in enumerate(windows)]


STATICS = (registry(0, 65.0, "age", static=True), registry(0, "male", "sex", static=True))


class TestSegmentWindows:
    def test_boundary_assignment(self):
        stay = stay_of([registry(0), registry(1439), registry(1441)])
        windows = views(stay)
        assert len(windows) == 2
        # CLS + dynamics; no statics in this stay
        assert len(windows[0].tokens) == 3
        assert len(windows[1].tokens) == 2
        assert windows[1].tokens[1].tau_minutes == 1

    def test_duration_clamped(self):
        stay = stay_of([registry(10, duration=3000)])
        [window] = views(stay)
        token = window.tokens[1]
        assert token.delta_minutes == min(3000, 1440 - 1)

    def test_statics_only(self):
        stay = stay_of([], STATICS)
        [window] = views(stay)
        assert len(window.tokens) == 1 + len(STATICS)
        assert window.tokens[0].is_cls
        assert all(t.is_static for t in window.tokens[1:])

    def test_empty_stay(self):
        with pytest.raises(EmptyStay):
            segment_windows(stay_of([]), RAW, 1440, 512)

    def test_statics_replicated_every_window(self):
        stay = stay_of([registry(5), registry(2000)], STATICS)
        windows = views(stay)
        assert len(windows) == 2
        for window in windows:
            statics = [(t.feature_text, t.value) for t in window.tokens if t.is_static]
            assert sorted(statics) == sorted((r.feature_text, r.value) for r in STATICS)

    def test_empty_middle_window_emitted_and_skippable(self):
        stay = stay_of([registry(0), registry(3000)], STATICS)
        windows = segment_windows(stay, RAW, 1440, 512)
        assert [len(w) - 1 - len(STATICS) for w in windows] == [1, 0, 1]  # dynamics after CLS and statics
        # with unknown statics the empty window holds nothing maskable, and is dropped
        vocab = Vocabularies(RESERVED_FEATURE_TEXTS + ("chartevents: hr",), RESERVED_VALUE_TEXTS, {})
        windows = segment_windows(stay, vocab, 1440, 512)
        assert maskable(windows) == [windows[0], windows[2]]

    def test_chronological_order_stable_ties(self):
        stay = stay_of([registry(0), registry(7, variable="b"), registry(3), registry(7, variable="a")])
        [window] = views(stay)
        dynamics = window.tokens[1:]
        assert [t.tau_minutes for t in dynamics] == [0, 3, 7, 7]
        assert [t.feature_text for t in dynamics[2:]] == ["chartevents: b", "chartevents: a"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6000), min_size=1, max_size=60),
           st.integers(min_value=0, max_value=5999),
           st.sampled_from([60, 720, 1440]))
    def test_partition_property(self, minutes, duration, window_minutes):
        stay = stay_of([registry(m, duration=duration) for m in minutes])
        windows = views(stay, window_minutes)
        total_dynamics = sum(
            sum(1 for t in w.tokens if not t.is_static and not t.is_special) for w in windows
        )
        assert total_dynamics == len(minutes)
        for w in windows:
            for t in w.tokens[1:]:
                assert 0 <= t.tau_minutes < window_minutes
                assert 0 <= t.delta_minutes < window_minutes


@st.composite
def jittered_stays(draw):
    """Multi-day stays with coarse timestamps (so ties occur), long durations and statics."""
    days = draw(st.integers(min_value=1, max_value=5))
    minutes = draw(st.lists(st.integers(min_value=0, max_value=days * 1440 + draw(st.integers(0, 720))),
                            min_size=0, max_size=80))
    coarse = draw(st.sampled_from([1, 15, 240]))
    offset = draw(st.integers(min_value=0, max_value=1439))  # stay need not start at midnight
    dynamics = [registry(offset + m // coarse * coarse, value=float(i), variable=f"v{i % 3}",
                         duration=draw(st.sampled_from([0, 5, 1439, 1440, 5000])))
                for i, m in enumerate(minutes)]
    n_statics = draw(st.integers(min_value=0 if dynamics else 1, max_value=len(STATICS)))
    return stay_of(dynamics, STATICS[:n_statics])


def real_tokens(seq):
    return tuple(t for t in seq.tokens if not t.is_pad)


class TestSegmentationGolden:
    @settings(max_examples=200, deadline=None)
    @given(jittered_stays(), st.sampled_from([60, 720, 1440]), st.sampled_from([3, 8, 30, 512]))
    def test_matches_brute_force(self, stay, window_minutes, max_seq_len):
        got = segment_windows(stay, RAW, window_minutes, max_seq_len)
        want = [reference.truncate_and_pad(w, max_seq_len) for w in reference.segment_windows(stay, window_minutes)]
        assert [w.window_index for w in want] == list(range(len(got)))
        assert [sequence_of(w, len(stay.statics)).tokens for w in got] == [real_tokens(w) for w in want]
        assert [w.real_length for w in got] == [w.real_length for w in want]

    @settings(max_examples=200, deadline=None)
    @given(jittered_stays(), st.sampled_from([60, 720, 1440]), st.integers(0, 6))
    def test_first_windows_only(self, stay, window_minutes, n):
        assert (views(stay, window_minutes, max_windows=n)
                == views(stay, window_minutes)[:n])

    def test_no_token_built_after_the_kept_windows(self, monkeypatch):
        tables = []
        monkeypatch.setattr(windows, "stay_tokens", lambda *args: tables.append(stay_tokens(*args)) or tables[-1])
        stay = stay_of([registry(m) for m in (5, 1500, 1510, 3000)], STATICS)
        [window] = segment_windows(stay, RAW, 1440, 512, max_windows=1)
        assert [len(table) for table in tables] == [1 + len(STATICS) + 1]  # CLS, statics, the dynamic at minute 5
        assert len(window) == len(tables[0])

    def test_prepare_windows_on_multi_day_corpus(self):
        spec = GeneratorSpec(patients=12, features=10, rate=0.01, stay_hours=72.0, stay_jitter_hours=24.0)
        corpus = assign_splits(parse_event_lines(generate_lines(spec, seed=5)), (0.5, 0.25, 0.25), seed=0)
        vocab = build_vocabularies(corpus)
        n_statics = {stay.stay_id: len(stay.statics) for stay in corpus.stays}
        for split in Split:
            got = training.prepare_windows(corpus, split, vocab, 1440, 64)
            want = reference.prepare_windows(corpus.stays_in(split), vocab, 1440, 64)
            assert ([(w.stay_id, sequence_of(w, n_statics[w.stay_id]).tokens) for w in got]
                    == [(w.stay_id, real_tokens(w)) for w in want])
            if split is Split.TRAIN:
                assert max(Counter(w.stay_id for w in got).values()) >= 3


def one_window(statics, dynamics, max_seq_len):
    """The first window of a stay with ``statics`` statics and dynamics at minutes ``dynamics``."""
    stay = stay_of([registry(m, float(m)) for m in dynamics],
                   [registry(0, float(i), f"s{i}", static=True) for i in range(statics)])
    return segment_windows(stay, RAW, 1440, max_seq_len, max_windows=1)[0]


class TestTruncateAndPad:
    def test_keeps_statics_and_latest_dynamics(self):
        window = one_window(9, range(590), 512)
        assert window.real_length == 512
        tokens = sequence_of(window, 9).tokens
        kept_dynamics = [t for t in tokens if not t.is_static and not t.is_special]
        assert len(kept_dynamics) == 512 - 1 - 9
        # the most recent by tau survive, still in chronological order
        assert [t.tau_minutes for t in kept_dynamics] == list(range(590 - 502, 590))
        assert sum(1 for t in tokens if t.is_static) == 9

    def test_pads_short_windows(self, provider):
        from icuseq.embedder import PAD_ID, encode_batch

        short, long = one_window(0, range(99), 512), one_window(0, range(200), 512)
        assert short.real_length == len(short) == 100  # no PAD is built
        batch = encode_batch([short, long], provider)
        assert batch.feature_ids.shape[1] == 208
        assert batch.attention_mask[0].tolist() == [1.0] * 100 + [0.0] * 108
        assert (batch.feature_ids[0, 100:] == PAD_ID).all() and (batch.value_ids[0, 100:] == PAD_ID).all()

    def test_statics_overflow(self):
        with pytest.raises(StaticsOverflow):
            one_window(512, [], 512)

    def test_exact_fit_untouched(self):
        window = one_window(0, range(31), 32)
        assert window.real_length == 32 and window.tau.tolist() == [0, *range(31)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=8))
    def test_idempotent(self, n_dynamics, n_statics):
        assume(n_dynamics + n_statics > 0)
        once = one_window(n_statics, range(n_dynamics), 16)
        # cutting the same stay to the length the window already has changes nothing
        again = one_window(n_statics, range(n_dynamics), once.real_length)
        assert again.records.tobytes() == once.records.tobytes()


def test_normalize_values(small_vocab):
    feature = next(iter(small_vocab.per_feature_stats))
    stats = small_vocab.per_feature_stats[feature]
    source, variable = feature.split(": ")
    stay = Stay("s1", "p1", (Registry("p1", "s1", source, variable, stats.mean + 2 * stats.stddev, BASE),
                             Registry("p1", "s1", "cat", "x", " value ", BASE + timedelta(minutes=1))), ())
    [window] = segment_windows(stay, small_vocab, 1440, 8)
    tokens = sequence_of(window).tokens
    assert tokens[1].value == reference.normalize_value(small_vocab, feature, stats.mean + 2 * stats.stddev)
    assert tokens[1].value == pytest.approx(2.0 if stats.stddev > 0 else 0.0)
    assert tokens[2].value == "value"


class TestColumns:
    def test_built_with_the_stay_sorted_and_stable(self):
        stay = stay_of([registry(7, "b"), registry(3), registry(7, "a"), registry(0, 2.5, duration=9)], STATICS)
        cols = stay.columns
        assert cols.n_statics == 2
        assert cols.offset.tolist() == [0, 0, 0, 3, 7, 7]
        assert cols.duration.tolist() == [0, 0, 9, 0, 0, 0]
        assert cols.registry.tolist() == [0, 1, 5, 3, 2, 4]
        assert [cols.texts[c] if c >= 0 else None for c in cols.value_code] == [None, "male", None, None, "b", "a"]
        assert np.isnan(cols.value[[1, 4, 5]]).all() and cols.value[[0, 2, 3]].tolist() == [65.0, 2.5, 1.0]
        assert [cols.texts[c] for c in cols.feature] == ["chartevents: age", "chartevents: sex"] + ["chartevents: hr"] * 4
        assert stay.start == BASE

    @settings(max_examples=100, deadline=None)
    @given(jittered_stays())
    def test_rows_are_the_registries(self, stay):
        cols = stay.columns
        regs = stay.all_registries
        assert sorted(cols.registry.tolist()) == list(range(len(regs)))
        for row, k in enumerate(cols.registry.tolist()):
            r = regs[k]
            assert cols.texts[cols.feature[row]] == r.feature_text
            assert (row < cols.n_statics) == r.is_static
            if not r.is_static:
                assert cols.offset[row] == (r.timestamp - stay.start) // timedelta(minutes=1)
                assert cols.duration[row] == r.duration_minutes


class TestBoundedWindows:
    """A year-long stay at a short window length makes ~10^5 windows; each holds its real tokens, not L."""

    def test_year_long_stay_at_five_minutes(self):
        statics = [registry(0, float(i), f"s{i}", static=True) for i in range(3)]
        stay = stay_of([registry(0), registry(364 * 1440)], statics)
        vocab = Vocabularies(RESERVED_FEATURE_TEXTS + ("chartevents: s0",), RESERVED_VALUE_TEXTS, {})
        corpus = assign_splits(Corpus((stay,)), (1.0, 0.0, 0.0), seed=0)
        tracemalloc.start()
        t0 = perf_counter()
        windows = training.prepare_windows(corpus, Split.TRAIN, vocab, 5, 512)
        seconds = perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(windows) == 364 * 1440 // 5 + 1 == 104833
        assert sum(w.real_length for w in windows) == 4 * 104833 + 2
        assert windows[1].feature.tolist() == windows[0].feature[:4].tolist()
        assert peak < 64 * 2**20, f"prepare_windows peaked at {peak / 2**20:.1f} MiB"
        assert seconds < 10, f"prepare_windows took {seconds:.1f} s"
