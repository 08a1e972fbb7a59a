from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq import training
from icuseq.errors import EmptyStay, StaticsOverflow
from icuseq.ingest import Split, Stay, assign_splits, build_vocabularies, parse_event_lines
from icuseq.synth import GeneratorSpec, generate_lines
from icuseq.types import Registry, WindowSequence, cls_token, token_from_registry
from icuseq.windows import normalize_values, segment_windows, truncate_and_pad

from conftest import BASE, dyn_token, make_window


def registry(minute, value=1.0, variable="hr", duration=0, static=False):
    return Registry("p1", "s1", "chartevents", variable, value,
                    BASE + timedelta(minutes=minute), duration, static)


def stay_of(dynamics, statics=()):
    return Stay("s1", "p1", tuple(dynamics), tuple(statics))


STATICS = (registry(0, 65.0, "age", static=True), registry(0, "male", "sex", static=True))


class TestSegmentWindows:
    def test_boundary_assignment(self):
        stay = stay_of([registry(0), registry(1439), registry(1441)])
        windows = segment_windows(stay, 1440)
        assert len(windows) == 2
        # CLS + dynamics; no statics in this stay
        assert len(windows[0].tokens) == 3
        assert len(windows[1].tokens) == 2
        assert windows[1].tokens[1].tau_minutes == 1

    def test_duration_clamped(self):
        stay = stay_of([registry(10, duration=3000)])
        [window] = segment_windows(stay, 1440)
        token = window.tokens[1]
        assert token.delta_minutes == min(3000, 1440 - 1)

    def test_statics_only(self):
        stay = stay_of([], STATICS)
        [window] = segment_windows(stay, 1440)
        assert len(window.tokens) == 1 + len(STATICS)
        assert window.tokens[0].is_cls
        assert all(t.is_static for t in window.tokens[1:])

    def test_empty_stay(self):
        with pytest.raises(EmptyStay):
            segment_windows(stay_of([]), 1440)

    def test_statics_replicated_every_window(self):
        stay = stay_of([registry(5), registry(2000)], STATICS)
        windows = segment_windows(stay, 1440)
        assert len(windows) == 2
        for window in windows:
            statics = [(t.feature_text, t.value) for t in window.tokens if t.is_static]
            assert sorted(statics) == sorted((r.feature_text, r.value) for r in STATICS)

    def test_empty_middle_window_emitted_and_skippable(self):
        stay = stay_of([registry(0), registry(3000)], STATICS)
        assert len(segment_windows(stay, 1440)) == 3
        skipped = segment_windows(stay, 1440, emit_empty=False)
        assert [w.window_index for w in skipped] == [0, 2]

    def test_chronological_order_stable_ties(self):
        stay = stay_of([registry(0), registry(7, variable="b"), registry(3), registry(7, variable="a")])
        [window] = segment_windows(stay, 1440)
        dynamics = window.tokens[1:]
        assert [t.tau_minutes for t in dynamics] == [0, 3, 7, 7]
        assert [t.feature_text for t in dynamics[2:]] == ["chartevents: b", "chartevents: a"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6000), min_size=1, max_size=60),
           st.integers(min_value=0, max_value=5999),
           st.sampled_from([60, 720, 1440]))
    def test_partition_property(self, minutes, duration, window_minutes):
        stay = stay_of([registry(m, duration=duration) for m in minutes])
        windows = segment_windows(stay, window_minutes)
        total_dynamics = sum(
            sum(1 for t in w.tokens if not t.is_static and not t.is_special) for w in windows
        )
        assert total_dynamics == len(minutes)
        for w in windows:
            for t in w.tokens[1:]:
                assert 0 <= t.tau_minutes < window_minutes
                assert 0 <= t.delta_minutes < window_minutes


def reference_segment_windows(stay, window_minutes=1440, emit_empty=True):
    """Brute force: for each window, filter every dynamic by the window's offset range."""
    pool = stay.dynamics or stay.statics
    start = min(r.timestamp for r in pool)

    def offset(ts):
        return int((ts - start).total_seconds() // 60)

    statics = [token_from_registry(r, 0, 0) for r in stay.statics]
    last = max((offset(r.timestamp) for r in stay.dynamics), default=0)
    out = []
    for j in range(last // window_minutes + 1):
        lo, hi = j * window_minutes, (j + 1) * window_minutes
        dynamics = [token_from_registry(r, offset(r.timestamp) - lo, min(r.duration_minutes, window_minutes - 1))
                    for r in stay.dynamics if lo <= offset(r.timestamp) < hi]
        dynamics.sort(key=lambda t: t.tau_minutes)
        if not dynamics and j > 0 and not emit_empty:
            continue
        window_start = start + timedelta(minutes=lo)
        out.append(WindowSequence(stay.stay_id, j, window_start, (cls_token(), *statics, *dynamics)))
    return out


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


class TestSegmentationGolden:
    @settings(max_examples=200, deadline=None)
    @given(jittered_stays(), st.sampled_from([60, 720, 1440]), st.booleans())
    def test_matches_brute_force(self, stay, window_minutes, emit_empty):
        assert (segment_windows(stay, window_minutes, emit_empty)
                == reference_segment_windows(stay, window_minutes, emit_empty))

    @settings(max_examples=200, deadline=None)
    @given(jittered_stays(), st.sampled_from([60, 720, 1440]), st.booleans(), st.integers(0, 6))
    def test_first_windows_only(self, stay, window_minutes, emit_empty, n):
        assert (segment_windows(stay, window_minutes, emit_empty, max_windows=n)
                == segment_windows(stay, window_minutes, emit_empty)[:n])

    def test_no_token_built_after_the_kept_windows(self, monkeypatch):
        stay = stay_of([registry(m) for m in (5, 1500, 1510, 3000)], STATICS)
        built = []
        monkeypatch.setattr("icuseq.windows.token_from_registry",
                            lambda r, tau, delta: built.append(r) or token_from_registry(r, tau, delta))
        segment_windows(stay, 1440, max_windows=1)
        assert [r.timestamp for r in built if not r.is_static] == [BASE + timedelta(minutes=5)]

    def test_prepare_windows_on_multi_day_corpus(self, monkeypatch):
        spec = GeneratorSpec(patients=12, features=10, rate=0.01, stay_hours=72.0, stay_jitter_hours=24.0)
        corpus = assign_splits(parse_event_lines(generate_lines(spec, seed=5)), (0.5, 0.25, 0.25), seed=0)
        vocab = build_vocabularies(corpus)
        got = {split: training.prepare_windows(corpus, split, vocab, 1440, 64) for split in Split}
        monkeypatch.setattr(training, "segment_windows", reference_segment_windows)
        want = {split: training.prepare_windows(corpus, split, vocab, 1440, 64) for split in Split}
        assert got == want
        assert max(w.window_index for w in got[Split.TRAIN]) >= 2


class TestTruncateAndPad:
    def test_keeps_statics_and_latest_dynamics(self):
        statics = [dyn_token(f"s: v{i}", float(i), 0, static=True) for i in range(9)]
        dynamics = [dyn_token("c: hr", float(i), i) for i in range(590)]
        seq = make_window(statics + dynamics)
        out = truncate_and_pad(seq, 512)
        assert len(out.tokens) == 512
        kept_dynamics = [t for t in out.tokens if not t.is_static and not t.is_special]
        assert len(kept_dynamics) == 512 - 1 - 9
        # the most recent by tau survive, still in chronological order
        assert [t.tau_minutes for t in kept_dynamics] == list(range(590 - 502, 590))
        assert sum(1 for t in out.tokens if t.is_static) == 9

    def test_pads_short_windows(self):
        seq = make_window([dyn_token("c: hr", 1.0, i) for i in range(99)])
        out = truncate_and_pad(seq, 512)
        assert len(out.tokens) == 512
        assert out.real_length == 100

    def test_statics_overflow(self):
        statics = [dyn_token(f"s: v{i}", float(i), 0, static=True) for i in range(513)]
        with pytest.raises(StaticsOverflow):
            truncate_and_pad(make_window(statics), 512)

    def test_exact_fit_untouched(self):
        seq = make_window([dyn_token("c: hr", 1.0, i) for i in range(31)])
        out = truncate_and_pad(seq, 32)
        assert out.tokens == seq.tokens

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=8))
    def test_idempotent(self, n_dynamics, n_statics):
        statics = [dyn_token(f"s: v{i}", float(i), 0, static=True) for i in range(n_statics)]
        dynamics = [dyn_token("c: hr", float(i), i) for i in range(n_dynamics)]
        once = truncate_and_pad(make_window(statics + dynamics), 16)
        twice = truncate_and_pad(once, 16)
        assert once.tokens == twice.tokens


def test_normalize_values(small_vocab):
    feature = next(iter(small_vocab.per_feature_stats))
    stats = small_vocab.per_feature_stats[feature]
    raw = make_window([dyn_token(feature, stats.mean + 2 * stats.stddev, 5),
                       dyn_token("cat: x", "value", 6)])
    out = normalize_values(raw, small_vocab)
    assert out.tokens[1].value == pytest.approx(2.0 if stats.stddev > 0 else 0.0)
    assert out.tokens[2].value == "value"
