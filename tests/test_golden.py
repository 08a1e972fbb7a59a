"""The columnar pipeline against the per-event object pipeline kept in ``reference``, bit for bit.

Stays are drawn with multi-day spans, jittered and coarse timestamps (so ties
occur), sub-minute seconds, timezone offsets, statics, long durations,
features and values unseen in the train split, categorical values with
surrounding whitespace, and windows short enough to truncate. Both pipelines
segment, plan, corrupt and encode the same stays with the same generators;
plans, corrupted and uncorrupted batches, and the provider's calls must
agree exactly.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq import training
from icuseq.embedder import encode_batch
from icuseq.errors import IcuseqError
from icuseq.ingest import Corpus, Split, Stay, build_vocabularies
from icuseq.masking import MaskingRates, apply_masking, plan_masking
from icuseq.textvec import StubProvider
from icuseq.types import Registry

import reference

FEATURES = [("lab", "a"), ("lab", "b"), ("chart", "c"), ("chart", "constant"), ("vitals", "rare")]
VALUES = ["high", "low", " normal ", "[MASK]", "never in train"]
BASE = datetime(2023, 3, 1, 7, 13)


class RecordingProvider(StubProvider):
    def __init__(self):
        super().__init__(dim=6, seed=1)
        self.calls = []

    def embed_text(self, text):
        self.calls.append(text)
        return super().embed_text(text)


@st.composite
def stays(draw, stay_id, patient_id):
    aware = draw(st.booleans())
    start = BASE.replace(tzinfo=timezone(timedelta(hours=-5))) if aware else BASE
    days = draw(st.integers(1, 4))
    coarse = draw(st.sampled_from([1, 15, 240]))

    def registry(minute, static):
        source, variable = draw(st.sampled_from(FEATURES))
        if variable == "constant":
            value = 7.25
        elif draw(st.booleans()):
            value = draw(st.floats(-50.0, 50.0, allow_nan=False))
        else:
            value = draw(st.sampled_from(VALUES))
        seconds = draw(st.sampled_from([0, 0, 59]))
        ts = start + timedelta(minutes=minute // coarse * coarse, seconds=seconds)
        duration = draw(st.sampled_from([0, 3, 59, 1439, 1440, 9000]))
        return Registry(patient_id, stay_id, source, variable, value, ts, duration, static)

    minutes = draw(st.lists(st.integers(0, days * 1440), min_size=0, max_size=60))
    dynamics = tuple(registry(m, False) for m in minutes)
    statics = tuple(registry(0, True) for _ in range(draw(st.integers(0 if dynamics else 1, 3))))
    return Stay(stay_id, patient_id, dynamics, statics)


@st.composite
def corpora(draw):
    n = draw(st.integers(2, 5))
    stay_list = tuple(draw(stays(f"s{i}", f"p{i}")) for i in range(n))
    # the last stay is never in train, so its features and values can be unseen
    splits = {f"p{i}": Split.TRAIN if i < n - 1 and draw(st.booleans()) else Split.VAL for i in range(n)}
    splits["p0"] = Split.TRAIN
    return Corpus(stay_list, splits)


def assert_batches_equal(got, want):
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and other.shape == value.shape, name
            assert other.tobytes() == value.tobytes(), name
        else:
            assert other == value, name


def assert_plans_equal(got, want):
    """A reference plan covers the padded window, the columnar plan its real tokens; past them nothing is masked."""
    n = len(got)
    assert not (want.selected[n:].any() or want.mask_feature[n:].any() or want.mask_value[n:].any())
    for name, value in vars(want).items():
        other = getattr(got, name)
        assert other.dtype == value.dtype and other.tobytes() == value[:n].tobytes(), name


def run_both(fn_new, fn_ref):
    """Both calls' results, or both calls' error types."""
    try:
        want = fn_ref()
    except IcuseqError as exc:
        with pytest.raises(type(exc)):
            fn_new()
        return None, None
    return fn_new(), want


WINDOWS = st.sampled_from([60, 720, 1440])
LENGTHS = st.sampled_from([4, 8, 12, 30, 64])


class TestPretrainPath:
    @settings(max_examples=60, deadline=None)
    @given(corpora(), WINDOWS, LENGTHS, st.integers(1, 4), st.integers(0, 2**16))
    def test_plans_corruption_and_batches(self, corpus, window_minutes, max_seq_len, batch_size, seed):
        vocab = build_vocabularies(corpus)
        rates = MaskingRates(select=0.5, corrupt_mask=0.4, corrupt_random=0.4, corrupt_keep=0.2)
        for split in (Split.TRAIN, Split.VAL):
            got, want = run_both(
                lambda: training.prepare_windows(corpus, split, vocab, window_minutes, max_seq_len),
                lambda: reference.prepare_windows(corpus.stays_in(split), vocab, window_minutes, max_seq_len))
            if want is None:
                continue
            assert [w.real_length for w in got] == [w.real_length for w in want]
            for start in range(0, len(want), batch_size):
                new, ref = got[start:start + batch_size], want[start:start + batch_size]
                new_plans, ref_plans, new_masked, ref_masked = [], [], [], []
                for j, (w, r) in enumerate(zip(new, ref)):
                    rng_new, rng_ref = np.random.default_rng([seed, start, j]), np.random.default_rng([seed, start, j])
                    new_plans.append(plan_masking(w, rng_new, rates))
                    ref_plans.append(reference.plan_masking(r, vocab, rng_ref, rates))
                    assert_plans_equal(new_plans[-1], ref_plans[-1])
                    new_masked.append(apply_masking(w, new_plans[-1], vocab, rng_new))
                    ref_masked.append(reference.apply_masking(r, ref_plans[-1], vocab, rng_ref))
                    assert rng_new.random() == rng_ref.random()  # the same number of draws
                providers = RecordingProvider(), RecordingProvider()
                batches = run_both(lambda: encode_batch(new_masked, providers[0]),
                                   lambda: reference.encode_batch(ref_masked, providers[1]))
                if batches[1] is not None:
                    assert_batches_equal(*batches)
                assert providers[0].calls == providers[1].calls
                providers = RecordingProvider(), RecordingProvider()
                assert_batches_equal(encode_batch(new, providers[0], dtype=np.float64),
                                     reference.encode_batch(ref, providers[1], dtype=np.float64))
                assert providers[0].calls == providers[1].calls


class TestSamplePath:
    @settings(max_examples=60, deadline=None)
    @given(corpora(), WINDOWS, LENGTHS, st.integers(1, 3))
    def test_sample_windows_and_slot_batches(self, corpus, window_minutes, max_seq_len, n_windows):
        vocab = build_vocabularies(corpus)
        task = training.Task("binary", lambda stay: len(stay.dynamics) % 2, n_windows=n_windows)
        stays = corpus.stays_in(Split.VAL)
        got, want = run_both(
            lambda: training.build_samples(corpus, Split.VAL, task, vocab, window_minutes, max_seq_len),
            lambda: [reference.sample_windows(s, vocab, window_minutes, max_seq_len, n_windows) for s in stays])
        if want is None:
            return
        assert [len(s.windows) for s in got] == [len(w) for w in want]
        for slot in range(n_windows):
            new = [s.windows[min(slot, len(s.windows) - 1)] for s in got]
            ref = [w[min(slot, len(w) - 1)] for w in want]
            providers = RecordingProvider(), RecordingProvider()
            assert_batches_equal(encode_batch(new, providers[0]), reference.encode_batch(ref, providers[1]))
            assert providers[0].calls == providers[1].calls
