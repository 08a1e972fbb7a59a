import hashlib
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq.errors import InvalidSpec
from icuseq.ingest import Stay, parse_event_lines
from icuseq.metrics import auroc
from icuseq.synth import (
    ARCHETYPE_BOOST,
    EVENTS_PER_POSITIVE,
    SIGNAL_VALUE,
    GeneratorSpec,
    feature_definitions,
    generate_lines,
    oracle_cont_target,
    oracle_label,
    oracle_presence,
    read_task_file,
    write_corpus,
    write_task_file,
)
from icuseq.types import Registry

import reference


class TestSpecValidation:
    def test_minimums(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(patients=0, features=10, rate=0.01)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(patients=1, features=1, rate=0.01)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(patients=1, features=5, rate=-0.1)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(patients=1, features=5, rate=0.1, signal_incidence=1.5)

    @pytest.mark.parametrize("field", [dict(patients=2.0), dict(patients=True), dict(features="5"),
                                       dict(rate=float("nan")), dict(stay_hours=float("inf")), dict(rate=[1])])
    def test_ill_typed_or_non_finite_fields(self, field):
        with pytest.raises(InvalidSpec, match=next(iter(field))):
            GeneratorSpec(**{"patients": 1, "features": 5, "rate": 0.1, **field})


# (spec, seed, sha256 of the "\n"-joined lines)
PINNED = [
    (GeneratorSpec(patients=12, features=20, rate=0.01, signal_incidence=0.5, stay_hours=24.0, stay_jitter_hours=6.0,
                   stays_per_patient=2), 3, "c47909dec89a98523463c2269f85cb5759f213042e63fc4763e35361ee655226"),
    (GeneratorSpec(patients=8, features=30, rate=0.005, cat_fraction=0.9, stay_hours=48.0), 4,
     "e8f0ff7d57cb55a9dafd47df39b4a242613c88bff8fe6817b2badc9348299e55"),
    (GeneratorSpec(patients=10, features=5, rate=0.0), 5,
     "160f0bab4ef60df3bcead983dbd5b9a3f8101ad751bbe29cf7d51dfc556ca101"),
]


class TestGeneration:
    def test_deterministic_bytes(self):
        spec = GeneratorSpec(patients=30, features=10, rate=0.01)
        a = "\n".join(generate_lines(spec, seed=5))
        b = "\n".join(generate_lines(spec, seed=5))
        assert a == b
        c = "\n".join(generate_lines(spec, seed=6))
        assert a != c

    @pytest.mark.parametrize("spec, seed, sha256", PINNED, ids=["jittered-durations-signal", "categorical", "statics"])
    def test_pinned_bytes(self, spec, seed, sha256):
        """The corpus bytes of three specs, recorded from the record-by-record ``json.dumps`` writer."""
        assert hashlib.sha256("\n".join(generate_lines(spec, seed)).encode("utf-8")).hexdigest() == sha256

    def test_write_corpus_streams_the_lines(self, tmp_path):
        """The file is ``generate_lines`` plus newlines; writing it never holds the whole file (~2 MB)."""
        spec = GeneratorSpec(patients=20, features=40, rate=0.01)
        path = tmp_path / "events.jsonl"
        tracemalloc.start()
        try:
            write_corpus(str(path), spec, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = path.read_bytes()
        assert data == ("\n".join(generate_lines(spec, seed=1)) + "\n").encode("utf-8")
        assert len(data) > 1.5e6 and peak < len(data)

    def test_parses_cleanly(self):
        spec = GeneratorSpec(patients=25, features=15, rate=0.01, stay_jitter_hours=6.0)
        corpus = parse_event_lines(generate_lines(spec, seed=0))
        assert len(corpus.stays) == 25
        assert all(len(s.statics) == 4 for s in corpus.stays)

    def test_event_count_matches_poisson_oracle(self):
        spec = GeneratorSpec(patients=100, features=10, rate=0.02, signal_incidence=0.1)
        defs = feature_definitions(spec, seed=11)
        # archetype boosts average to 1 over a uniform archetype draw, so the
        # expected dynamic count is patients * minutes * rate * sum(multipliers)
        lam = spec.patients * spec.stay_hours * 60 * spec.rate * sum(d.rate_multiplier for d in defs)
        corpus = parse_event_lines(generate_lines(spec, seed=11))
        injected = sum(oracle_label(s, spec) for s in corpus.stays) * EVENTS_PER_POSITIVE
        observed = sum(len(s.dynamics) for s in corpus.stays) - injected
        assert abs(observed - lam) <= 3 * np.sqrt(lam)

    def test_zero_rate_gives_statics_only(self):
        spec = GeneratorSpec(patients=10, features=5, rate=0.0)
        corpus = parse_event_lines(generate_lines(spec, seed=0))
        assert all(not s.dynamics for s in corpus.stays)
        assert all(len(s.statics) == 4 for s in corpus.stays)

    def test_archetype_boost_expectation_is_one(self):
        spec = GeneratorSpec(patients=1, features=8, rate=0.01)
        other = (spec.n_archetypes - ARCHETYPE_BOOST) / (spec.n_archetypes - 1)
        assert ARCHETYPE_BOOST / spec.n_archetypes + other * (spec.n_archetypes - 1) / spec.n_archetypes \
            == pytest.approx(1.0)

    def test_durations_only_on_duration_sources(self):
        spec = GeneratorSpec(patients=40, features=20, rate=0.01)
        corpus = parse_event_lines(generate_lines(spec, seed=2))
        sources_with_duration = {r.source for s in corpus.stays for r in s.dynamics
                                 if r.duration_minutes > 0}
        assert sources_with_duration <= {"inputevents", "procedureevents"}
        assert sources_with_duration  # some durations were generated


ORACLE_SPEC = GeneratorSpec(patients=300, features=12, rate=0.01, signal_incidence=0.1)


@pytest.fixture(scope="module")
def corpus():
    return parse_event_lines(generate_lines(ORACLE_SPEC, seed=4))


class TestOracles:
    spec = ORACLE_SPEC

    def test_label_rule(self, corpus):
        for stay in corpus.stays:
            signal_in_first = any(
                str(r.value) == SIGNAL_VALUE
                and r.feature_text == self.spec.signal_feature_text
                and (r.timestamp - stay.start).total_seconds() / 60 < self.spec.window_minutes
                for r in stay.dynamics
            )
            assert oracle_label(stay, self.spec) == int(signal_in_first)

    def test_positive_rate_within_three_sigma(self, corpus):
        positives = sum(oracle_label(s, self.spec) for s in corpus.stays)
        n = len(corpus.stays)
        sigma = np.sqrt(n * 0.1 * 0.9)
        assert abs(positives - 0.1 * n) <= 3 * sigma

    def test_presence_oracle_separates(self, corpus):
        labels = np.array([oracle_label(s, self.spec) for s in corpus.stays])
        scores = np.array([oracle_presence(s, self.spec) for s in corpus.stays], dtype=float)
        assert auroc(scores, labels) >= 0.95

    def test_cont_target_shifted_by_label(self, corpus):
        targets = np.array([oracle_cont_target(s, self.spec) for s in corpus.stays])
        labels = np.array([oracle_label(s, self.spec) for s in corpus.stays])
        assert targets[labels == 1].mean() - targets[labels == 0].mean() == pytest.approx(
            self.spec.cont_target_shift, abs=0.5)


@st.composite
def signal_stays(draw):
    """Stays mixing signal, anchor and other events around the first window's end, in any order."""
    spec = ORACLE_SPEC
    window = spec.window_minutes
    kinds = st.sampled_from(["signal", "benign", "anchor", "anchor text", "other"])
    minutes = st.integers(0, 3 * window)

    def registry(kind, minute, static=False):
        ts = datetime(2023, 1, 1) + timedelta(minutes=minute, seconds=draw(st.sampled_from([0, 30])))
        source, variable, value = {
            "signal": ("microbiology", "blood culture", draw(st.sampled_from([SIGNAL_VALUE, f" {SIGNAL_VALUE} "]))),
            "benign": ("microbiology", "blood culture", "no growth"),
            "anchor": ("labevents", "creatinine (serum)", draw(st.floats(-10.0, 10.0, allow_nan=False))),
            "anchor text": ("labevents", "creatinine (serum)", "hemolysed"),
            "other": ("chartevents", "heart rate", SIGNAL_VALUE),
        }[kind]
        return Registry("p", "s", source, variable, value, ts, 0, static)

    dynamics = [registry(draw(kinds), draw(st.sampled_from([0, window - 1, window, window + 1])) if draw(st.booleans())
                         else draw(minutes)) for _ in range(draw(st.integers(0, 25)))]
    statics = [registry(draw(kinds), 0, static=True) for _ in range(draw(st.integers(0 if dynamics else 1, 2)))]
    return Stay("s", "p", tuple(dynamics), tuple(statics))


class TestOraclesFromColumns:
    """The oracles read the stay's columns; they agree with the registry loop in ``reference``."""

    @settings(max_examples=200, deadline=None)
    @given(signal_stays())
    def test_equal_to_the_registry_loop(self, stay):
        assert oracle_presence(stay, ORACLE_SPEC) == reference.oracle_presence(stay, ORACLE_SPEC)
        assert oracle_cont_target(stay, ORACLE_SPEC) == reference.oracle_cont_target(stay, ORACLE_SPEC)

    def test_equal_on_synth_corpora(self):
        spec = GeneratorSpec(patients=60, features=12, rate=0.01, stay_hours=60.0, stay_jitter_hours=24.0,
                             signal_incidence=0.5, window_minutes=720)
        corpus = parse_event_lines(generate_lines(spec, seed=8))
        labels = [oracle_label(s, spec) for s in corpus.stays]
        assert 0 < sum(labels) < len(labels)
        assert labels == [reference.oracle_presence(s, spec) for s in corpus.stays]
        assert ([oracle_cont_target(s, spec) for s in corpus.stays]
                == [reference.oracle_cont_target(s, spec) for s in corpus.stays])


def test_task_file_roundtrip(tmp_path):
    spec = GeneratorSpec(patients=5, features=6, rate=0.01)
    path = str(tmp_path / "task.json")
    write_task_file(path, spec, "binary", seed=9)
    kind, back, seed = read_task_file(path)
    assert kind == "binary"
    assert back == spec
    assert seed == 9


def test_malformed_task_file_is_invalid_spec(tmp_path):
    path = tmp_path / "task.json"
    path.write_text('{"kind": "binary", "generator_spec": ')
    with pytest.raises(InvalidSpec, match="bad task file"):
        read_task_file(str(path))
