"""Shared fixtures: small corpora, vocabularies, providers, tiny models."""

from datetime import datetime

import numpy as np
import pytest

from icuseq.encoder import EncoderConfig
from icuseq.ingest import assign_splits, build_vocabularies, parse_event_lines
from icuseq.synth import GeneratorSpec, generate_lines
from icuseq.textvec import StubProvider
from icuseq.training import Model, ModelConfig

from reference import Token, WindowSequence, cls_token, tokens_of, truncate_and_pad

BASE = datetime(2023, 1, 1, 0, 0)


@pytest.fixture(scope="session")
def small_corpus():
    spec = GeneratorSpec(patients=40, features=12, rate=0.01, stay_hours=30.0, stay_jitter_hours=6.0)
    lines = generate_lines(spec, seed=3)
    corpus = assign_splits(parse_event_lines(lines), (0.7, 0.15, 0.15), seed=0)
    return corpus


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    return build_vocabularies(small_corpus)


@pytest.fixture(scope="session")
def provider():
    return StubProvider(dim=16, seed=0)


@pytest.fixture()
def tiny_model(small_vocab):
    config = ModelConfig(
        encoder=EncoderConfig(layers=2, hidden=16, heads=2, ffn_dim=8, max_seq_len=32, dropout=0.1),
        d_pre=16, window_minutes=1440,
        feature_vocab=small_vocab.feature_size, value_vocab=small_vocab.value_size,
    )
    return Model.build(config, seed=0)


def make_window(tokens, stay_id="s0", index=0, start=BASE, label=None):
    return WindowSequence(stay_id, index, start, (cls_token(), *tokens), label=label)


def dyn_token(feature, value, tau, delta=0, static=False):
    return Token(feature, value, tau, delta,
                 is_continuous=not isinstance(value, str), is_static=static)


def window_of(tokens, length, vocab=None):
    """Token columns of CLS plus ``tokens``, cut to ``length``."""
    return tokens_of(truncate_and_pad(make_window(tokens), length), vocab)
