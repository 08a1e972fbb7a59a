"""Mutation fuzz of the file readers: each mutant is read into a valid result or an ``IcuseqError``.

Each reader gets a valid file and up to three mutations: a field replaced by
null, a boolean, a huge integer, NaN or a list; a byte XOR-ed with a random
value; a byte deleted. Field replacements apply first, to the parsed record,
then the byte mutations to the encoded file. A result that comes back must
be usable: a corpus goes through splitting, vocabularies and windowing, a
task file yields a well-typed spec and seed, a cache a table of equal-width
float32 vectors. ``icuseq ingest`` reading a mutated ``--config`` exits 0,
or 1 with exactly one ``error:`` line and no traceback.
"""

import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icuseq import cli
from icuseq.errors import IcuseqError
from icuseq.ingest import Corpus, Split, assign_splits, build_vocabularies, parse_event_lines, parse_events
from icuseq.synth import GeneratorSpec, generate_lines, read_task_file, write_task_file
from icuseq.textvec import CACHE_MAGIC, FileCacheProvider, read_cache, write_cache
from icuseq.training import prepare_windows

REPLACEMENTS = (None, True, False, 10**30, -10**30, 2**63, math.nan, [1, 2])
CONFIG_TOKENS = ("null", "true", "1" + "0" * 30, "-1" + "0" * 30, "nan", "[1, 2]")
HEADER_VALUES = (0, 1, 2**31, 2**32 - 1)
SPEC = GeneratorSpec(patients=2, features=5, rate=0.01, stay_hours=4.0)
EVENT_LINES = generate_lines(SPEC, seed=1)
MAX = 10**6  # positions and choices are taken modulo what is there


def field(n_choices):
    return st.tuples(st.just("field"), st.integers(0, MAX), st.integers(0, MAX), st.integers(0, n_choices - 1))


byte = st.tuples(st.sampled_from(["flip", "delete"]), st.integers(0, MAX), st.integers(1, 255))


def mutations(n_choices=len(REPLACEMENTS)):
    return st.lists(st.one_of(field(n_choices), byte), min_size=1, max_size=3)


def apply_bytes(data: bytes, muts) -> bytes:
    out = bytearray(data)
    for kind, pos, xor, *_ in muts:
        if not out:
            break
        if kind == "flip":
            out[pos % len(out)] ^= xor
        elif kind == "delete":
            del out[pos % len(out)]
    return bytes(out)


def replace_fields(records: list, paths, muts) -> None:
    """Replace, in place, the field that each field mutation picks from ``paths(record)``."""
    for _, which, key, value in (m for m in muts if m[0] == "field"):
        record = records[which % len(records)]
        path = paths(record)
        *outer, last = path[key % len(path)]
        for part in outer:
            record = record[part]
        record[last] = REPLACEMENTS[value]


def read_or_domain_error(read):
    """``read()``'s result, or None when it raised an ``IcuseqError``."""
    try:
        return read()
    except IcuseqError:
        return None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# ---------------------------------------------------------------------------
# event lines


def mutated_event_lines(muts) -> list[str]:
    records = [json.loads(line) for line in EVENT_LINES]
    replace_fields(records, lambda r: [(k,) for k in sorted(r)] + [("duration_minutes",), ("static",)], muts)
    return [json.dumps(r) for r in records]


def duration_field(value) -> tuple:
    """The field mutation that sets the duration of the first dynamic event line to ``value``."""
    for i, line in enumerate(EVENT_LINES):
        record = json.loads(line)
        if not record.get("static"):
            keys = sorted(record) + ["duration_minutes", "static"]
            return "field", i, keys.index("duration_minutes"), REPLACEMENTS.index(value)
    raise AssertionError("no dynamic event line")


def check_corpus(corpus) -> None:
    """A parsed corpus splits, builds vocabularies and windows, or fails with a domain error."""
    assert isinstance(corpus, Corpus)
    split = read_or_domain_error(lambda: assign_splits(corpus, (1.0, 0.0, 0.0), 0))
    vocab = None if split is None else read_or_domain_error(lambda: build_vocabularies(split))
    if vocab is not None:
        read_or_domain_error(lambda: prepare_windows(split, Split.TRAIN, vocab, 1440, 32))


class TestEventLines:
    @settings(max_examples=150, deadline=None)
    @given(mutations())
    @example([duration_field(10**30)]).via("a duration of 10**30 minutes")
    @example([duration_field(2**63)]).via("a duration past the int64 range")
    def test_field_mutations(self, muts):
        corpus = read_or_domain_error(lambda: parse_event_lines(mutated_event_lines(muts)))
        if corpus is not None:
            check_corpus(corpus)

    @settings(max_examples=150, deadline=None)
    @given(mutations())
    def test_byte_mutations_of_the_file(self, fuzz_dir, muts):
        path = fuzz_dir / "events.jsonl"
        path.write_bytes(apply_bytes("\n".join(mutated_event_lines(muts)).encode("utf-8"), muts))
        corpus = read_or_domain_error(lambda: parse_events(str(path)))
        if corpus is not None:
            check_corpus(corpus)


# ---------------------------------------------------------------------------
# task files


@pytest.fixture(scope="module")
def task_payload(fuzz_dir):
    path = fuzz_dir / "task-base.json"
    write_task_file(str(path), SPEC, "binary", 4)
    return json.loads(path.read_text(encoding="utf-8"))


class TestTaskFile:
    @settings(max_examples=150, deadline=None)
    @given(mutations())
    def test_mutations(self, fuzz_dir, task_payload, muts):
        payload = json.loads(json.dumps(task_payload))
        replace_fields([payload], lambda p: [("kind",), ("generator_seed",)] + [
            ("generator_spec", k) for k in sorted(p["generator_spec"])], muts)
        path = fuzz_dir / "task.json"
        path.write_bytes(apply_bytes(json.dumps(payload, indent=2).encode("utf-8"), muts))
        result = read_or_domain_error(lambda: read_task_file(str(path)))
        if result is not None:
            kind, spec, seed = result
            assert isinstance(kind, str) and isinstance(spec, GeneratorSpec)
            assert type(seed) is int and seed >= 0


# ---------------------------------------------------------------------------
# embedding caches


class TestCache:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.tuples(st.just("field"), st.integers(0, MAX), st.sampled_from(HEADER_VALUES)),
                              byte), min_size=1, max_size=3))
    def test_mutations(self, fuzz_dir, muts):
        path = fuzz_dir / "cache.bin"
        write_cache(str(path), {"heart rate": np.arange(4.0), "é ward": np.ones(4), "": np.zeros(4)})
        data = bytearray(path.read_bytes())
        header = [len(CACHE_MAGIC), len(CACHE_MAGIC) + 4, len(CACHE_MAGIC) + 8]  # count, dim, first key length
        for kind, pos, value in muts:
            if kind == "field":
                struct.pack_into("<I", data, header[pos % len(header)], value)
        path.write_bytes(apply_bytes(bytes(data), [m for m in muts if m[0] != "field"]))
        table = read_or_domain_error(lambda: read_cache(str(path)))
        if table is not None:
            assert all(isinstance(k, str) for k in table)
            assert len({v.shape for v in table.values()}) <= 1
            assert all(v.dtype == np.float32 and v.ndim == 1 for v in table.values())
            read_or_domain_error(lambda: FileCacheProvider(table))


# ---------------------------------------------------------------------------
# the CLI --config reader


def mutated_config(lines: list[str], muts) -> bytes:
    """``key=value`` lines with one comma-separated part of a value replaced per field mutation."""
    lines = list(lines)
    for _, which, part, token in (m for m in muts if m[0] == "field"):
        i = which % len(lines)
        key, _, value = lines[i].partition("=")
        parts = value.split(",")
        parts[part % len(parts)] = CONFIG_TOKENS[token % len(CONFIG_TOKENS)]
        lines[i] = f"{key}={','.join(parts)}"
    return apply_bytes("\n".join(lines).encode("utf-8") + b"\n", muts)


FINETUNE_CONFIG = ["events=events.jsonl", "split_seed=3", "ratios=0.5,0.25,0.25", "unfrozen_layers=none",
                   "unfreeze_embedder=true", "lr=0.001", "class_weight=auto", "epochs=2"]


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def events_file(fuzz_dir):
    path = fuzz_dir / "ingest-events.jsonl"
    path.write_text("\n".join(EVENT_LINES) + "\n", encoding="utf-8")
    return str(path)


class TestConfigFile:
    @settings(max_examples=150, deadline=None)
    @given(mutations(len(CONFIG_TOKENS)))
    def test_reader(self, fuzz_dir, muts):
        path = fuzz_dir / "finetune.cfg"
        path.write_bytes(mutated_config(FINETUNE_CONFIG, muts))
        spec = cli._SPECS["finetune"]
        values = read_or_domain_error(lambda: cli._read_config_file(str(path), spec))
        if values is not None:
            assert set(values) <= set(spec)

    @settings(max_examples=150, deadline=None)
    @given(mutations(len(CONFIG_TOKENS)))
    @example([("field", 2, 0, 4)]).via("ratios=nan,0.25,0.25")
    @example([("flip", 0, ord("e") ^ 0xFF), ("flip", 1, ord("v") ^ 0xFE)]).via("a file starting with 0xff 0xfe")
    @example([("field", 1, 0, 3)]).via("a negative split seed")
    def test_ingest_exits_0_or_1_with_one_error_line(self, fuzz_dir, events_file, muts):
        path = fuzz_dir / "ingest.cfg"
        lines = [f"events={events_file}", "split_seed=3", "ratios=0.5,0.25,0.25"]
        path.write_bytes(mutated_config(lines, muts))
        code, err = run_cli(["ingest", "--events", events_file, "--config", str(path)])
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert (code, len(errors)) in ((0, 0), (1, 1)), err
        assert "Traceback" not in err
