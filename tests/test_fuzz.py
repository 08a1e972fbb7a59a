"""Mutation fuzz of the file readers: each mutant is read into a valid result or an ``IcuseqError``.

Each reader gets a valid file and up to three mutations: a field replaced by
null, a boolean, a huge integer, NaN or a list; a byte XOR-ed with a random
value; a byte deleted. Field replacements apply first, to the parsed record,
then the byte mutations to the encoded file. A result that comes back must
be usable: a corpus goes through splitting, vocabularies and windowing, a
task file yields a well-typed spec and seed, a cache a table of equal-width
float32 vectors. ``icuseq ingest`` reading a mutated ``--config`` exits 0,
or 1 with exactly one ``error:`` line and no traceback. ``icuseq pretrain``
runs end to end on a tiny corpus from a ``--config`` with up to three values
replaced, each from a bounded set per key: sizes from -1 to 3, rates and
weights from NaN, ±inf, 0, -1 and 1e30. It exits 0 with a checkpoint, or 1
with one ``error:`` line and none; a saved model's parameters are finite.
``icuseq finetune`` is run the same way, from a checkpoint pre-trained on a
12-patient binary-task corpus, with fold counts, epochs, step sizes, class
weights, frozen layers, the embedding width, ratios and seeds replaced.

Checkpoints are mutated by structure: a config-block field replaced by null,
a boolean, ±10^30, NaN, a list or a string, or a blob header's rank, one
dimension, name length or the parameter count set to a drawn value. Each
mutant is framed again, so its config block's length prefix is right and the
mutation reaches the checks behind it. ``Model.load`` must return a model that
scores a batch, or raise ``FormatError`` or ``ConfigMismatch``, and
``icuseq evaluate`` must exit 0, or 1 with one ``error:`` line.
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
from icuseq.encoder import CHECKPOINT_MAGIC, EncoderConfig, load_checkpoint
from icuseq.errors import ConfigMismatch, FormatError, IcuseqError
from icuseq.ingest import Corpus, Split, assign_splits, build_vocabularies, parse_event_lines, parse_events
from icuseq.synth import GeneratorSpec, generate_lines, read_task_file, write_task_file
from icuseq.textvec import CACHE_MAGIC, FileCacheProvider, StubProvider, read_cache, write_cache
from icuseq.training import Model, ModelConfig, Sample, predict_scores, prepare_windows

from conftest import dyn_token, window_of

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


PRETRAIN_SPEC = GeneratorSpec(patients=6, features=5, rate=0.01, stay_hours=6.0)
PRETRAIN_CONFIG = {
    "embed_dim": "4", "hidden": "8", "heads": "2", "layers": "1", "ffn_dim": "4", "max_seq_len": "16",
    "window_minutes": "1440", "dropout": "0.1", "epochs": "2", "batch_size": "4", "lr": "0.001",
    "weight_decay": "0.01", "warmup_epochs": "none", "patience": "none", "alpha": "3", "beta": "1",
    "mask_rate": "0.15", "mask_both": "0.5", "mask_value_only": "0.25", "mask_feature_only": "0.25",
    "corrupt": "0.8,0.1,0.1", "ratios": "0.5,0.25,0.25", "seed": "0", "split_seed": "0",
}
# every size drawn from a bounded set, so no mutant asks for more than a few KiB of parameters
PRETRAIN_VALUES = {
    **dict.fromkeys(("hidden", "heads", "layers", "ffn_dim", "max_seq_len", "embed_dim"),
                    ("0", "1", "2", "3", "-1")),
    "window_minutes": ("0", "1", "30", "-1"),
    **dict.fromkeys(("epochs", "batch_size", "warmup_epochs", "patience"), ("0", "1", "3", "-1")),
    **dict.fromkeys(("lr", "weight_decay", "alpha", "beta"), ("nan", "inf", "-inf", "0", "-1", "1e30")),
    **dict.fromkeys(("dropout", "mask_rate", "mask_both", "mask_value_only", "mask_feature_only"),
                    ("nan", "-0.5", "0", "0.99", "1", "2")),
    "corrupt": ("1,0,0", "0,0,1", "nan,0,0", "0.5,0.5", "-1,1,1", "2,0,0"),
    "ratios": ("1,0,0", "0,1,0", "0,0,1", "nan,0.5,0.5", "0.5,0.5", "-1,1,1"),
    **dict.fromkeys(("seed", "split_seed"), ("1", "-1")),
}
PRETRAIN_MUTATIONS = [(key, raw) for key, raws in PRETRAIN_VALUES.items() for raw in raws]


@pytest.fixture(scope="module")
def pretrain_events(fuzz_dir):
    path = fuzz_dir / "pretrain-events.jsonl"
    path.write_text("\n".join(generate_lines(PRETRAIN_SPEC, seed=5)) + "\n", encoding="utf-8")
    return str(path)


class TestPretrainConfig:
    def test_base_config_trains(self, fuzz_dir, pretrain_events):
        path = fuzz_dir / "pretrain-base.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in PRETRAIN_CONFIG.items()), encoding="utf-8")
        code, err = run_cli(["pretrain", "--config", str(path), "--events", pretrain_events,
                             "--out", str(fuzz_dir / "pretrain-base.icub")])
        assert code == 0, err

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(PRETRAIN_MUTATIONS), min_size=1, max_size=3))
    def test_end_to_end_exits_0_or_1_with_one_error_line(self, fuzz_dir, pretrain_events, muts):
        """``icuseq pretrain --config`` with up to three values replaced trains, or fails with one line."""
        path, out = fuzz_dir / "pretrain.cfg", fuzz_dir / "pretrain.icub"
        path.write_text("".join(f"{k}={v}\n" for k, v in {**PRETRAIN_CONFIG, **dict(muts)}.items()),
                        encoding="utf-8")
        out.unlink(missing_ok=True)
        code, err = run_cli(["pretrain", "--config", str(path), "--events", pretrain_events, "--out", str(out)])
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert (code, len(errors)) in ((0, 0), (1, 1)), err
        assert out.exists() == (code == 0)
        if code == 0:  # a model that comes back must be usable
            assert all(np.isfinite(a).all() for a in load_checkpoint(str(out))[1].values())

    def test_loss_at_or_above_2_to_the_64_is_divergence(self, fuzz_dir, pretrain_events):
        """A value-loss weight of 1e30 makes a finite loss whose squared gradients overflow float32."""
        path, out = fuzz_dir / "pretrain-huge-beta.cfg", fuzz_dir / "pretrain-huge-beta.icub"
        path.write_text("".join(f"{k}={v}\n" for k, v in PRETRAIN_CONFIG.items()), encoding="utf-8")
        code, err = run_cli(["pretrain", "--config", str(path), "--beta", "1e30", "--events", pretrain_events,
                             "--out", str(out)])
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1 and len(errors) == 1 and "DivergedLoss" in errors[0], err
        assert not out.exists()


FINETUNE_SPEC = GeneratorSpec(patients=12, features=5, rate=0.01, stay_hours=6.0, signal_incidence=0.5)
FINETUNE_RUN_CONFIG = {
    "embed_dim": "4", "folds": "2", "unfrozen_layers": "1", "unfreeze_embedder": "false", "epochs": "2",
    "batch_size": "4", "lr": "0.001", "weight_decay": "0.01", "warmup_epochs": "0", "patience": "none",
    "class_weight": "auto", "ratios": "0.5,0.25,0.25", "seed": "0", "split_seed": "0",
}
FINETUNE_VALUES = {
    **dict.fromkeys(("folds", "epochs", "batch_size", "warmup_epochs", "patience"), ("0", "1", "3", "-1")),
    "unfrozen_layers": ("none", "0", "1", "2", "-1"),
    "unfreeze_embedder": ("true", "false"),
    "embed_dim": ("0", "3", "-1"),
    **dict.fromkeys(("lr", "weight_decay"), ("nan", "inf", "-inf", "0", "-1", "1e30")),
    "class_weight": ("0", "-1", "nan", "inf", "1e30", "heavy"),
    "ratios": PRETRAIN_VALUES["ratios"],
    **dict.fromkeys(("seed", "split_seed"), ("1", "-1")),
}
FINETUNE_MUTATIONS = [(key, raw) for key, raws in FINETUNE_VALUES.items() for raw in raws]


@pytest.fixture(scope="module")
def finetune_inputs(fuzz_dir):
    """A binary-task corpus whose base split has both classes everywhere, its task file, and a checkpoint."""
    events, task, checkpoint = (str(fuzz_dir / name) for name in ("finetune-events.jsonl", "finetune-task.json",
                                                                   "finetune-pretrained.icub"))
    with open(events, "w", encoding="utf-8") as f:
        f.write("\n".join(generate_lines(FINETUNE_SPEC, seed=1)) + "\n")
    write_task_file(task, FINETUNE_SPEC, "binary", seed=1)
    config = fuzz_dir / "finetune-pretrain.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in {**PRETRAIN_CONFIG, "epochs": "1"}.items()), encoding="utf-8")
    code, err = run_cli(["pretrain", "--config", str(config), "--events", events, "--out", checkpoint])
    assert code == 0, err
    return ["--events", events, "--task", task, "--checkpoint", checkpoint]


class TestFinetuneConfig:
    def test_base_config_trains(self, fuzz_dir, finetune_inputs):
        path, out = fuzz_dir / "finetune-base.cfg", fuzz_dir / "finetune-base.icub"
        path.write_text("".join(f"{k}={v}\n" for k, v in FINETUNE_RUN_CONFIG.items()), encoding="utf-8")
        code, err = run_cli(["finetune", "--config", str(path), *finetune_inputs, "--out", str(out)])
        assert code == 0 and out.exists(), err

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(FINETUNE_MUTATIONS), min_size=1, max_size=3))
    @example([("class_weight", "heavy")]).via("a class weight that is not a number")
    @example([("folds", "1")]).via("one fold, which trains on no patient")
    @example([("folds", "1"), ("class_weight", "nan")]).via("one fold whose validation loss is NaN")
    def test_end_to_end_exits_0_or_1_with_one_error_line(self, fuzz_dir, finetune_inputs, muts):
        """``icuseq finetune --config`` with up to three values replaced trains, or fails with one line."""
        path, out = fuzz_dir / "finetune-run.cfg", fuzz_dir / "finetune-run.icub"
        path.write_text("".join(f"{k}={v}\n" for k, v in {**FINETUNE_RUN_CONFIG, **dict(muts)}.items()),
                        encoding="utf-8")
        out.unlink(missing_ok=True)
        code, err = run_cli(["finetune", "--config", str(path), *finetune_inputs, "--out", str(out)])
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert (code, len(errors)) in ((0, 0), (1, 1)), err
        assert out.exists() == (code == 0)
        if code == 0:  # a model that comes back must be usable
            assert all(np.isfinite(a).all() for a in load_checkpoint(str(out))[1].values())


# ---------------------------------------------------------------------------
# checkpoints, mutated by structure

CHECKPOINT_VALUES = REPLACEMENTS + ("text",)
BLOB_VALUES = (0, 1, 2, 3, 8, 2**31, 2**32 - 1)
CHECKPOINT_SPEC = GeneratorSpec(patients=12, features=5, rate=0.01, stay_hours=8.0, signal_incidence=0.5)
TASK_MODEL = Model.build(ModelConfig(
    encoder=EncoderConfig(layers=2, hidden=8, heads=2, ffn_dim=4, max_seq_len=16, dropout=0.1),
    d_pre=8, window_minutes=1440, feature_vocab=9, value_vocab=5, head_mode="task"), seed=2)
SCORED = [Sample([window_of([dyn_token("lab: a", x, 5), dyn_token("lab: b", "low", 9)], 16)], 0)
          for x in (-1.0, 2.5)]


def framed(config, blobs, n_params=None) -> bytes:
    """A checkpoint file: ``blobs`` are dicts of header fields and data, written as given."""
    out = bytearray(CHECKPOINT_MAGIC)
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    out += struct.pack("<I", len(raw)) + raw
    out += struct.pack("<I", len(blobs) if n_params is None else n_params)
    for blob in blobs:
        out += struct.pack("<I", blob["name_len"]) + blob["name"]
        out += struct.pack("<I", blob["rank"]) + struct.pack(f"<{len(blob['dims'])}I", *blob["dims"])
        out += blob["data"]
    return bytes(out)


def checkpoint_mutations():
    config = st.tuples(st.just("config"), st.integers(0, MAX), st.integers(0, len(CHECKPOINT_VALUES) - 1))
    header = st.tuples(st.just("header"), st.integers(0, MAX),
                       st.sampled_from(["rank", "dim", "name_len", "n_params"]), st.sampled_from(BLOB_VALUES),
                       st.integers(0, MAX))
    return st.lists(st.one_of(config, header), min_size=1, max_size=3)


def config_field(key, value) -> tuple:
    """The mutation that sets config field ``key`` of ``TASK_MODEL``'s checkpoint to ``value``."""
    return "config", sorted(TASK_MODEL.config.to_dict()).index(key), CHECKPOINT_VALUES.index(value)


def mutated_checkpoint(base: str, muts) -> bytes:
    config, arrays = load_checkpoint(base)
    blobs = [{"name_len": len(name.encode("utf-8")), "name": name.encode("utf-8"), "rank": arrays[name].ndim,
              "dims": list(arrays[name].shape), "data": arrays[name].astype("<f4").tobytes()}
             for name in sorted(arrays)]
    n_params = None
    for kind, which, *rest in muts:
        if kind == "config":
            keys = sorted(config)
            config[keys[which % len(keys)]] = CHECKPOINT_VALUES[rest[0]]
            continue
        field, value, dim = rest
        blob = blobs[which % len(blobs)]
        if field == "n_params":
            n_params = value
        elif field == "dim":
            if blob["dims"]:
                blob["dims"][dim % len(blob["dims"])] = value
        else:
            blob[field] = value
    return framed(config, blobs, n_params)


@pytest.fixture(scope="module")
def checkpoint_files(fuzz_dir):
    events, task, base = (str(fuzz_dir / name) for name in ("ckpt-events.jsonl", "ckpt-task.json", "base.icub"))
    with open(events, "w", encoding="utf-8") as f:
        f.write("\n".join(generate_lines(CHECKPOINT_SPEC, seed=4)) + "\n")
    write_task_file(task, CHECKPOINT_SPEC, "binary", 4)
    TASK_MODEL.save(base)
    return events, task, base


def evaluate_exit(events, task, checkpoint) -> tuple[int, str]:
    code, err = run_cli(["evaluate", "--events", events, "--task", task, "--checkpoint", checkpoint,
                         "--embed-dim", "8", "--ratios", "0.2,0.2,0.6"])
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in ((0, 0), (1, 1)), err
    return code, err


class TestCheckpointStructure:
    def test_base_file_frames_and_evaluates(self, fuzz_dir, checkpoint_files):
        events, task, base = checkpoint_files
        path = fuzz_dir / "reframed.icub"
        path.write_bytes(mutated_checkpoint(base, []))
        assert path.read_bytes() == open(base, "rb").read()
        assert evaluate_exit(events, task, str(path))[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(checkpoint_mutations())
    @example([config_field("heads", 10**30)]).via("heads that do not divide hidden")
    @example([config_field("max_seq_len", 10**30)]).via("a window length past int64")
    def test_mutations(self, fuzz_dir, checkpoint_files, muts):
        events, task, base = checkpoint_files
        path = fuzz_dir / "mutant.icub"
        path.write_bytes(mutated_checkpoint(base, muts))
        try:
            model = Model.load(str(path))
        except (FormatError, ConfigMismatch):
            assert evaluate_exit(events, task, str(path))[0] == 1
            return
        scores = predict_scores(model, SCORED, StubProvider(model.config.d_pre, 0), "binary")
        assert scores.shape == (2,) and np.isfinite(scores).all()
        evaluate_exit(events, task, str(path))
