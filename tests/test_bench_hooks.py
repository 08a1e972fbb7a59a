"""The benchmark's traced run wraps icuseq names by attribute; each must still resolve.

``perfbench/layers.py`` lists the (owner, attribute) pairs it patches. A
rename or deletion in ``icuseq`` would first show as a failed traced
benchmark run; this test makes it fail here instead. The benchmark also reads
what the wrapped calls take and return by duck typing (the split as the
second positional argument, ``real_length``, ``Sample.windows``, the plans'
slot counts, the arrays of an ``EncodedBatch``): one small traced round checks
that none of its checks fails and none of its counts is 0. The benchmark's
files are imported, never changed.
"""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icuseq import autodiff as ad

from test_autodiff import interior_nodes, small_net
from test_training import small_setup

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("layers")


def test_every_span_target_resolves(layers):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in layers.SETUP_SPANS + layers.ROUND_SPANS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_every_traced_autodiff_op_resolves(layers):
    assert [op for op in layers.AUTODIFF_OPS if not callable(getattr(ad, op, None))] == []


def test_tape_walk_counts_every_node_before_backward(layers):
    """``_tape_size`` reads ``_parents``, then ``requires_grad`` and ``_parents`` on tape nodes: before
    ``backward`` it counts the loss, every interior node and every leaf that requires grad."""
    leaves, _, _, loss = small_net()
    assert layers._tape_size(loss) == len(interior_nodes(loss)) + len(leaves)


def test_training_steps_run_through_the_wrapped_names(monkeypatch):
    """``training.optimizer_step`` and ``training.steps`` count ``AdamW.step`` calls, and the
    ``autodiff.backward`` span wraps ``ad.backward`` on the module: ``pretrain`` and a fine-tune fold
    must call the one once per train step and reach the other through the module attribute, inside it."""
    from icuseq import training
    from icuseq.ingest import Split
    from icuseq.synth import oracle_label

    counts = {"forward": 0, "step": 0, "backward": 0, "backward_in_step": 0}
    depth = []
    step, backward = training.AdamW.step, ad.backward
    pretrain_outputs, task_scores = training.Model.pretrain_outputs, training.Model.task_scores

    def counting_step(optimizer, loss, lr):
        counts["step"] += 1
        depth.append(1)
        try:
            step(optimizer, loss, lr)
        finally:
            depth.pop()

    def counting_backward(loss, on_leaf=None):
        counts["backward"] += 1
        counts["backward_in_step"] += bool(depth)
        backward(loss, on_leaf=on_leaf)

    def train_forwards(fn):
        def counted(model, *args, **kwargs):
            counts["forward"] += kwargs.get("mode", args[1] if len(args) > 1 else "eval") == "train"
            return fn(model, *args, **kwargs)
        return counted

    monkeypatch.setattr(training.AdamW, "step", counting_step)
    monkeypatch.setattr(ad, "backward", counting_backward)
    monkeypatch.setattr(training.Model, "pretrain_outputs", train_forwards(pretrain_outputs))
    monkeypatch.setattr(training.Model, "task_scores", train_forwards(task_scores))

    spec, corpus, vocab, provider, config = small_setup()
    cfg = training.TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=1)
    model = training.pretrain(corpus, vocab, provider, config, cfg).model
    task = training.Task("binary", lambda stay: oracle_label(stay, spec))
    samples = training.build_samples(corpus, Split.TRAIN, task, vocab, config.window_minutes,
                                     config.encoder.max_seq_len)
    val = training.build_samples(corpus, Split.VAL, task, vocab, config.window_minutes, config.encoder.max_seq_len)
    training._finetune_fold(model, task, samples, val, provider, cfg, 0)
    assert counts["forward"] > 2 * -(-len(samples) // cfg.batch_size)  # pre-training steps came first
    assert counts["step"] == counts["backward"] == counts["backward_in_step"] == counts["forward"]


@pytest.fixture(scope="module")
def bench_modules(layers):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("pipeline"), importlib.import_module("tracer"), layers


def test_split_is_the_second_positional_argument():
    """``pipeline.Outputs`` keys what it records by ``args[1]``; ``layers._encoder_pass`` reads ``args[4]``."""
    from icuseq import encoder as enc
    from icuseq import training
    from icuseq.ingest import Split

    for fn in (training.prepare_windows, training.build_samples):
        assert list(inspect.signature(fn).parameters)[1] == "split"
    assert list(inspect.signature(enc.forward).parameters)[4] == "mode"


def test_a_traced_round_counts_real_work(bench_modules, tmp_path):
    """One small closed-loop round, recorded and traced as the benchmark does: no check fails, no count is 0."""
    pipeline, tracer_mod, layers = bench_modules
    from workloads import Workload

    from icuseq import training
    from icuseq.ingest import Split

    wl = Workload(name="contract", patients=14, rate=0.01, stay_hours=30.0, ratios=(0.36, 0.21, 0.43),
                  hidden=8, layers=2, heads=2, d_pre=8, max_seq_len=32, eval_batch=4, eval_reps=1)
    checks = pipeline.Checks()
    data = pipeline.set_up(wl, seed=1)
    shape = pipeline.expected_shape(wl, data.corpus)
    patcher, tracer, counters = tracer_mod.Patcher(), tracer_mod.Tracer(), layers.LayerCounters()
    outputs = pipeline.Outputs()
    try:
        outputs.install(patcher)
        layers.instrument_round(patcher, tracer, counters, data.provider)
        res = pipeline.run_round(wl, 1, data, shape, outputs, checks, str(tmp_path))
    finally:
        patcher.restore()
    assert checks.failed == 0, checks.failures
    assert res.complete and res.pretrain_tokens > 0 and res.finetune_samples > 0 and res.eval_windows > 0

    # the duck-typed contract the recorder and the counters read
    windows = training.prepare_windows(data.corpus, Split.TRAIN, data.vocab, 1440, wl.max_seq_len)
    assert windows and all(type(w.real_length) is int for w in windows)
    assert all(isinstance(s.windows, list) and s.windows for _, out in outputs.samples for s in out)
    plan = training.plan_masking(windows[0], np.random.default_rng(0))
    assert all(type(getattr(plan, n)) is int for n in ("n_feature_slots", "n_cat_slots", "n_cont_slots"))
    batch = training.encode_batch(windows[:2], data.provider)
    assert all(isinstance(v, np.ndarray) for v in vars(batch).values())
    assert counters.masked_slots > 0 and counters.batches > 0 and counters.batch_bytes > 0
    assert counters.tape_nodes > 0 and counters.embed_calls > 0
    for span in ("windows.segment", "masking.plan", "masking.apply", "embedder.encode_batch",
                 "embedder.compose", "windows.prepare", "windows.build_samples", "encoder.heads",
                 "objective.mlvm_loss", "encoder.forward_train", "encoder.forward_eval"):
        assert tracer.calls(span) > 0, span


def test_benchmark_self_test_passes():
    """``perfbench/selftest.py``, run as the benchmark runs it: every workload shrunk, untraced and traced."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
