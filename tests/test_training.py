import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq import autodiff as ad
from icuseq import training
from icuseq.embedder import encode_batch
from icuseq.encoder import EncoderConfig
from icuseq.errors import DivergedLoss, InvalidSpec
from icuseq.ingest import Corpus, Split, assign_splits, build_vocabularies, parse_event_lines
from icuseq.synth import GeneratorSpec, generate_lines, oracle_label
from icuseq.textvec import StubProvider
from icuseq.training import (
    AdamW,
    Model,
    ModelConfig,
    Sample,
    Task,
    TrainConfig,
    build_samples,
    evaluate,
    finetune,
    linear_lr,
    predict_scores,
    prepare_windows,
    pretrain,
)
from icuseq.windows import truncate_and_pad

from conftest import dyn_token, make_window


def small_setup(patients=24, seed=2, ratios=(0.7, 0.15, 0.15)):
    spec = GeneratorSpec(patients=patients, features=8, rate=0.008, stay_hours=24.0)
    corpus = assign_splits(parse_event_lines(generate_lines(spec, seed=seed)), ratios, seed=0)
    vocab = build_vocabularies(corpus)
    provider = StubProvider(dim=8, seed=0)
    config = ModelConfig(
        encoder=EncoderConfig(layers=1, hidden=16, heads=2, ffn_dim=8, max_seq_len=48, dropout=0.1),
        d_pre=8, window_minutes=1440,
        feature_vocab=vocab.feature_size, value_vocab=vocab.value_size,
    )
    return spec, corpus, vocab, provider, config


class TestOptimizer:
    def test_adamw_minimizes_quadratic(self):
        w = ad.parameter(np.array([5.0, -3.0]), "w")
        opt = AdamW({"w": w})
        for _ in range(300):
            opt.zero_grad()
            loss = ad.sum_all(ad.mul(w, w))
            ad.backward(loss)
            opt.step(0.05)
        assert np.abs(w.data).max() < 0.05

    def test_decoupled_weight_decay_pulls_to_zero(self):
        w = ad.parameter(np.array([1.0]), "w")
        opt = AdamW({"w": w}, weight_decay=0.1)
        for _ in range(10):
            opt.zero_grad()
            w.grad = np.zeros(1)  # no loss gradient; decay alone acts
            opt.step(0.1)
        assert w.data[0] < 1.0


class TestSchedule:
    def test_warmup_then_decay(self):
        rates = [linear_lr(1.0, e, 10, 4) for e in range(1, 11)]
        assert rates[:4] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert rates[4] == pytest.approx(1.0)
        assert rates[-1] > 0
        assert all(a >= b for a, b in zip(rates[3:], rates[4:]))

    def test_no_warmup(self):
        rates = [linear_lr(1.0, e, 4, 0) for e in range(1, 5)]
        assert rates[0] == pytest.approx(1.0)
        assert rates[-1] == pytest.approx(0.25)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["unfrozen_layers", "warmup_epochs", "patience"])
    def test_negative_setting_rejected(self, field):
        with pytest.raises(InvalidSpec, match=field):
            TrainConfig(**{field: -1})


class TestPretrain:
    def test_deterministic_runs(self):
        _, corpus, vocab, provider, config = small_setup()
        cfg = TrainConfig(epochs=2, batch_size=8, lr=3e-4, seed=1)
        a = pretrain(corpus, vocab, provider, config, cfg)
        b = pretrain(corpus, vocab, provider, config, cfg)
        assert [r.csv() for r in a.rows] == [r.csv() for r in b.rows]
        for name, tensor in a.model.parameters().items():
            assert tensor.data.tobytes() == b.model.parameters()[name].data.tobytes()

    def test_no_validation_split_runs_every_epoch(self):
        _, corpus, vocab, provider, config = small_setup(ratios=(0.8, 0.0, 0.2))
        cfg = TrainConfig(epochs=3, batch_size=8, lr=3e-4, seed=1, patience=0)
        result = pretrain(corpus, vocab, provider, config, cfg)
        assert [(r.epoch, r.split) for r in result.rows] == [(1, "train"), (2, "train"), (3, "train")]
        assert result.best_epoch == 0

    def test_loss_decreases_on_tiny_run(self):
        _, corpus, vocab, provider, config = small_setup(patients=60)
        cfg = TrainConfig(epochs=8, batch_size=8, lr=2e-3, seed=0, warmup_epochs=1)
        result = pretrain(corpus, vocab, provider, config, cfg)
        vals = result.val_totals()
        assert vals[-1] < vals[0]
        assert result.best_epoch >= 1

    def test_diverged_loss_raised(self):
        _, corpus, vocab, provider, config = small_setup()
        cfg = TrainConfig(epochs=4, batch_size=8, lr=1e3, seed=0, warmup_epochs=0)
        with pytest.raises(DivergedLoss):
            pretrain(corpus, vocab, provider, config, cfg)

    def test_row_format(self):
        _, corpus, vocab, provider, config = small_setup()
        cfg = TrainConfig(epochs=1, batch_size=8, lr=3e-4, seed=1)
        result = pretrain(corpus, vocab, provider, config, cfg)
        row = result.rows[0]
        parts = row.csv().split(",")
        assert parts[0] == "1" and parts[1] == "train"
        assert len(parts) == 7

    def test_checkpoint_roundtrip_through_model(self, tmp_path):
        _, corpus, vocab, provider, config = small_setup()
        cfg = TrainConfig(epochs=1, batch_size=8, lr=3e-4, seed=1)
        result = pretrain(corpus, vocab, provider, config, cfg)
        path = str(tmp_path / "model.ckpt")
        result.model.save(path)
        back = Model.load(path)
        for name, tensor in result.model.parameters().items():
            assert tensor.data.tobytes() == back.parameters()[name].data.tobytes()


class TestFreezing:
    def test_zero_unfrozen_layers_only_head_changes(self):
        spec, corpus, vocab, provider, config = small_setup()
        pre = Model.build(config, seed=0)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0, warmup_epochs=0,
                          unfrozen_layers=0, unfreeze_embedder=False)
        result = finetune(pre, task, corpus, vocab, provider, cfg, folds=2)
        tuned = result.best_model.parameters()
        for name, tensor in pre.parameters().items():
            if name.startswith("heads."):
                continue
            assert tuned[name].data.tobytes() == tensor.data.tobytes(), name
        assert tuned["heads.task_w"].data.shape == (config.encoder.hidden, 1)

    def test_trainable_selection(self):
        _, _, _, _, config = small_setup()
        model = Model.build(config, seed=0)
        all_params = model.trainable_parameters(None)
        only_heads = model.trainable_parameters(0, unfreeze_embedder=False)
        with_embedder = model.trainable_parameters(0, unfreeze_embedder=True)
        assert set(only_heads) == {n for n in all_params if n.startswith("heads.")}
        assert any(n.startswith("embedder.") for n in with_embedder)


class TestFinetune:
    def test_fold_bookkeeping_and_report(self):
        spec, corpus, vocab, provider, config = small_setup(patients=30)
        pre = Model.build(config, seed=0)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0, warmup_epochs=0)
        result = finetune(pre, task, corpus, vocab, provider, cfg, folds=5)
        assert len(result.report.per_fold) == 5
        assert set(result.report.metric_names) == {"auroc", "auprc"}
        assert 0.0 <= result.report.mean("auroc") <= 1.0

    def test_early_stopping_bound(self):
        spec, corpus, vocab, provider, config = small_setup(patients=30)
        pre = Model.build(config, seed=0)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        cfg = TrainConfig(epochs=30, batch_size=8, lr=5e-3, seed=0, warmup_epochs=0, patience=2)
        result = finetune(pre, task, corpus, vocab, provider, cfg, folds=2)
        for fold in range(2):
            vals = [(r.epoch, r.l_total) for r in result.rows if r.split == f"fold{fold}-val"]
            best_epoch = min(vals, key=lambda t: t[1])[0]
            last_epoch = vals[-1][0]
            assert last_epoch <= best_epoch + 2 + 1  # never more than patience past the best

    def test_regression_task(self):
        spec, corpus, vocab, provider, config = small_setup(patients=30)
        pre = Model.build(config, seed=0)
        task = Task("regression", lambda stay: float(len(stay.dynamics)))
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0, warmup_epochs=0)
        result = finetune(pre, task, corpus, vocab, provider, cfg, folds=2)
        assert result.report.metric_names == ("mae",)
        assert result.report.mean("mae") >= 0.0

    def test_evaluate_matches_predict(self):
        spec, corpus, vocab, provider, config = small_setup(patients=30)
        pre = Model.build(config, seed=0)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=0, warmup_epochs=0)
        result = finetune(pre, task, corpus, vocab, provider, cfg, folds=2)
        metrics = evaluate(result.best_model, task, corpus, vocab, provider)
        assert set(metrics) == {"auroc", "auprc"}


def per_fold_corpus_samples(corpus, task, vocab, config, seed, folds):
    """Fold samples built from a fresh Corpus per fold, every pool stay segmented again."""
    pool_stays = corpus.stays_in(Split.TRAIN) + corpus.stays_in(Split.VAL)
    pool_patients = sorted({s.patient_id for s in pool_stays})
    chunks = np.array_split(np.random.default_rng([seed, 80]).permutation(len(pool_patients)), folds)
    by_patient = {}
    for stay in pool_stays:
        by_patient.setdefault(stay.patient_id, []).append(stay)
    out = []
    for fold in range(folds):
        val_patients = {pool_patients[i] for i in chunks[fold]}
        train_stays = [s for pid in pool_patients if pid not in val_patients for s in by_patient[pid]]
        val_stays = [s for pid in sorted(val_patients) for s in by_patient[pid]]
        fold_corpus = Corpus(tuple(train_stays + val_stays),
                             {**{s.patient_id: Split.TRAIN for s in train_stays},
                              **{s.patient_id: Split.VAL for s in val_stays}})
        out.append(tuple(build_samples(fold_corpus, split, task, vocab, config.window_minutes,
                                       config.encoder.max_seq_len) for split in (Split.TRAIN, Split.VAL)))
    return out


class TestFinetunePool:
    def test_each_stay_segmented_once_and_folds_unchanged(self, monkeypatch):
        spec, corpus, vocab, provider, config = small_setup(patients=30)
        task = Task("binary", lambda stay: oracle_label(stay, spec), n_windows=2)
        expected = per_fold_corpus_samples(corpus, task, vocab, config, seed=0, folds=3)

        segmented, seen = [], []
        segment, finetune_fold = training.segment_windows, training._finetune_fold

        def counting_segment(stay, *args, **kwargs):
            segmented.append(stay.stay_id)
            return segment(stay, *args, **kwargs)

        def recording_fold(pretrained, task, train_samples, val_samples, *args):
            seen.append((train_samples, val_samples))
            return finetune_fold(pretrained, task, train_samples, val_samples, *args)

        monkeypatch.setattr(training, "segment_windows", counting_segment)
        monkeypatch.setattr(training, "_finetune_fold", recording_fold)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=0, warmup_epochs=0)
        finetune(Model.build(config, seed=0), task, corpus, vocab, provider, cfg, folds=3)

        assert seen == expected
        stays = corpus.stays_in(Split.TRAIN) + corpus.stays_in(Split.VAL) + corpus.stays_in(Split.TEST)
        assert sorted(segmented) == sorted(s.stay_id for s in stays)


class TestTask:
    @pytest.mark.parametrize("n_windows", [0, -1])
    def test_needs_a_window(self, n_windows):
        with pytest.raises(InvalidSpec):
            Task("binary", lambda stay: 0, n_windows=n_windows)


class TestPrepareWindows:
    def test_windows_are_padded_and_normalized(self):
        _, corpus, vocab, provider, config = small_setup()
        windows = prepare_windows(corpus, Split.TRAIN, vocab, 1440, 48)
        assert windows
        assert all(len(w.tokens) == 48 for w in windows)


INVARIANCE_PROVIDER = StubProvider(dim=8, seed=0)
INVARIANCE_MODEL = Model.build(ModelConfig(
    encoder=EncoderConfig(layers=2, hidden=16, heads=2, ffn_dim=8, max_seq_len=64, dropout=0.1),
    d_pre=8, window_minutes=1440, feature_vocab=10, value_vocab=6, head_mode="task",
), seed=0, dtype=np.float64)  # float64, so the tolerance checks the masking, not float32 rounding

window_tokens = st.lists(
    st.builds(dyn_token, st.sampled_from(["lab: a", "lab: b", "chart: c"]),
              st.one_of(st.floats(-3.0, 3.0), st.sampled_from(["low", "high"])),
              st.integers(0, 1439), st.integers(0, 1439)),
    min_size=0, max_size=30)


class TestPaddingInvariance:
    """Outputs at real positions depend neither on the PAD suffix nor on the other windows of a batch."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(window_tokens, min_size=1, max_size=4), st.integers(0, 24))
    def test_hidden_states_at_real_positions(self, token_lists, extra):
        longest = max(len(t) for t in token_lists) + 1
        together = encode_batch([truncate_and_pad(make_window(t), longest + extra) for t in token_lists],
                                INVARIANCE_PROVIDER)
        joint = INVARIANCE_MODEL.hidden_states(together).data
        for row, tokens in zip(joint, token_lists):
            alone = encode_batch([truncate_and_pad(make_window(tokens), len(tokens) + 1)], INVARIANCE_PROVIDER)
            real = len(tokens) + 1
            np.testing.assert_allclose(row[:real], INVARIANCE_MODEL.hidden_states(alone).data[0],
                                       atol=1e-6, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(window_tokens, min_size=1, max_size=6), st.integers(0, 24))
    def test_predict_scores(self, token_lists, extra):
        longest = max(len(t) for t in token_lists) + 1

        def samples(length):
            return [Sample([truncate_and_pad(make_window(t), length)], 0) for t in token_lists]

        together = predict_scores(INVARIANCE_MODEL, samples(longest + extra), INVARIANCE_PROVIDER,
                                  "binary", batch_size=len(token_lists))
        alone = predict_scores(INVARIANCE_MODEL, samples(longest), INVARIANCE_PROVIDER, "binary", batch_size=1)
        np.testing.assert_allclose(together, alone, atol=1e-6, rtol=0)


CHECKPOINT_CONFIGS = st.builds(
    lambda layers, heads, head_dim, ffn, head_mode, task_dim: ModelConfig(
        encoder=EncoderConfig(layers=layers, hidden=heads * head_dim, heads=heads, ffn_dim=ffn,
                              max_seq_len=16, dropout=0.1),
        d_pre=INVARIANCE_PROVIDER.dim, window_minutes=1440, feature_vocab=9, value_vocab=6,
        head_mode=head_mode, task_dim=task_dim),
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 4), st.integers(1, 8),
    st.sampled_from(["pretrain", "task"]), st.integers(1, 3))


class TestCheckpointRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(CHECKPOINT_CONFIGS, st.integers(0, 2**31 - 1), st.lists(window_tokens, min_size=1, max_size=3))
    def test_parameters_and_scores_survive(self, config, seed, token_lists):
        model = Model.build(config, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.icub")
            model.save(path)
            loaded = Model.load(path)
        assert loaded.config == config
        params = model.parameters()
        assert loaded.parameters().keys() == params.keys()
        for name, tensor in loaded.parameters().items():
            assert tensor.data.dtype == params[name].data.dtype, name
            assert tensor.data.tobytes() == params[name].data.tobytes(), name

        windows = [truncate_and_pad(make_window(t[:15]), 16) for t in token_lists]
        if config.head_mode == "task":
            samples = [Sample([w], 0) for w in windows]
            kind = "binary" if config.task_dim == 1 else "multilabel"
            assert np.array_equal(predict_scores(loaded, samples, INVARIANCE_PROVIDER, kind),
                                  predict_scores(model, samples, INVARIANCE_PROVIDER, kind))
        else:
            batch = encode_batch(windows, INVARIANCE_PROVIDER)
            for got, want in zip(loaded.pretrain_outputs(batch), model.pretrain_outputs(batch)):
                assert np.array_equal(got.data, want.data)


def tape_size(loss) -> int:
    """Nodes that ``ad.backward`` visits from ``loss``."""
    seen, todo = {id(loss)}, [loss]
    while todo:
        for p in todo.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


GOLDEN_LAYERS = 2


class TestFrozenTape:
    """Frozen fine-tune parameters are tape constants; the trainable ones see the same step."""

    @pytest.mark.parametrize("unfreeze_embedder", [False, True])
    @pytest.mark.parametrize("unfrozen_layers", [0, 1, GOLDEN_LAYERS, None])
    def test_step_equals_full_tape(self, monkeypatch, unfrozen_layers, unfreeze_embedder):
        spec, corpus, vocab, provider, config = small_setup()
        config = replace(config, encoder=replace(config.encoder, layers=GOLDEN_LAYERS))
        pre = Model.build(config, seed=0, dtype=np.float64)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        samples = build_samples(corpus, Split.TRAIN, task, vocab, config.window_minutes,
                                config.encoder.max_seq_len)
        cfg = TrainConfig(epochs=1, batch_size=len(samples), lr=1e-3, seed=0, warmup_epochs=0,
                          unfrozen_layers=unfrozen_layers, unfreeze_embedder=unfreeze_embedder)

        # reference: the fold's only step with every parameter on the tape
        full = pre.with_task_head(task.out_dim, config.task_dropout, seed=cfg.seed)
        order = np.random.default_rng([cfg.seed, 90, 0, 1]).permutation(len(samples))
        slots, labels = training._sample_batches(samples, order, max(len(s.windows) for s in samples), provider)
        weight = training._class_weight(task, np.asarray([s.label for s in samples], dtype=np.float32))
        logits = full.task_scores(slots, mode="train", rng=np.random.default_rng([cfg.seed, 91, 0, 1, 0]))
        ref_loss = training.finetune_loss(task.kind, logits, labels, weight)
        ad.backward(ref_loss)

        seen = {}
        backward, step = ad.backward, AdamW.step

        def spy_backward(loss):
            seen["tape"] = tape_size(loss)
            backward(loss)

        def spy_step(optimizer, lr):
            seen["grads"] = {name: p.grad.copy() for name, p in optimizer.params.items()}
            step(optimizer, lr)

        monkeypatch.setattr(ad, "backward", spy_backward)
        monkeypatch.setattr(AdamW, "step", spy_step)
        model, rows, _ = training._finetune_fold(pre, task, samples, [], provider, cfg, 0)

        trainable = full.trainable_parameters(unfrozen_layers, unfreeze_embedder)
        assert rows[0].l_total == ref_loss.item()
        assert seen["grads"].keys() == trainable.keys()
        for name, grad in seen["grads"].items():
            assert grad.tobytes() == trainable[name].grad.tobytes(), name
        frozen = [t for name, t in model.parameters().items() if name not in trainable]
        assert all(t.grad is None and not t.requires_grad for t in frozen)
        if frozen:
            assert seen["tape"] < tape_size(ref_loss)
        else:
            assert seen["tape"] == tape_size(ref_loss)

    def test_finetune_leaves_no_gradient_on_frozen_parameters(self):
        spec, corpus, vocab, provider, config = small_setup()
        config = replace(config, encoder=replace(config.encoder, layers=GOLDEN_LAYERS))
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=0, warmup_epochs=0, unfrozen_layers=1)
        model = finetune(Model.build(config, seed=0), task, corpus, vocab, provider, cfg, folds=2).best_model
        trainable = model.trainable_parameters(1)
        frozen = [t for name, t in model.parameters().items() if name not in trainable]
        assert frozen and all(t.grad is None for t in frozen)


class TestEvalTape:
    """Eval passes run on a detached model and record no backward graph."""

    def test_detached_model(self):
        tokens = [dyn_token("lab: a", 1.5, 3), dyn_token("lab: b", "low", 9, 4)]
        batch = encode_batch([truncate_and_pad(make_window(tokens), 8)], INVARIANCE_PROVIDER)
        model = INVARIANCE_MODEL
        detached = model.detached()
        for forward in (lambda m: m.hidden_states(batch), lambda m: m.task_scores([batch])):
            out, ref = forward(detached), forward(model)
            assert out.data.tobytes() == ref.data.tobytes()
            assert out._parents == () and ref._parents
        params = model.parameters()
        for name, tensor in detached.parameters().items():
            assert not tensor.requires_grad and params[name].requires_grad
            assert np.shares_memory(tensor.data, params[name].data)

    def test_predict_scores_and_task_loss_record_no_tape(self, monkeypatch):
        made, make = [], ad._make

        def recording(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(ad, "_make", recording)
        samples = [Sample([truncate_and_pad(make_window([dyn_token("lab: a", x, 5)]), 8)], x > 0)
                   for x in (-1.0, 0.5, 2.0)]
        predict_scores(INVARIANCE_MODEL, samples, INVARIANCE_PROVIDER, "binary", batch_size=2)
        training._task_loss(INVARIANCE_MODEL, Task("binary", lambda stay: 0), samples,
                            INVARIANCE_PROVIDER, 1.0, 2)
        assert made and not any(t._parents for t in made)

    def test_pretrain_validation_records_no_tape(self, monkeypatch):
        _, corpus, vocab, provider, config = small_setup()
        outputs, pretrain_outputs = [], Model.pretrain_outputs

        def recording(model, batch, mode="eval", rng=None):
            out = pretrain_outputs(model, batch, mode, rng)
            if mode == "eval":
                outputs.extend(out)
            return out

        monkeypatch.setattr(Model, "pretrain_outputs", recording)
        pretrain(corpus, vocab, provider, config, TrainConfig(epochs=1, batch_size=8, lr=3e-4, seed=1))
        assert outputs and not any(t._parents for t in outputs)
