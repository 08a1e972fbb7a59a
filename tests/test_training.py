import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from icuseq import autodiff as ad
from icuseq import training
from icuseq.embedder import encode_batch
from icuseq.encoder import EncoderConfig, save_checkpoint
from icuseq.errors import (ConfigMismatch, DivergedLoss, FormatError, GraphReleased, IcuseqError, InvalidSpec,
                           NoMaskedSlots)
from icuseq.ingest import Corpus, Split, assign_splits, build_vocabularies, parse_event_lines
from icuseq.masking import MaskingRates
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

from conftest import dyn_token, window_of
from reference import UnfusedAdamW, sequence_of


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
            opt.step(ad.sum_all(ad.mul(w, w)), 0.05)
        assert np.abs(w.data).max() < 0.05
        assert opt.t == 300 and w.grad is None

    def test_decoupled_weight_decay_pulls_to_zero(self):
        w = ad.parameter(np.array([1.0]), "w")
        opt = AdamW({"w": w}, weight_decay=0.1)
        for _ in range(10):
            opt.step(gradient_loss({"w": w}, {"w": np.zeros(1)}), 0.1)  # no loss gradient; decay alone acts
        assert w.data[0] < 1.0

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_step_equals_the_temporary_formula(self, weight_decay):
        """Five float32 steps equal, byte for byte, the formula written with a temporary per operation."""
        rng = np.random.default_rng(4)
        start = {"a": rng.standard_normal((6, 5)), "b": rng.standard_normal(5)}
        grads = [{k: rng.standard_normal(v.shape).astype(np.float32) for k, v in start.items()} for _ in range(5)]
        params = {k: ad.parameter(v.astype(np.float32), k) for k, v in start.items()}
        opt = AdamW(params, weight_decay=weight_decay)
        expected = {k: v.astype(np.float32) for k, v in start.items()}
        m = {k: np.zeros_like(v) for k, v in expected.items()}
        v = {k: np.zeros_like(x) for k, x in expected.items()}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t, (step_grads, lr) in enumerate(zip(grads, (1e-3, 5e-4, 2e-3, 1e-3, 3e-4)), start=1):
            opt.step(gradient_loss(params, step_grads), lr)
            bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
            for k, g in step_grads.items():
                m[k] *= beta1
                m[k] += (1.0 - beta1) * g
                v[k] *= beta2
                v[k] += (1.0 - beta2) * (g * g)
                update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
                if weight_decay:
                    update = update + weight_decay * expected[k]
                expected[k] = expected[k] - (lr * update).astype(expected[k].dtype)
        for k, p in params.items():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == expected[k].tobytes()
            assert p.grad is None  # the step consumes the gradient


def gradient_loss(params, grads):
    """A loss whose gradient with respect to ``params[k]`` is exactly ``grads[k]``: the sum of ``p · g``."""
    loss = None
    for k, p in params.items():
        term = ad.sum_all(ad.mul(p, ad.constant(grads[k])))
        loss = term if loss is None else ad.add(loss, term)
    return loss


class TestFusedStep:
    """``AdamW.step`` updates inside ``ad.backward``: the same bytes as a full backward and then the update."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_equals_backward_then_update(self, weight_decay):
        """Three float32 pre-training steps of one model, fused and unfused: every parameter byte for byte."""
        _, corpus, vocab, provider, config = small_setup()
        windows = prepare_windows(corpus, Split.TRAIN, vocab, config.window_minutes, config.encoder.max_seq_len)
        rngs = [(np.random.default_rng([5, i]),) * 2 for i in range(8)]
        batch, slots = training._masked_batch(windows[:8], rngs, vocab, provider, MaskingRates())
        fused, unfused = Model.build(config, seed=3), Model.build(config, seed=3)
        optimizers = AdamW(fused.parameters(), weight_decay), UnfusedAdamW(unfused.parameters(), weight_decay)

        def loss(model, step):
            rng = np.random.default_rng([9, step])
            return training.mlvm_loss(model.pretrain_outputs(batch, "train", rng, slots.rows), slots, 3.0, 1.0).node

        for step, lr in enumerate((1e-2, 5e-3, 2e-2)):
            optimizers[0].step(loss(fused, step), lr)
            optimizers[1].zero_grad()
            ad.backward(loss(unfused, step))
            optimizers[1].step(lr)
            want = unfused.parameters()
            for name, t in fused.parameters().items():
                assert t.data.tobytes() == want[name].data.tobytes(), (step, name)
                assert t.grad is None
        assert optimizers[0].t == 3

    def test_moments_are_allocated_at_first_update(self):
        w, unused = ad.parameter(np.ones(3, np.float32), "w"), ad.parameter(np.ones(2, np.float32), "unused")
        opt = AdamW({"w": w, "unused": unused})
        assert opt._m == {} and opt._v == {}
        opt.step(ad.sum_all(ad.mul(w, w)), 0.1)
        assert set(opt._m) == set(opt._v) == {"w"} and opt._m["w"].dtype == np.float32
        assert unused.data.tobytes() == np.ones(2, np.float32).tobytes()

    def test_a_released_graph_raises_and_changes_nothing(self):
        rng = np.random.default_rng(6)
        params = {k: ad.parameter(rng.standard_normal(s).astype(np.float32), k) for k, s in (("a", (4, 3)), ("b", (3,)))}
        opt = AdamW(params, weight_decay=0.01)
        loss = ad.sum_all(ad.mul(ad.linear(ad.constant(np.ones((2, 4), np.float32)), params["a"], params["b"]),
                                 ad.constant(np.ones((2, 3), np.float32))))
        opt.step(loss, 0.1)
        before = ({k: (p.data, p.data.tobytes()) for k, p in params.items()},
                  {k: m.tobytes() for k, m in opt._m.items()}, {k: v.tobytes() for k, v in opt._v.items()})
        with pytest.raises(GraphReleased):
            opt.step(loss, 0.1)
        assert opt.t == 1
        assert {k: m.tobytes() for k, m in opt._m.items()} == before[1]
        assert {k: v.tobytes() for k, v in opt._v.items()} == before[2]
        for k, p in params.items():
            assert p.data is before[0][k][0] and p.data.tobytes() == before[0][k][1] and p.grad is None


class TestStepMemory:
    """Where the parameters dominate, a step adds one parameter's gradient and scratch at a time.

    Sixteen 128×128 float32 weights under a (2, 128) input: 1 MiB of
    parameters, ~1 KiB per activation. Each rise is the traced peak over the
    step above what was traced before it, parameters and tape included, so
    an array a step replaces counts as freed.
    """

    LAYERS, WIDTH = 16, 128

    def chain_loss(self, params, rng):
        h = ad.constant(rng.standard_normal((2, self.WIDTH)).astype(np.float32))
        for w in params.values():
            h = ad.gelu(ad.matmul(h, w))
        return ad.sum_all(h)

    def test_peak_rise_of_the_first_and_a_later_step(self):
        """The first step allocates the moments, 2 parameter sets, and must not hold a third: a step after
        a full backward holds every gradient beside them. A later step holds one gradient at a time."""
        tracemalloc.start()
        try:
            rng = np.random.default_rng(8)
            params = {f"w{i}": ad.parameter((rng.standard_normal((self.WIDTH, self.WIDTH)) * 0.1).astype(np.float32),
                                            f"w{i}") for i in range(self.LAYERS)}
            param_bytes = sum(p.data.nbytes for p in params.values())
            rises = []
            for build_optimizer in (True, False):
                loss = self.chain_loss(params, rng)
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                if build_optimizer:
                    optimizer = AdamW(params, weight_decay=0.01)
                optimizer.step(loss, 1e-3)
                rises.append(tracemalloc.get_traced_memory()[1] - before)
                del loss
        finally:
            tracemalloc.stop()
        assert rises[0] < 2.5 * param_bytes
        assert rises[1] < 0.5 * param_bytes


class StepRecorder:
    """Patches ``AdamW.step`` to keep a copy of the stepped parameters after each step."""

    def __init__(self, monkeypatch):
        self.latest: dict[str, np.ndarray] = {}
        step = AdamW.step

        def recording(optimizer, loss, lr):
            step(optimizer, loss, lr)
            self.latest = {k: p.data.copy() for k, p in optimizer.params.items()}

        monkeypatch.setattr(AdamW, "step", recording)


class TestBestEpochSnapshot:
    """The best epoch's parameters are kept by reference, so the steps after that epoch must not write into them."""

    def test_pretrain_returns_the_best_epoch_after_later_steps(self, monkeypatch):
        _, corpus, vocab, provider, config = small_setup()
        steps, at_val = StepRecorder(monkeypatch), {}

        def on_row(row):
            if row.split == "val":
                at_val[row.epoch] = steps.latest

        result = pretrain(corpus, vocab, provider, config, TrainConfig(epochs=4, batch_size=8, lr=0.5, seed=1),
                          on_row=on_row)
        assert 1 <= result.best_epoch < 4  # two epochs stepped after the snapshot
        for name, tensor in result.model.parameters().items():
            assert tensor.data.tobytes() == at_val[result.best_epoch][name].tobytes()

    def test_finetune_fold_returns_the_best_epoch_after_later_steps(self, monkeypatch):
        spec, corpus, vocab, provider, config = small_setup(patients=30)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        steps, at_val, task_loss = StepRecorder(monkeypatch), [], training._task_loss

        def recording_loss(*args):
            at_val.append(steps.latest)
            return task_loss(*args)

        monkeypatch.setattr(training, "_task_loss", recording_loss)
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.1, seed=0, warmup_epochs=0)
        result = finetune(Model.build(config, seed=0), task, corpus, vocab, provider, cfg, folds=2)
        vals = [[r.l_total for r in result.rows if r.split == f"fold{fold}-val"] for fold in range(2)]
        fold = int(np.argmin([min(v) for v in vals]))
        best = int(np.argmin(vals[fold]))
        assert best < 3  # later epochs stepped after the snapshot
        tuned = result.best_model.parameters()
        for name, array in at_val[4 * fold + best].items():
            assert tuned[name].data.tobytes() == array.tobytes()

    def test_a_step_leaves_the_replaced_arrays_unchanged(self):
        rng = np.random.default_rng(3)
        params = {k: ad.parameter(rng.standard_normal(s).astype(np.float32), k) for k, s in (("a", (4, 3)), ("b", (3,)))}
        optimizer = AdamW(params, weight_decay=0.01)
        snapshot = {k: p.data for k, p in params.items()}
        before = {k: a.copy() for k, a in snapshot.items()}
        for _ in range(3):
            grads = {k: rng.standard_normal(p.shape).astype(np.float32) for k, p in params.items()}
            optimizer.step(gradient_loss(params, grads), 0.1)
        for k, p in params.items():
            assert p.data is not snapshot[k] and snapshot[k].tobytes() == before[k].tobytes()


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

    @pytest.mark.parametrize("field,value", [("lr", math.nan), ("lr", math.inf), ("lr", -math.inf), ("lr", 0.0),
                                             ("lr", -1e-3), ("weight_decay", math.nan),
                                             ("weight_decay", math.inf), ("weight_decay", -0.01),
                                             ("alpha", math.nan), ("alpha", -3.0), ("beta", math.inf),
                                             ("beta", -1.0)])
    def test_non_finite_or_out_of_range_step_setting_rejected(self, field, value):
        """A NaN lr passed ``lr <= 0``: one step turned every parameter into NaN, and pretrain returned it.
        A negative loss weight trained the model to maximize that term."""
        with pytest.raises(InvalidSpec, match=field):
            TrainConfig(**{field: value})


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
        vals = [r.l_total for r in result.rows if r.split == "val"]
        assert vals[-1] < vals[0]
        assert result.best_epoch >= 1

    def test_validation_batches_encoded_once(self, monkeypatch):
        _, corpus, vocab, provider, config = small_setup()
        sizes, encode = [], training.encode_batch

        def counting(windows, *args, **kwargs):
            sizes.append(len(windows))
            return encode(windows, *args, **kwargs)

        monkeypatch.setattr(training, "encode_batch", counting)
        pretrain(corpus, vocab, provider, config, TrainConfig(epochs=3, batch_size=8, lr=3e-4, seed=1))
        n_train, n_val = (len(prepare_windows(corpus, split, vocab, 1440, 48))
                          for split in (Split.TRAIN, Split.VAL))
        assert n_val and len(sizes) == 3 * -(-n_train // 8) + -(-n_val // 8)
        assert sum(sizes) == 3 * n_train + n_val

    def test_batches_without_a_masked_slot_are_skipped(self, monkeypatch):
        """A train batch with nothing to predict takes no step, and a val batch with nothing is dropped."""
        _, corpus, vocab, provider, config = small_setup()
        passes, pretrain_outputs = [], Model.pretrain_outputs

        def recording(model, batch, mode="eval", rng=None, rows=None):
            passes.append(mode)
            return pretrain_outputs(model, batch, mode, rng, rows)

        monkeypatch.setattr(Model, "pretrain_outputs", recording)
        result = pretrain(corpus, vocab, provider, config, TrainConfig(epochs=1, batch_size=1, lr=3e-4, seed=1),
                          MaskingRates(select=0.02))
        n_train, n_val = (len(prepare_windows(corpus, split, vocab, 1440, 48)) for split in (Split.TRAIN, Split.VAL))
        assert 0 < passes.count("train") < n_train and 0 < passes.count("eval") < n_val
        assert [r.split for r in result.rows] == ["train", "val"]
        assert all(np.isfinite(r.l_total) for r in result.rows)

    def test_an_epoch_without_a_masked_slot_raises(self):
        _, corpus, vocab, provider, config = small_setup()
        with pytest.raises(NoMaskedSlots):
            pretrain(corpus, vocab, provider, config, TrainConfig(epochs=1, batch_size=8, lr=3e-4, seed=1),
                     MaskingRates(select=1e-12))

    def test_val_split_without_a_masked_slot_runs_every_epoch(self, monkeypatch):
        """A val split whose batches all mask nothing behaves like one with no windows."""
        _, corpus, vocab, provider, config = small_setup()
        n_val_batches = -(-len(prepare_windows(corpus, Split.VAL, vocab, 1440, 48)) // 8)
        calls, masked_slots = [], training.masked_slots

        def val_masks_nothing(plans):  # the val batches are built first
            calls.append(len(plans))
            if len(calls) <= n_val_batches:
                plans = [replace(p, mask_feature=np.zeros_like(p.mask_feature), mask_value=np.zeros_like(p.mask_value))
                         for p in plans]
            return masked_slots(plans)

        monkeypatch.setattr(training, "masked_slots", val_masks_nothing)
        cfg = TrainConfig(epochs=3, batch_size=8, lr=3e-4, seed=1, patience=0)
        result = pretrain(corpus, vocab, provider, config, cfg)
        assert n_val_batches and [(r.epoch, r.split) for r in result.rows] == [(1, "train"), (2, "train"), (3, "train")]
        assert result.best_epoch == 0

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

    @pytest.mark.parametrize("folds", [1, 0])
    def test_fewer_than_two_folds_is_refused(self, folds):
        """One fold would validate on every pool patient and train on none."""
        spec, corpus, vocab, provider, config = small_setup(patients=12)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=0)
        with pytest.raises(InvalidSpec, match="two folds"):
            finetune(Model.build(config, seed=0), task, corpus, vocab, provider, cfg, folds=folds)

    def test_non_finite_fold_validation_loss_diverges(self, monkeypatch):
        spec, corpus, vocab, provider, config = small_setup(patients=12)
        task = Task("binary", lambda stay: oracle_label(stay, spec))
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0)
        monkeypatch.setattr(training, "_task_loss", lambda *args: float("nan"))
        with pytest.raises(DivergedLoss, match="validation loss at fold 0 epoch 1"):
            finetune(Model.build(config, seed=0), task, corpus, vocab, provider, cfg, folds=2)

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


def sample_view(samples):
    return [(s.label, [(w.stay_id, sequence_of(w).tokens) for w in s.windows]) for s in samples]


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

        assert [tuple(map(sample_view, fold)) for fold in seen] == [tuple(map(sample_view, fold)) for fold in expected]
        stays = corpus.stays_in(Split.TRAIN) + corpus.stays_in(Split.VAL) + corpus.stays_in(Split.TEST)
        assert sorted(segmented) == sorted(s.stay_id for s in stays)


class TestTask:
    @pytest.mark.parametrize("n_windows", [0, -1])
    def test_needs_a_window(self, n_windows):
        with pytest.raises(InvalidSpec):
            Task("binary", lambda stay: 0, n_windows=n_windows)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 0, 0.0, -1.0, True, "heavy", None])
    def test_class_weight_is_auto_or_a_finite_positive_number(self, weight):
        with pytest.raises(InvalidSpec, match="class_weight"):
            Task("binary", lambda stay: 0, class_weight=weight)

    @pytest.mark.parametrize("weight", ["auto", 1, 0.25, 1e30])
    def test_class_weight_accepted(self, weight):
        assert Task("binary", lambda stay: 0, class_weight=weight).class_weight == weight


class TestPrepareWindows:
    def test_windows_are_padded_and_normalized(self):
        _, corpus, vocab, provider, config = small_setup()
        windows = prepare_windows(corpus, Split.TRAIN, vocab, 1440, 48)
        assert windows
        assert all(w.real_length <= 48 and w.max_len == 48 for w in windows)
        assert max(w.real_length for w in windows) == 48  # some were truncated


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
        together = encode_batch([window_of(t, longest + extra) for t in token_lists],
                                INVARIANCE_PROVIDER)
        joint = INVARIANCE_MODEL.hidden_states(together).data
        for row, tokens in zip(joint, token_lists):
            alone = encode_batch([window_of(tokens, len(tokens) + 1)], INVARIANCE_PROVIDER)
            real = len(tokens) + 1
            np.testing.assert_allclose(row[:real], INVARIANCE_MODEL.hidden_states(alone).data[0],
                                       atol=1e-6, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(window_tokens, min_size=1, max_size=6), st.integers(0, 24))
    def test_predict_scores(self, token_lists, extra):
        longest = max(len(t) for t in token_lists) + 1

        def samples(length):
            return [Sample([window_of(t, length)], 0) for t in token_lists]

        together = predict_scores(INVARIANCE_MODEL, samples(longest + extra), INVARIANCE_PROVIDER,
                                  "binary", batch_size=len(token_lists))
        alone = predict_scores(INVARIANCE_MODEL, samples(longest), INVARIANCE_PROVIDER, "binary", batch_size=1)
        np.testing.assert_allclose(together, alone, atol=1e-6, rtol=0)


FLOAT32_MODEL = Model.build(ModelConfig(
    encoder=EncoderConfig(layers=2, hidden=64, heads=4, ffn_dim=64, max_seq_len=64, dropout=0.1),
    d_pre=8, window_minutes=1440, feature_vocab=10, value_vocab=6, head_mode="task",
), seed=0)
SCORE_BOUND = 1e-5  # absolute, on probabilities: the benchmark's batch-1 vs batch-N tolerance


class TestFloat32ScoreInvariance:
    """In the training dtype, scores move at most at float32 rounding with the batch size or the PAD suffix.

    Batch size and padding change how many rows each dense product runs
    over; a product over a single row (the CLS-only top layer of a batch of
    one) runs another BLAS kernel, which rounds differently.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.lists(window_tokens, min_size=2, max_size=6))
    def test_batch_one_equals_batch_n(self, token_lists):
        longest = max(len(t) for t in token_lists) + 1
        samples = [Sample([window_of(t, longest)], 0) for t in token_lists]
        together = predict_scores(FLOAT32_MODEL, samples, INVARIANCE_PROVIDER, "binary", batch_size=len(samples))
        alone = predict_scores(FLOAT32_MODEL, samples, INVARIANCE_PROVIDER, "binary", batch_size=1)
        assert together.dtype == np.float32
        assert np.max(np.abs(together - alone)) <= SCORE_BOUND

    @settings(max_examples=30, deadline=None)
    @given(st.lists(window_tokens, min_size=1, max_size=4), st.integers(1, 24))
    def test_pad_rows_do_not_move_scores(self, token_lists, extra):
        def scores(extra_cap):
            return predict_scores(FLOAT32_MODEL, [Sample([window_of(t, len(t) + 1 + extra_cap)], 0) for t in token_lists],
                                  INVARIANCE_PROVIDER, "binary", batch_size=1)

        assert np.max(np.abs(scores(extra) - scores(0))) <= SCORE_BOUND


CHECKPOINT_CONFIGS = st.builds(
    lambda layers, heads, head_dim, ffn, head_mode, task_dim: ModelConfig(
        encoder=EncoderConfig(layers=layers, hidden=heads * head_dim, heads=heads, ffn_dim=ffn,
                              max_seq_len=16, dropout=0.1),
        d_pre=INVARIANCE_PROVIDER.dim, window_minutes=1440, feature_vocab=9, value_vocab=6,
        head_mode=head_mode, task_dim=task_dim),
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 4), st.integers(1, 8),
    st.sampled_from(["pretrain", "task"]), st.integers(1, 3))


def save_with_config(path, config, model):
    from icuseq.encoder import save_checkpoint

    save_checkpoint(path, config, model.parameters())


FUZZ_MODEL = Model.build(ModelConfig(
    encoder=EncoderConfig(layers=1, hidden=4, heads=2, ffn_dim=3, max_seq_len=8, dropout=0.1),
    d_pre=2, window_minutes=6, feature_vocab=5, value_vocab=4), seed=0)


class TestCheckpointRobustness:
    """A malformed checkpoint loads, or raises an IcuseqError: never a raw exception or a huge allocation."""

    @pytest.mark.parametrize("change, error", [
        pytest.param(lambda c: [], FormatError, id="array"),
        pytest.param(lambda c: "config", FormatError, id="string"),
        pytest.param(lambda c: {**c, "layers": "a"}, ConfigMismatch, id="text-layers"),
        pytest.param(lambda c: {**c, "hidden": 4.0}, ConfigMismatch, id="float-hidden"),
        pytest.param(lambda c: {**c, "heads": True}, ConfigMismatch, id="bool-heads"),
        pytest.param(lambda c: {**c, "window_minutes": -5}, ConfigMismatch, id="negative-window"),
        pytest.param(lambda c: {**c, "dropout": None}, ConfigMismatch, id="null-dropout"),
        pytest.param(lambda c: {**c, "task_dropout": 1.0}, ConfigMismatch, id="dropout-one"),
        pytest.param(lambda c: {**c, "head_mode": "other"}, ConfigMismatch, id="head-mode"),
        pytest.param(lambda c: {k: v for k, v in c.items() if k != "d_pre"}, ConfigMismatch, id="missing"),
        # sizes the arrays in the file do not have; building them would need terabytes
        pytest.param(lambda c: {**c, "window_minutes": 10**12}, ConfigMismatch, id="huge-window"),
        pytest.param(lambda c: {**c, "feature_vocab": 10**12}, ConfigMismatch, id="huge-vocab"),
        pytest.param(lambda c: {**c, "layers": 10**6}, ConfigMismatch, id="huge-depth"),
        pytest.param(lambda c: {**c, "heads": 10**30}, ConfigMismatch, id="heads-not-dividing-hidden"),
        pytest.param(lambda c: {**c, "max_seq_len": 2**31}, ConfigMismatch, id="huge-seq-len"),
    ])
    def test_malformed_config_block(self, tmp_path, change, error):
        path = str(tmp_path / "model.icub")
        save_with_config(path, change(FUZZ_MODEL.config.to_dict()), FUZZ_MODEL)
        with pytest.raises(error):
            Model.load(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 2**20),
                              st.integers(0, 255)), min_size=1, max_size=4), st.booleans())
    def test_byte_mutations(self, mutations, in_config):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.icub")
            FUZZ_MODEL.save(path)
            data = bytearray(open(path, "rb").read())
            config_end = 9 + int.from_bytes(data[5:9], "little")
            for kind, at, byte in mutations:
                at = at % config_end if in_config else at % (len(data) + 1)
                if kind == "insert":
                    data[at:at] = bytes([byte])
                elif at < len(data):
                    if kind == "replace":
                        data[at] = byte
                    else:
                        del data[at]
            open(path, "wb").write(bytes(data))
            try:
                loaded = Model.load(path)
            except IcuseqError:
                return
        assert loaded.parameters().keys() == FUZZ_MODEL.parameters().keys()


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

        windows = [window_of(t[:15], 16) for t in token_lists]
        if config.head_mode == "task":
            samples = [Sample([w], 0) for w in windows]
            kind = "binary" if config.task_dim == 1 else "multilabel"
            assert np.array_equal(predict_scores(loaded, samples, INVARIANCE_PROVIDER, kind),
                                  predict_scores(model, samples, INVARIANCE_PROVIDER, kind))
        else:
            batch = encode_batch(windows, INVARIANCE_PROVIDER)
            for got, want in zip(loaded.pretrain_outputs(batch), model.pretrain_outputs(batch)):
                assert np.array_equal(got.data, want.data)


ONE_MAKER_CONFIG = ModelConfig(
    encoder=EncoderConfig(layers=2, hidden=8, heads=2, ffn_dim=6, max_seq_len=16, dropout=0.1),
    d_pre=5, window_minutes=7, feature_vocab=9, value_vocab=6, task_dim=3)


def drawn_before_makers(config, seed, dtype):
    """The arrays ``Model.build`` drew before the init functions took a maker: the old formulas, in the old order."""
    rng = np.random.default_rng([seed, 0])
    d_pre, h, f = config.d_pre, config.encoder.hidden, config.encoder.ffn_dim
    bound = 1.0 / np.sqrt(d_pre)
    uniform = lambda *shape: rng.uniform(-bound, bound, size=shape).astype(dtype)  # noqa: E731
    normal = lambda *shape: (rng.standard_normal(shape) * 0.02).astype(dtype)  # noqa: E731
    zeros, ones = (lambda n: np.zeros(n, dtype=dtype)), (lambda n: np.ones(n, dtype=dtype))
    out = {"embedder.w_f": uniform(d_pre, h), "embedder.b_f": zeros(h),
           "embedder.w_x": uniform(d_pre, h), "embedder.b_x": zeros(h),
           "embedder.time_table": normal(config.window_minutes, h),
           "embedder.duration_table": normal(config.window_minutes, h),
           "embedder.feature_specials": normal(3, d_pre), "embedder.value_specials": normal(3, d_pre),
           "embedder.ln_gain": ones(h), "embedder.ln_bias": zeros(h)}
    for i in range(config.encoder.layers):
        layer = {"wq": normal(h, h), "bq": zeros(h), "wk": normal(h, h), "bk": zeros(h),
                 "wv": normal(h, h), "bv": zeros(h), "wo": normal(h, h), "bo": zeros(h),
                 "ln1_gain": ones(h), "ln1_bias": zeros(h), "ffn_w1": normal(h, f), "ffn_b1": zeros(f),
                 "ffn_w2": normal(f, h), "ffn_b2": zeros(h), "ln2_gain": ones(h), "ln2_bias": zeros(h)}
        out.update({f"encoder.layer{i}.{name}": a for name, a in layer.items()})
    if config.head_mode == "pretrain":
        out.update({"heads.feature_w": normal(h, config.feature_vocab), "heads.feature_b": zeros(config.feature_vocab),
                    "heads.cat_w": normal(h, config.value_vocab), "heads.cat_b": zeros(config.value_vocab),
                    "heads.cont_w": normal(h, 1), "heads.cont_b": zeros(1)})
    else:
        out.update({"heads.task_w": normal(h, config.task_dim), "heads.task_b": zeros(config.task_dim)})
    return out


def assert_same_arrays(params, arrays):
    assert list(params) == list(arrays)
    for name, t in params.items():
        assert t.data.dtype == arrays[name].dtype and t.data.shape == arrays[name].shape, name
        assert t.data.tobytes() == arrays[name].tobytes(), name


class TestOneMaker:
    """Each parameter is named once, in its init function, and made by ``ad.drawn`` or by ``Model.load``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head_mode", ["pretrain", "task"])
    def test_build_draws_the_pinned_arrays(self, dtype, head_mode):
        config = replace(ONE_MAKER_CONFIG, head_mode=head_mode)
        model = Model.build(config, seed=11, dtype=dtype)
        assert_same_arrays(model.parameters(), drawn_before_makers(config, 11, dtype))
        assert all(t.requires_grad for t in model.parameters().values())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_task_head_draws_the_pinned_arrays(self, dtype):
        model = Model.build(ONE_MAKER_CONFIG, seed=11, dtype=dtype).with_task_head(2, 0.3, seed=6)
        rng = np.random.default_rng([6, 81])
        head = {"heads.task_w": (rng.standard_normal((8, 2)) * 0.02).astype(dtype),
                "heads.task_b": np.zeros(2, dtype=dtype)}
        assert_same_arrays({k: t for k, t in model.parameters().items() if k.startswith("heads.")}, head)

    @pytest.mark.parametrize("head_mode", ["pretrain", "task"])
    def test_load_draws_nothing_and_saves_the_same_bytes(self, tmp_path, monkeypatch, head_mode):
        first, second = tmp_path / "a.icub", tmp_path / "b.icub"
        Model.build(replace(ONE_MAKER_CONFIG, head_mode=head_mode), seed=3).save(str(first))

        def no_draws(*_args, **_kwargs):
            raise AssertionError("Model.load drew a parameter")

        monkeypatch.setattr(ad, "drawn", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = Model.load(str(first))
        assert all(t.requires_grad for t in loaded.parameters().values())
        loaded.save(str(second))
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_a_config_mismatch_names_the_array(self, tmp_path, change):
        params = dict(FUZZ_MODEL.parameters())
        if change == "extra":
            name = "heads.unused_w"
            params[name] = ad.parameter(np.zeros((2, 3), dtype=np.float32), name)
        else:
            name = "encoder.layer0.ffn_b2"
            del params[name]
        path = str(tmp_path / "model.icub")
        save_checkpoint(path, FUZZ_MODEL.config.to_dict(), params)
        with pytest.raises(ConfigMismatch, match=name):
            Model.load(path)


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
        ref_tape = tape_size(ref_loss)  # backward releases the graph
        ad.backward(ref_loss)

        seen, grads = {}, {}
        backward = ad.backward

        def spy_backward(loss, on_leaf):
            seen["tape"] = tape_size(loss)

            def recording(node):  # the gradient each update reads
                grads[node] = node.grad.copy()
                on_leaf(node)

            backward(loss, on_leaf=recording)

        monkeypatch.setattr(ad, "backward", spy_backward)
        model, rows, _ = training._finetune_fold(pre, task, samples, [], provider, cfg, 0)
        seen["grads"] = {name: grads[t._node] for name, t in model.parameters().items() if t._node in grads}

        trainable = full.trainable_parameters(unfrozen_layers, unfreeze_embedder)
        assert rows[0].l_total == ref_loss.item()
        assert seen["grads"].keys() == trainable.keys()
        for name, grad in seen["grads"].items():
            assert grad.tobytes() == trainable[name].grad.tobytes(), name
        frozen = [t for name, t in model.parameters().items() if name not in trainable]
        assert all(t.grad is None and not t.requires_grad for t in frozen)
        if frozen:
            assert seen["tape"] < ref_tape
        else:
            assert seen["tape"] == ref_tape

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
        batch = encode_batch([window_of(tokens, 8)], INVARIANCE_PROVIDER)
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
        samples = [Sample([window_of([dyn_token("lab: a", x, 5)], 8)], x > 0)
                   for x in (-1.0, 0.5, 2.0)]
        predict_scores(INVARIANCE_MODEL, samples, INVARIANCE_PROVIDER, "binary", batch_size=2)
        task = Task("binary", lambda stay: 0)
        for unfrozen_layers in (None, 1):  # from the embedder up, and from a frozen prefix
            batches = training._reused_batches(INVARIANCE_MODEL, samples, 2, INVARIANCE_PROVIDER,
                                               TrainConfig(unfrozen_layers=unfrozen_layers))
            training._task_loss(INVARIANCE_MODEL, task, batches(), 1.0)
        assert made and not any(t._parents for t in made)

    def test_pretrain_validation_records_no_tape(self, monkeypatch):
        _, corpus, vocab, provider, config = small_setup()
        outputs, pretrain_outputs = [], Model.pretrain_outputs

        def recording(model, batch, mode="eval", rng=None, rows=None):
            out = pretrain_outputs(model, batch, mode, rng, rows)
            if mode == "eval":
                outputs.extend(out)
            return out

        monkeypatch.setattr(Model, "pretrain_outputs", recording)
        pretrain(corpus, vocab, provider, config, TrainConfig(epochs=1, batch_size=8, lr=3e-4, seed=1))
        assert outputs and not any(t._parents for t in outputs)


def reference_finetune(pretrained, task, corpus, vocab, provider, cfg, folds):
    """Fine-tuning with nothing computed once: the parts of ``finetune`` a fold can reuse, recomputed.

    Each fold copies every parameter of ``pretrained``, and each eval pass
    encodes its batches and runs the whole model from the embedder up.
    Returns the rows, the per-fold metrics, each fold's raw test scores and
    the best fold's model.
    """
    config = pretrained.config
    test = build_samples(corpus, Split.TEST, task, vocab, config.window_minutes, config.encoder.max_seq_len)
    test_labels = np.asarray([s.label for s in test], dtype=np.float64)

    def eval_passes(model, samples, batch_size):
        model, n_windows = model.detached(), max(len(s.windows) for s in samples)
        for start in range(0, len(samples), batch_size):
            idx = np.arange(start, min(start + batch_size, len(samples)))
            slots, labels = training._sample_batches(samples, idx, n_windows, provider)
            yield model.task_scores(slots), labels

    rows, per_fold, scores, best = [], [], [], (np.inf, None)
    fold_samples = per_fold_corpus_samples(corpus, task, vocab, config, cfg.seed, folds)
    for fold, (train, val) in enumerate(fold_samples):
        model = pretrained.with_task_head(task.out_dim, config.task_dropout, seed=cfg.seed + fold)
        trainable = model.trainable_parameters(cfg.unfrozen_layers, cfg.unfreeze_embedder)
        for name, tensor in model.parameters().items():
            tensor._node.requires_grad = name in trainable
        optimizer = UnfusedAdamW(trainable, weight_decay=cfg.weight_decay)
        n_windows = max(len(s.windows) for s in train)
        weight = training._class_weight(task, np.asarray([s.label for s in train], dtype=np.float32))
        fold_best, state = np.inf, {}
        for epoch in range(1, cfg.epochs + 1):
            lr = linear_lr(cfg.lr, epoch, cfg.epochs, cfg.resolved_warmup)
            order = np.random.default_rng([cfg.seed, 90, fold, epoch]).permutation(len(train))
            train_loss, steps = 0.0, 0
            for start in range(0, len(order), cfg.batch_size):
                slots, labels = training._sample_batches(train, order[start:start + cfg.batch_size],
                                                         n_windows, provider)
                rng = np.random.default_rng([cfg.seed, 91, fold, epoch, start])
                loss = training.finetune_loss(task.kind, model.task_scores(slots, "train", rng), labels, weight)
                optimizer.zero_grad()
                ad.backward(loss)
                optimizer.step(lr)
                train_loss, steps = train_loss + loss.item(), steps + 1
            val_total, count = 0.0, 0
            for logits, labels in eval_passes(model, val, cfg.batch_size):
                val_total += training.finetune_loss(task.kind, logits, labels, weight).item() * len(labels)
                count += len(labels)
            rows += [training.LossRow(epoch, f"fold{fold}-train", 0.0, 0.0, 0.0, train_loss / steps, lr),
                     training.LossRow(epoch, f"fold{fold}-val", 0.0, 0.0, 0.0, val_total / count, lr)]
            if val_total / count < fold_best:
                fold_best, state = val_total / count, {k: t.data.copy() for k, t in trainable.items()}
        for name, tensor in trainable.items():
            tensor.data = state[name]
        if fold_best < best[0]:
            best = (fold_best, model)
        raw = np.concatenate([logits.data for logits, _ in eval_passes(model, test, 2 * cfg.batch_size)])
        scores.append(expit(raw))
        per_fold.append({"auroc": training.auroc(scores[-1], test_labels),
                         "auprc": training.auprc(scores[-1], test_labels)})
    return rows, per_fold, scores, best[1]


def finetune_recording_scores(monkeypatch, *args):
    """``finetune``'s result and the raw test scores each fold passed to ``auroc``."""
    scores, auroc = [], training.auroc

    def recording(s, labels):
        scores.append(np.array(s))
        return auroc(s, labels)

    with monkeypatch.context() as patch:
        patch.setattr(training, "auroc", recording)
        return finetune(*args), scores


def assert_same_finetune(result, scores, reference):
    rows, per_fold, ref_scores, ref_best = reference
    assert result.rows == rows
    assert list(result.report.per_fold) == per_fold
    assert [s.tobytes() for s in scores] == [s.tobytes() for s in ref_scores]
    ref_params = ref_best.parameters()
    for name, tensor in result.best_model.parameters().items():
        assert tensor.data.tobytes() == ref_params[name].data.tobytes(), name


def golden_setup(n_windows, patients=24, ratios=(0.7, 0.15, 0.15)):
    """Stays of 24-48 h, so some samples have two windows and others repeat their only one."""
    spec = GeneratorSpec(patients=patients, features=8, rate=0.008, stay_hours=36.0, stay_jitter_hours=12.0,
                         signal_incidence=0.4)
    corpus = assign_splits(parse_event_lines(generate_lines(spec, seed=2)), ratios, seed=0)
    vocab = build_vocabularies(corpus)
    provider = StubProvider(dim=8, seed=0)
    config = ModelConfig(
        encoder=EncoderConfig(layers=GOLDEN_LAYERS, hidden=16, heads=2, ffn_dim=8, max_seq_len=48, dropout=0.1),
        d_pre=8, window_minutes=1440, feature_vocab=vocab.feature_size, value_vocab=vocab.value_size,
    )
    task = Task("binary", lambda stay: oracle_label(stay, spec), n_windows=n_windows)
    return Model.build(config, seed=0), task, corpus, vocab, provider


class TestFrozenPrefixReuse:
    """Sharing frozen arrays and reusing eval prefixes leaves every fine-tune output bit for bit unchanged."""

    @pytest.mark.parametrize("n_windows", [1, 2])
    @pytest.mark.parametrize("unfreeze_embedder", [False, True])
    @pytest.mark.parametrize("unfrozen_layers", [0, 1, GOLDEN_LAYERS, None])
    def test_equals_full_recompute(self, monkeypatch, unfrozen_layers, unfreeze_embedder, n_windows):
        pre, task, corpus, vocab, provider = golden_setup(n_windows)
        cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=0, warmup_epochs=0,
                          unfrozen_layers=unfrozen_layers, unfreeze_embedder=unfreeze_embedder)
        result, scores = finetune_recording_scores(monkeypatch, pre, task, corpus, vocab, provider, cfg, 2)
        assert_same_finetune(result, scores, reference_finetune(pre, task, corpus, vocab, provider, cfg, 2))

    def test_batches_past_the_bound_are_recomputed(self, monkeypatch):
        pre, task, corpus, vocab, provider = golden_setup(2, patients=30, ratios=(0.5, 0.2, 0.3))
        cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=0, warmup_epochs=0, unfrozen_layers=1)
        prefixes, prefix = [], Model.prefix

        def counting(model, batch, depth):
            prefixes.append(depth)
            return prefix(model, batch, depth)

        monkeypatch.setattr(Model, "prefix", counting)
        finetune(pre, task, corpus, vocab, provider, cfg, 2)
        unbounded = len(prefixes)
        prefixes.clear()
        # room for one test batch of 4 stays at the longest batch length
        monkeypatch.setattr(training, "REUSE_BYTES", 4 * 2 * pre.config.encoder.max_seq_len * 16 * 4)
        result, scores = finetune_recording_scores(monkeypatch, pre, task, corpus, vocab, provider, cfg, 2)
        assert 0 < len(prefixes) < unbounded and set(prefixes) == {GOLDEN_LAYERS - 1}
        assert_same_finetune(result, scores, reference_finetune(pre, task, corpus, vocab, provider, cfg, 2))

    @pytest.mark.parametrize("unfrozen_layers", [0, 1])
    def test_pretrained_model_untouched_and_frozen_arrays_shared(self, unfrozen_layers):
        pre, task, corpus, vocab, provider = golden_setup(1)
        before = {name: (t, t.data, t.data.tobytes(), t.requires_grad, t.grad)
                  for name, t in pre.parameters().items()}
        cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=0, warmup_epochs=0,
                          unfrozen_layers=unfrozen_layers)
        best = finetune(pre, task, corpus, vocab, provider, cfg, 2).best_model
        for name, t in pre.parameters().items():
            tensor, data, raw, requires_grad, grad = before[name]
            assert t is tensor and t.data is data and t.data.tobytes() == raw, name
            assert t.requires_grad == requires_grad and t.grad is grad, name
        trainable = best.trainable_parameters(unfrozen_layers)
        for name, t in best.parameters().items():
            if name.startswith("heads."):
                continue
            assert np.shares_memory(t.data, before[name][1]) == (name not in trainable), name

    def test_task_head_copies_only_trainable_arrays(self):
        pre = golden_setup(1)[0]
        params = pre.parameters()
        model = pre.with_task_head(1, 0.5, seed=0, unfrozen_layers=1)
        trainable = model.trainable_parameters(1)
        for name, t in model.parameters().items():
            if name.startswith("heads."):
                assert name in trainable and t.requires_grad
                continue
            assert t is not params[name] and t.data.tobytes() == params[name].data.tobytes(), name
            assert t.requires_grad == (name in trainable), name
            assert np.shares_memory(t.data, params[name].data) == (name not in trainable), name

    def test_bound_keeps_leading_batches_with_every_slot(self, monkeypatch):
        window = lambda x: window_of([dyn_token("lab: a", x, 5)], 8)  # noqa: E731
        samples = [Sample([window(1.0), window(2.0)], 1), Sample([window(3.0)], 0), Sample([window(4.0)], 0)]
        token_bytes = INVARIANCE_MODEL.config.encoder.hidden * 8  # float64
        monkeypatch.setattr(training, "REUSE_BYTES", 2 * 8 * token_bytes)  # one batch: 2 slots of 8 tokens
        batches = training._reused_batches(INVARIANCE_MODEL, samples, 1, INVARIANCE_PROVIDER,
                                           TrainConfig(unfrozen_layers=1))
        for _ in range(2):
            got = list(batches())
            assert [len(b.slots) for b in got] == [2, 2, 2]
            assert [b.below is not None for b in got] == [True, False, False]

    def test_no_reuse_between_calls(self, monkeypatch):
        pre, task, corpus, vocab, provider = golden_setup(2)
        cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=0, warmup_epochs=0, unfrozen_layers=1)
        calls = []
        for owner, name in ((training, "encode_batch"), (training, "compose_batch"),
                            (training.enc, "forward")):
            def counting(*args, fn=getattr(owner, name), name=name, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)

        def work(call):
            calls.clear()
            call()
            return sorted(calls)

        tune = lambda: finetune(pre, task, corpus, vocab, provider, cfg, 2)  # noqa: E731
        first = work(tune)
        assert first and work(tune) == first
        model = tune().best_model
        score = lambda: evaluate(model, task, corpus, vocab, provider, batch_size=2)  # noqa: E731
        first = work(score)
        assert first and work(score) == first
