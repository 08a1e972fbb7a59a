"""Set-up, the closed-loop pipeline round, and the correctness checks around it."""

from __future__ import annotations

import math
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from icuseq import encoder as enc
from icuseq import ingest, synth, training
from icuseq.ingest import Corpus, Split
from icuseq.masking import MaskingRates
from icuseq.textvec import StubProvider
from icuseq.types import Vocabularies

from tracer import Patcher
from workloads import (
    FEATURES,
    FFN_DIM,
    PRETRAIN_BATCH,
    SETUP_REPS,
    SIGNAL_INCIDENCE,
    UNFROZEN_LAYERS,
    WINDOW_MINUTES,
    Workload,
)

SCORE_TOLERANCE = 1e-5  # predict_scores at batch 1 vs batch N
INVARIANCE_SAMPLES = 4  # test samples re-scored one at a time by the invariance checks


class Checks:
    """Counts stage calls and correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, label: str, fn: Callable, *args, **kwargs) -> tuple[bool, Any]:
        """Run one stage call; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:  # any escape from the program is a failed operation
            self._fail(label, traceback.format_exc())
            return False, None

    def expect(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(label, detail)
        return ok

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(label)
        print(f"check failed: {label}: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Data:
    spec: synth.GeneratorSpec
    corpus: Corpus
    vocab: Vocabularies
    provider: StubProvider


def generator_spec(wl: Workload) -> synth.GeneratorSpec:
    return synth.GeneratorSpec(
        patients=wl.patients, features=FEATURES, rate=wl.rate, signal_incidence=SIGNAL_INCIDENCE,
        stay_hours=wl.stay_hours, window_minutes=WINDOW_MINUTES,
    )


def set_up(wl: Workload, seed: int) -> Data:
    """Synthesize, parse, split, build vocabularies and the provider: the timed set-up."""
    spec = generator_spec(wl)
    lines = synth.generate_lines(spec, seed)
    corpus = ingest.assign_splits(ingest.parse_event_lines(lines), wl.ratios, seed)
    vocab = ingest.build_vocabularies(corpus)
    provider = StubProvider(wl.d_pre, seed)
    return Data(spec, corpus, vocab, provider)


def timed_set_up(wl: Workload, seed: int, checks: Checks) -> tuple[Optional[Data], list[float]]:
    """Set up SETUP_REPS times; return the last result and every wall time."""
    times, data = [], None
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ok, result = checks.call("setup", set_up, wl, seed)
        if not ok:
            return None, times
        times.append(perf_counter() - t0)
        data = result
    return data, times


# ---------------------------------------------------------------------------
# expected shape, computed from registry timestamps without icuseq.windows


@dataclass
class Shape:
    """Window counts per split, derived independently of the program's windowing."""

    windows: dict[Split, int] = field(default_factory=dict)
    real_tokens: dict[Split, int] = field(default_factory=dict)
    stays: dict[Split, int] = field(default_factory=dict)
    registries: int = 0
    truncated: int = 0
    distinct_texts: int = 0

    @property
    def total_windows(self) -> int:
        return sum(self.windows.values())

    @property
    def total_real_tokens(self) -> int:
        return sum(self.real_tokens.values())

    @property
    def total_stays(self) -> int:
        return sum(self.stays.values())


def expected_shape(wl: Workload, corpus: Corpus) -> Shape:
    shape = Shape()
    texts: set[str] = set()
    for split in Split:
        shape.windows[split] = shape.real_tokens[split] = 0
        stays = corpus.stays_in(split)
        shape.stays[split] = len(stays)
        for stay in stays:
            shape.registries += len(stay.statics) + len(stay.dynamics)
            for r in stay.statics + stay.dynamics:
                texts.add(r.feature_text)
                if not r.is_continuous:
                    texts.add(str(r.value))
            if stay.dynamics:
                start = min(r.timestamp for r in stay.dynamics)
                minutes = np.array([(r.timestamp - start).total_seconds() // 60 for r in stay.dynamics],
                                   dtype=np.int64)
                per_window = np.bincount(minutes // WINDOW_MINUTES)
            else:
                per_window = np.zeros(1, dtype=np.int64)
            raw = 1 + len(stay.statics) + per_window
            shape.windows[split] += len(raw)
            shape.real_tokens[split] += int(np.minimum(raw, wl.max_seq_len).sum())
            shape.truncated += int((raw > wl.max_seq_len).sum())
    shape.distinct_texts = len(texts)
    return shape


def shape_record(wl: Workload, shape: Shape) -> dict:
    n = shape.total_windows
    return {
        "stays": shape.total_stays,
        "registries_per_stay": shape.registries / shape.total_stays,
        "windows": n,
        "windows_per_stay": n / shape.total_stays,
        "real_tokens": shape.total_real_tokens,
        "pad_frac": 1.0 - shape.total_real_tokens / (n * wl.max_seq_len),
        "truncated_frac": shape.truncated / n,
        "distinct_texts": shape.distinct_texts,
    }


# ---------------------------------------------------------------------------
# one closed-loop round: pretrain -> finetune -> evaluate


class Outputs:
    """Records what prepare_windows, build_samples and predict_scores return during a round.

    Installed on ``icuseq.training`` for every round, traced or not: it adds
    one Python call per wrapped call and no per-token work.
    """

    def __init__(self):
        self.windows: list[tuple[Split, list]] = []
        self.samples: list[tuple[Split, list]] = []
        self.scores: list = []

    def install(self, patcher: Patcher) -> None:
        def recording(store, keyed):
            def make(fn):
                def wrapped(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    store.append((args[1], out) if keyed else out)
                    return out
                return wrapped
            return make

        patcher.patch(training, "prepare_windows", recording(self.windows, keyed=True))
        patcher.patch(training, "build_samples", recording(self.samples, keyed=True))
        patcher.patch(training, "predict_scores", recording(self.scores, keyed=False))

    def clear(self) -> None:
        self.windows.clear()
        self.samples.clear()
        self.scores.clear()


def model_config(wl: Workload, vocab: Vocabularies) -> training.ModelConfig:
    return training.ModelConfig(
        encoder=enc.EncoderConfig(layers=wl.layers, hidden=wl.hidden, heads=wl.heads,
                                  ffn_dim=FFN_DIM, max_seq_len=wl.max_seq_len),
        d_pre=wl.d_pre, window_minutes=WINDOW_MINUTES,
        feature_vocab=vocab.feature_size, value_vocab=vocab.value_size,
    )


def pretrain_config(wl: Workload, seed: int) -> training.TrainConfig:
    return training.TrainConfig(epochs=wl.pretrain_epochs, batch_size=PRETRAIN_BATCH,
                                lr=wl.pretrain_lr, warmup_epochs=wl.pretrain_warmup,
                                patience=None, seed=seed)


def finetune_config(wl: Workload, seed: int) -> training.TrainConfig:
    return training.TrainConfig(epochs=1, batch_size=wl.finetune_batch, lr=wl.finetune_lr,
                                warmup_epochs=0, patience=None, seed=seed,
                                unfrozen_layers=UNFROZEN_LAYERS)


def task_for(spec: synth.GeneratorSpec) -> training.Task:
    """The planted binary outcome, scored on each stay's first window."""
    return training.Task("binary", lambda stay: synth.oracle_label(stay, spec))


@dataclass
class RoundResult:
    pretrain_s: float = math.nan
    finetune_s: float = math.nan
    evaluate_s: list[float] = field(default_factory=list)  # one per evaluate call
    pretrain_tokens: int = 0
    finetune_samples: int = 0
    eval_windows: int = 0  # per evaluate call
    val_loss: float = math.nan
    test_auroc: float = math.nan
    complete: bool = False


def throughput(rounds: list[RoundResult]) -> dict[str, float]:
    """Each stage's work per second over all ``rounds``: total work over total time.

    A rate over the whole measuring window rather than a median of per-round
    rates: on a shared machine whose speed switches between states for seconds
    at a time, the median of a few rounds reports whichever state held longest.
    """
    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else math.nan

    return {
        "pretrain_tokens_per_s": rate(sum(r.pretrain_tokens for r in rounds),
                                      sum(r.pretrain_s for r in rounds)),
        "finetune_samples_per_s": rate(sum(r.finetune_samples for r in rounds),
                                       sum(r.finetune_s for r in rounds)),
        "eval_windows_per_s": rate(sum(r.eval_windows * len(r.evaluate_s) for r in rounds),
                                   sum(sum(r.evaluate_s) for r in rounds)),
    }


def _timed(checks: Checks, label: str, fn: Callable, *args) -> tuple[Any, float]:
    """One stage call and its wall time; (None, nan) when it raised."""
    t0 = perf_counter()
    ok, out = checks.call(label, fn, *args)
    return (out, perf_counter() - t0) if ok else (None, math.nan)


def _rows_finite(rows) -> bool:
    return all(math.isfinite(v) for r in rows for v in (r.l_f, r.l_cat, r.l_cont, r.l_total))


def run_round(wl: Workload, seed: int, data: Data, shape: Shape, outputs: Outputs,
              checks: Checks, scratch_dir: Optional[str] = None) -> RoundResult:
    """Pre-train, fine-tune and evaluate once, timing each stage, then check the outputs.

    With a ``scratch_dir`` the round also checks that scores do not depend on
    the batch size and survive a checkpoint round-trip.
    """
    res = RoundResult()
    mcfg = model_config(wl, data.vocab)
    task = task_for(data.spec)

    outputs.clear()
    pre, res.pretrain_s = _timed(checks, "pretrain", training.pretrain, data.corpus, data.vocab,
                                 data.provider, mcfg, pretrain_config(wl, seed), MaskingRates())
    if pre is None:
        return res
    res.pretrain_tokens = shape.real_tokens[Split.TRAIN] * wl.pretrain_epochs
    res.val_loss = pre.best_val_total
    checks.expect("pretrain.rows_finite", _rows_finite(pre.rows) and math.isfinite(pre.best_val_total))
    prepared = {split: out for split, out in outputs.windows}
    for split in (Split.TRAIN, Split.VAL):
        got = prepared.get(split, [])
        real = sum(w.real_length for w in got)
        checks.expect(f"pretrain.{split.value}_windows",
                      (len(got), real) == (shape.windows[split], shape.real_tokens[split]),
                      f"{len(got)} windows / {real} tokens, expected "
                      f"{shape.windows[split]} / {shape.real_tokens[split]}")

    outputs.clear()
    fin, res.finetune_s = _timed(checks, "finetune", training.finetune, pre.model, task, data.corpus,
                                 data.vocab, data.provider, finetune_config(wl, seed), wl.folds)
    if fin is None:
        return res
    fold_train = [len(out) for split, out in outputs.samples if split is Split.TRAIN]
    fold_val = [len(out) for split, out in outputs.samples if split is Split.VAL]
    pool = shape.stays[Split.TRAIN] + shape.stays[Split.VAL]
    res.finetune_samples = sum(fold_train)
    checks.expect("finetune.rows_finite", _rows_finite(fin.rows))
    checks.expect("finetune.fold_samples",
                  len(fold_train) == len(fold_val) == wl.folds
                  and all(t + v == pool for t, v in zip(fold_train, fold_val)),
                  f"train {fold_train} + val {fold_val} per fold, expected {pool}")

    res.eval_windows = shape.stays[Split.TEST]  # one window per test sample
    for _ in range(wl.eval_reps):
        outputs.clear()
        metrics, seconds = _timed(checks, "evaluate", training.evaluate, fin.best_model, task,
                                  data.corpus, data.vocab, data.provider, wl.eval_batch)
        if metrics is None:
            return res
        res.evaluate_s.append(seconds)
        res.test_auroc = metrics["auroc"]
        test_samples = [out for split, out in outputs.samples if split is Split.TEST]
        test_samples = test_samples[0] if test_samples else []
        scored = sum(len(s.windows) for s in test_samples)
        checks.expect("evaluate.test_windows",
                      (len(test_samples), scored) == (shape.stays[Split.TEST], res.eval_windows),
                      f"{len(test_samples)} samples / {scored} windows")
        checks.expect("evaluate.metrics_range",
                      all(0.0 <= metrics[k] <= 1.0 for k in ("auroc", "auprc")), str(metrics))
        scores = outputs.scores[-1] if outputs.scores else np.array([np.nan])
        checks.expect("evaluate.scores_range",
                      bool(np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))),
                      f"scores in [{scores.min()}, {scores.max()}]")
    if scratch_dir is not None:
        _check_invariance(fin.best_model, test_samples, scores, data, checks, scratch_dir)
    res.complete = True
    return res


def _check_invariance(model: training.Model, samples: list, scores: np.ndarray, data: Data,
                      checks: Checks, scratch_dir: str) -> None:
    """Scores of the first test samples do not depend on the batch size and survive a checkpoint."""
    samples = samples[:INVARIANCE_SAMPLES]
    ok, single = checks.call("predict_scores.batch1", training.predict_scores, model, samples,
                             data.provider, "binary", 1)
    if not ok:
        return
    diff = float(np.max(np.abs(single - scores[: len(samples)])))
    checks.expect("scores.batch1_equals_batchN", diff <= SCORE_TOLERANCE, f"max diff {diff:.3g}")
    path = os.path.join(scratch_dir, "model.icub")

    def round_trip():
        model.save(path)
        loaded = training.Model.load(path, expect={"head_mode": "task"})
        return training.predict_scores(loaded, samples, data.provider, "binary", 1)

    ok, again = checks.call("checkpoint.round_trip", round_trip)
    if ok:
        checks.expect("checkpoint.same_scores", bool(np.array_equal(again, single)),
                      f"max diff {float(np.max(np.abs(again - single))):.3g}")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan
