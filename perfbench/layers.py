"""Per-layer metrics of the traced run: which calls are wrapped, and what each metric should move.

Every ``*_s`` metric is self time in seconds per pipeline round (per set-up
for the set-up layers): the span's duration minus the part covered by other
wrapped calls below it. Summed over a stage's subtree, self times add up to
the stage's wall time, together with ``trace.counters_s``, the time the
benchmark spends counting at wrapped calls. Counts are per round too.
"""

from __future__ import annotations

from icuseq import autodiff as ad
from icuseq import encoder as enc
from icuseq import ingest, synth, training

from tracer import Patcher, Tracer

AUTODIFF_OPS = ("matmul", "add", "scale", "softmax_masked", "dropout", "layer_norm", "gelu",
                "gather_rows", "transpose", "reshape", "cross_entropy_mean")

STAGES = ("pretrain", "finetune", "evaluate")


def _encoder_pass(*args, **kwargs) -> str:
    mode = args[4] if len(args) > 4 else kwargs.get("mode", "eval")
    return f"encoder.forward_{mode}"


# (owner, attribute, span name); names match the callers' lookups
SETUP_SPANS = (
    (synth, "generate_lines", "synth.generate"),
    (ingest, "parse_event_lines", "ingest.parse"),
    (ingest, "assign_splits", "ingest.splits_vocab"),
    (ingest, "build_vocabularies", "ingest.splits_vocab"),
)

ROUND_SPANS = (
    (training, "prepare_windows", "windows.prepare"),
    (training, "build_samples", "windows.build_samples"),
    (training, "segment_windows", "windows.segment"),
    (training, "plan_masking", "masking.plan"),
    (training, "apply_masking", "masking.apply"),
    (training, "encode_batch", "embedder.encode_batch"),
    (training, "compose_batch", "embedder.compose"),
    (enc, "forward", _encoder_pass),
    (enc, "mlvm_outputs", "encoder.heads"),
    (enc, "cls_output", "encoder.heads"),
    (enc, "task_output", "encoder.heads"),
    (training, "mlvm_loss", "objective.mlvm_loss"),
    (training, "finetune_loss", "objective.finetune_loss"),
    (training.AdamW, "step", "training.optimizer_step"),
    (training.Model, "clone", "training.clone"),
    (training, "predict_scores", "training.predict_scores"),
    (training, "auroc", "metrics.score"),
    (training, "auprc", "metrics.score"),
    (ad, "backward", "autodiff.backward"),
) + tuple((ad, op, f"autodiff.{op}") for op in AUTODIFF_OPS)


# The layer -> metric map: for each per-layer metric, the end-to-end metric it should move and
# on which workload. Units and directions are declared in BENCHMARK.json.
PER_LAYER: dict[str, str] = {
    "synth.generate_s": "setup_s on pretrain-dense",
    "ingest.parse_s": "setup_s on pretrain-dense",
    "ingest.splits_vocab_s": "setup_s on pretrain-dense",
    "ingest.registries": "workload shape; setup_s scales with it",
    "ingest.registries_per_stay": "workload shape",
    "windows.prepare_s": "pretrain_tokens_per_s on pretrain-dense; ~0 on paper-width",
    "windows.build_samples_s": "finetune_samples_per_s on finetune-sparse",
    "windows.segment_s": "pretrain_tokens_per_s on pretrain-dense",
    "windows.segment_calls": "finetune_samples_per_s on finetune-sparse (window caching)",
    "windows.count": "workload shape",
    "windows.per_stay": "workload shape",
    "windows.real_tokens": "workload shape",
    "windows.pad_frac": "workload shape: dynamic padding helps finetune-sparse only",
    "windows.truncated_frac": "workload shape",
    "masking.plan_s": "pretrain_tokens_per_s on pretrain-dense",
    "masking.apply_s": "pretrain_tokens_per_s on pretrain-dense",
    "masking.slots": "work done by masking",
    "textvec.embed_calls": "pretrain_tokens_per_s on paper-width (index-based embedding)",
    "textvec.distinct_texts": "workload shape: size of an index-based text table",
    "textvec.embed_s": "pretrain_tokens_per_s on paper-width",
    "embedder.encode_batch_s": "pretrain_tokens_per_s on paper-width",
    "embedder.compose_s": "pretrain_tokens_per_s on paper-width",
    "embedder.batch_mb": "peak_rss_mb on paper-width",
    "encoder.forward_train_s": "pretrain_tokens_per_s on pretrain-dense",
    "encoder.forward_eval_s": "eval_windows_per_s on finetune-sparse",
    "encoder.heads_s": "finetune_samples_per_s on finetune-sparse",
    "autodiff.backward_s": "pretrain_tokens_per_s on all; finetune_samples_per_s on finetune-sparse",
    "autodiff.nodes_per_step": "tape size: fused ops shrink it",
    **{f"autodiff.{op}_s": {
        "matmul": "pretrain_tokens_per_s on paper-width",
        "softmax_masked": "eval_windows_per_s on finetune-sparse",
        "dropout": "finetune_samples_per_s on finetune-sparse",
    }.get(op, "pretrain_tokens_per_s on paper-width") for op in AUTODIFF_OPS},
    **{f"autodiff.{op}_calls": "tape size" for op in AUTODIFF_OPS},
    "objective.mlvm_loss_s": "pretrain_tokens_per_s on pretrain-dense",
    "objective.finetune_loss_s": "finetune_samples_per_s on finetune-sparse",
    "training.optimizer_step_s": "pretrain_tokens_per_s on paper-width",
    "training.clone_s": "finetune_samples_per_s on finetune-sparse",
    "training.predict_scores_s": "eval_windows_per_s and finetune_samples_per_s on finetune-sparse",
    "training.steps": "work done: optimizer steps per round",
    **{f"training.{stage}_self_s": f"{stage} time outside every wrapped layer"
       for stage in STAGES},
    **{f"stage.{stage}_s": f"traced wall time of training.{stage}" for stage in STAGES},
    "metrics.score_s": "eval_windows_per_s",
    "metrics.test_auroc": "information only: 16 test stays make it swing between seeds",
    "trace.pretrain_tokens_per_s_untraced": "same process, tracing off",
    "trace.pretrain_tokens_per_s_traced": "same process, tracing on",
    "trace.overhead_frac": "1 - traced / untraced pretrain_tokens_per_s",
    "trace.counters_s": "the benchmark's own counting at wrapped calls, kept out of every layer",
}


class LayerCounters:
    """Counts taken at the wrapped boundaries, beside the spans."""

    def __init__(self):
        self.texts: set[str] = set()
        self.embed_calls = 0
        self.masked_slots = 0
        self.batch_bytes = 0
        self.batches = 0
        self.tape_nodes = 0
        self.backward_calls = 0

    def on_embed(self, _result, text) -> None:
        self.embed_calls += 1
        self.texts.add(text)

    def on_plan(self, plan, *_args, **_kwargs) -> None:
        self.masked_slots += plan.n_feature_slots + plan.n_cat_slots + plan.n_cont_slots

    def on_batch(self, batch, *_args, **_kwargs) -> None:
        self.batches += 1
        self.batch_bytes += sum(v.nbytes for v in vars(batch).values() if hasattr(v, "nbytes"))

    def on_backward(self, _result, loss, *_args, **_kwargs) -> None:
        self.backward_calls += 1
        self.tape_nodes += _tape_size(loss)


def _tape_size(loss) -> int:
    """Nodes reachable from the loss through parents that require grad (what backward visits)."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        node = todo.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def instrument_setup(patcher: Patcher, tracer: Tracer) -> None:
    for owner, attr, name in SETUP_SPANS:
        patcher.patch(owner, attr, lambda fn, name=name: tracer.span(name, fn))


def instrument_round(patcher: Patcher, tracer: Tracer, counters: LayerCounters, provider) -> None:
    after = {
        "masking.plan": counters.on_plan,
        "embedder.encode_batch": counters.on_batch,
        "autodiff.backward": counters.on_backward,
    }
    for owner, attr, name in ROUND_SPANS:
        patcher.patch(owner, attr, lambda fn, name=name: tracer.span(name, fn, after.get(name)))
    for stage in STAGES:  # the benchmark's own calls into the stages: the span roots
        patcher.patch(training, stage, lambda fn, stage=stage: tracer.span(f"training.{stage}", fn))
    patcher.patch(provider, "embed_text", lambda fn: tracer.span("textvec.embed", fn, counters.on_embed))


def per_layer(setup_tracer: Tracer, n_setups: int, tracer: Tracer, counters: LayerCounters,
              n_rounds: int, shape: dict, auroc: float, untraced_tps: float, traced_tps: float) -> dict:
    """Every PER_LAYER metric's value, from the traced set-ups and traced rounds."""
    values: dict[str, float] = {
        "synth.generate_s": setup_tracer.self_s("synth.generate") / n_setups,
        "ingest.parse_s": setup_tracer.self_s("ingest.parse") / n_setups,
        "ingest.splits_vocab_s": setup_tracer.self_s("ingest.splits_vocab") / n_setups,
        "ingest.registries": shape["registries_per_stay"] * shape["stays"],
        "ingest.registries_per_stay": shape["registries_per_stay"],
        "windows.count": shape["windows"],
        "windows.per_stay": shape["windows_per_stay"],
        "windows.real_tokens": shape["real_tokens"],
        "windows.pad_frac": shape["pad_frac"],
        "windows.truncated_frac": shape["truncated_frac"],
        "masking.slots": counters.masked_slots / n_rounds,
        "textvec.embed_calls": counters.embed_calls / n_rounds,
        "textvec.distinct_texts": len(counters.texts),
        "embedder.batch_mb": counters.batch_bytes / max(counters.batches, 1) / 1e6,
        "autodiff.nodes_per_step": counters.tape_nodes / max(counters.backward_calls, 1),
        "training.steps": tracer.calls("training.optimizer_step") / n_rounds,
        "windows.segment_calls": tracer.calls("windows.segment") / n_rounds,
        "metrics.test_auroc": auroc,
        "trace.pretrain_tokens_per_s_untraced": untraced_tps,
        "trace.pretrain_tokens_per_s_traced": traced_tps,
        "trace.overhead_frac": 1.0 - traced_tps / untraced_tps,
    }
    for op in AUTODIFF_OPS:
        values[f"autodiff.{op}_calls"] = tracer.calls(f"autodiff.{op}") / n_rounds
    for stage in STAGES:
        values[f"training.{stage}_self_s"] = tracer.self_s(f"training.{stage}") / n_rounds
        values[f"stage.{stage}_s"] = tracer.total_s(f"training.{stage}") / n_rounds
    for metric in PER_LAYER:
        if metric not in values:  # the remaining *_s metrics are plain self times
            values[metric] = tracer.self_s(metric[: -len("_s")]) / n_rounds
    return values
