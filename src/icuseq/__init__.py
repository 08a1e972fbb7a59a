"""Event-stream tokenization, masked pre-training, and fine-tuning for sparse ICU data."""

from .errors import IcuseqError
from .ingest import Corpus, Split, Stay, assign_splits, build_vocabularies, parse_events
from .masking import MaskingPlan, MaskingRates, apply_masking, plan_masking
from .metrics import MetricReport, auprc, auroc, mae
from .objective import LossBreakdown, MaskedSlots, combine_losses, finetune_loss, masked_slots, mlvm_loss
from .synth import GeneratorSpec, generate_lines, oracle_cont_target, oracle_label, write_corpus
from .textvec import FileCacheProvider, StubProvider, read_cache, write_cache
from .training import Model, ModelConfig, Task, TrainConfig, evaluate, finetune, pretrain
from .types import Registry, Vocabularies, feature_text, validate_registry
from .windows import Tokens, segment_windows

__version__ = "0.1.0"

__all__ = [
    "Corpus", "FileCacheProvider", "GeneratorSpec", "IcuseqError", "LossBreakdown",
    "MaskedSlots", "MaskingPlan", "MaskingRates", "MetricReport", "Model", "ModelConfig", "Registry",
    "Split", "Stay", "StubProvider", "Task", "Tokens", "TrainConfig", "Vocabularies",
    "apply_masking", "assign_splits", "auprc", "auroc",
    "build_vocabularies", "combine_losses", "evaluate", "feature_text", "finetune",
    "finetune_loss", "generate_lines", "mae", "masked_slots", "mlvm_loss",
    "oracle_cont_target", "oracle_label", "parse_events", "plan_masking", "pretrain",
    "read_cache", "segment_windows",
    "validate_registry", "write_cache", "write_corpus",
]
