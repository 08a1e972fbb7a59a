"""The benchmark's named workloads: corpus shape, model shape and stage settings.

Each workload is an offline batch job run as a closed loop: pre-training,
then cross-validated fine-tuning, then test evaluation, each stage starting
when the previous one returns. Only the generator seed and the model seed
vary between runs; both come from the benchmark's ``--seed``. What each
workload exercises, and why, is stated in BENCHMARK.json.

Every workload puts 16 stays in the test split at signal incidence 0.5: AUROC
needs both classes, and 16 independent labels are all equal with probability
2 * 0.5**16, about 3e-5, so no seed makes evaluation fail for want of a class.
"""

from __future__ import annotations

from dataclasses import dataclass


# shared by every workload
FEATURES = 40
SIGNAL_INCIDENCE = 0.5
WINDOW_MINUTES = 1440
UNFROZEN_LAYERS = 1  # fine-tuning updates the top encoder layer and the task head
SETUP_REPS = 9  # set-ups per run; setup_s is their median
PRETRAIN_BATCH = 8
FFN_DIM = 64  # the paper's FFN width, kept for the small models too


@dataclass(frozen=True)
class Workload:
    name: str
    # synthetic corpus
    patients: int
    rate: float  # per-feature events per minute
    stay_hours: float
    ratios: tuple[float, float, float]
    # model
    hidden: int
    layers: int
    heads: int
    d_pre: int
    max_seq_len: int
    # pre-training
    pretrain_epochs: int = 1
    pretrain_lr: float = 1e-3
    pretrain_warmup: int = 0
    # fine-tuning: one epoch per fold, patience off
    folds: int = 2
    finetune_batch: int = 8
    finetune_lr: float = 1e-3
    eval_batch: int = 64
    eval_reps: int = 3  # evaluate calls per round; short evaluations get more samples


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="pretrain-dense",
        patients=28, rate=0.01, stay_hours=24.0, ratios=(0.3, 0.14, 0.56),
        hidden=64, layers=2, heads=4, d_pre=32, max_seq_len=256,
        pretrain_epochs=3, pretrain_warmup=1, finetune_batch=16,
    ),
    Workload(
        name="finetune-sparse",
        # Fixed-length stays: with 4 train stays, 72+-48 h stays made the train token count
        # differ up to 1.8x between seeds, and pretrain_tokens_per_s with it. L 256, not 512:
        # at L 512 a round took ~10 s, too few rounds fit a run to keep its figures steady.
        # 8 val stays, not 4: the val l_cont term varies with the corpus, and the spread
        # (IQR/median) of pretrain_val_loss across seeds fell from ~16% to ~9%.
        patients=28, rate=0.002, stay_hours=72.0, ratios=(0.14, 0.29, 0.57),
        hidden=64, layers=2, heads=4, d_pre=32, max_seq_len=256,
        folds=5,
    ),
    Workload(
        name="paper-width",
        patients=28, rate=0.01, stay_hours=24.0, ratios=(0.3, 0.14, 0.56),
        hidden=768, layers=6, heads=6, d_pre=768, max_seq_len=128,
        pretrain_lr=5e-5, finetune_lr=5e-5, eval_batch=8, eval_reps=2,
    ),
)}
