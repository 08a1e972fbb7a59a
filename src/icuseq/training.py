"""Pre-training and fine-tuning loops, optimizer, schedules, and evaluation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import encoder as enc
from .autodiff import Tensor
from .embedder import EmbedderParams, EncodedBatch, compose_batch, encode_batch, init_embedder
from .errors import ConfigMismatch, DivergedLoss, InvalidSpec, MissingLabels, NoMaskedSlots, ShapeMismatch, UnknownTask
from .ingest import Corpus, Split, Stay
from .masking import MaskingRates, apply_masking, plan_masking
from .metrics import MetricReport, auprc, auroc, mae
from .objective import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    LossBreakdown,
    MaskedSlots,
    combine_losses,
    finetune_loss,
    masked_slots,
    mlvm_loss,
)
from .textvec import EmbeddingProvider
from .types import Registry, Vocabularies
from .windows import Tokens, maskable, segment_windows


@dataclass(frozen=True)
class ModelConfig:
    encoder: enc.EncoderConfig
    d_pre: int
    window_minutes: int
    feature_vocab: int
    value_vocab: int
    head_mode: str = "pretrain"
    task_dim: int = 1
    task_dropout: float = 0.5

    def __post_init__(self):
        if self.d_pre < 1:  # a zero-width text vector, from --embed-dim or a cache file
            raise ShapeMismatch(f"the pre-embedding dimension d_pre must be >= 1, got {self.d_pre}")

    def to_dict(self) -> dict:
        return {
            "layers": self.encoder.layers,
            "hidden": self.encoder.hidden,
            "heads": self.encoder.heads,
            "ffn_dim": self.encoder.ffn_dim,
            "max_seq_len": self.encoder.max_seq_len,
            "dropout": self.encoder.dropout,
            "d_pre": self.d_pre,
            "window_minutes": self.window_minutes,
            "feature_vocab": self.feature_vocab,
            "value_vocab": self.value_vocab,
            "head_mode": self.head_mode,
            "task_dim": self.task_dim,
            "task_dropout": self.task_dropout,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config a checkpoint records; a missing or ill-typed field is a ``ConfigMismatch``."""
        d = {"head_mode": "pretrain", "task_dim": 1, "task_dropout": 0.5, **d}
        for key, check in _CONFIG_FIELDS.items():
            if key not in d:
                raise ConfigMismatch(f"checkpoint config missing {key!r}")
            if not check(d[key]):
                raise ConfigMismatch(f"checkpoint config has {key}={d[key]!r}")
        try:
            encoder = enc.EncoderConfig(
                layers=d["layers"], hidden=d["hidden"], heads=d["heads"],
                ffn_dim=d["ffn_dim"], max_seq_len=d["max_seq_len"], dropout=d["dropout"],
            )
        except ShapeMismatch as exc:  # heads that do not divide hidden
            raise ConfigMismatch(f"checkpoint config: {exc}") from exc
        return cls(
            encoder=encoder,
            d_pre=d["d_pre"], window_minutes=d["window_minutes"],
            feature_vocab=d["feature_vocab"], value_vocab=d["value_vocab"],
            head_mode=d["head_mode"], task_dim=d["task_dim"], task_dropout=d["task_dropout"],
        )


_CONFIG_FIELDS: dict[str, Callable[[object], bool]] = {
    **dict.fromkeys(("layers", "hidden", "heads", "ffn_dim", "max_seq_len", "d_pre", "window_minutes",
                     "feature_vocab", "value_vocab", "task_dim"), lambda x: type(x) is int and 1 <= x < 2**31),
    **dict.fromkeys(("dropout", "task_dropout"), lambda x: type(x) in (int, float) and 0 <= x < 1),
    "head_mode": lambda x: x in ("pretrain", "task"),
}


@dataclass(frozen=True)
class Prefix:
    """A batch's input of encoder layer ``depth``: the embedder and the layers below it have run."""

    depth: int
    hidden: Tensor


class Model:
    """Embedding composition, encoder stack, and the active head set."""

    def __init__(self, config: ModelConfig, embedder: EmbedderParams,
                 encoder_params: enc.EncoderParams, heads: enc.HeadSet):
        self.config = config
        self.embedder = embedder
        self.encoder = encoder_params
        self.heads = heads

    @classmethod
    def build(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "Model":
        """A fresh model: every parameter drawn from ``default_rng([seed, 0])``."""
        return cls.made(config, ad.drawn(np.random.default_rng([seed, 0]), dtype))

    @classmethod
    def made(cls, config: ModelConfig, make: ad.Maker) -> "Model":
        """The model ``config`` describes, each parameter from ``make`` in a fixed order: embedder, layers, heads."""
        hidden = config.encoder.hidden
        embedder = init_embedder(make, config.d_pre, hidden, config.window_minutes, config.encoder.dropout)
        encoder_params = enc.init_encoder(make, config.encoder)
        if config.head_mode == "pretrain":
            heads = enc.init_pretrain_heads(make, hidden, config.feature_vocab, config.value_vocab)
        else:
            heads = enc.init_task_head(make, hidden, config.task_dim, config.task_dropout)
        return cls(config, embedder, encoder_params, heads)

    def parameters(self) -> dict[str, Tensor]:
        return ad.named(self.embedder, *self.encoder.layers, self.heads)

    def trainable_parameters(self, unfrozen_layers: Optional[int] = None,
                             unfreeze_embedder: bool = False) -> dict[str, Tensor]:
        """Heads always train; optionally only the top encoder layers and the embedder.

        Fine-tuning makes every parameter outside this set a tape constant
        (``requires_grad`` False), so no op below the freeze boundary is
        recorded and ``ad.backward`` stops there.
        """
        if unfrozen_layers is None:
            return self.parameters()
        layers = self.encoder.layers[max(len(self.encoder.layers) - unfrozen_layers, 0):]
        return ad.named(*([self.embedder] if unfreeze_embedder else []), *layers, self.heads)

    def clone(self) -> "Model":
        """A copy with fresh arrays, every parameter requiring grad."""
        return self._rebound(lambda name, t: ad.parameter(t.data.copy(), name))

    def detached(self) -> "Model":
        """The same arrays wrapped as constants: its forward passes record no tape.

        The arrays are shared, not copied, and an optimizer step rebinds a
        parameter to a new array, so detach after the last step to be seen.
        """
        return self._rebound(lambda name, t: Tensor(t.data, name=name))

    def _rebound(self, wrap: Callable[[str, Tensor], Tensor]) -> "Model":
        """A model of the same config whose parameter ``name`` is ``wrap(name, tensor)`` of this model's."""
        params = self.parameters()
        return self.made(self.config, lambda name, shape, init: wrap(name, params[name]))

    def with_task_head(self, task_dim: int, task_dropout: float, seed: int,
                       unfrozen_layers: Optional[int] = None, unfreeze_embedder: bool = False) -> "Model":
        """Drop the reconstruction heads and attach a fresh task head.

        The parameters in ``trainable_parameters(unfrozen_layers,
        unfreeze_embedder)`` are fresh copies that require grad. Every other
        one is a tape constant sharing this model's array: an optimizer step
        rebinds only the parameters it updates, so the shared arrays never
        change.
        """
        make = ad.drawn(np.random.default_rng([seed, 81]), self.embedder.w_f.data.dtype)
        heads = enc.init_task_head(make, self.config.encoder.hidden, task_dim, task_dropout)
        config = replace(self.config, head_mode="task", task_dim=task_dim, task_dropout=task_dropout)
        model = Model(config, self.embedder, self.encoder, heads)
        trainable = model.trainable_parameters(unfrozen_layers, unfreeze_embedder)
        return model._rebound(lambda name, t: ad.parameter(t.data.copy(), name) if name in trainable
                              else Tensor(t.data, name=name))

    # forward paths ---------------------------------------------------------

    def hidden_states(self, batch: EncodedBatch, mode: str = "eval",
                      rng: Optional[np.random.Generator] = None, below: Optional[Prefix] = None,
                      rows: Optional[np.ndarray] = None) -> Tensor:
        """Final-layer states of ``batch``: every row, or with (B, m) ``rows`` those positions as (B, m, d).

        ``below`` is this batch's prefix from a model with the same embedder
        and bottom layers: only the layers above it run. ``rows`` is passed
        to ``enc.forward``: the top layer computes those rows only.
        """
        if below is None:
            below = Prefix(0, compose_batch(batch, self.embedder, mode, rng))
        return enc.forward(below.hidden, batch.attention_mask, self.config.encoder,
                           enc.EncoderParams(self.encoder.layers[below.depth:]), mode, rng, rows=rows)

    def prefix(self, batch: EncodedBatch, depth: int) -> Prefix:
        """The eval-mode input of encoder layer ``depth`` for ``batch``."""
        x = compose_batch(batch, self.embedder)
        return Prefix(depth, enc.forward(x, batch.attention_mask, self.config.encoder,
                                         enc.EncoderParams(self.encoder.layers[:depth])))

    def pretrain_outputs(self, batch: EncodedBatch, mode: str = "eval",
                         rng: Optional[np.random.Generator] = None,
                         rows: Optional[np.ndarray] = None) -> tuple[Tensor, Tensor, Tensor]:
        """The three heads' outputs at (B, m) ``rows`` of ``batch``, or at every row when ``rows`` is None.

        The top encoder layer and the heads compute the given rows only (see
        ``enc.forward``); pre-training passes a batch's ``MaskedSlots.rows``.
        """
        return enc.mlvm_outputs(self.hidden_states(batch, mode, rng, rows=rows), self.heads)

    def task_scores(self, window_batches: Sequence[EncodedBatch], mode: str = "eval",
                    rng: Optional[np.random.Generator] = None,
                    below: Optional[Sequence[Prefix]] = None) -> Tensor:
        """Task logits from the CLS outputs of one or more windows per sample.

        ``below`` holds one prefix per window batch (see ``hidden_states``).
        Only the CLS row reaches the head, so the top encoder layer computes
        that row alone, with keys and values from every row. Train-mode
        dropout draws only row 0 of each full-row mask and advances ``rng``
        past the rest, so the masks at that row and the generator's state
        are the full pass's, and the logits and gradients equal its own up
        to rounding.
        """
        cls_sum = None
        for i, batch in enumerate(window_batches):
            cls_row = np.zeros((batch.attention_mask.shape[0], 1), dtype=np.intp)
            hidden = self.hidden_states(batch, mode, rng, None if below is None else below[i], rows=cls_row)
            cls_vec = enc.cls_output(hidden)
            cls_sum = cls_vec if cls_sum is None else ad.add(cls_sum, cls_vec)
        cls_avg = ad.scale(cls_sum, 1.0 / len(window_batches))
        return enc.task_output(cls_avg, self.heads, mode, rng)

    # persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        enc.save_checkpoint(path, self.config.to_dict(), self.parameters())

    @classmethod
    def load(cls, path: str, expect: Optional[dict] = None) -> "Model":
        """The checkpoint's model: its arrays, asked for by the names and shapes its config implies.

        Nothing is drawn or sized from the config alone: the first parameter
        the file lacks, or holds at another shape, is a ``ConfigMismatch``,
        and so is an array left over once the model is made.
        """
        config_dict, arrays = enc.load_checkpoint(path, expect)
        config = ModelConfig.from_dict(config_dict)

        def stored(name: str, shape: tuple[int, ...], init: str) -> Tensor:
            array = arrays.pop(name, None)
            if array is None or array.shape != shape:
                got = "nothing" if array is None else array.shape
                raise ConfigMismatch(f"checkpoint has {got} for {name}, but its config implies {shape}")
            return ad.parameter(array, name)

        model = cls.made(config, stored)
        if arrays:
            raise ConfigMismatch(f"checkpoint has arrays its config does not use: {sorted(arrays)[:4]}")
        return model


# ---------------------------------------------------------------------------
# optimizer and schedule


# A train loss at or above this is divergence: its gradients are about as large, and their squares
# overflow float32 (largest ~2^128) in AdamW's second moment, which then stops the step silently.
MAX_TRAIN_LOSS = 2.0 ** 64


class AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moments, each parameter updated inside ``backward``.

    :meth:`step` runs the backward pass of a loss and updates each parameter
    as soon as its gradient is complete (Lv et al. 2023, LOMO), then drops
    that gradient, so the gradients of all parameters never exist at once
    and no parameter holds one between steps. A parameter's moments are
    allocated at its first update, not here.
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._names = {p._node: name for name, p in params.items()}

    def step(self, loss: Tensor, lr: float) -> None:
        """One update of every parameter with a gradient from ``loss``, each made inside ``ad.backward``.

        ``ad.backward``'s ``on_leaf`` hook updates a parameter right after the
        last node that feeds it has run its backward, and sets its ``grad``
        to None. The update is the one a step after a full backward makes,
        bit for bit, because it rebinds ``p.data`` to a new array and never
        writes the old one: the closures of the nodes still to be swept
        captured the arrays they read when the forward ran, so no gradient
        depends on whether a parameter was updated before it was computed.
        Any in-place write to a parameter's array would break this.

        The moments are updated in place and the update is built in two
        scratch arrays per parameter, in the order of
        ``p - lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * p)``; the first
        scratch array becomes the new ``p.data``, so an array shared with
        another model is left as it was. A parameter that gets no gradient
        is not updated. ``t`` counts completed steps: a backward that raises
        ``GraphReleased`` leaves it, the moments and every parameter as they
        were.
        """
        t = self.t + 1
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t

        def update(node) -> None:
            name = self._names.get(node)
            if name is None or node.grad is None:
                return
            self._update(name, node.grad, bc1, bc2, lr)
            node.grad = None

        ad.backward(loss, on_leaf=update)
        self.t = t

    def _update(self, name: str, g: np.ndarray, bc1: float, bc2: float, lr: float) -> None:
        p = self.params[name]
        m, v = self._m.get(name), self._v.get(name)
        if m is None:
            m = self._m[name] = np.zeros_like(p.data)
            v = self._v[name] = np.zeros_like(p.data)
        update = np.multiply(g, 1.0 - self.beta1, out=np.empty_like(m))  # in the parameter's dtype
        m *= self.beta1
        m += update
        np.multiply(g, g, out=update)
        update *= 1.0 - self.beta2
        v *= self.beta2
        v += update
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, bc1, out=update)
        update /= denom
        if self.weight_decay:
            update += np.multiply(p.data, self.weight_decay, out=denom)
        update *= lr
        p.data = np.subtract(p.data, update, out=update)


def linear_lr(base_lr: float, epoch: int, total_epochs: int, warmup_epochs: int) -> float:
    """Linear warmup to ``base_lr`` then linear decay; epoch is 1-based."""
    if warmup_epochs > 0 and epoch <= warmup_epochs:
        return base_lr * epoch / warmup_epochs
    if total_epochs <= warmup_epochs:
        return base_lr
    return base_lr * (total_epochs - epoch + 1) / (total_epochs - warmup_epochs)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 5e-5
    weight_decay: float = 0.0
    warmup_epochs: Optional[int] = None  # None: 40% of total epochs
    patience: Optional[int] = None
    seed: int = 0
    unfrozen_layers: Optional[int] = None  # None: everything trains
    unfreeze_embedder: bool = False
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ShapeMismatch("epochs and batch size must be positive")
        # written so that NaN fails: one step with a NaN lr or decay turns every parameter into NaN
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidSpec(f"lr must be finite and positive, got {self.lr}")
        for name in ("weight_decay", "alpha", "beta"):  # a negative loss weight maximizes its term
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidSpec(f"{name} must be finite and non-negative, got {value}")
        for name in ("warmup_epochs", "patience", "unfrozen_layers"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InvalidSpec(f"{name} must be non-negative, got {value}")

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_epochs is not None:
            return self.warmup_epochs
        return round(0.4 * self.epochs)


# ---------------------------------------------------------------------------
# window preparation


def prepare_windows(corpus: Corpus, split: Split, vocab: Vocabularies,
                    window_minutes: int, max_seq_len: int) -> list[Tokens]:
    """Every window of a split, cut to ``max_seq_len`` tokens.

    Windows without any maskable token are dropped; they carry no training
    signal and cannot be planned.
    """
    out = []
    for stay in corpus.stays_in(split):
        out.extend(maskable(segment_windows(stay, vocab, window_minutes, max_seq_len)))
    return out


@dataclass
class LossRow:
    epoch: int
    split: str
    l_f: float
    l_cat: float
    l_cont: float
    l_total: float
    lr: float

    def csv(self) -> str:
        return (f"{self.epoch},{self.split},{self.l_f:.6f},{self.l_cat:.6f},"
                f"{self.l_cont:.6f},{self.l_total:.6f},{self.lr:.8f}")


class _LossAggregator:
    """Slot-weighted aggregation of per-batch breakdowns into one epoch row."""

    def __init__(self, alpha: float, beta: float):
        self.alpha, self.beta = alpha, beta
        self.f_sum = self.cat_sum = self.cont_sum = 0.0
        self.n_f = self.n_cat = self.n_cont = 0

    def add(self, b: LossBreakdown) -> None:
        self.f_sum += b.l_f * b.n_feature_slots
        self.cat_sum += b.l_cat * b.n_cat
        self.cont_sum += b.l_cont * b.n_cont
        self.n_f += b.n_feature_slots
        self.n_cat += b.n_cat
        self.n_cont += b.n_cont

    def totals(self) -> tuple[float, float, float, float]:
        l_f = self.f_sum / self.n_f if self.n_f else 0.0
        l_cat = self.cat_sum / self.n_cat if self.n_cat else 0.0
        l_cont = self.cont_sum / self.n_cont if self.n_cont else 0.0
        total = combine_losses(l_f, l_cat, self.n_cat, l_cont, self.n_cont, self.alpha, self.beta)
        return l_f, l_cat, l_cont, total


@dataclass
class PretrainResult:
    model: Model
    rows: list[LossRow]
    best_epoch: int
    best_val_total: float


def pretrain(corpus: Corpus, vocab: Vocabularies, provider: EmbeddingProvider,
             model_config: ModelConfig, train_config: TrainConfig,
             rates: MaskingRates = MaskingRates(),
             on_row: Optional[Callable[[LossRow], None]] = None) -> PretrainResult:
    """Masked pre-training with AdamW, a linear schedule, and best-val retention.

    Early stopping counts epochs since the best validation loss. Without
    validation windows there is nothing to compare, so every one of
    ``epochs`` runs whatever ``patience`` is, and the last epoch's model is
    returned with ``best_epoch`` 0.

    The loss reads the masked slots only, so in every train step and val
    pass the top encoder layer and the heads compute each batch's masked
    positions alone (``MaskedSlots.rows``), with keys and values from every
    row. Train-mode dropout draws only those rows of each full-row mask and
    advances the generator past the rest, so every mask entry is the
    full-row pass's, and the losses and the parameters equal the full-row
    path's up to rounding.

    A batch without a masked slot carries no loss: a train batch takes no
    step, and a val batch is dropped when the val batches are built. A val
    split left with no batches behaves like one with no windows. An epoch
    in which no train batch has a masked slot raises ``NoMaskedSlots``.

    Each train step is one ``AdamW.step(loss, lr)``: the backward pass
    updates every parameter as soon as its gradient is complete, so the
    step never holds all gradients at once. The best epoch's parameters are
    kept by reference, which the step allows because it rebinds each
    parameter's array and never writes it.
    """
    cfg = train_config
    train_windows = prepare_windows(corpus, Split.TRAIN, vocab,
                                    model_config.window_minutes, model_config.encoder.max_seq_len)
    val_windows = prepare_windows(corpus, Split.VAL, vocab,
                                  model_config.window_minutes, model_config.encoder.max_seq_len)
    if not train_windows:
        raise MissingLabels("no trainable windows in the train split")

    model = Model.build(model_config, cfg.seed)
    optimizer = AdamW(model.parameters(), weight_decay=cfg.weight_decay)

    # validation masking is frozen once so epochs stay comparable: every epoch scores the same batches
    val_batches = []
    for start in range(0, len(val_windows), cfg.batch_size):
        chunk = val_windows[start : start + cfg.batch_size]
        rngs = [(np.random.default_rng([cfg.seed, 40, start + j]), np.random.default_rng([cfg.seed, 41, start, j]))
                for j in range(len(chunk))]
        batch, slots = _masked_batch(chunk, rngs, vocab, provider, rates)
        if slots.rows.shape[1]:
            val_batches.append((batch, slots))

    rows: list[LossRow] = []
    best_val = np.inf
    best_epoch = 0
    best_state: dict[str, np.ndarray] = {}
    epochs_since_best = 0
    diverged_above: Optional[float] = None

    for epoch in range(1, cfg.epochs + 1):
        lr = linear_lr(cfg.lr, epoch, cfg.epochs, cfg.resolved_warmup)
        order = np.random.default_rng([cfg.seed, 50, epoch]).permutation(len(train_windows))
        train_agg = _LossAggregator(cfg.alpha, cfg.beta)
        steps = 0

        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rngs = [np.random.default_rng([cfg.seed, 60, epoch, int(i)]) for i in idx]
            batch, slots = _masked_batch([train_windows[i] for i in idx], zip(rngs, rngs), vocab, provider, rates)
            if not slots.rows.shape[1]:  # nothing to predict: no loss, no step
                continue
            rng = np.random.default_rng([cfg.seed, 70, epoch, start])
            outputs = model.pretrain_outputs(batch, mode="train", rng=rng, rows=slots.rows)
            breakdown = mlvm_loss(outputs, slots, cfg.alpha, cfg.beta)
            if not breakdown.l_total < MAX_TRAIN_LOSS:  # NaN too
                raise DivergedLoss(f"loss {breakdown.l_total:.3e} at epoch {epoch} is not below 2^64")
            # layernorm keeps float32 activations finite under almost any step
            # size, so runaway growth needs its own tripwire
            if diverged_above is None:
                diverged_above = 1e6 * (breakdown.l_total + 1.0)
            elif breakdown.l_total > diverged_above:
                raise DivergedLoss(
                    f"loss {breakdown.l_total:.3e} at epoch {epoch} exceeds "
                    f"{diverged_above:.3e}")
            optimizer.step(breakdown.node, lr)
            train_agg.add(breakdown)
            steps += 1
        if not steps:
            raise NoMaskedSlots(f"no train batch of epoch {epoch} has a masked slot")

        row = LossRow(epoch, "train", *train_agg.totals(), lr)
        rows.append(row)
        if on_row:
            on_row(row)

        if val_batches:
            val_agg = _LossAggregator(cfg.alpha, cfg.beta)
            eval_model = model.detached()
            for batch, slots in val_batches:
                outputs = eval_model.pretrain_outputs(batch, mode="eval", rows=slots.rows)
                val_agg.add(mlvm_loss(outputs, slots, cfg.alpha, cfg.beta))
            val_row = LossRow(epoch, "val", *val_agg.totals(), lr)
            rows.append(val_row)
            if on_row:
                on_row(val_row)
            val_total = val_row.l_total
            if not np.isfinite(val_total):
                raise DivergedLoss(f"non-finite validation loss at epoch {epoch}")
            if val_total < best_val:
                best_val, best_epoch, epochs_since_best = val_total, epoch, 0
                best_state = {k: t.data for k, t in model.parameters().items()}  # AdamW.step rebinds, never writes
            else:
                epochs_since_best += 1
                if cfg.patience is not None and epochs_since_best > cfg.patience:
                    break

    if best_state:
        for name, tensor in model.parameters().items():
            tensor.data = best_state[name]
    return PretrainResult(model, rows, best_epoch, float(best_val))


def _masked_batch(windows: Sequence[Tokens], rngs: Iterable[tuple[np.random.Generator, np.random.Generator]],
                  vocab: Vocabularies, provider: EmbeddingProvider, rates: MaskingRates,
                  dtype=np.float32) -> tuple[EncodedBatch, MaskedSlots]:
    """The corrupted windows' batch and their masked slots.

    Window ``i`` is planned with ``rngs[i][0]`` and then corrupted with
    ``rngs[i][1]``, in window order; the two may be one generator.
    """
    plans, corrupted = [], []
    for window, (plan_rng, apply_rng) in zip(windows, rngs):
        plans.append(plan_masking(window, plan_rng, rates))
        corrupted.append(apply_masking(window, plans[-1], vocab, apply_rng))
    return encode_batch(corrupted, provider, dtype=dtype), masked_slots(plans)


# ---------------------------------------------------------------------------
# fine-tuning

# Bound on the eval batches one fine-tune call keeps for reuse across folds, and one fold
# across epochs, counting each token as one hidden vector: 256 MiB holds the prefixes of
# about 170 windows of 512 tokens at hidden 768 in float32.
REUSE_BYTES = 256 * 2**20


@dataclass(frozen=True)
class Task:
    """A fine-tuning target: its kind, label source, and window policy."""

    kind: str  # "binary" | "multilabel" | "regression"
    label_of: Callable[[Stay], object]
    n_windows: int = 1
    out_dim: int = 1
    class_weight: str | float = "auto"

    def __post_init__(self):
        if self.kind not in ("binary", "multilabel", "regression"):
            raise UnknownTask(f"unknown task kind {self.kind!r}")
        if self.n_windows < 1:
            raise InvalidSpec(f"a task needs at least one window per sample, got {self.n_windows}")
        weight = self.class_weight  # written so that NaN fails
        if weight != "auto" and not (type(weight) in (int, float) and math.isfinite(weight) and weight > 0):
            raise InvalidSpec(f"class_weight must be 'auto' or a finite number > 0, got {weight!r}")


@dataclass
class Sample:
    windows: list[Tokens]
    label: object


def build_samples(corpus: Corpus, split: Split, task: Task, vocab: Vocabularies,
                  window_minutes: int, max_seq_len: int,
                  built: Optional[dict[str, Sample]] = None) -> list[Sample]:
    """One sample per stay of ``split``, in corpus order.

    ``built`` maps stay ids to samples made by earlier calls with the same
    task and shape: those stays are not segmented again, and new ones are
    added to it.
    """
    built = {} if built is None else built
    samples = []
    for stay in corpus.stays_in(split):
        sample = built.get(stay.stay_id)
        if sample is None:
            label = task.label_of(stay)
            if label is None:
                raise MissingLabels(f"stay {stay.stay_id!r} has no label")
            windows = segment_windows(stay, vocab, window_minutes, max_seq_len, max_windows=task.n_windows)
            sample = built[stay.stay_id] = Sample(windows, label)
        samples.append(sample)
    return samples


def _sample_batches(samples: Sequence[Sample], idx: np.ndarray, n_windows: int,
                    provider: EmbeddingProvider) -> tuple[list[EncodedBatch], np.ndarray]:
    """One EncodedBatch per window slot; short stays repeat their last window."""
    slots = []
    for w in range(n_windows):
        windows = []
        for i in idx:
            sample_windows = samples[i].windows
            windows.append(sample_windows[min(w, len(sample_windows) - 1)])
        slots.append(encode_batch(windows, provider))
    labels = np.asarray([samples[i].label for i in idx], dtype=np.float32)
    return slots, labels


def _class_weight(task: Task, labels: np.ndarray):
    if task.class_weight != "auto":
        return float(task.class_weight)
    if task.kind == "regression":
        return 1.0
    pos = np.maximum(labels.sum(axis=0), 1.0)
    neg = np.maximum(labels.shape[0] - pos, 1.0)
    weight = neg / pos
    return float(weight) if np.ndim(weight) == 0 else weight


@dataclass
class _EvalBatch:
    """Samples encoded for eval-mode scoring, one batch per window slot, and the slots' prefixes if kept."""

    slots: list[EncodedBatch]
    labels: np.ndarray
    below: Optional[list[Prefix]] = None


def _eval_batches(samples: Sequence[Sample], batch_size: int, provider: EmbeddingProvider,
                  n_windows: Optional[int] = None) -> Iterator[_EvalBatch]:
    """``samples`` in order, ``batch_size`` at a time, each encoded when it is reached."""
    if n_windows is None:
        n_windows = max((len(s.windows) for s in samples), default=1)
    for start in range(0, len(samples), batch_size):
        idx = np.arange(start, min(start + batch_size, len(samples)))
        yield _EvalBatch(*_sample_batches(samples, idx, n_windows, provider))


def _reused_batches(pretrained: Model, samples: Sequence[Sample], batch_size: int,
                    provider: EmbeddingProvider, cfg: TrainConfig) -> Callable[[], Iterable[_EvalBatch]]:
    """Eval batches of ``samples`` for every pass of the models ``cfg`` fine-tunes from ``pretrained``.

    The leading batches are encoded once and kept, while their tokens,
    counted at one hidden vector each, fit in ``REUSE_BYTES``. When ``cfg``
    freezes the embedder, each kept slot's prefix through it and the layers
    below the freeze boundary, which those models share with
    ``pretrained``, is computed once too. Batches past the bound are encoded
    again on every pass and run from the embedder up. Batch composition is
    the same either way, and so are the scores.
    """
    depth = None if cfg.unfrozen_layers is None or cfg.unfreeze_embedder \
        else max(len(pretrained.encoder.layers) - cfg.unfrozen_layers, 0)
    frozen = pretrained.detached()
    token_bytes = pretrained.config.encoder.hidden * pretrained.embedder.w_f.data.itemsize
    n_windows = max((len(s.windows) for s in samples), default=1)
    kept: list[_EvalBatch] = []
    size = 0
    for batch in _eval_batches(samples, batch_size, provider, n_windows):
        size += token_bytes * sum(slot.attention_mask.size for slot in batch.slots)
        if size > REUSE_BYTES:
            break
        if depth is not None:
            batch.below = [frozen.prefix(slot, depth) for slot in batch.slots]
        kept.append(batch)
    rest = samples[len(kept) * batch_size:]
    return lambda: itertools.chain(kept, _eval_batches(rest, batch_size, provider, n_windows))


def _scores(model: Model, batches: Iterable[_EvalBatch], task_kind: str) -> np.ndarray:
    model = model.detached()
    raw = np.concatenate([model.task_scores(b.slots, "eval", below=b.below).data for b in batches])
    return raw if task_kind == "regression" else expit(raw)


def predict_scores(model: Model, samples: Sequence[Sample], provider: EmbeddingProvider,
                   task_kind: str, batch_size: int = 64) -> np.ndarray:
    """Eval-mode task scores: probabilities for classification, raw values for regression."""
    return _scores(model, _eval_batches(samples, batch_size, provider), task_kind)


@dataclass
class FinetuneResult:
    report: MetricReport
    best_model: Model
    rows: list[LossRow]


def finetune(pretrained: Model, task: Task, corpus: Corpus, vocab: Vocabularies,
             provider: EmbeddingProvider, train_config: TrainConfig, folds: int = 5) -> FinetuneResult:
    """Cross-validated fine-tuning: resample train+val per fold, test split fixed.

    What no fold changes is computed once per call. Each pool stay is
    segmented once. Each fold copies only its trainable parameters and
    shares the frozen arrays with ``pretrained``, whose own parameters are
    left as they were. The test batches are encoded once. When the embedder
    is frozen, each test batch's prefix through the embedder and the frozen
    bottom layers is computed once as well, and every fold scores it by
    running only the layers above and the head (see ``_reused_batches`` for
    the memory bound). Train-mode passes are never reused, since dropout
    acts in the frozen layers too. Nothing is kept once the call returns.
    Every train, val and test pass goes through ``Model.task_scores``, whose
    top encoder layer computes the CLS row only.
    """
    if folds < 2:  # one fold would put every pool patient in its val chunk and train on none
        raise InvalidSpec(f"cross-validation needs at least two folds, got {folds}")
    cfg = train_config
    window_minutes = pretrained.config.window_minutes
    max_seq_len = pretrained.config.encoder.max_seq_len

    pool_stays = corpus.stays_in(Split.TRAIN) + corpus.stays_in(Split.VAL)
    pool_patients = sorted({s.patient_id for s in pool_stays})
    if len(pool_patients) < folds:
        raise MissingLabels(f"{len(pool_patients)} patients cannot form {folds} folds")
    test_samples = build_samples(corpus, Split.TEST, task, vocab, window_minutes, max_seq_len)
    if not test_samples:
        raise MissingLabels("no test-split samples to evaluate")
    test_batches = _reused_batches(pretrained, test_samples, 2 * cfg.batch_size, provider, cfg)
    labels = np.asarray([s.label for s in test_samples], dtype=np.float64)

    order = np.random.default_rng([cfg.seed, 80]).permutation(len(pool_patients))
    chunks = np.array_split(order, folds)

    per_fold: list[dict[str, float]] = []
    rows: list[LossRow] = []
    best_model: Optional[Model] = None
    best_val = np.inf

    # the pool sorted by patient, pool order within a patient; each stay is segmented once
    pool = Corpus(tuple(sorted(pool_stays, key=lambda s: s.patient_id)))
    built: dict[str, Sample] = {}

    for fold in range(folds):
        val_patients = {pool_patients[i] for i in chunks[fold]}
        fold_pool = pool.with_splits({pid: Split.VAL if pid in val_patients else Split.TRAIN
                                      for pid in pool_patients})
        train_samples = build_samples(fold_pool, Split.TRAIN, task, vocab, window_minutes, max_seq_len, built)
        val_samples = build_samples(fold_pool, Split.VAL, task, vocab, window_minutes, max_seq_len, built)

        model, fold_rows, fold_val = _finetune_fold(
            pretrained, task, train_samples, val_samples, provider, cfg, fold)
        rows.extend(fold_rows)
        if fold_val < best_val:
            best_val, best_model = fold_val, model

        per_fold.append(_test_metrics(task.kind, _scores(model, test_batches(), task.kind), labels))

    report = MetricReport(tuple(per_fold[0]), tuple(per_fold))
    return FinetuneResult(report, best_model, rows)


def _finetune_fold(pretrained: Model, task: Task, train_samples: list[Sample],
                   val_samples: list[Sample], provider: EmbeddingProvider,
                   cfg: TrainConfig, fold: int) -> tuple[Model, list[LossRow], float]:
    """Train one fold on ``pretrained`` with a fresh task head; return it with the best val epoch restored.

    Only the parameters in ``trainable_parameters`` are copied and require
    grad. The others are tape constants sharing ``pretrained``'s arrays, so
    the fold's steps record and walk back only the ops above the freeze
    boundary, and only the trainable arrays are snapshotted, by reference
    (``AdamW.step`` rebinds, never writes). Each step is one
    ``AdamW.step(loss, lr)``, which updates each trainable parameter inside
    the backward pass as soon as its gradient is complete. The val batches
    are encoded once per fold, not per epoch, and when the embedder is
    frozen so are their prefixes below the freeze boundary: every epoch's
    val pass then runs only the layers above.
    """
    model = pretrained.with_task_head(task.out_dim, pretrained.config.task_dropout, seed=cfg.seed + fold,
                                      unfrozen_layers=cfg.unfrozen_layers,
                                      unfreeze_embedder=cfg.unfreeze_embedder)
    trainable = model.trainable_parameters(cfg.unfrozen_layers, cfg.unfreeze_embedder)
    optimizer = AdamW(trainable, weight_decay=cfg.weight_decay)
    n_windows = max((len(s.windows) for s in train_samples), default=1)
    val_batches = _reused_batches(pretrained, val_samples, cfg.batch_size, provider, cfg)

    train_labels = np.asarray([s.label for s in train_samples], dtype=np.float32)
    weight = _class_weight(task, train_labels)

    rows: list[LossRow] = []
    best_val = np.inf
    best_state: dict[str, np.ndarray] = {}
    since_best = 0

    for epoch in range(1, cfg.epochs + 1):
        lr = linear_lr(cfg.lr, epoch, cfg.epochs, cfg.resolved_warmup)
        order = np.random.default_rng([cfg.seed, 90, fold, epoch]).permutation(len(train_samples))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            slots, labels = _sample_batches(train_samples, idx, n_windows, provider)
            rng = np.random.default_rng([cfg.seed, 91, fold, epoch, start])
            logits = model.task_scores(slots, mode="train", rng=rng)
            loss = finetune_loss(task.kind, logits, labels, weight)
            if not loss.item() < MAX_TRAIN_LOSS:  # NaN too
                raise DivergedLoss(f"fine-tune loss {loss.item():.3e} at fold {fold} epoch {epoch} is not below 2^64")
            optimizer.step(loss, lr)
            epoch_loss += loss.item()
            n_batches += 1

        val_loss = _task_loss(model, task, val_batches(), weight) \
            if val_samples else epoch_loss / max(n_batches, 1)
        if not np.isfinite(val_loss):
            raise DivergedLoss(f"non-finite validation loss at fold {fold} epoch {epoch}")
        rows.append(LossRow(epoch, f"fold{fold}-train", 0.0, 0.0, 0.0, epoch_loss / max(n_batches, 1), lr))
        rows.append(LossRow(epoch, f"fold{fold}-val", 0.0, 0.0, 0.0, val_loss, lr))

        if val_loss < best_val:
            best_val, since_best = val_loss, 0
            best_state = {k: t.data for k, t in trainable.items()}  # AdamW.step rebinds, never writes
        else:
            since_best += 1
            if cfg.patience is not None and since_best > cfg.patience:
                break

    if best_state:
        for name, tensor in trainable.items():
            tensor.data = best_state[name]
    return model, rows, best_val


def _task_loss(model: Model, task: Task, batches: Iterable[_EvalBatch], weight) -> float:
    model = model.detached()
    total, count = 0.0, 0
    for b in batches:
        logits = model.task_scores(b.slots, "eval", below=b.below)
        total += finetune_loss(task.kind, logits, b.labels, weight).item() * len(b.labels)
        count += len(b.labels)
    return total / max(count, 1)


def gradcheck_problem(hidden: int = 8, layers: int = 1, heads: int = 2, ffn_dim: int = 16,
                      max_seq_len: int = 6, feat_vocab: int = 12, val_vocab: int = 7,
                      d_pre: int = 8, window_minutes: int = 16, batch: int = 2,
                      alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA,
                      seed: int = 0) -> tuple[Model, Callable[[], Tensor]]:
    """A float64 model plus a multi-task loss closure on a tiny masked batch.

    The masking seed is searched so the batch exercises all three heads
    (feature, categorical, continuous slots all non-empty). The loss goes
    through the masked-row path that ``pretrain`` runs: the top layer and
    the heads compute the batch's masked slots only.
    """
    from datetime import datetime, timedelta

    from .textvec import StubProvider

    features = tuple(f"lab: marker {i}" for i in range(feat_vocab - 3))
    values = tuple(f"level {i}" for i in range(val_vocab - 2))
    vocab = Vocabularies(
        features=("[CLS]", "[PAD]", "[MASK]") + features,
        categorical_values=("[MASK]", "[UNK]") + values,
        per_feature_stats={},
    )
    config = ModelConfig(
        encoder=enc.EncoderConfig(layers=layers, hidden=hidden, heads=heads,
                                  ffn_dim=ffn_dim, max_seq_len=max_seq_len, dropout=0.0),
        d_pre=d_pre, window_minutes=window_minutes,
        feature_vocab=vocab.feature_size, value_vocab=vocab.value_size,
    )
    provider = StubProvider(d_pre, seed)
    rng = np.random.default_rng([seed, 5])

    # each stay's max_seq_len - 2 events fall in its first window
    windows = []
    for b in range(batch):
        events = []
        for _ in range(max_seq_len - 2):
            variable = f"marker {int(rng.integers(len(features)))}"
            value = float(rng.standard_normal()) if rng.random() < 0.5 else values[int(rng.integers(len(values)))]
            at = datetime(2023, 1, 1) + timedelta(minutes=int(rng.integers(window_minutes)))
            events.append(Registry(f"p{b}", f"s{b}", "lab", variable, value, at, int(rng.integers(window_minutes))))
        windows += segment_windows(Stay(f"s{b}", f"p{b}", tuple(events), ()), vocab, window_minutes, max_seq_len)

    rates = MaskingRates(select=0.6)
    for attempt in range(500):
        rngs = (np.random.default_rng([seed, 7, attempt]), np.random.default_rng([seed, 8, attempt]))
        encoded, slots = _masked_batch(windows, [rngs] * len(windows), vocab, provider, rates, np.float64)
        if (slots.feature_target >= 0).any() and (slots.cat_target >= 0).any() and slots.cont.any():
            break
    else:
        raise ShapeMismatch("could not draw a masking plan covering all three heads")

    model = Model.build(config, seed, dtype=np.float64)

    def loss_fn() -> Tensor:
        return mlvm_loss(model.pretrain_outputs(encoded, "eval", None, slots.rows), slots, alpha, beta).node

    return model, loss_fn


def evaluate(model: Model, task: Task, corpus: Corpus, vocab: Vocabularies,
             provider: EmbeddingProvider, batch_size: int = 64) -> dict[str, float]:
    """Test-split metrics for a fine-tuned model."""
    samples = build_samples(corpus, Split.TEST, task, vocab,
                            model.config.window_minutes, model.config.encoder.max_seq_len)
    if not samples:
        raise MissingLabels("no test-split samples to evaluate")
    scores = predict_scores(model, samples, provider, task.kind, batch_size)
    return _test_metrics(task.kind, scores, np.asarray([s.label for s in samples], dtype=np.float64))


def _test_metrics(kind: str, scores: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """The test split's metrics: MAE for regression, AUROC and AUPRC otherwise."""
    if kind == "regression":
        return {"mae": mae(scores, labels)}
    return {"auroc": auroc(scores, labels), "auprc": auprc(scores, labels)}
