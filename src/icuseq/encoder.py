"""Bidirectional transformer encoder, output heads, gradient checking, checkpoints."""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigMismatch, FormatError, GradMismatch, InvalidSpec, ModeMismatch, ShapeMismatch
from .textvec import atomic_write

CHECKPOINT_MAGIC = b"ICUB1"


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 6
    hidden: int = 768
    heads: int = 6
    ffn_dim: int = 64
    max_seq_len: int = 512
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.layers, self.hidden, self.heads, self.ffn_dim, self.max_seq_len) < 1:
            raise ShapeMismatch("all encoder dimensions must be >= 1")
        if self.hidden % self.heads != 0:
            raise ShapeMismatch(f"hidden {self.hidden} not divisible by {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:  # NaN fails too; a rate of 1 divides by zero in the inverted scale
            raise InvalidSpec(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


@dataclass
class LayerParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class EncoderParams:
    layers: list[LayerParams]


def init_encoder(make: ad.Maker, config: EncoderConfig) -> EncoderParams:
    """The encoder's parameters, each named once and made by ``make`` (see ``ad.Maker``)."""
    d, f = config.hidden, config.ffn_dim
    layers = []
    for i in range(config.layers):
        def param(name: str, shape: tuple[int, ...], init: str) -> Tensor:
            return make(f"encoder.layer{i}.{name}", shape, init)

        layers.append(LayerParams(
            wq=param("wq", (d, d), "normal"), bq=param("bq", (d,), "zeros"),
            wk=param("wk", (d, d), "normal"), bk=param("bk", (d,), "zeros"),
            wv=param("wv", (d, d), "normal"), bv=param("bv", (d,), "zeros"),
            wo=param("wo", (d, d), "normal"), bo=param("bo", (d,), "zeros"),
            ln1_gain=param("ln1_gain", (d,), "ones"), ln1_bias=param("ln1_bias", (d,), "zeros"),
            ffn_w1=param("ffn_w1", (d, f), "normal"), ffn_b1=param("ffn_b1", (f,), "zeros"),
            ffn_w2=param("ffn_w2", (f, d), "normal"), ffn_b2=param("ffn_b2", (d,), "zeros"),
            ln2_gain=param("ln2_gain", (d,), "ones"), ln2_bias=param("ln2_bias", (d,), "zeros"),
        ))
    return EncoderParams(layers)


def forward(x: Tensor, attention_mask: np.ndarray, config: EncoderConfig,
            params: EncoderParams, mode: str = "eval",
            rng: Optional[np.random.Generator] = None, rows: Optional[np.ndarray] = None) -> Tensor:
    """Post-norm encoder stack; PAD key positions are excluded from attention.

    Each residual add runs inside its layer norm (``ad.layer_norm``'s
    ``residual``), one node per sublayer.

    Without ``rows`` every layer computes every row and the result is
    (B, L, d). With ``rows``, a (B, m) int array of positions, the last
    layer outputs those rows only and the result is (B, m, d), row ``j`` of
    batch entry ``b`` being position ``rows[b, j]``. That layer's keys and
    values still come from every row, so each output row equals the full
    stack's; its queries, attention, out-projection, residuals, layer norms
    and FFN run on the gathered rows. In train mode that layer's dropout
    masks are drawn at the gathered rows only, and ``rng`` is advanced past
    the rest of each full-row mask, so every mask entry is the full stack's
    and ``rng`` ends where the full stack leaves it.
    """
    b, length, d = x.shape
    if d != config.hidden:
        raise ShapeMismatch(f"input width {d} vs configured hidden {config.hidden}")
    mask = np.asarray(attention_mask)
    if mask.shape != (b, length):
        raise ShapeMismatch(f"mask shape {mask.shape} vs batch {(b, length)}")
    if mode == "train" and rng is None:
        raise ShapeMismatch("train mode needs an rng for dropout")
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != b or (rows.size and not 0 <= rows.min() <= rows.max() < length):
            raise ShapeMismatch(f"rows of shape {rows.shape} must be (B, m) positions below {length} for B {b}")
        if not params.layers:
            return ad.take_rows(x, rows)

    heads, dh = config.heads, config.head_dim
    keep = (mask > 0)[:, None, None, :]  # admissible key positions
    inv_sqrt_dh = 1.0 / np.sqrt(dh)
    training = mode == "train"
    top = len(params.layers) - 1

    def split_heads(t: Tensor) -> Tensor:
        return ad.transpose(ad.reshape(t, (b, t.shape[1], heads, dh)), (0, 2, 1, 3))

    def drop(t: Tensor, cut: Optional[np.ndarray]) -> Tensor:
        return ad.dropout(t, config.dropout, rng, training, rows=cut, length=length)

    for i, layer in enumerate(params.layers):
        cut = rows if i == top else None  # the positions this layer outputs; None: every row
        h = x if cut is None else ad.take_rows(x, cut)
        q = split_heads(ad.linear(h, layer.wq, layer.bq))
        k = split_heads(ad.linear(x, layer.wk, layer.bk))
        v = split_heads(ad.linear(x, layer.wv, layer.bv))
        heads_out = ad.attention(q, k, v, keep, inv_sqrt_dh, config.dropout, rng, training, rows=cut)
        context = ad.reshape(ad.transpose(heads_out, (0, 2, 1, 3)), h.shape)
        attn_out = drop(ad.linear(context, layer.wo, layer.bo), cut)
        x = ad.layer_norm(attn_out, layer.ln1_gain, layer.ln1_bias, residual=h)
        inner = ad.gelu(ad.linear(x, layer.ffn_w1, layer.ffn_b1))
        ffn_out = drop(ad.linear(inner, layer.ffn_w2, layer.ffn_b2), cut)
        x = ad.layer_norm(ffn_out, layer.ln2_gain, layer.ln2_bias, residual=x)
    return x


# ---------------------------------------------------------------------------
# output heads


@dataclass
class HeadSet:
    """Either the three reconstruction heads or a single task head."""

    mode: str  # "pretrain" | "task"
    feature_w: Optional[Tensor] = None
    feature_b: Optional[Tensor] = None
    cat_w: Optional[Tensor] = None
    cat_b: Optional[Tensor] = None
    cont_w: Optional[Tensor] = None
    cont_b: Optional[Tensor] = None
    task_w: Optional[Tensor] = None
    task_b: Optional[Tensor] = None
    task_dropout: float = 0.5


def init_pretrain_heads(make: ad.Maker, hidden: int, feature_size: int, value_size: int) -> HeadSet:
    """The three reconstruction heads, each parameter named once and made by ``make`` (see ``ad.Maker``)."""
    return HeadSet(
        mode="pretrain",
        feature_w=make("heads.feature_w", (hidden, feature_size), "normal"),
        feature_b=make("heads.feature_b", (feature_size,), "zeros"),
        cat_w=make("heads.cat_w", (hidden, value_size), "normal"),
        cat_b=make("heads.cat_b", (value_size,), "zeros"),
        cont_w=make("heads.cont_w", (hidden, 1), "normal"),
        cont_b=make("heads.cont_b", (1,), "zeros"),
    )


def init_task_head(make: ad.Maker, hidden: int, out_dim: int, task_dropout: float = 0.5) -> HeadSet:
    """A task head, each parameter named once and made by ``make`` (see ``ad.Maker``)."""
    return HeadSet(
        mode="task",
        task_w=make("heads.task_w", (hidden, out_dim), "normal"),
        task_b=make("heads.task_b", (out_dim,), "zeros"),
        task_dropout=task_dropout,
    )


def mlvm_outputs(hidden: Tensor, heads: HeadSet) -> tuple[Tensor, Tensor, Tensor]:
    """Feature logits, categorical logits, and continuous predictions for each row of (B, m, d) states."""
    if heads.mode != "pretrain":
        raise ModeMismatch("reconstruction outputs need the pre-training heads")
    feature_logits = ad.linear(hidden, heads.feature_w, heads.feature_b)
    cat_logits = ad.linear(hidden, heads.cat_w, heads.cat_b)
    cont_pred = ad.reshape(ad.linear(hidden, heads.cont_w, heads.cont_b), hidden.shape[:-1])
    return feature_logits, cat_logits, cont_pred


def cls_output(hidden: Tensor) -> Tensor:
    """The CLS token's (B, d) final states, from the (B, 1, d) states of rows ``[[0]] * B``."""
    b, _, d = hidden.shape
    return ad.reshape(hidden, (b, d))


def task_output(cls_vec: Tensor, heads: HeadSet, mode: str = "eval",
                rng: Optional[np.random.Generator] = None) -> Tensor:
    if heads.mode != "task":
        raise ModeMismatch("task output needs a task head")
    dropped = ad.dropout(cls_vec, heads.task_dropout, rng, training=(mode == "train"))
    out = ad.linear(dropped, heads.task_w, heads.task_b)
    if heads.task_w.shape[1] == 1:
        out = ad.reshape(out, out.shape[:-1])
    return out


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckEntry:
    param: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.rel_err <= self.tolerance for e in self.entries)

    @property
    def worst(self) -> Optional[GradCheckEntry]:
        return max(self.entries, key=lambda e: e.rel_err, default=None)

    def summary(self, limit: int = 10) -> str:
        lines = [f"checked {len(self.entries)} entries, tolerance {self.tolerance:g}"]
        for e in sorted(self.entries, key=lambda e: -e.rel_err)[:limit]:
            lines.append(
                f"  {e.param}{list(e.index)}: analytic {e.analytic:+.6e}"
                f" numeric {e.numeric:+.6e} rel_err {e.rel_err:.3e}"
            )
        return "\n".join(lines)


def grad_check(loss_fn: Callable[[], Tensor], params: dict[str, Tensor],
               epsilon: float = 1e-4, tolerance: float = 1e-4,
               samples_per_param: int = 6,
               rng: Optional[np.random.Generator] = None) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    Samples the largest-gradient entries of every parameter plus a few random
    ones, so embedding-table rows that were actually touched get covered.
    Raises ``GradMismatch``, carrying the report, if any entry is off by
    more than ``tolerance``.
    """
    rng = rng or np.random.default_rng(0)
    for t in params.values():
        t.zero_grad()
    loss = loss_fn()
    ad.backward(loss)

    report = GradCheckReport(tolerance=tolerance)
    for name, tensor in params.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        flat_grad = grad.reshape(-1)
        n = flat_grad.size
        k = min(samples_per_param, n)
        top = np.argsort(-np.abs(flat_grad))[: (k + 1) // 2]
        extra = rng.integers(0, n, size=k)
        picked = np.unique(np.concatenate([top, extra]))[:samples_per_param]
        flat_data = tensor.data.reshape(-1)
        for flat_idx in picked:
            original = flat_data[flat_idx]
            flat_data[flat_idx] = original + epsilon
            f_plus = loss_fn().item()
            flat_data[flat_idx] = original - epsilon
            f_minus = loss_fn().item()
            flat_data[flat_idx] = original
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic = float(flat_grad[flat_idx])
            rel_err = abs(analytic - numeric) / max(1.0, abs(analytic))
            report.entries.append(GradCheckEntry(
                param=name,
                index=tuple(int(i) for i in np.unravel_index(flat_idx, tensor.data.shape)),
                analytic=analytic, numeric=numeric, rel_err=rel_err,
            ))

    if not report.ok:
        worst = report.worst
        err = GradMismatch(worst.param, worst.rel_err)
        err.report = report
        raise err
    return report


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path: str, config: dict, params: dict[str, Tensor]) -> None:
    """Binary checkpoint: magic, JSON config block, then named float32 blobs.

    The file is streamed, one header or blob at a time, so the write holds no
    second copy of the model.
    """
    atomic_write(path, _checkpoint_chunks(config, params))


def _checkpoint_chunks(config: dict, params: dict[str, Tensor]) -> Iterator[bytes | memoryview]:
    """The checkpoint's bytes in order; each ``<f4`` blob is a view, not a copy, of a C-contiguous float32 array."""
    config_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    names = sorted(params)
    yield CHECKPOINT_MAGIC + struct.pack("<I", len(config_bytes)) + config_bytes + struct.pack("<I", len(names))
    for name in names:
        data = np.ascontiguousarray(params[name].data, dtype="<f4")
        encoded = name.encode("utf-8")
        yield (struct.pack("<I", len(encoded)) + encoded
               + struct.pack(f"<I{data.ndim}I", data.ndim, *data.shape))
        yield memoryview(data)


def load_checkpoint(path: str, expect: Optional[dict] = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; optionally enforce config keys the caller relies on.

    Each blob is read straight into its own array, so a load holds one copy
    of the parameters. No read or allocation asks for more than the bytes
    left in the file, whatever length a corrupt header claims.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic")
        off = len(CHECKPOINT_MAGIC)

        def read(n: int) -> bytes:
            nonlocal off
            data = f.read(min(n, size - off))
            off += len(data)
            return data

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        try:
            (config_len,) = unpack("<I")
            raw_config = read(config_len)
            if len(raw_config) != config_len:
                raise FormatError("truncated config block")
            config = json.loads(raw_config.decode("utf-8"))
            (n_params,) = unpack("<I")
            params: dict[str, np.ndarray] = {}
            for _ in range(n_params):
                (name_len,) = unpack("<I")
                name = read(name_len).decode("utf-8")
                (rank,) = unpack("<I")
                shape = unpack(f"<{rank}I")
                if 4 * math.prod(shape) > size - off:
                    raise FormatError(f"truncated blob for {name!r}")
                blob = np.empty(shape, dtype="<f4")
                off += f.readinto(blob)
                params[name] = blob
        except (struct.error, ValueError) as exc:  # ValueError: bad JSON or UTF-8, or an over-long integer
            raise FormatError(f"corrupt checkpoint: {exc}") from exc
        if off != size:
            raise FormatError("trailing bytes after last parameter blob")
    if not isinstance(config, dict):
        raise FormatError(f"checkpoint config is a JSON {type(config).__name__}, not an object")
    if expect:
        for key, value in expect.items():
            if config.get(key) != value:
                raise ConfigMismatch(f"checkpoint {key}={config.get(key)!r}, expected {value!r}")
    return config, params
