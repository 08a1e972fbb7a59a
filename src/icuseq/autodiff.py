"""Minimal reverse-mode tape over numpy arrays.

Just enough operator coverage for the embedding composition, the encoder
stack, and the training losses. Calling :func:`backward` on a scalar node
accumulates gradients into the ``Tensor.grad`` of the leaves (nodes no op
made, such as parameters) and releases the graph as it walks it, so one
graph supports one :func:`backward`. Every op keeps the dtype of its inputs
so the same graph runs in float32 for training and float64 for
finite-difference checks. An op records its inputs and backward closure only
when some input requires grad, so a forward over constants keeps no tape.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.special import erf, expit

from .errors import GraphReleased, ShapeMismatch

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``; the first gradient is copied into a fresh C-ordered array.

        The copy is never an alias of ``g`` (:func:`add` hands one array to
        both parents), and it is C-contiguous whatever ``g``'s strides, as
        ``zeros_like`` then ``+=`` made it, so later products see the same
        memory layout and round the same way.
        """
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, dtype={self.data.dtype})"


def parameter(data: np.ndarray, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _released(g: np.ndarray) -> None:
    """The ``_backward`` of an interior node whose graph :func:`backward` has released; never run."""


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar node, accumulating into leaf ``grad``s.

    The sweep consumes the graph. Once an interior node's backward has run,
    the node drops its ``grad`` and ``_parents``, and its ``_backward``
    becomes a marker, so the tape's closures and activations are freed as
    the sweep goes and nothing of the graph outlives the call. Leaves keep
    their ``grad``. A later ``backward`` that reaches a released node, from
    the same loss or from a new graph built on it, raises ``GraphReleased``
    before any gradient is accumulated.
    """
    if loss.data.shape != ():
        raise ShapeMismatch(f"backward expects a scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _released:
            raise GraphReleased("backward through a graph that an earlier backward released")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is None:  # a leaf keeps its gradient
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, _released, ()


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * a.data.dtype.type(c)

    def bwd(g):
        a.accumulate(g * a.data.dtype.type(c))

    return _make(out, (a,), bwd)


def _dense(x: Tensor, w: Tensor, b: Optional[Tensor]) -> Tensor:
    """``x @ w``, plus ``b`` added in place, for a 2-D ``w``: the body of :func:`linear` and :func:`matmul`.

    BLAS runs one product over the ``(N, d_in)`` rows of ``x`` rather than
    one per batch entry, and the weight gradient is one ``x2ᵀ @ g2`` rather
    than a ``(..., d_in, n)`` stack summed over its leading axes. The
    closure keeps no flattened copy of ``x``: the backward reshapes
    ``x.data`` again, which is a view unless ``x`` is non-contiguous.
    """
    d_in, n = w.data.shape
    if x.data.shape[-1:] != (d_in,):  # reshape alone would accept any size that d_in divides
        raise ShapeMismatch(f"cannot multiply shape {x.data.shape} by {w.data.shape}")
    out = x.data.reshape(-1, d_in) @ w.data
    if b is not None:
        out += b.data
    out = out.reshape(x.data.shape[:-1] + (n,))

    def bwd(g):
        g2 = g.reshape(-1, n)
        if x.requires_grad:
            x.accumulate((g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            w.accumulate(x.data.reshape(-1, d_in).T @ g2)
        if b is not None and b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out, (x, w) if b is None else (x, w, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with numpy's broadcasting; a 2-D ``b`` runs as one product over all rows of ``a``.

    For a 2-D ``b``, ``a`` is flattened to ``(N, d_in)`` as in :func:`linear`.
    Where each batch entry of ``a`` has at least two rows, the output and
    ``a``'s gradient equal the per-entry ``a[i] @ b`` bit for bit; where an
    entry has one row, BLAS runs another kernel for it and they differ at
    float32 rounding. ``b``'s gradient is one ``a2ᵀ @ g2`` instead of a sum of
    per-entry products, so it differs from that sum at rounding.
    """
    if b.data.ndim == 2:
        return _dense(a, b, None)
    out = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a.accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b.accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D ``w`` as one node: one product over all rows, the bias added in place.

    ``x`` is flattened to ``(N, d_in)``, N the product of its leading
    dimensions. The node computes what ``add(matmul(x, w), b)`` does, bit
    for bit, without a second ``(..., n)`` array on the tape. Against
    per-entry products ``x[i] @ w``, the output and ``x``'s gradient are
    bit-identical where each entry has at least two rows and differ at
    float32 rounding where it has one, and ``w``'s gradient differs at
    rounding (see :func:`matmul`). ``b``'s gradient is summed as
    :func:`add` sums it.
    """
    return _dense(x, w, b)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        a.accumulate(g.reshape(a.data.shape))

    return _make(out, (a,), bwd)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        a.accumulate(g.transpose(inverse))

    return _make(out, (a,), bwd)


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup ``table[idx]`` with scatter-add on the way back.

    The scatter-add is one product with the sparse one-hot matrix of ``idx``.
    It sums the rows of each repeated index in position order, as
    ``np.add.at`` does, so the gradient is the same bit for bit.
    """
    idx = np.asarray(idx)
    out = table.data[idx]

    def bwd(g):
        flat = idx.reshape(-1)
        n_rows, width = table.data.shape
        one_hot = sparse.csr_array((np.ones(flat.size, dtype=g.dtype), flat, np.arange(flat.size + 1)),
                                   shape=(flat.size, n_rows))
        table.accumulate(one_hot.T @ g.reshape(-1, width))

    return _make(out, (table,), bwd)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack two 2-D tensors with the same width, ``a``'s rows first."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeMismatch(f"cannot stack rows of shapes {a.data.shape} and {b.data.shape}")
    out = np.concatenate([a.data, b.data])
    split = a.data.shape[0]

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g[:split])
        if b.requires_grad:
            b.accumulate(g[split:])

    return _make(out, (a, b), bwd)


def take_position(a: Tensor, pos: int) -> Tensor:
    """Slice position ``pos`` along axis 1 of a (B, L, d) tensor."""
    out = a.data[:, pos, :]

    def bwd(g):
        grad = np.zeros_like(a.data)
        grad[:, pos, :] = g
        a.accumulate(grad)

    return _make(out, (a,), bwd)


def _rows_of(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entries ``rows[b, j]`` of axis -2 of ``x`` for each batch entry ``b`` (axis 0), as a fresh array."""
    idx = rows.reshape(rows.shape[:1] + (1,) * (x.ndim - 3) + rows.shape[1:] + (1,))
    return np.take_along_axis(x, idx, axis=-2)


def take_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """Positions ``rows[b]`` along axis 1 of a (B, L, d) tensor: (B, m, d) for (B, m) ``rows``.

    The backward scatter-adds, so a position taken twice gets both rows' gradients.
    """
    rows = np.asarray(rows)
    out = _rows_of(a.data, rows)

    def bwd(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, (np.arange(rows.shape[0])[:, None], rows), g)
        a.accumulate(grad)

    return _make(out, (a,), bwd)


def squeeze_last(a: Tensor) -> Tensor:
    out = a.data[..., 0]

    def bwd(g):
        a.accumulate(g[..., None])

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        a.accumulate(g * (cdf + x * pdf))

    return _make(out.astype(x.dtype, copy=False), (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis, then apply gain and bias."""
    x = a.data
    dim = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            dxhat = g * gain.data
            s1 = dxhat.sum(axis=-1, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=-1, keepdims=True)
            a.accumulate((inv / dim) * (dim * dxhat - s1 - xhat * s2))

    return _make(out.astype(x.dtype, copy=False), (a, gain, bias), bwd)


def _softmax_masked_inplace(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Overwrite ``x`` with its softmax over the last axis restricted to ``keep``.

    The mask enters as a 0 / -inf bias, so masked entries come out exactly 0;
    a row with no admissible position yields all zeros instead of NaN.
    """
    if not keep.all():
        x += np.where(keep, 0.0, -np.inf).astype(x.dtype)
    m = x.max(axis=-1, keepdims=True)
    m[m == -np.inf] = 0.0
    x -= m
    np.exp(x, out=x)
    s = x.sum(axis=-1, keepdims=True)
    s[s == 0.0] = 1.0
    x /= s
    return x


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def softmax_masked(scores: Tensor, keep: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to ``keep`` positions.

    Masked entries come out exactly 0; a row with no admissible position
    yields all zeros instead of NaN.
    """
    p = _softmax_masked_inplace(scores.data.copy(), keep)

    def bwd(g):
        scores.accumulate(_softmax_backward(p, g))

    return _make(p, (scores,), bwd)


def _dropout_keep(rng: np.random.Generator, shape: tuple[int, ...], rate: float,
                  rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The boolean keep mask ``rng.random(shape) >= rate``.

    With ``rows`` (B, m), the mask is drawn at ``shape`` and its entries
    ``rows[b]`` of axis -2 are kept (see ``_rows_of``): the generator advances
    as for the full mask, and every kept entry equals the full mask's.
    """
    keep = rng.random(shape) >= rate
    return keep if rows is None else _rows_of(keep, rows)


def _scaled_keep(rng: np.random.Generator, shape: tuple[int, ...], rate: float,
                 rows: Optional[np.ndarray], dtype) -> np.ndarray:
    """The keep mask as ``1 / (1 - rate)`` where kept and 0 elsewhere, in ``dtype``.

    ``x * mask`` equals ``x * keep * (1 / (1 - rate))`` bit for bit.
    """
    mask = _dropout_keep(rng, shape, rate, rows).astype(dtype)
    mask *= mask.dtype.type(1.0 / (1.0 - rate))
    return mask


def attention(q: Tensor, k: Tensor, v: Tensor, keep: np.ndarray, scale: float,
              rate: float, rng: Optional[np.random.Generator], training: bool,
              rows: Optional[np.ndarray] = None) -> Tensor:
    """Fused ``dropout(softmax_masked(q @ kᵀ · scale, keep)) @ v`` with one backward.

    ``q`` is (..., Lq, d) and ``k`` and ``v`` are (..., L, d); ``keep``
    broadcasts against the (..., Lq, L) scores and marks admissible keys.
    Dropout on the probabilities draws ``rng.random(shape) >= rate`` exactly
    as :func:`dropout` does, so the random stream is the same as the unfused
    chain's, and the results are too. With ``rows`` (B, Lq), the query rows
    are those positions of a length-L sequence: the mask is drawn for all L
    rows and the ``rows`` entries are kept (see :func:`dropout`). The tape
    keeps only the probabilities and the scaled dropout mask, not the raw or
    scaled scores.
    """
    c = q.data.dtype.type(scale)
    scores = q.data @ k.data.swapaxes(-1, -2)
    scores *= c
    p = _softmax_masked_inplace(scores, keep)
    dropped, mask = p, None
    if training and rate > 0.0:
        full = p.shape if rows is None else p.shape[:-2] + (p.shape[-1], p.shape[-1])
        mask = _scaled_keep(rng, full, rate, rows, p.dtype)
        dropped = p * mask
    out = dropped @ v.data

    def bwd(g):
        if v.requires_grad:  # the dropped probabilities are rebuilt, not held by the tape
            v.accumulate((p if mask is None else p * mask).swapaxes(-1, -2) @ g)
        gp = g @ v.data.swapaxes(-1, -2)
        if mask is not None:
            gp *= mask
        gs = _softmax_backward(p, gp)
        gs *= c
        if q.requires_grad:
            q.accumulate(gs @ k.data)
        if k.requires_grad:
            k.accumulate((q.data.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))

    return _make(out, (q, k, v), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool,
            rows: Optional[np.ndarray] = None, length: Optional[int] = None) -> Tensor:
    """Inverted dropout.

    With ``rows`` (B, m), ``a`` holds positions ``rows[b]`` of a sequence of
    ``length``: the mask is drawn as if axis -2 of ``a`` had ``length``
    entries and its ``rows`` entries are kept, so a layer that computes fewer
    rows advances ``rng`` exactly as the full layer does.
    """
    if not training or rate <= 0.0:
        return a
    shape = a.data.shape if rows is None else a.data.shape[:-2] + (length, a.data.shape[-1])
    mask = _scaled_keep(rng, shape, rate, rows, a.data.dtype)
    out = a.data * mask

    def bwd(g):
        a.accumulate(g * mask)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions and losses


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()

    def bwd(g):
        a.accumulate(np.full_like(a.data, g))

    return _make(np.asarray(out), (a,), bwd)


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer targets against rows of logits."""
    targets = np.asarray(targets)
    n = logits.data.shape[0]
    if targets.shape != (n,):
        raise ShapeMismatch(f"{n} logit rows but targets shape {targets.shape}")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    lse = np.log(e.sum(axis=1)) + m[:, 0]
    picked = x[np.arange(n), targets]
    out = (lse - picked).mean()

    def bwd(g):
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        logits.accumulate(p * (g / n))

    return _make(np.asarray(out.astype(x.dtype)), (logits,), bwd)


def mae_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise ShapeMismatch(f"prediction shape {pred.data.shape} vs target {target.shape}")
    diff = pred.data - target
    out = np.abs(diff).mean()

    def bwd(g):
        pred.accumulate(np.sign(diff) * (g / diff.size))

    return _make(np.asarray(out), (pred,), bwd)


def bce_logits_mean(logits: Tensor, labels: np.ndarray, pos_weight: np.ndarray | float = 1.0) -> Tensor:
    """Mean binary cross-entropy of 0/1 labels from logits, positives scaled by ``pos_weight``."""
    y = np.asarray(labels, dtype=logits.data.dtype)
    if y.shape != logits.data.shape:
        raise ShapeMismatch(f"logit shape {logits.data.shape} vs labels {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ShapeMismatch("labels must be 0 or 1")
    w = np.broadcast_to(np.asarray(pos_weight, dtype=logits.data.dtype), y.shape)
    z = logits.data
    positive = y > 0.5
    # softplus via logaddexp is stable; the branch keeps infinite logits exact
    per = np.where(positive, w * np.logaddexp(0.0, -z), np.logaddexp(0.0, z))
    out = per.mean()

    def bwd(g):
        sig = expit(z)
        grad = np.where(positive, w * (sig - 1.0), sig)
        logits.accumulate(grad.astype(z.dtype) * (g / y.size))

    return _make(np.asarray(out.astype(z.dtype)), (logits,), bwd)


def collect_parameters(named: Iterable[tuple[str, Tensor]]) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for name, t in named:
        if name in out:
            raise ShapeMismatch(f"duplicate parameter name {name!r}")
        out[name] = t
    return out
