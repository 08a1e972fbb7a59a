"""Minimal reverse-mode tape over numpy arrays.

Just enough operator coverage for the embedding composition, the encoder
stack, and the training losses. A :class:`Tensor` pairs a value with its
tape entry, a :class:`_Node`: the node holds the gradient and, for an op's
output, the parent nodes and the backward closure, but never the value. Each
closure saves only the arrays its backward reads, so an op output that no
backward reads (a linear output fed to dropout) is freed as soon as the
caller drops its Tensor. A node may also hold a ``rebuild`` closure that
recomputes its value bit for bit from what its own backward keeps; a
backward that reads that value calls it instead of keeping the value (a
layer-norm output read by a linear's weight gradient). Calling
:func:`backward` on a scalar walks the nodes, accumulates gradients into
the ``grad`` of the leaves (nodes no op made, such as parameters) and
releases the graph as it walks it, so one graph supports one
:func:`backward`. An ``on_leaf`` hook sees each leaf's gradient as soon as
it is complete, while the sweep goes on below it; the optimizer updates a
parameter there. Every closure captured the arrays it reads when its op
ran, so a hook that rebinds a leaf's value changes no later gradient. Every
op keeps the dtype of its inputs so the same graph runs in float32 for
training and float64 for finite-difference checks. An op records its
parents and backward closure only when some input requires grad, so a
forward over constants keeps no tape.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.special import erf, expit

from .errors import GraphReleased, ShapeMismatch

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-12  # added to the variance before its square root


class _Node:
    """The tape entry of one value: its gradient and, for an op's output, its parent nodes and backward.

    The node never holds the value; ``shape`` and ``dtype`` describe it so
    that a gradient can be allocated once the value is gone.
    """

    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "rebuild", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype, requires_grad: bool):
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[_Node, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.rebuild: Optional[Callable[[], np.ndarray]] = None  # recomputes the value; see layer_norm
        self.shape = shape
        self.dtype = dtype

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``; the first gradient is copied into a fresh C-ordered array.

        The copy is never an alias of ``g`` (:func:`add` hands one array to
        both parents), and it is C-contiguous whatever ``g``'s strides, so
        later products see the same memory layout and round the same way.
        """
        if self.grad is None:
            self.grad = np.empty(self.shape, self.dtype)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def adopt(self, g: np.ndarray) -> None:
        """:meth:`accumulate` for a gradient an op allocated for this node alone: the first one is kept, not copied.

        ``g`` must be referenced by nothing the caller uses afterwards, since
        later gradients are added into it. One that is not C-contiguous or
        not of the node's shape and dtype is copied as :meth:`accumulate`
        copies it, so the node's gradient is the same array either way.
        """
        if self.grad is None and g.flags.c_contiguous and g.shape == self.shape and g.dtype == self.dtype:
            self.grad = g
        else:
            self.accumulate(g)


class Tensor:
    """A value (``data``) and its tape entry (a :class:`_Node`), to which the gradient attributes delegate."""

    __slots__ = ("_data", "name", "_node")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        self._data = arr
        self.name = name
        self._node = _Node(arr.shape, arr.dtype, requires_grad)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        """Rebind the value; the node's shape and dtype follow it."""
        self._data = value
        self._node.shape, self._node.dtype = value.shape, value.dtype

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._node.grad

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _parents(self) -> tuple[_Node, ...]:
        """The parent nodes; ``perfbench/layers.py`` ``_tape_size`` starts its walk of the tape here."""
        return self._node._parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        return float(self._data)

    def zero_grad(self) -> None:
        self._node.grad = None


def parameter(data: np.ndarray, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


# make(name, shape, init): the parameter called name, of that shape; a fresh model fills it by init
Maker = Callable[[str, tuple[int, ...], str], Tensor]


def drawn(rng: np.random.Generator, dtype=np.float32) -> Maker:
    """The maker of fresh parameters: each array is drawn from ``rng`` in float64 and cast to ``dtype``.

    ``init`` is ``"normal"`` (standard normal · 0.02), ``"uniform"`` (on
    ±1/√rows, rows being ``shape[0]``), ``"zeros"`` or ``"ones"``; the
    last two draw nothing.
    """
    def make(name: str, shape: tuple[int, ...], init: str) -> Tensor:
        if init == "normal":
            data = (rng.standard_normal(shape) * 0.02).astype(dtype)
        elif init == "uniform":
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape).astype(dtype)
        else:
            data = {"zeros": np.zeros, "ones": np.ones}[init](shape, dtype=dtype)
        return parameter(data, name)

    return make


def named(*params) -> dict[str, Tensor]:
    """The Tensor fields of each params dataclass, in field order, keyed by their names."""
    fields = (getattr(p, f.name) for p in params for f in dataclasses.fields(p))
    return {t.name: t for t in fields if isinstance(t, Tensor)}


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """The op output ``data``, linked to its parents' nodes when one of them requires grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        node = out._node
        node.requires_grad = True
        node._parents = tuple(p._node for p in parents)
        node._backward = backward
    return out


def _grad_node(t: Tensor) -> Optional[_Node]:
    """``t``'s node if it requires grad, else None: what a closure captures to accumulate into."""
    return t._node if t.requires_grad else None


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


def backward(loss: Tensor, on_leaf: Optional[Callable[[_Node], None]] = None) -> None:
    """Reverse sweep from a scalar node, accumulating into leaf ``grad``s.

    The sweep walks nodes and consumes the graph. Once an interior node's
    backward has run, the node drops its ``grad`` and ``_parents``, and its
    ``_backward`` becomes a marker, so the closures and the arrays they saved
    are freed as the sweep goes and nothing of the graph outlives the call.
    Leaves keep their ``grad``. A later ``backward`` that reaches a released
    node, from the same loss or from a new graph built on it, raises
    ``GraphReleased`` before any gradient is accumulated.

    ``on_leaf(node)`` is called once for each leaf that requires grad and
    that the sweep reaches, the root included, right after the last node
    that feeds it has run its backward and been released: ``node.grad`` is
    then final, or None if none of its consumers received a gradient. The
    walk that orders the nodes counts each leaf's consumer edges (a node
    that lists one leaf twice counts twice), and the sweep counts them down.
    The hook runs while the nodes below are still to be swept. What it does
    to the leaf cannot reach them as long as it rebinds the leaf's value
    and never writes the array: each closure holds the arrays its op read.
    """
    if loss.data.shape != ():
        raise ShapeMismatch(f"backward expects a scalar, got shape {loss.data.shape}")
    root = loss._node
    topo: list[_Node] = []
    visited: set[int] = set()
    pending: dict[_Node, int] = {}  # leaf -> consumer edges whose backward has not run
    stack: list[tuple[_Node, bool]] = [(root, False)]
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
            if p.requires_grad:
                if p._backward is None:
                    pending[p] = pending.get(p, 0) + 1
                if id(p) not in visited:
                    stack.append((p, False))
    root.grad = np.ones_like(loss.data)
    if on_leaf is not None and root._backward is None and root.requires_grad:
        on_leaf(root)
    while topo:
        node = topo.pop()
        if node._backward is None:  # a leaf keeps its gradient
            continue
        if node.grad is not None:
            node._backward(node.grad)
        parents = node._parents
        node.grad, node._backward, node._parents, node.rebuild = None, _released, (), None
        if on_leaf is None:
            continue
        for p in parents:
            left = pending.get(p)
            if left is not None:
                pending[p] = left - 1
                if left == 1:
                    on_leaf(p)


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    an, bn = _grad_node(a), _grad_node(b)

    def bwd(g):
        if an is not None:
            an.accumulate(_unbroadcast(g, an.shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(g, bn.shape))

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    an, bn = _grad_node(a), _grad_node(b)
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def bwd(g):
        if an is not None:
            an.accumulate(_unbroadcast(g * b_data, an.shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(g * a_data, bn.shape))

    return _make(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    out = a.data * c
    an = a._node

    def bwd(g):
        an.accumulate(g * c)

    return _make(out, (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``x @ w``, plus ``b`` added in place, for a 2-D ``w`` as one node: one product over all rows.

    ``x`` is flattened to ``(N, d_in)``, N the product of its leading
    dimensions, so BLAS runs one product rather than one per batch entry,
    and the weight gradient is one ``x2ᵀ @ g2`` rather than a
    ``(..., d_in, n)`` stack summed over its leading axes. The node computes
    what ``add(x @ w, b)`` does, bit for bit, without a second ``(..., n)``
    array on the tape. Against per-entry products ``x[i] @ w``, the output
    and ``x``'s gradient are bit-identical where each entry has at least two
    rows and differ at float32 rounding where it has one (BLAS runs another
    kernel for it), and ``w``'s gradient differs at rounding. ``b``'s
    gradient is summed as :func:`add` sums it.

    The closure keeps ``x.data`` only if ``w`` needs a gradient and
    ``w.data`` only if ``x`` does, and no flattened copy of ``x``: the
    backward reshapes ``x.data`` again, which is a view unless ``x`` is
    non-contiguous. Where ``x``'s node has a ``rebuild`` (a layer-norm
    output), the closure keeps that instead of ``x.data``, and the weight
    gradient reads the rebuilt value, which is ``x.data`` bit for bit. The
    gradients of ``x`` and ``w`` are fresh products, adopted rather than
    copied (see ``_Node.adopt``).
    """
    # reshape alone would accept any size that d_in divides
    if w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1]:
        raise ShapeMismatch(f"cannot multiply shape {x.data.shape} by {w.data.shape}")
    d_in, n = w.data.shape
    out = x.data.reshape(-1, d_in) @ w.data
    if b is not None:
        out += b.data
    out = out.reshape(x.data.shape[:-1] + (n,))
    xn, wn = _grad_node(x), _grad_node(w)
    bn = None if b is None else _grad_node(b)
    rebuild = x._node.rebuild if wn is not None else None
    x_data = x.data if wn is not None and rebuild is None else None
    w_data = w.data if xn is not None else None

    def bwd(g):
        g2 = g.reshape(-1, n)
        if xn is not None:
            xn.adopt((g2 @ w_data.T).reshape(xn.shape))
        if wn is not None:
            wn.adopt((x_data if rebuild is None else rebuild()).reshape(-1, d_in).T @ g2)
        if bn is not None:
            bn.accumulate(_unbroadcast(g, bn.shape))

    return _make(out, (x, w) if b is None else (x, w, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a 2-D ``b``: :func:`linear` without a bias. Any other ``b`` is a ``ShapeMismatch``."""
    return linear(a, b)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    an = a._node

    def bwd(g):
        an.accumulate(g.reshape(an.shape))

    return _make(out, (a,), bwd)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))
    an = a._node

    def bwd(g):
        an.accumulate(g.transpose(inverse))

    return _make(out, (a,), bwd)


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup ``table[idx]`` with scatter-add on the way back.

    The scatter-add is one product with the sparse one-hot matrix of ``idx``.
    It sums the rows of each repeated index in position order, as
    ``np.add.at`` does, so the gradient is the same bit for bit.
    """
    idx = np.asarray(idx)
    out = table.data[idx]
    tn = table._node

    def bwd(g):
        flat = idx.reshape(-1)
        n_rows, width = tn.shape
        one_hot = sparse.csr_array((np.ones(flat.size, dtype=g.dtype), flat, np.arange(flat.size + 1)),
                                   shape=(flat.size, n_rows))
        tn.accumulate(one_hot.T @ g.reshape(-1, width))

    return _make(out, (table,), bwd)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack two 2-D tensors with the same width, ``a``'s rows first."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeMismatch(f"cannot stack rows of shapes {a.data.shape} and {b.data.shape}")
    out = np.concatenate([a.data, b.data])
    split = a.data.shape[0]
    an, bn = _grad_node(a), _grad_node(b)

    def bwd(g):
        if an is not None:
            an.accumulate(g[:split])
        if bn is not None:
            bn.accumulate(g[split:])

    return _make(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def gelu(a: Tensor) -> Tensor:
    """``x · Φ(x)``, Φ the standard normal CDF, which ``erf`` gives in float64.

    The float64 ``cdf`` is built in one buffer, ``0.5 · (1 + erf(x / √2))``
    op by op in place, and the output is rounded to ``x``'s dtype as it is
    written. The backward computes ``exp(-0.5 · x · x)`` in ``x``'s dtype
    and then ``g · (cdf + x · pdf)`` in one float64 buffer, in that order.
    """
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = np.multiply(x, cdf, out=np.empty_like(x))
    an = a._node

    def bwd(g):
        e = np.multiply(x, -0.5)
        e *= x
        np.exp(e, out=e)
        grad = np.multiply(e, _INV_SQRT2PI)  # pdf
        grad *= x
        grad += cdf
        grad *= g
        an.accumulate(grad)

    return _make(out, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, residual: Optional[Tensor] = None) -> Tensor:
    """Normalize ``a`` over the last axis, then apply gain and bias; with ``residual``, normalize ``residual + a``.

    With ``residual`` (of ``a``'s shape) the one node computes what
    ``layer_norm(add(residual, a), gain, bias)`` does, bit for bit: the same
    ops in the same order, the sum's buffer centred and then scaled into
    ``xhat`` in place, and the squares' buffer turned into the output. The
    node's parents are ``(residual, a, gain, bias)``, the order in which
    :func:`backward` reaches them through the add, so every node receives
    its gradients, and sums them, in the same order. Both summands get the
    same gradient; the first one that requires grad adopts it.

    The tape keeps ``xhat``, the inverse deviations and the gain, never the
    input or the output. The output node's ``rebuild`` recomputes
    ``gain · xhat + bias`` with the forward's two ops, so a backward that
    reads the output (a linear's weight gradient) gets it bit for bit
    without the tape holding it.
    """
    if residual is not None and residual.data.shape != a.data.shape:
        raise ShapeMismatch(f"residual shape {residual.data.shape} vs input {a.data.shape}")
    x = a.data if residual is None else residual.data + a.data
    dim = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=None if residual is None else x)  # the sum is this op's own: centre it in place
    out = np.multiply(xhat, xhat)
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    gain_data, bias_data = gain.data, bias.data
    np.multiply(gain_data, xhat, out=out)
    out += bias_data
    rn = None if residual is None else _grad_node(residual)
    an, gn, bn = _grad_node(a), _grad_node(gain), _grad_node(bias)
    summands = [node for node in (rn, an) if node is not None]

    def bwd(g):
        scratch = np.multiply(g, xhat)
        if gn is not None:
            gn.accumulate(_unbroadcast(scratch, gn.shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(g, bn.shape))
        if not summands:
            return
        dx = np.multiply(g, gain_data)  # dxhat
        s1 = dx.sum(axis=-1, keepdims=True)
        s2 = np.multiply(dx, xhat, out=scratch).sum(axis=-1, keepdims=True)
        np.multiply(xhat, s2, out=scratch)
        dx *= dim
        dx -= s1
        dx -= scratch
        del scratch  # freed before the second summand copies dx
        dx *= inv / dim
        summands[0].adopt(dx)
        for node in summands[1:]:
            node.accumulate(dx)

    def rebuild():
        value = np.multiply(gain_data, xhat)
        value += bias_data
        return value

    parents = (a, gain, bias) if residual is None else (residual, a, gain, bias)
    result = _make(out, parents, bwd)
    if result.requires_grad:
        result._node.rebuild = rebuild
    return result


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
    """``p · (g - Σ g·p)`` over the last axis, computed in ``g``, which it overwrites."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    g -= inner
    g *= p
    return g


def softmax_masked(scores: Tensor, keep: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to ``keep`` positions.

    Masked entries come out exactly 0; a row with no admissible position
    yields all zeros instead of NaN.
    """
    p = _softmax_masked_inplace(scores.data.copy(), keep)
    sn = scores._node

    def bwd(g):
        sn.accumulate(_softmax_backward(p, g.copy()))

    return _make(p, (scores,), bwd)


def _dropout_keep(rng: np.random.Generator, shape: tuple[int, ...], rate: float,
                  rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The boolean keep mask ``rng.random(shape) >= rate``, drawn one batch entry (axis 0) at a time.

    The draws take the stream in order, so the mask and the generator's
    state afterwards equal one full draw's, while the float64 scratch holds
    one entry. With ``rows`` (B, m), the mask holds entries ``rows[b]`` of
    axis -2 of the full mask for each entry ``b``, in ``rows[b]``'s order,
    and only those are drawn: per entry and leading index, the
    distinct rows in ascending order, adjacent rows as one draw, each gap
    and the rest of ``shape`` skipped by ``bit_generator.advance``. ``rng``
    must then be a PCG64 generator (``np.random.default_rng``), whose
    ``advance(n)`` passes ``n`` doubles of ``random``.
    """
    if rows is None:
        keep = np.empty(shape, bool)
        scratch = np.empty(shape[1:])
        for b in range(shape[0]):
            rng.random(out=scratch)
            np.greater_equal(scratch, rate, out=keep[b])
        return keep
    rows = np.asarray(rows)
    length, width, m = shape[-2], shape[-1], rows.shape[1]
    if rows.size and not 0 <= rows.min() <= rows.max() < length:  # a row past the mask would move the stream
        raise ShapeMismatch(f"rows must lie in [0, {length}), got {rows.min()}..{rows.max()}")
    lead = math.prod(shape[1:-2])
    keep = np.empty(shape[:-2] + (m, width), bool)
    bits = rng.bit_generator
    before = bits.state  # advance drops a buffered 32-bit half, which a full draw leaves alone
    done = 0  # doubles of the full draw passed so far
    for b in range(shape[0]):
        distinct, where = np.unique(rows[b], return_inverse=True)
        starts = np.flatnonzero(np.diff(distinct, prepend=-2) != 1).tolist()
        runs = [(int(distinct[j0]) * width, j0, j1) for j0, j1 in zip(starts, starts[1:] + [distinct.size])]
        scratch = np.empty((lead, distinct.size, width))
        for h in range(lead):
            base = (b * lead + h) * length * width
            for at, j0, j1 in runs:
                bits.advance(base + at - done)
                rng.random(out=scratch[h, j0:j1])
                done = base + at + (j1 - j0) * width
        np.greater_equal(scratch[:, where], rate, out=keep[b].reshape(lead, m, width))
    bits.advance(math.prod(shape) - done)
    if before["has_uint32"]:
        bits.state = before | {"state": bits.state["state"]}
    return keep


def _apply_keep(x: np.ndarray, keep: np.ndarray, factor: np.generic,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x * keep * factor`` in ``x``'s dtype, into ``out`` or a fresh array: inverted dropout with a bool mask (see :func:`dropout`)."""
    out = np.multiply(x, keep, out=out, dtype=x.dtype)
    out *= factor
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, keep: np.ndarray, scale: float,
              rate: float, rng: Optional[np.random.Generator], training: bool,
              rows: Optional[np.ndarray] = None) -> Tensor:
    """Fused ``dropout(softmax_masked(q @ kᵀ · scale, keep)) @ v`` with one backward, run one batch entry at a time.

    ``q`` is (B, ..., Lq, d) and ``k`` and ``v`` are (B, ..., L, d); ``keep``
    broadcasts against the (B, ..., Lq, L) scores and marks admissible keys.
    Each batch entry (axis 0) runs the products, the softmax and the dropout
    on its own (..., Lq, L) slice; BLAS runs the same product per matrix
    as for the whole stack, so every result is the batched chain's bit for
    bit. Dropout on the probabilities draws ``rng.random(shape) >= rate``
    entry by entry as :func:`dropout` does, so the random stream is the same
    as the unfused chain's, and the results are too. With ``rows`` (B, Lq),
    the query rows are those positions of a length-L sequence: only the
    ``rows`` entries of the mask for all L rows are drawn, and the generator
    is advanced past the rest (see ``_dropout_keep``). When an input
    requires grad, the tape keeps the probabilities and the bool dropout
    mask, each written into one (B, ..., Lq, L) array, the scale, and of
    ``q``, ``k`` and ``v`` only what the needed gradients read, never the
    raw or scaled scores; otherwise each entry's scores and mask are
    dropped as soon as its output is written. Both directions multiply by
    the bool mask, then by the scale, which is bit-identical to one product
    with the float mask ``keep · scale``: a kept entry is ``x · 1 = x``, then
    scaled once, and a dropped one is ``x · 0``, a zero with ``x``'s sign, as
    ``x · 0.0`` gives.
    """
    dtype = q.data.dtype
    c = dtype.type(scale)
    n, length = q.data.shape[0], k.data.shape[-2]
    shape = q.data.shape[:-1] + (length,)  # the scores'
    full = shape[1:] if rows is None else shape[1:-2] + (length, length)  # one entry's mask before any cut
    keep = np.asarray(keep)
    keep = keep.reshape((1,) * (len(shape) - keep.ndim) + keep.shape)
    qn, kn, vn = _grad_node(q), _grad_node(k), _grad_node(v)
    taped = qn is not None or kn is not None or vn is not None
    dropping = training and rate > 0.0
    factor = dtype.type(1.0 / (1.0 - rate)) if dropping else None
    p = np.empty(shape, dtype) if taped else None
    kept = np.empty(shape, bool) if taped and dropping else None
    scratch = np.empty(shape[1:], dtype)
    out = np.empty(q.data.shape[:-1] + v.data.shape[-1:], dtype)
    for b in range(n):
        pb = p[b] if taped else scratch
        np.matmul(q.data[b], k.data[b].swapaxes(-1, -2), out=pb)
        pb *= c
        _softmax_masked_inplace(pb, keep[b if keep.shape[0] > 1 else 0])
        dropped = pb
        if dropping:
            kb = _dropout_keep(rng, (1,) + full, rate, None if rows is None else rows[b:b + 1])[0]
            if kept is not None:
                kept[b] = kb
            dropped = _apply_keep(pb, kb, factor, out=scratch)
        np.matmul(dropped, v.data[b], out=out[b])
    q_data = q.data if kn is not None else None
    k_data = k.data if qn is not None else None
    v_data = v.data if qn is not None or kn is not None else None

    def bwd(g):
        dq, dk, dv = (None if t is None else np.empty(t.shape, t.dtype) for t in (qn, kn, vn))
        work = np.empty(p.shape[1:], p.dtype)
        for b in range(n):
            kb = None if kept is None else kept[b]
            if dv is not None:  # the dropped probabilities are rebuilt, not held by the tape
                dropped = p[b] if kb is None else _apply_keep(p[b], kb, factor, out=work)
                np.matmul(dropped.swapaxes(-1, -2), g[b], out=dv[b])
            if dq is None and dk is None:
                continue
            gp = np.matmul(g[b], v_data[b].swapaxes(-1, -2), out=work)
            if kb is not None:
                gp *= kb
                gp *= factor
            gs = _softmax_backward(p[b], gp)
            gs *= c
            if dq is not None:
                np.matmul(gs, k_data[b], out=dq[b])
            if dk is not None:
                dk[b] = (q_data[b].swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        for node, grad in ((qn, dq), (kn, dk), (vn, dv)):
            if node is not None:
                node.adopt(grad)

    return _make(out, (q, k, v), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool,
            rows: Optional[np.ndarray] = None, length: Optional[int] = None) -> Tensor:
    """Inverted dropout.

    The mask is drawn one batch entry (axis 0) at a time (see
    ``_dropout_keep``). The tape keeps a bool mask and one scale, a quarter
    of a float32 mask's bytes, and both directions multiply by the mask,
    then by the scale. That equals one product with the float mask
    ``keep · scale`` bit for bit: a kept entry is ``x · 1 = x`` exactly, then
    scaled once, as ``x · scale`` is; a dropped one is ``x · 0``, a zero with
    ``x``'s sign, which the positive scale keeps, as ``x · 0.0`` gives.

    With ``rows`` (B, m), ``a`` holds positions ``rows[b]`` of a sequence of
    ``length``: only those entries of a mask whose axis -2 has ``length``
    entries are drawn, and the generator is advanced past the rest, so a
    layer that computes fewer rows gets the full layer's mask at its rows
    and leaves ``rng`` exactly as the full layer does.
    """
    if not training or rate <= 0.0:
        return a
    shape = a.data.shape if rows is None else a.data.shape[:-2] + (length, a.data.shape[-1])
    kept = _dropout_keep(rng, shape, rate, rows)
    factor = a.data.dtype.type(1.0 / (1.0 - rate))
    out = _apply_keep(a.data, kept, factor)
    an = a._node

    def bwd(g):
        an.accumulate(_apply_keep(g, kept, factor))

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions and losses


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
    ln = logits._node

    def bwd(g):
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        ln.accumulate(p * (g / n))

    return _make(np.asarray(out.astype(x.dtype)), (logits,), bwd)


def mae_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise ShapeMismatch(f"prediction shape {pred.data.shape} vs target {target.shape}")
    diff = pred.data - target
    out = np.abs(diff).mean()
    pn = pred._node

    def bwd(g):
        pn.accumulate(np.sign(diff) * (g / diff.size))

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
    ln = logits._node

    def bwd(g):
        sig = expit(z)
        grad = np.where(positive, w * (sig - 1.0), sig)
        ln.accumulate(grad.astype(z.dtype) * (g / y.size))

    return _make(np.asarray(out.astype(z.dtype)), (logits,), bwd)

