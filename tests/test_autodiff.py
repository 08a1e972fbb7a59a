"""Gradient checks for every tape op against central differences (float64)."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from icuseq import autodiff as ad
from icuseq.errors import GraphReleased, ShapeMismatch

import reference
from reference import sum_all, take_rows

RNG = np.random.default_rng(7)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2 * eps)
    return g


def check_op(build_loss, *shapes, atol=1e-8, rtol=1e-5):
    """build_loss(tensors...) -> scalar Tensor; verifies grads of every input."""
    tensors = [ad.parameter(RNG.standard_normal(s), f"x{i}") for i, s in enumerate(shapes)]
    loss = build_loss(*tensors)
    ad.backward(loss)
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_grad(lambda t=t: build_loss(*tensors).item(), t.data)
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def weighted(x: ad.Tensor) -> ad.Tensor:
    """Project to a scalar with fixed random weights so every entry matters."""
    w = ad.constant(np.random.default_rng(x.data.size).standard_normal(x.data.shape))
    return sum_all(ad.mul(x, w))


class TestElementwise:
    def test_add_broadcast(self):
        check_op(lambda a, b: weighted(ad.add(a, b)), (3, 4), (4,))

    def test_mul(self):
        check_op(lambda a, b: weighted(ad.mul(a, b)), (5, 2), (5, 2))

    def test_scale(self):
        check_op(lambda a: weighted(ad.scale(a, -2.5)), (4, 3))

    def test_gelu(self):
        check_op(lambda a: weighted(ad.gelu(a)), (6, 5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_equals_the_formula(self, dtype):
        """Output and gradient byte for byte against the formula written with a temporary per operation."""
        rng = np.random.default_rng(8)
        x = (3 * rng.standard_normal((4, 33, 17))).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        grad = g * (cdf + x * (np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))))
        t = ad.parameter(x, "x")
        out = ad.gelu(t)
        ad.backward(sum_all(ad.mul(out, ad.constant(g))))
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == (x * cdf).astype(dtype).tobytes()
        assert t.grad.tobytes() == grad.astype(dtype).tobytes()

    def test_diamond_graph_accumulates(self):
        x = ad.parameter(np.array([1.5, -2.0]), "x")
        loss = sum_all(ad.add(ad.mul(x, x), x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)


class TestMatmul:
    def test_plain(self):
        check_op(lambda a, b: weighted(ad.matmul(a, b)), (3, 4), (4, 5))

    def test_batched(self):
        """The reference's per-matrix product, which the unfused attention chain uses."""
        check_op(lambda a, b: weighted(reference.matmul(a, b)), (2, 3, 4), (2, 4, 5))

    def test_broadcast_rhs(self):
        # (B, L, K) @ (K, D): the shared right factor must sum over the batch
        check_op(lambda a, b: weighted(ad.matmul(a, b)), (2, 3, 4), (4, 5))

    def test_four_dim(self):
        check_op(lambda a, b: weighted(reference.matmul(a, b)), (2, 2, 3, 4), (2, 2, 4, 3))

    @pytest.mark.parametrize("b_shape", [(2, 4, 5), (4,)])
    def test_a_right_operand_that_is_not_2d_is_refused(self, b_shape):
        a, b = ad.parameter(np.ones((2, 3, 4)), "a"), ad.parameter(np.ones(b_shape), "b")
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, b)


def unfused_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_gradient(self, x_shape):
        check_op(lambda x, w, b: weighted(ad.linear(x, w, b)), x_shape, (4, 5), (5,))

    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
    def test_equals_add_of_matmul(self, x_shape):
        """Output and the x, w, b gradients equal the two-node chain's bit for bit; x also feeds a residual."""
        results = []
        for op in (ad.linear, unfused_linear):
            rng = np.random.default_rng(5)
            x, w, b = (ad.parameter(rng.standard_normal(s).astype(np.float32), n)
                       for s, n in ((x_shape, "x"), ((4, 4), "w"), ((4,), "b")))
            out = op(x, w, b)
            ad.backward(weighted(ad.add(out, x)))
            results.append([out.data, x.grad, w.grad, b.grad])
        for fused, unfused in zip(*results):
            assert fused.dtype == unfused.dtype == np.float32
            assert fused.tobytes() == unfused.tobytes()


def per_entry_product(x, w):
    """``x[i] @ w`` for every batch entry ``i`` of ``x``'s leading axes: one 2-D product each."""
    lead = x.shape[:-2]
    out = np.empty(x.shape[:-1] + w.shape[-1:], dtype=x.dtype)
    for i in np.ndindex(*lead):
        out[i] = x[i] @ w
    return out


def batched_sum_weight_grad(x, g):
    """The weight gradient as it was formed before the flattened product: per-entry ``xᵀ @ g`` summed over entries."""
    gw = x.swapaxes(-1, -2) @ g
    while gw.ndim > 2:
        gw = gw.sum(axis=0)
    return gw


DENSE_OPS = {"linear": ad.linear, "matmul": lambda x, w, b: ad.matmul(x, w)}


class TestFlattenedProduct:
    """``linear`` and ``matmul`` with a 2-D right factor run one product over all rows of ``x``."""

    @pytest.mark.parametrize("op", DENSE_OPS)
    def test_gradient_of_a_four_dim_input(self, op):
        check_op(lambda x, w, b: weighted(DENSE_OPS[op](x, w, b)), (2, 3, 2, 4), (4, 5), (5,))

    @pytest.mark.parametrize("op", DENSE_OPS)
    def test_gradient_of_a_non_contiguous_input(self, op):
        def loss(x, w, b):
            view = ad.transpose(x, (0, 2, 1))  # (2, 4, 3) -> a (2, 3, 4) view that reshape must copy
            assert not view.data.flags.c_contiguous
            return weighted(DENSE_OPS[op](view, w, b))

        check_op(loss, (2, 4, 3), (4, 5), (5,))

    @pytest.mark.parametrize("op", DENSE_OPS)
    def test_gradient_with_a_constant_input(self, op):
        x = ad.constant(np.random.default_rng(1).standard_normal((2, 3, 4)))
        check_op(lambda w, b: weighted(DENSE_OPS[op](x, w, b)), (4, 5), (5,))
        assert x.grad is None

    def test_rejects_a_width_mismatch(self):
        x, w = ad.parameter(np.ones((2, 3, 4)), "x"), ad.parameter(np.ones((6, 5)), "w")
        with pytest.raises(ShapeMismatch):  # 24 entries would reshape to (4, 6) without the check
            ad.matmul(x, w)

    @pytest.mark.parametrize("op", DENSE_OPS)
    @pytest.mark.parametrize("x_shape", [(3, 2, 8), (4, 7, 64), (2, 3, 5, 32), (8, 20, 96)])
    def test_rows_equal_the_per_entry_product(self, op, x_shape):
        """In float32 the output and x's gradient equal ``x[i] @ w`` and ``g[i] @ wᵀ`` bit for bit when each entry has 2+ rows."""
        rng = np.random.default_rng(11)
        d, n = x_shape[-1], 24
        x = ad.parameter(rng.standard_normal(x_shape).astype(np.float32), "x")
        w = ad.parameter(rng.standard_normal((d, n)).astype(np.float32), "w")
        b = ad.parameter(np.zeros(n, dtype=np.float32), "b")
        g = rng.standard_normal(x_shape[:-1] + (n,)).astype(np.float32)
        out = DENSE_OPS[op](x, w, b)
        ad.backward(sum_all(ad.mul(out, ad.constant(g))))
        assert out.data.tobytes() == per_entry_product(x.data, w.data).tobytes()
        assert x.grad.tobytes() == per_entry_product(g, w.data.T).tobytes()

    @pytest.mark.parametrize("x_shape", [(3, 1, 8), (4, 7, 64), (2, 3, 5, 32), (8, 20, 96)])
    def test_weight_gradient_is_the_batched_sum_up_to_rounding(self, x_shape):
        """Only the summation order changes: both sums of the N row products are within (N + 1)·eps·Σ|terms|."""
        rng = np.random.default_rng(12)
        d, n = x_shape[-1], 24
        x = ad.constant(rng.standard_normal(x_shape).astype(np.float32))
        w = ad.parameter(rng.standard_normal((d, n)).astype(np.float32), "w")
        g = rng.standard_normal(x_shape[:-1] + (n,)).astype(np.float32)
        ad.backward(sum_all(ad.mul(ad.matmul(x, w), ad.constant(g))))
        x2, g2 = x.data.reshape(-1, d).astype(np.float64), g.reshape(-1, n).astype(np.float64)
        rows = x2.shape[0]
        bound = (rows + 1) * np.finfo(np.float32).eps * (np.abs(x2).T @ np.abs(g2))
        assert np.all(np.abs(w.grad - batched_sum_weight_grad(x.data, g)) <= bound)


class TestAccumulate:
    def test_first_gradient_is_a_c_ordered_copy(self):
        t = ad.parameter(np.zeros((3, 4), dtype=np.float32), "t")
        g = np.arange(12, dtype=np.float32).reshape(4, 3).T  # a transposed view
        before = g.copy()
        t._node.accumulate(g)
        assert t.grad.flags.c_contiguous and not np.shares_memory(t.grad, g)
        assert t.grad.tobytes() == before.tobytes()
        t._node.accumulate(g)
        np.testing.assert_array_equal(t.grad, 2 * before)
        np.testing.assert_array_equal(g, before)

    def test_adopt_keeps_a_fresh_gradient_and_copies_any_other(self):
        t = ad.parameter(np.zeros((3, 4), dtype=np.float32), "t")
        g = np.arange(12, dtype=np.float32).reshape(3, 4)
        t._node.adopt(g)
        assert t.grad is g
        t._node.adopt(np.ones((3, 4), dtype=np.float32))  # a later gradient is added into it
        np.testing.assert_array_equal(g, np.arange(1, 13).reshape(3, 4))
        for other in (np.arange(12, dtype=np.float32).reshape(4, 3).T, np.ones((3, 4))):  # a view; float64
            u = ad.parameter(np.zeros((3, 4), dtype=np.float32), "u")
            u._node.adopt(other)
            assert u.grad.dtype == np.float32 and u.grad.flags.c_contiguous
            assert not np.shares_memory(u.grad, other) and u.grad.tobytes() == other.astype(np.float32).tobytes()

    def test_add_hands_each_parent_its_own_gradient(self):
        """``add``'s backward passes one array to both parents: ``add(x, x)`` gives 2g and leaves ``y``'s g alone."""
        x, y = ad.parameter(np.array([1.0, -2.0, 3.0]), "x"), ad.parameter(np.array([0.0, 1.0, 2.0]), "y")
        g = np.array([0.5, 2.0, -1.0])
        ad.backward(sum_all(ad.mul(ad.add(ad.add(x, x), y), ad.constant(g))))
        np.testing.assert_array_equal(x.grad, 2 * g)
        np.testing.assert_array_equal(y.grad, g)


def interior_nodes(loss):
    """Every node with a backward that ``ad.backward(loss)`` would visit, ``loss`` included."""
    root = loss._node
    seen, todo, found = {id(root)}, [root], [root]
    while todo:
        for p in todo.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
                if p._backward is not None:
                    found.append(p)
    return found


def small_net():
    """Leaves, head outputs and loss of ``linear -> gelu -> linear`` on (2, 3, 4) inputs."""
    rng = np.random.default_rng(3)
    leaves = [ad.parameter(rng.standard_normal(s), n)
              for s, n in (((2, 3, 4), "x"), ((4, 5), "w1"), ((5,), "b1"), ((5, 2), "w2"), ((2,), "b2"))]
    x, w1, b1, w2, b2 = leaves
    hidden_in = ad.linear(x, w1, b1)
    heads = ad.linear(ad.gelu(hidden_in), w2, b2)
    return leaves, hidden_in, heads, weighted(heads)


class TestBackwardReleasesGraph:
    def test_interior_nodes_are_emptied_and_leaves_keep_their_gradient(self):
        leaves, _, _, loss = small_net()
        interior = interior_nodes(loss)
        assert len(interior) == 5  # linear, gelu, linear, mul, sum_all
        ad.backward(loss)
        for node in interior:
            assert node.grad is None and node._parents == () and node._backward is ad._released
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape

    def test_activations_are_freed_while_loss_and_heads_live(self):
        _, hidden_in, heads, loss = small_net()
        gelu_input = weakref.ref(hidden_in.data)
        del hidden_in
        assert gelu_input() is not None  # the tape holds it until backward
        ad.backward(loss)
        assert gelu_input() is None
        assert heads.data.shape == (2, 3, 2) and np.isfinite(loss.item())

    def test_second_backward_raises(self):
        leaves, _, _, loss = small_net()
        ad.backward(loss)
        grads = [leaf.grad.copy() for leaf in leaves]
        with pytest.raises(GraphReleased):
            ad.backward(loss)
        for leaf, grad in zip(leaves, grads):
            assert leaf.grad.tobytes() == grad.tobytes()

    def test_backward_through_a_released_node_raises_before_accumulating(self):
        leaves, _, heads, loss = small_net()
        ad.backward(loss)
        grads = [leaf.grad.copy() for leaf in leaves]
        again = ad.add(sum_all(ad.mul(leaves[2], leaves[2])), sum_all(heads))
        with pytest.raises(GraphReleased):
            ad.backward(again)
        for leaf, grad in zip(leaves, grads):
            assert leaf.grad.tobytes() == grad.tobytes()


def hooked_backward(loss):
    """``ad.backward(loss)`` with an ``on_leaf`` hook: each call's node and a copy of its gradient, in call order."""
    calls = []
    ad.backward(loss, on_leaf=lambda node: calls.append((node, None if node.grad is None else node.grad.copy())))
    return calls


class TestOnLeaf:
    """``on_leaf`` fires once per reached leaf that requires grad, with the gradient a plain ``backward`` leaves."""

    @staticmethod
    def check(build):
        """``build()`` -> (leaves by name, loss), run twice: with a plain backward, then with the hook.

        Returns each called leaf's gradient by name, after checking that no
        leaf is called twice and that each gradient is the plain backward's.
        """
        leaves, loss = build()
        ad.backward(loss)
        want = {name: t.grad for name, t in leaves.items()}
        leaves, loss = build()
        calls = hooked_backward(loss)
        names = {t._node: name for name, t in leaves.items()}
        called = [names[node] for node, _ in calls]
        assert len(called) == len(set(called))
        for node, grad in calls:
            expected = want[names[node]]
            assert (grad is None) == (expected is None)
            if grad is not None:
                assert grad.tobytes() == expected.tobytes() and grad.dtype == expected.dtype
        return dict(zip(called, (grad for _, grad in calls)))

    def test_a_leaf_read_twice_by_one_node(self):
        def build():
            w = ad.parameter(np.random.default_rng(0).standard_normal((3, 4)), "w")
            return {"w": w}, weighted(ad.mul(w, w))

        assert set(self.check(build)) == {"w"}

    def test_a_weight_read_by_two_linears(self):
        def build():
            rng = np.random.default_rng(1)
            x = ad.constant(rng.standard_normal((2, 3, 4)))
            w, b1, b2 = (ad.parameter(rng.standard_normal(s), n) for s, n in (((4, 4), "w"), ((4,), "b1"), ((4,), "b2")))
            return {"w": w, "b1": b1, "b2": b2}, weighted(ad.linear(ad.gelu(ad.linear(x, w, b1)), w, b2))

        assert set(self.check(build)) == {"w", "b1", "b2"}

    def test_a_table_gathered_at_two_depths(self):
        def build():
            rng = np.random.default_rng(2)
            table, w, b = (ad.parameter(rng.standard_normal(s), n) for s, n in (((6, 4), "table"), ((4, 4), "w"),
                                                                                ((4,), "b")))
            deep = ad.gelu(ad.linear(ad.gather_rows(table, np.array([[0, 5, 5]])), w, b))
            return {"table": table, "w": w, "b": b}, weighted(ad.add(deep, ad.gather_rows(table, np.array([[5, 1, 0]]))))

        assert set(self.check(build)) == {"table", "w", "b"}

    def test_an_unreached_leaf_gets_no_call(self):
        def build():
            rng = np.random.default_rng(3)
            w, stray = (ad.parameter(rng.standard_normal((3,)), n) for n in ("w", "stray"))
            ad.mul(stray, w)  # a node outside the loss's graph
            return {"w": w, "stray": stray, "constant": ad.constant(np.ones(3))}, weighted(ad.mul(w, w))

        assert set(self.check(build)) == {"w"}

    def test_a_leaf_whose_consumer_received_no_gradient(self):
        """The consumer's backward never runs; the leaf's call still comes once, with no gradient."""
        def build():
            rng = np.random.default_rng(4)
            w, v = (ad.parameter(rng.standard_normal((3,)), n) for n in ("w", "v"))
            product = ad.mul(w, w)
            blocked = ad._make(product.data.copy(), (product,), lambda g: None)  # passes no gradient on
            return {"w": w, "v": v}, ad.add(weighted(blocked), weighted(ad.mul(v, v)))

        grads = self.check(build)
        assert set(grads) == {"w", "v"} and grads["w"] is None and grads["v"] is not None

    def test_a_root_leaf(self):
        loss = ad.parameter(np.array(2.5), "loss")
        calls = hooked_backward(loss)
        assert [node for node, _ in calls] == [loss._node] and calls[0][1] == 1.0

    def test_fires_before_the_layers_below_are_swept(self):
        """A chain of three linears: the top weight's call comes before the bottom weight has a gradient."""
        rng = np.random.default_rng(5)
        x = ad.constant(rng.standard_normal((2, 4)))
        ws = [ad.parameter(rng.standard_normal((4, 4)), f"w{i}") for i in range(3)]
        h = x
        for w in ws:
            h = ad.gelu(ad.matmul(h, w))
        seen = []
        ad.backward(weighted(h), on_leaf=lambda node: seen.append([w.grad is not None for w in ws]))
        assert seen == [[False, False, True], [False, True, True], [True, True, True]]

    def test_released_graph_raises_before_any_call(self):
        leaves, _, _, loss = small_net()
        ad.backward(loss)
        calls = []
        with pytest.raises(GraphReleased):
            ad.backward(loss, on_leaf=calls.append)
        assert calls == []


def closure_of(t):
    """The variables ``t``'s backward closure holds, by name."""
    return dict(zip(t._node._backward.__code__.co_freevars, (c.cell_contents for c in t._node._backward.__closure__)))


def residual_block(x, w, b, h, gain, bias, rng):
    """Train-mode ``layer_norm(add(h, dropout(linear(x, w, b))))`` and its intermediate outputs."""
    projected = ad.linear(x, w, b)
    dropped = ad.dropout(projected, 0.4, rng, training=True)
    total = ad.add(h, dropped)
    return projected, dropped, total, ad.layer_norm(total, gain, bias)


RESIDUAL_SHAPES = ((2, 3, 4), (4, 5), (5,), (2, 3, 5), (5,), (5,))


class TestTapeMemory:
    """A node saves only what its backward reads: an op output no backward reads dies with its Tensor."""

    def test_outputs_no_backward_reads_are_freed_before_backward(self):
        rng = np.random.default_rng(4)
        leaves = [ad.parameter(rng.standard_normal(s).astype(np.float32), f"p{i}")
                  for i, s in enumerate(RESIDUAL_SHAPES)]
        projected, dropped, total, out = residual_block(*leaves, np.random.default_rng(1))
        kept = closure_of(dropped)["kept"]
        assert kept.dtype == bool and kept.shape == projected.shape
        freed = [weakref.ref(t.data) for t in (projected, dropped, total)]
        loss = weighted(out)
        del projected, dropped, total, out, kept
        assert [ref() for ref in freed] == [None, None, None]
        ad.backward(loss)
        assert all(leaf.grad is not None and leaf.grad.shape == leaf.shape for leaf in leaves)

    def test_gradient(self):
        check_op(lambda *leaves: weighted(residual_block(*leaves, np.random.default_rng(2))[-1]), *RESIDUAL_SHAPES)

    def test_fused_norm_keeps_only_xhat_inv_and_gain(self):
        """No sum and no output on the tape: the norm's output is freed before backward, and a linear rebuilds it."""
        rng = np.random.default_rng(4)
        leaves = [ad.parameter(rng.standard_normal(s).astype(np.float32), f"p{i}")
                  for i, s in enumerate(RESIDUAL_SHAPES + ((5, 2),))]
        x, w, b, h, gain, bias, w2 = leaves
        dropped = ad.dropout(ad.linear(x, w, b), 0.4, np.random.default_rng(1), training=True)
        out = ad.layer_norm(dropped, gain, bias, residual=h)
        saved = closure_of(out)
        arrays = {name: v for name, v in saved.items() if isinstance(v, np.ndarray)}
        assert arrays.keys() == {"xhat", "inv", "gain_data"}
        assert arrays["xhat"].shape == (2, 3, 5) and arrays["inv"].shape == (2, 3, 1)
        assert arrays["gain_data"] is gain.data
        loss = weighted(ad.matmul(out, w2))
        freed = [weakref.ref(t.data) for t in (dropped, out)]
        del dropped, out, saved, arrays
        assert [ref() for ref in freed] == [None, None]
        ad.backward(loss)
        assert all(leaf.grad is not None and leaf.grad.shape == leaf.shape for leaf in leaves)

    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "residual"])
    def test_rebuild_equals_the_output_byte_for_byte(self, fused):
        rng = np.random.default_rng(9)
        a, r = (ad.parameter(rng.standard_normal((3, 7, 16)).astype(np.float32), n) for n in "ar")
        gain, bias = (ad.parameter(rng.standard_normal(16).astype(np.float32), n) for n in ("g", "b"))
        out = ad.layer_norm(a, gain, bias, residual=r if fused else None)
        rebuilt = out._node.rebuild()
        assert rebuilt.dtype == out.dtype and rebuilt.tobytes() == out.data.tobytes()
        assert rebuilt is not out.data

    def test_only_a_taped_norm_rebuilds(self):
        gain, bias = ad.constant(np.ones(4)), ad.constant(np.zeros(4))
        assert ad.layer_norm(ad.constant(np.eye(4)), gain, bias)._node.rebuild is None


class TestShapes:
    def test_reshape(self):
        check_op(lambda a: weighted(ad.reshape(a, (6, 2))), (3, 4))

    def test_transpose(self):
        check_op(lambda a: weighted(ad.transpose(a, (1, 0, 2))), (2, 3, 4))

    @pytest.mark.parametrize("rows", [[[0], [0]], [[0, 1], [2, 0]], [[2, 2, 0], [1, 1, 1]]],
                             ids=["cls", "two", "repeated"])
    def test_take_rows(self, rows):
        check_op(lambda a: weighted(take_rows(a, np.array(rows))), (2, 3, 4))

    def test_take_rows_gradient_sums_repeated_positions(self):
        """The reference op, and the encoder's gather of the same rows from the (B·L, d) stack, bit for bit."""
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 5, size=(3, 12))  # positions repeat within a batch entry
        g = rng.standard_normal((3, 12, 4)).astype(np.float32)
        x = rng.standard_normal((3, 5, 4)).astype(np.float32)
        expected = np.zeros_like(x)
        for b in range(3):
            for j, pos in enumerate(rows[b]):
                expected[b, pos] += g[b, j]
        flat = rows + 5 * np.arange(3)[:, None]
        for take in (lambda a: take_rows(a, rows), lambda a: ad.gather_rows(ad.reshape(a, (15, 4)), flat)):
            a = ad.parameter(x, "a")
            out = take(a)
            assert out.data.tobytes() == x[np.arange(3)[:, None], rows].tobytes()
            ad.backward(sum_all(ad.mul(out, ad.constant(g))))
            assert a.grad.tobytes() == expected.tobytes()

    def test_gather_rows_scatter_adds(self):
        idx = np.array([[0, 2, 2], [1, 0, 2]])
        check_op(lambda t: weighted(ad.gather_rows(t, idx)), (3, 4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_rows_gradient_equals_add_at(self, dtype):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 6, size=(3, 40))  # every row repeated many times
        table = ad.parameter(rng.standard_normal((9, 5)).astype(dtype), "t")
        g = rng.standard_normal((3, 40, 5)).astype(dtype)
        ad.backward(sum_all(ad.mul(ad.gather_rows(table, idx), ad.constant(g))))
        expected = np.zeros_like(table.data)
        np.add.at(expected, idx.reshape(-1), g.reshape(-1, 5))
        assert table.grad.dtype == dtype
        np.testing.assert_array_equal(table.grad, expected)

    def test_concat_rows(self):
        check_op(lambda a, b: weighted(ad.concat_rows(a, b)), (3, 4), (2, 4))

    def test_gather_rows_2d_table(self):
        idx = np.array([0, 3, 3, 1])
        check_op(lambda t: weighted(ad.gather_rows(t, idx)), (5, 2))


class TestSoftmaxMasked:
    def test_rows_sum_to_one_over_admissible(self):
        scores = ad.constant(RNG.standard_normal((2, 2, 3, 5)))
        keep = np.array([True, True, False, True, False])
        p = ad.softmax_masked(scores, keep)
        np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(p.data[..., ~keep] == 0.0)

    def test_gradient(self):
        keep = np.array([True, False, True, True])
        check_op(lambda s: weighted(ad.softmax_masked(s, keep)), (2, 3, 4))

    def test_no_admissible_positions_safe(self):
        scores = ad.constant(RNG.standard_normal((1, 4)))
        p = ad.softmax_masked(scores, np.zeros(4, dtype=bool))
        assert np.all(p.data == 0.0)
        assert np.all(np.isfinite(p.data))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_formulation(self, dtype):
        x = RNG.standard_normal((3, 2, 5, 7)).astype(dtype)
        keep = RNG.random((3, 1, 1, 7)) < 0.6
        keep[1] = False  # a batch row with no admissible key
        np.testing.assert_array_equal(ad.softmax_masked(ad.constant(x), keep).data,
                                      reference_softmax_masked(x, keep))


def reference_softmax_masked(x, keep):
    """Masked softmax written with ``np.where`` selections instead of a -inf bias."""
    keep = np.broadcast_to(keep, x.shape)
    any_keep = keep.any(axis=-1, keepdims=True)
    m = np.where(any_keep, x.max(axis=-1, keepdims=True, initial=-np.inf, where=keep), 0.0)
    e = np.where(keep, np.exp(x - m), 0.0)
    s = e.sum(axis=-1, keepdims=True)
    return np.where(any_keep, e / np.where(s == 0.0, 1.0, s), 0.0).astype(x.dtype)


def unfused_attention(q, k, v, keep, scale, rate, rng, training):
    """The attention chain built from separate tape ops."""
    scores = ad.scale(reference.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
    return reference.matmul(ad.dropout(ad.softmax_masked(scores, keep), rate, rng, training), v)


ATTENTION_KEEP = np.array([[True, False, True, True, False],
                           [False] * 5])[:, None, None, :]  # batch row 1 has no admissible key
CLS_ROWS = np.zeros((2, 1), dtype=np.intp)
GATHERED_ROWS = np.array([[3, 0, 3], [1, 4, 2]])  # batch entry 0 repeats a position


def previous_attention(q, k, v, keep, scale, rate, rng, training):
    """``ad.attention`` as it was: the -inf bias added for every batch, dropout as ``p * kept * factor``."""
    c = q.data.dtype.type(scale)
    p = q.data @ k.data.swapaxes(-1, -2)
    p *= c
    p += np.where(keep, 0.0, -np.inf).astype(p.dtype)
    m = p.max(axis=-1, keepdims=True)
    m[m == -np.inf] = 0.0
    p -= m
    np.exp(p, out=p)
    s = p.sum(axis=-1, keepdims=True)
    s[s == 0.0] = 1.0
    p /= s
    dropped, factor, kept = p, None, None
    if training and rate > 0.0:
        kept = rng.random(p.shape) >= rate
        factor = p.dtype.type(1.0 / (1.0 - rate))
        dropped = p * kept * factor

    def bwd(g):
        v._node.accumulate((p if kept is None else p * kept * factor).swapaxes(-1, -2) @ g)
        gp = g @ v.data.swapaxes(-1, -2)
        if kept is not None:
            gp = gp * kept * factor
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        gs *= c
        q._node.accumulate(gs @ k.data)
        k._node.accumulate((q.data.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))

    return ad._make(dropped @ v.data, (q, k, v), bwd)


class TestAttention:
    @pytest.mark.parametrize("training", [False, True])
    def test_gradient(self, training):
        check_op(lambda q, k, v: weighted(ad.attention(
            q, k, v, ATTENTION_KEEP, 0.7, 0.3, np.random.default_rng(5), training)),
            (2, 2, 4, 3), (2, 2, 5, 3), (2, 2, 5, 3))

    @pytest.mark.parametrize("training", [False, True])
    def test_gradient_of_one_query_row(self, training):
        check_op(lambda q, k, v: weighted(ad.attention(
            q, k, v, ATTENTION_KEEP, 0.7, 0.3, np.random.default_rng(5), training, rows=CLS_ROWS)),
            (2, 2, 1, 3), (2, 2, 5, 3), (2, 2, 5, 3))

    @pytest.mark.parametrize("training", [False, True])
    def test_gradient_of_gathered_rows(self, training):
        check_op(lambda q, k, v: weighted(ad.attention(
            q, k, v, ATTENTION_KEEP, 0.7, 0.3, np.random.default_rng(5), training, rows=GATHERED_ROWS)),
            (2, 2, 3, 3), (2, 2, 5, 3), (2, 2, 5, 3))

    @pytest.mark.parametrize("training", [False, True])
    def test_one_query_row_is_row_0_of_the_full_op(self, training):
        """With ``rows`` the cut op draws the full mask: the stream and the kept row are the full op's."""
        self.check_rows_of_the_full_op(CLS_ROWS, training)

    @pytest.mark.parametrize("training", [False, True])
    def test_gathered_rows_are_those_rows_of_the_full_op(self, training):
        self.check_rows_of_the_full_op(GATHERED_ROWS, training)

    @staticmethod
    def check_rows_of_the_full_op(rows, training):
        rng = np.random.default_rng(8)
        q, k, v = (rng.standard_normal((2, 2, 5, 3)) for _ in range(3))
        weights = rng.standard_normal((2, 2, rows.shape[1], 3))
        pick = (np.arange(2)[:, None, None], np.arange(2)[None, :, None], rows[:, None, :])
        results = []
        for cut in (None, rows):
            tensors = [ad.parameter(q if cut is None else q[pick], "q"), ad.parameter(k, "k"), ad.parameter(v, "v")]
            draw = np.random.default_rng(4)
            out = ad.attention(*tensors, ATTENTION_KEEP, 0.7, 0.4, draw, training, rows=cut)
            out_rows = out if cut is not None else ad.reshape(take_rows(
                ad.reshape(out, (4, 5, 3)), np.repeat(rows, 2, axis=0)), (2, 2, rows.shape[1], 3))
            ad.backward(sum_all(ad.mul(out_rows, ad.constant(weights))))
            q_grad = tensors[0].grad if cut is not None else tensors[0].grad[pick]
            results.append((out_rows.data, q_grad, tensors[1].grad, tensors[2].grad, draw.random()))
        (out, q_grad, k_grad, v_grad, after), full = results[1], results[0]
        for got, want in ((out, full[0]), (k_grad, full[2]), (v_grad, full[3])):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for b in range(2):  # a repeated row's q gradient in the full op sums over its copies
            if len(np.unique(rows[b])) == rows.shape[1]:
                np.testing.assert_allclose(q_grad[b], full[1][b], rtol=0, atol=1e-12)
        assert after == full[4]

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("keep", [ATTENTION_KEEP, np.ones((2, 1, 1, 5), dtype=bool)], ids=["pad", "no-pad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_previous_formula(self, training, keep, dtype):
        """Skipping the zero bias without PAD and one pre-scaled dropout mask change no bit."""
        results = []
        for op in (ad.attention, previous_attention):
            rng = np.random.default_rng(12)
            q, k, v = (ad.parameter(rng.standard_normal((2, 3, 5, 4)).astype(dtype), n) for n in "qkv")
            out = op(q, k, v, keep, 0.5, 0.2, np.random.default_rng(3), training)
            ad.backward(weighted(out))
            results.append([out.data, q.grad, k.grad, v.grad])
        for new, old in zip(*results):
            assert new.dtype == old.dtype
            assert np.array_equal(new, old)

    def test_tape_keeps_a_compact_mask_of_the_gathered_rows(self):
        q, k, v = (ad.parameter(RNG.standard_normal((2, 2, n, 3)), name) for n, name in ((3, "q"), (5, "k"), (5, "v")))
        out = ad.attention(q, k, v, ATTENTION_KEEP, 0.7, 0.4, np.random.default_rng(1), True, rows=GATHERED_ROWS)
        held = closure_of(out)
        assert held["kept"].dtype == bool and held["kept"].shape == (2, 2, 3, 5)
        assert held["kept"].base is None

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_unfused_chain(self, training, dtype):
        shapes = ((2, 3, 5, 4), (2, 3, 5, 4), (2, 3, 5, 4))
        results = []
        for op in (ad.attention, unfused_attention):
            rng = np.random.default_rng(11)
            q, k, v = (ad.parameter(rng.standard_normal(s).astype(dtype), n)
                       for s, n in zip(shapes, "qkv"))
            out = op(q, k, v, ATTENTION_KEEP, 0.5, 0.2, np.random.default_rng(3), training)
            ad.backward(weighted(out))
            results.append([out.data, q.grad, k.grad, v.grad])
        for fused, unfused in zip(*results):
            np.testing.assert_array_equal(fused, unfused)

    def test_masked_keys_get_no_gradient(self):
        rng = np.random.default_rng(2)
        q, k, v = (ad.parameter(rng.standard_normal((2, 1, 5, 3)), n) for n in "qkv")
        ad.backward(weighted(ad.attention(q, k, v, ATTENTION_KEEP, 1.0, 0.0, None, False)))
        masked = ~ATTENTION_KEEP[:, 0, 0, :]
        assert np.all(k.grad[masked[:, None, :]] == 0.0)
        assert np.all(v.grad[masked[:, None, :]] == 0.0)
        assert np.all(q.grad[1] == 0.0)  # rows with no admissible key are constant zeros

    def test_tape_holds_one_node(self):
        q, k, v = (ad.parameter(RNG.standard_normal((1, 1, 4, 2)), n) for n in "qkv")
        out = ad.attention(q, k, v, np.ones(4, dtype=bool), 1.0, 0.5, np.random.default_rng(0), True)
        assert out._parents == (q._node, k._node, v._node)


def traced_peak(fn) -> int:
    """The peak bytes ``tracemalloc`` sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAttentionMemory:
    """At (8, 4, 256, 16) one (B, H, L, L) float32 array is 8 MiB; the op holds no such scratch it does not keep."""

    SHAPE = (8, 4, 256, 16)
    PROBS = 8 * 4 * 256 * 256 * 4

    def inputs(self, grad):
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(self.SHAPE).astype(np.float32) for _ in range(3)]
        keep = np.ones((8, 1, 1, 256), dtype=bool)
        keep[::2, ..., 200:] = False
        return [ad.parameter(a, n) if grad else ad.constant(a) for a, n in zip(arrays, "qkv")], keep

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_without_tape_peaks_below_one_probability_array(self, training):
        tensors, keep = self.inputs(grad=False)
        peak = traced_peak(lambda: ad.attention(*tensors, keep, 0.25, 0.1, np.random.default_rng(1), training))
        assert peak < self.PROBS

    def test_train_step_peaks_below_twice_the_probabilities(self):
        """The tape keeps the probabilities and the bool mask, 1.25 probability arrays; scratch stays per entry.

        The op that ran the whole batch at once peaked at 3.6 probability
        arrays here, with a float64 draw of the full mask and full-size
        backward temporaries.
        """
        tensors, keep = self.inputs(grad=True)
        g = ad.constant(np.random.default_rng(2).standard_normal(self.SHAPE).astype(np.float32))

        def step():
            out = ad.attention(*tensors, keep, 0.25, 0.1, np.random.default_rng(1), True)
            ad.backward(sum_all(ad.mul(out, g)))

        assert traced_peak(step) < 2 * self.PROBS


class TestAdoptedGradients:
    """A backward's fresh gradient becomes its node's gradient without a copy, so the backward peaks lower."""

    @staticmethod
    def backward_peak(loss) -> int:
        return traced_peak(lambda: ad.backward(loss))

    def leaves(self, *shapes):
        rng = np.random.default_rng(11)
        return [ad.parameter(rng.standard_normal(s).astype(np.float32), f"p{i}") for i, s in enumerate(shapes)]

    def test_linear(self):
        """The incoming gradient and x's, two (64, 256, 64) arrays; copying x's held a third."""
        x, w, b = self.leaves((64, 256, 64), (64, 64), (64,))
        assert self.backward_peak(sum_all(ad.linear(x, w, b))) < 2.5 * x.data.nbytes

    def test_attention(self):
        """The incoming gradient, dq, dk and dv and per-entry scratch, ~4.5 inputs; copying held 7."""
        q, k, v = self.leaves(*[(2, 2, 64, 1024)] * 3)
        keep = np.ones((2, 1, 1, 64), dtype=bool)
        loss = sum_all(ad.attention(q, k, v, keep, 0.1, 0.0, None, False))
        assert self.backward_peak(loss) < 5.5 * q.data.nbytes

    def test_residual_norm(self):
        """The incoming gradient, dx and the second summand's copy; add then norm peaked at four."""
        a, r, gain, bias = self.leaves((64, 256, 64), (64, 256, 64), (64,), (64,))
        assert self.backward_peak(sum_all(ad.layer_norm(a, gain, bias, residual=r))) < 3.5 * a.data.nbytes


@st.composite
def keep_draws(draw):
    """A mask shape (B, *lead, length, width), a rate, and (B, m) rows: unsorted, repeated, zero-padded or absent."""
    b = draw(st.integers(1, 3))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    length, width = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    rate = draw(st.floats(0.0, 0.95))
    rows = None
    if draw(st.booleans()):
        m = draw(st.integers(0, 5))
        pad = draw(st.integers(0, 2))
        rows = np.array([draw(st.lists(st.integers(0, length - 1), min_size=m, max_size=m)) + [0] * pad
                         for _ in range(b)], dtype=np.intp).reshape(b, m + pad)
    return (b, *lead, length, width), rate, rows


class TestDropoutKeep:
    @settings(max_examples=200, deadline=None)
    @given(keep_draws(), st.integers(0, 2**32 - 1), st.booleans())
    def test_equals_the_full_draw_at_the_rows(self, draw, seed, buffered):
        """Byte for byte the full mask at ``rows``, and the generator ends in the full draw's state.

        ``buffered`` first draws one 32-bit integer, which leaves half a
        64-bit output buffered in the generator's state.
        """
        shape, rate, rows = draw
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            got_rng.integers(0, 10)
            want_rng.integers(0, 10)
        got = ad._dropout_keep(got_rng, shape, rate, rows)
        full = want_rng.random(shape) >= rate
        want = full if rows is None else np.stack([full[b][..., rows[b], :] for b in range(shape[0])])
        assert got.dtype == bool and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.integers(0, 2**31) == want_rng.integers(0, 2**31)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_rows_outside_the_mask_are_refused(self, bad):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatch):
            ad._dropout_keep(rng, (2, 5, 3), 0.5, np.array([[0, 1], [bad, 2]]))


class TestDropout:
    def test_eval_is_identity(self):
        x = ad.parameter(RNG.standard_normal((3, 3)), "x")
        out = ad.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_gradient_with_fixed_mask(self):
        check_op(lambda a: weighted(ad.dropout(a, 0.4, np.random.default_rng(3), training=True)),
                 (4, 4))

    def test_gradient_with_rows(self):
        check_op(lambda a: weighted(ad.dropout(a, 0.4, np.random.default_rng(3), True, rows=GATHERED_ROWS, length=5)),
                 (2, 3, 4))

    def test_rows_keep_those_rows_of_the_full_mask(self):
        x = RNG.standard_normal((2, 6, 4))
        rows = np.array([[5, 0, 5], [2, 3, 1]])
        full_rng, cut_rng = np.random.default_rng(9), np.random.default_rng(9)
        full = ad.dropout(ad.constant(x), 0.5, full_rng, True).data
        cut = ad.dropout(ad.constant(x[np.arange(2)[:, None], rows]), 0.5, cut_rng, True, rows=rows, length=6).data
        np.testing.assert_array_equal(cut, full[np.arange(2)[:, None], rows])
        assert full_rng.random() == cut_rng.random()

    def test_equals_the_unscaled_mask_formula(self):
        x = RNG.standard_normal((3, 5, 4)).astype(np.float32)
        keep = np.random.default_rng(2).random(x.shape) >= 0.3
        out = ad.dropout(ad.constant(x), 0.3, np.random.default_rng(2), True).data
        assert np.array_equal(out, x * keep.astype(np.float32) * np.float32(1.0 / 0.7))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bool_mask_equals_the_float_mask_byte_for_byte(self, dtype):
        """Output and gradient equal the products with the float mask, signed zeros included."""
        x = ad.parameter(RNG.standard_normal((4, 6, 5)).astype(dtype), "x")
        g = RNG.standard_normal(x.shape).astype(dtype)
        float_mask = (np.random.default_rng(5).random(x.shape) >= 0.3).astype(dtype) * dtype(1.0 / 0.7)
        out = ad.dropout(x, 0.3, np.random.default_rng(5), True)
        ad.backward(sum_all(ad.mul(out, ad.constant(g))))
        assert out.data.tobytes() == (x.data * float_mask).tobytes()
        assert x.grad.tobytes() == (g * float_mask).tobytes()
        assert np.signbit(out.data[float_mask == 0]).any()  # negative zeros took part

    def test_scaling_preserves_expectation(self):
        x = ad.constant(np.ones((200, 200)))
        out = ad.dropout(x, 0.25, np.random.default_rng(0), training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)


class TestLosses:
    def test_layer_norm_gradient(self):
        check_op(lambda x, g, b: weighted(ad.layer_norm(x, g, b)), (3, 6), (6,), (6,))

    def test_layer_norm_gradient_with_residual(self):
        """Both summands, the gain and the bias; the weight gradient of a linear that reads the rebuilt output."""
        check_op(lambda x, r, g, b: weighted(ad.layer_norm(x, g, b, residual=r)), (3, 6), (3, 6), (6,), (6,))
        check_op(lambda x, r, g, b, w: weighted(ad.matmul(ad.layer_norm(x, g, b, residual=r), w)),
                 (2, 3, 6), (2, 3, 6), (6,), (6,), (6, 4))

    @pytest.mark.parametrize("same", [False, True], ids=["two-summands", "one-summand-twice"])
    def test_residual_norm_equals_add_then_norm(self, same):
        """float32 output and gradients byte for byte, with each summand also read by another op."""
        def run(fused):
            rng = np.random.default_rng(10)
            a, r = (ad.parameter(rng.standard_normal((2, 5, 8)).astype(np.float32), n) for n in "ar")
            r = a if same else r
            gain, bias = (ad.parameter(rng.standard_normal(8).astype(np.float32), n) for n in ("g", "b"))
            w = ad.constant(rng.standard_normal((2, 5, 8)).astype(np.float32))
            out = (ad.layer_norm(a, gain, bias, residual=r) if fused
                   else ad.layer_norm(ad.add(r, a), gain, bias))
            ad.backward(ad.add(ad.add(weighted(out), sum_all(ad.mul(a, w))), sum_all(ad.mul(r, r))))
            return [out.data] + [t.grad for t in (a, r, gain, bias)]

        assert [x.tobytes() for x in run(True)] == [x.tobytes() for x in run(False)]

    def test_layer_norm_residual_of_another_shape_is_refused(self):
        x = ad.constant(np.ones((2, 4)))
        with pytest.raises(ShapeMismatch):
            ad.layer_norm(x, ad.constant(np.ones(4)), ad.constant(np.zeros(4)), residual=ad.constant(np.ones(4)))

    def test_layer_norm_moments(self):
        x = ad.constant(RNG.standard_normal((10, 32)))
        out = ad.layer_norm(x, ad.constant(np.ones(32)), ad.constant(np.zeros(32)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_cross_entropy_uniform(self):
        logits = ad.parameter(np.zeros((3, 4)), "l")
        loss = ad.cross_entropy_mean(logits, np.array([0, 1, 3]))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_exact_zero_when_confident(self):
        logits = ad.constant(1000.0 * np.eye(4)[np.array([2, 0])])
        assert ad.cross_entropy_mean(logits, np.array([2, 0])).item() == 0.0

    def test_cross_entropy_gradient(self):
        targets = np.array([1, 0, 2, 2])
        check_op(lambda l: ad.cross_entropy_mean(l, targets), (4, 3))

    def test_mae_gradient(self):
        target = RNG.standard_normal((5,))
        check_op(lambda p: ad.mae_mean(p, target), (5,))

    def test_mae_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.mae_mean(ad.constant(np.zeros(3)), np.zeros(4))

    def test_bce_half_probability(self):
        logits = ad.constant(np.zeros(1))
        loss = ad.bce_logits_mean(logits, np.array([1.0]), 1.0)
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_bce_gradient(self):
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        check_op(lambda z: ad.bce_logits_mean(z, labels, 2.5), (5,))

    def test_bce_floor_at_infinite_logits(self):
        logits = ad.constant(np.full((2, 3), -np.inf))
        loss = ad.bce_logits_mean(logits, np.zeros((2, 3)), 1.0)
        assert loss.item() == 0.0

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones(3), "x")
        with pytest.raises(ShapeMismatch):
            ad.backward(ad.mul(x, x))
