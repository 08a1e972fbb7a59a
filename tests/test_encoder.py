import json
import os
import struct

import numpy as np
import pytest

from icuseq import autodiff as ad
from icuseq.encoder import (
    CHECKPOINT_MAGIC,
    EncoderConfig,
    GradCheckReport,
    cls_output,
    forward,
    grad_check,
    init_encoder,
    init_pretrain_heads,
    init_task_head,
    load_checkpoint,
    mlvm_outputs,
    save_checkpoint,
    task_output,
)
from icuseq.errors import ConfigMismatch, FormatError, GradMismatch, InvalidSpec, ModeMismatch, ShapeMismatch
from icuseq import training
from icuseq.training import Model, gradcheck_problem

import reference
from test_autodiff import traced_peak

CFG = EncoderConfig(layers=2, hidden=8, heads=2, ffn_dim=6, max_seq_len=6, dropout=0.0)


def setup(batch=2, length=6, seed=0, config=CFG):
    rng = np.random.default_rng(seed)
    x = ad.constant(rng.standard_normal((batch, length, config.hidden)))
    mask = np.ones((batch, length))
    params = init_encoder(ad.drawn(np.random.default_rng(1), np.float64), config)
    return x, mask, params


class TestForward:
    def test_config_validation(self):
        with pytest.raises(ShapeMismatch):
            EncoderConfig(hidden=10, heads=3)
        with pytest.raises(ShapeMismatch):
            EncoderConfig(layers=0)


    @pytest.mark.parametrize("dropout", [1.0, 2.0, -0.1, float("nan")])
    def test_dropout_outside_zero_one_is_rejected(self, dropout):
        """A rate of 1 divided by zero in the inverted-dropout scale; NaN made every activation NaN."""
        with pytest.raises(InvalidSpec, match="dropout"):
            EncoderConfig(dropout=dropout)
    def test_identical_sequences_identical_outputs(self):
        x, mask, params = setup()
        x.data[1] = x.data[0]
        out = forward(x, mask, CFG, params)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_permutation_equivariance(self):
        x, mask, params = setup(batch=1)
        out = forward(x, mask, CFG, params).data[0]
        perm = np.array([0, 3, 1, 4, 2, 5])  # keeps CLS at position 0
        x_perm = ad.constant(x.data[:, perm, :])
        out_perm = forward(x_perm, mask, CFG, params).data[0]
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_all_pad_except_cls_is_finite(self):
        x, mask, params = setup(batch=1)
        mask[:, 1:] = 0
        out = forward(x, mask, CFG, params)
        assert np.all(np.isfinite(out.data))

    def test_mask_shape_checked(self):
        x, _, params = setup()
        with pytest.raises(ShapeMismatch):
            forward(x, np.ones((2, 5)), CFG, params)

    def test_masked_keys_do_not_influence_outputs(self):
        x, mask, params = setup(batch=1)
        mask[:, 4:] = 0
        base = forward(x, mask, CFG, params).data[0, :4]
        x2 = ad.constant(x.data.copy())
        x2.data[:, 4:, :] += 100.0
        out = forward(x2, mask, CFG, params).data[0, :4]
        np.testing.assert_allclose(out, base, atol=1e-10)


class TestFusedResidualNorm:
    """``forward`` fuses each residual add into its layer norm; the unfused stack is ``reference.encoder_forward``."""

    CONFIG = EncoderConfig(layers=2, hidden=12, heads=3, ffn_dim=6, max_seq_len=9, dropout=0.2)

    def run(self, stack, mode, rows):
        """The output, input and parameter gradients, and the generator's state after a step of ``stack``."""
        rng = np.random.default_rng(5)
        x = ad.parameter(rng.standard_normal((3, 9, 12)).astype(np.float32), "x")
        mask = np.ones((3, 9))
        mask[1, 6:] = mask[2, 3:] = 0
        params = init_encoder(ad.drawn(np.random.default_rng(6)), self.CONFIG)
        drawn = np.random.default_rng(7)
        out = stack(x, mask, self.CONFIG, params, mode, drawn, rows=rows)
        weights = ad.constant(rng.standard_normal(out.shape).astype(np.float32))
        ad.backward(ad.sum_all(ad.mul(out, weights)))
        grads = {t.name: t.grad for t in [x, *ad.named(*params.layers).values()]}
        return out.data, grads, drawn.bit_generator.state

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("rows", [None, np.array([[0, 4], [5, 5], [2, 0]])], ids=["full", "rows"])
    def test_equals_the_unfused_stack_bit_for_bit(self, mode, rows):
        """Outputs, every gradient and the generator's state; a node listing its parents in another order fails."""
        out, grads, state = self.run(forward, mode, rows)
        ref_out, ref_grads, ref_state = self.run(reference.encoder_forward, mode, rows)
        assert out.dtype == np.float32 and out.tobytes() == ref_out.tobytes()
        assert grads.keys() == ref_grads.keys() and len(grads) == 33
        assert [k for k in grads if grads[k].tobytes() != ref_grads[k].tobytes()] == []
        assert state == ref_state

    def test_no_residual_add_runs(self, monkeypatch):
        def refused(*args):
            raise AssertionError("ad.add called")

        monkeypatch.setattr(ad, "add", refused)
        x, mask, params = setup()
        assert forward(x, mask, CFG, params).shape == x.shape


class TestHeads:
    def test_mlvm_output_shapes(self):
        hidden = ad.constant(np.random.default_rng(0).standard_normal((2, 8, 4)))
        heads = init_pretrain_heads(ad.drawn(np.random.default_rng(0), np.float64), 4, 10, 5)
        f, c, cont = mlvm_outputs(hidden, heads)
        assert f.shape == (2, 8, 10)
        assert c.shape == (2, 8, 5)
        assert cont.shape == (2, 8)

    def test_zero_hidden_gives_bias(self):
        hidden = ad.constant(np.zeros((1, 3, 4)))
        heads = init_pretrain_heads(ad.drawn(np.random.default_rng(0), np.float64), 4, 6, 5)
        heads.feature_b.data = np.arange(6, dtype=np.float64)
        f, _, _ = mlvm_outputs(hidden, heads)
        np.testing.assert_array_equal(f.data[0, 0], np.arange(6.0))

    def test_feature_softmax_normalized(self):
        hidden = ad.constant(np.random.default_rng(3).standard_normal((2, 4, 4)))
        heads = init_pretrain_heads(ad.drawn(np.random.default_rng(1), np.float64), 4, 7, 5)
        f, _, _ = mlvm_outputs(hidden, heads)
        probs = np.exp(f.data - f.data.max(-1, keepdims=True))
        probs /= probs.sum(-1, keepdims=True)
        np.testing.assert_allclose(probs.sum(-1), 1.0, atol=1e-6)

    def test_mode_mismatch(self):
        hidden = ad.constant(np.zeros((1, 2, 4)))
        task_heads = init_task_head(ad.drawn(np.random.default_rng(0)), 4, 1)
        with pytest.raises(ModeMismatch):
            mlvm_outputs(hidden, task_heads)
        pre = init_pretrain_heads(ad.drawn(np.random.default_rng(0)), 4, 3, 3)
        with pytest.raises(ModeMismatch):
            task_output(ad.constant(np.zeros((1, 4))), pre)

    def test_cls_output_is_position_zero(self):
        hidden = ad.constant(np.random.default_rng(0).standard_normal((3, 5, 4)))
        cls_rows = ad.take_rows(hidden, np.zeros((3, 1), dtype=np.intp))  # what the cut top layer outputs
        np.testing.assert_array_equal(cls_output(cls_rows).data, hidden.data[:, 0, :])


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        w = ad.parameter(np.array([[1.5, -2.0], [0.5, 3.0]]), "w")
        x = np.array([[1.0, 2.0]])

        def loss_fn():
            out = ad.matmul(ad.constant(x), w)
            return ad.sum_all(ad.mul(out, out))

        report = grad_check(loss_fn, {"w": w}, epsilon=1e-4, tolerance=1e-7)
        assert report.ok
        assert report.worst.rel_err <= 1e-7

    def test_full_tiny_model(self):
        model, loss_fn = gradcheck_problem()
        report = grad_check(loss_fn, model.parameters(), epsilon=1e-4, tolerance=1e-4,
                            rng=np.random.default_rng(0))
        assert report.ok
        checked = {e.param for e in report.entries}
        assert checked == set(model.parameters())

    def test_problem_runs_the_masked_row_path(self, monkeypatch):
        """The loss reads the top layer at the masked rows only, and equals the full-row loss."""
        batches, losses = [], []
        pretrain_outputs, mlvm_loss = Model.pretrain_outputs, training.mlvm_loss

        def outputs(model, batch, mode="eval", rng=None, rows=None):
            batches.append((batch, rows))
            return pretrain_outputs(model, batch, mode, rng, rows)

        def loss(outputs, slots, *args):
            losses.append((slots, args))
            return mlvm_loss(outputs, slots, *args)

        monkeypatch.setattr(Model, "pretrain_outputs", outputs)
        monkeypatch.setattr(training, "mlvm_loss", loss)
        model, loss_fn = gradcheck_problem(layers=2)
        masked = loss_fn().item()
        ((batch, rows),), ((slots, (alpha, beta)),) = batches, losses
        assert slots.rows is rows and 0 < rows.shape[1] < batch.attention_mask.shape[1]
        full = reference.pretrain_outputs(model, batch, rows)  # every row of every layer
        assert masked == pytest.approx(mlvm_loss(full, slots, alpha, beta).l_total, rel=1e-12, abs=0.0)
        assert grad_check(loss_fn, model.parameters(), rng=np.random.default_rng(0)).ok

    def test_corrupted_gradient_detected(self):
        w = ad.parameter(np.array([2.0, -1.0]), "w")

        def wrong_square(t):
            def bwd(g):
                t._node.accumulate(3.0 * g)  # deliberately wrong; d/dx x^2 = 2x

            return ad._make(t.data * t.data, (t,), bwd)

        def loss_fn():
            return ad.sum_all(wrong_square(w))

        with pytest.raises(GradMismatch) as excinfo:
            grad_check(loss_fn, {"w": w}, epsilon=1e-5, tolerance=1e-4)
        assert excinfo.value.param == "w"
        assert isinstance(excinfo.value.report, GradCheckReport)


def buffered_checkpoint(config, params) -> bytes:
    """The checkpoint file built whole in memory, as ``save_checkpoint`` once did."""
    buf = bytearray(CHECKPOINT_MAGIC)
    config_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(config_bytes)) + config_bytes + struct.pack("<I", len(params))
    for name in sorted(params):
        data = np.ascontiguousarray(params[name].data, dtype="<f4")
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded)) + encoded + struct.pack("<I", data.ndim)
        buf += struct.pack(f"<{data.ndim}I", *data.shape) + data.tobytes()
    return bytes(buf)


class TestCheckpoints:
    def model_params(self):
        rng = np.random.default_rng(0)
        return {
            "layer.w": ad.parameter(rng.standard_normal((4, 4)).astype(np.float32), "layer.w"),
            "layer.b": ad.parameter(rng.standard_normal(4).astype(np.float32), "layer.b"),
        }

    def test_roundtrip_bitwise(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        params = self.model_params()
        save_checkpoint(path, {"hidden": 4, "layers": 1}, params)
        config, arrays = load_checkpoint(path)
        assert config == {"hidden": 4, "layers": 1}
        for name, tensor in params.items():
            assert arrays[name].tobytes() == tensor.data.tobytes()

    def test_config_mismatch(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, {"hidden": 4}, self.model_params())
        with pytest.raises(ConfigMismatch):
            load_checkpoint(path, expect={"hidden": 8})

    def test_truncated_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, {"hidden": 4}, self.model_params())
        data = open(path, "rb").read()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:-3])
        with pytest.raises(FormatError):
            load_checkpoint(str(bad))

    def test_load_holds_one_copy_of_the_blobs(self, tmp_path):
        """Each blob is read into its own array: the load peaks below 1.25 times the file, not at twice it."""
        rng = np.random.default_rng(2)
        params = {f"p{i}": ad.parameter(rng.standard_normal(shape).astype(np.float32), f"p{i}")
                  for i, shape in enumerate([(512, 768), (768,), (300, 700), (3, 5, 7), ()])}
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, {"hidden": 768}, params)
        arrays = {}
        assert traced_peak(lambda: arrays.update(load_checkpoint(path)[1])) < 1.25 * os.path.getsize(path)
        for name, tensor in params.items():
            assert arrays[name].tobytes() == tensor.data.tobytes()

    @pytest.mark.parametrize("field", ["config length", "blob shape"])
    def test_huge_claimed_lengths_allocate_nothing(self, tmp_path, field):
        """A header that claims gigabytes is refused with what the file holds, not read or allocated."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), {"hidden": 4}, self.model_params())
        data = bytearray(path.read_bytes())
        if field == "config length":
            data[5:9] = struct.pack("<I", 2**32 - 1)
        else:  # "layer.b" (rank 1, 4 entries) claims 2**28 entries, 1 GiB
            at = data.index(b"layer.b") + len(b"layer.b")
            data[at:at + 8] = struct.pack("<3I", 2, 2**14, 2**14)
        path.write_bytes(bytes(data))

        def load():
            with pytest.raises(FormatError):
                load_checkpoint(str(path))

        assert traced_peak(load) < 2**20

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"WRONG" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(str(bad))

    def test_stream_equals_the_buffered_file(self, tmp_path):
        """The streamed write gives the bytes of the file built in memory, for any dtype and layout."""
        rng = np.random.default_rng(1)
        params = {**self.model_params(),
                  "wide": ad.parameter(rng.standard_normal((3, 5)), "wide"),  # float64
                  "turned": ad.parameter(rng.standard_normal((5, 3)).astype(np.float32).T, "turned"),
                  "empty": ad.parameter(np.zeros((0, 4), dtype=np.float32), "empty")}
        config = {"hidden": 4, "name": "ünï"}
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, config, params)
        assert open(path, "rb").read() == buffered_checkpoint(config, params)

    def test_save_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        params = self.model_params()
        save_checkpoint(a, {"hidden": 4}, params)
        save_checkpoint(b, {"hidden": 4}, params)
        assert open(a, "rb").read() == open(b, "rb").read()
