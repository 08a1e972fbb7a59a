"""The cls-only task path against the full-row reference kept in ``reference``.

``Model.task_scores`` runs its top encoder layer on the CLS row only, as
``rows`` of zeros. The reference computes every row of every layer and
reads the CLS vector from the full final states. Batches carry PAD; samples
have one or two windows; the model's trainable set is each fine-tuning
choice of ``unfrozen_layers`` and ``unfreeze_embedder``, with and without
the kept eval prefix below the freeze boundary. Eval logits must match within 1e-10 in float64 and 1e-5
relative in float32. In train mode, with dropout on and the same seed, so
must the logits and every trainable gradient, and both paths must leave the
generator in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuseq import autodiff as ad
from icuseq.embedder import encode_batch
from icuseq.encoder import EncoderConfig
from icuseq.textvec import StubProvider
from icuseq.training import Model, ModelConfig

import reference
from conftest import dyn_token, window_of
from reference import sum_all

LAYERS = 3
PROVIDER = StubProvider(dim=8, seed=0)
CONFIG = ModelConfig(
    encoder=EncoderConfig(layers=LAYERS, hidden=16, heads=2, ffn_dim=8, max_seq_len=64, dropout=0.3),
    d_pre=8, window_minutes=1440, feature_vocab=10, value_vocab=6, task_dropout=0.5,
)
PRETRAINED = {dtype: Model.build(CONFIG, seed=4, dtype=dtype) for dtype in (np.float64, np.float32)}
# (absolute, relative) bound on the error; the relative one scales the largest entry of the
# reference array, or for gradients the largest entry of any trainable gradient of the pass, since
# some gradients (a key bias's) are zero up to rounding
BOUNDS = {np.float64: (1e-10, 0.0), np.float32: (0.0, 1e-5)}
FREEZES = [(u, e) for u in (0, 1, LAYERS, None) for e in (False, True)]

window_tokens = st.lists(
    st.builds(dyn_token, st.sampled_from(["lab: a", "lab: b", "chart: c"]),
              st.one_of(st.floats(-3.0, 3.0), st.sampled_from(["low", "high"])),
              st.integers(0, 1439), st.integers(0, 1439)),
    min_size=0, max_size=20)


@st.composite
def slot_batches(draw):
    """Token lists for one or two window slots of a batch of up to four samples."""
    n_samples = draw(st.integers(1, 4))
    n_windows = draw(st.sampled_from([1, 2]))
    return [draw(st.lists(window_tokens, min_size=n_samples, max_size=n_samples)) for _ in range(n_windows)]


def encode(slots, dtype, extra):
    """One batch per slot, every window padded past its longest by ``extra``."""
    length = max(len(t) for slot in slots for t in slot) + 1 + extra
    return [encode_batch([window_of(t, length) for t in slot], PROVIDER, dtype=dtype) for slot in slots]


def assert_close(got, want, dtype, what, scale=0.0):
    atol, rtol = BOUNDS[dtype]
    bound = atol + rtol * max(float(np.abs(want).max(initial=0.0)), scale)
    err = float(np.abs(np.asarray(got, dtype=np.float64) - want).max(initial=0.0))
    assert err <= bound, f"{what}: error {err:.3e} above {bound:.3e}"


def fine_tune_model(dtype, unfrozen, unfreeze_embedder):
    return PRETRAINED[dtype].with_task_head(1, CONFIG.task_dropout, seed=1, unfrozen_layers=unfrozen,
                                            unfreeze_embedder=unfreeze_embedder)


def train_pass(scores, model, slots, seed, weights):
    """Logits, trainable gradients, and the generator's next draw after one train-mode pass."""
    trainable = {n: t for n, t in model.parameters().items() if t.requires_grad}
    for t in trainable.values():
        t.zero_grad()
    rng = np.random.default_rng(seed)
    logits = scores(model, slots, rng)
    ad.backward(sum_all(ad.mul(logits, ad.constant(weights, logits.dtype))))
    grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.data)).copy() for n, t in trainable.items()}
    return logits.data.copy(), grads, rng.random()


def new_scores(model, slots, rng):
    return model.task_scores(slots, "train", rng)


def reference_scores(model, slots, rng):
    return reference.task_scores(model, slots, "train", rng)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestTaskPathGolden:
    @settings(max_examples=25, deadline=None)
    @given(slot_batches(), st.integers(0, 12))
    def test_eval_logits(self, dtype, slots, extra):
        batches = encode(slots, dtype, extra)
        for unfrozen, unfreeze_embedder in FREEZES:
            model = fine_tune_model(dtype, unfrozen, unfreeze_embedder).detached()
            want = reference.task_scores(model, batches).data
            assert_close(model.task_scores(batches).data, want, dtype, "eval logits")
            if unfrozen is not None and not unfreeze_embedder:
                depth = LAYERS - unfrozen
                below = [PRETRAINED[dtype].detached().prefix(b, depth) for b in batches]
                assert_close(model.task_scores(batches, below=below).data, want, dtype, "eval logits from a prefix")
                assert_close(reference.task_scores(model, batches, below=below).data, want, dtype,
                             "reference logits from a prefix")

    @settings(max_examples=25, deadline=None)
    @given(slot_batches(), st.integers(0, 12), st.integers(0, 2**16))
    def test_train_logits_gradients_and_stream(self, dtype, slots, extra, seed):
        batches = encode(slots, dtype, extra)
        weights = np.random.default_rng(seed).standard_normal(len(slots[0]))
        for unfrozen, unfreeze_embedder in FREEZES:
            model = fine_tune_model(dtype, unfrozen, unfreeze_embedder)
            logits, grads, after = train_pass(new_scores, model, batches, seed, weights)
            ref_logits, ref_grads, ref_after = train_pass(reference_scores, model, batches, seed, weights)
            assert after == ref_after  # the generator advanced by the same number of draws
            assert_close(logits, ref_logits, dtype, "train logits")
            assert grads.keys() == ref_grads.keys()
            scale = max(float(np.abs(g).max()) for g in ref_grads.values())
            for name, want in ref_grads.items():
                assert_close(grads[name], want, dtype, f"gradient of {name}", scale)


def test_cut_shape_masks_change_the_train_pass(monkeypatch):
    """Drawing the top layer's dropout masks at the cut shape is caught by the train-mode comparison."""
    batches = encode([[[dyn_token("lab: a", 0.5, 3)] * 5, [dyn_token("lab: b", "low", 9)] * 3]], np.float64, 4)
    model = fine_tune_model(np.float64, 1, False)
    weights = np.ones(2)
    ref_logits, _, ref_after = train_pass(reference_scores, model, batches, 0, weights)
    logits, _, after = train_pass(new_scores, model, batches, 0, weights)
    assert np.abs(logits - ref_logits).max() <= 1e-10 and after == ref_after
    keep = ad._dropout_keep

    def cut_shape(rng, shape, rate, rows=None):
        return keep(rng, shape if rows is None else shape[:-2] + (rows.shape[1], shape[-1]), rate)

    monkeypatch.setattr(ad, "_dropout_keep", cut_shape)
    logits, _, after = train_pass(new_scores, model, batches, 0, weights)
    assert np.abs(logits - ref_logits).max() > 1e-3 and after != ref_after


def test_top_layer_outputs_the_cls_row_only():
    batches = encode([[[dyn_token("lab: a", 0.5, 3)] * 5]], np.float32, 4)
    model = fine_tune_model(np.float32, 1, False)
    cls_row = np.zeros((1, 1), dtype=np.intp)
    assert model.hidden_states(batches[0], rows=cls_row).shape == (1, 1, CONFIG.encoder.hidden)
    assert model.hidden_states(batches[0]).shape == (1, batches[0].attention_mask.shape[1], CONFIG.encoder.hidden)
    below = model.prefix(batches[0], LAYERS)  # no layer above the prefix: row 0 is cut from it
    np.testing.assert_array_equal(model.hidden_states(batches[0], below=below, rows=cls_row).data,
                                  below.hidden.data[:, :1])
