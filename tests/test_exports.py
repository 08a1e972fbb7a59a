import icuseq


def test_every_public_name_resolves():
    missing = [name for name in icuseq.__all__ if not hasattr(icuseq, name)]
    assert missing == []
    assert len(set(icuseq.__all__)) == len(icuseq.__all__)


def test_object_pipeline_names_are_gone():
    """A window is its own ``Tokens`` table; the per-token objects live only in tests/reference.py."""
    import icuseq.types
    import icuseq.windows

    for name in ("Token", "WindowSequence", "truncate_and_pad"):
        assert name not in icuseq.__all__ and not hasattr(icuseq, name)
    for module, names in ((icuseq.types, ("Token", "WindowSequence", "Special", "cls_token", "pad_token",
                                          "token_from_registry")),
                          (icuseq.windows, ("truncate_and_pad", "normalize_values", "Window", "as_tokens"))):
        assert [n for n in names if hasattr(module, n)] == []
    assert "Tokens" in icuseq.__all__ and "Window" not in icuseq.__all__ and not hasattr(icuseq, "Window")


def test_masked_slots_are_the_only_slot_record():
    """The loss reads one ``MaskedSlots`` record; batches carry no targets and ``masked_rows`` is gone."""
    import dataclasses

    import icuseq.embedder
    import icuseq.objective

    assert {"MaskedSlots", "masked_slots", "mlvm_loss"} <= set(icuseq.__all__)
    assert not hasattr(icuseq.objective, "masked_rows") and "masked_rows" not in icuseq.__all__
    fields = {f.name for f in dataclasses.fields(icuseq.embedder.EncodedBatch)}
    assert not fields & {"feature_target", "cat_target", "cont_target", "value_is_continuous"}
