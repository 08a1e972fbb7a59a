import icuseq


def test_every_public_name_resolves():
    missing = [name for name in icuseq.__all__ if not hasattr(icuseq, name)]
    assert missing == []
    assert len(set(icuseq.__all__)) == len(icuseq.__all__)
