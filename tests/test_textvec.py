import os
import stat

import numpy as np
import pytest

from icuseq.embedder import FILL_ID, encode_batch
from icuseq.errors import CacheMiss, FormatError
from icuseq.textvec import FileCacheProvider, StubProvider, atomic_write, read_cache, write_cache

from conftest import window_of
from reference import Token


class TestStubProvider:
    def test_deterministic(self):
        p = StubProvider(dim=32, seed=0)
        assert np.array_equal(p.embed_text("heart rate"), p.embed_text("heart rate"))
        fresh = StubProvider(dim=32, seed=0)
        assert np.array_equal(p.embed_text("heart rate"), fresh.embed_text("heart rate"))

    def test_unit_norm(self):
        p = StubProvider(dim=64, seed=1)
        for text in ("a", "heart rate", "labevents: creatinine"):
            assert np.linalg.norm(p.embed_text(text)) == pytest.approx(1.0, abs=1e-6)

    def test_distinct_texts_differ(self):
        p = StubProvider(dim=16, seed=0)
        assert not np.array_equal(p.embed_text("a"), p.embed_text("b"))

    def test_seed_changes_vectors(self):
        a = StubProvider(dim=16, seed=0).embed_text("x")
        b = StubProvider(dim=16, seed=1).embed_text("x")
        assert not np.array_equal(a, b)


class TestFileCache:
    def entries(self):
        rng = np.random.default_rng(0)
        return {"heart rate": rng.standard_normal(8).astype(np.float32),
                "creatinine": rng.standard_normal(8).astype(np.float32)}

    def test_roundtrip_bitwise(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        entries = self.entries()
        write_cache(path, entries)
        back = read_cache(path)
        assert set(back) == set(entries)
        for key, vec in entries.items():
            assert back[key].tobytes() == vec.tobytes()

    def test_cache_miss(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        write_cache(path, {"a": np.ones(4, dtype=np.float32)})
        provider = FileCacheProvider.from_file(path)
        with pytest.raises(CacheMiss) as excinfo:
            provider.embed_text("b")
        assert excinfo.value.text == "b"

    def test_fallback(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        write_cache(path, {"a": np.ones(4, dtype=np.float32)})
        stub = StubProvider(dim=4, seed=0)
        provider = FileCacheProvider.from_file(path, fallback=stub)
        assert np.array_equal(provider.embed_text("b"), stub.embed_text("b"))
        assert np.array_equal(provider.embed_text("a"), np.ones(4, dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_cache(str(path))

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        write_cache(path, self.entries())
        data = open(path, "rb").read()
        trunc = tmp_path / "trunc.bin"
        trunc.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            read_cache(str(trunc))

    def test_key_not_utf8(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        write_cache(path, {"é": np.ones(4, dtype=np.float32)})
        data = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data.replace("é".encode("utf-8"), b"\xff\xfe"))
        with pytest.raises(FormatError, match="not UTF-8"):
            read_cache(str(bad))

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        write_cache(path, self.entries())
        data = open(path, "rb").read()
        extra = tmp_path / "extra.bin"
        extra.write_bytes(data + b"junk")
        with pytest.raises(FormatError):
            read_cache(str(extra))


class TestAtomicWrite:
    def test_buffers_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(str(path), iter([b"ab", memoryview(np.arange(3, dtype="<f4")), bytearray(b"z")]))
        assert path.read_bytes() == b"ab" + np.arange(3, dtype="<f4").tobytes() + b"z"

    def test_a_failing_stream_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def chunks():
            yield b"new"
            raise FormatError("stream broke")

        with pytest.raises(FormatError):
            atomic_write(str(path), chunks())
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_the_umask_as_with_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write(str(tmp_path / "atomic.bin"), b"x")
            with open(tmp_path / "plain.bin", "wb") as f:
                f.write(b"x")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "atomic.bin").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "plain.bin").stat().st_mode) == 0o666 & ~umask


class _ExplodingProvider:
    dim = 4

    def embed_text(self, text):
        raise AssertionError("provider must not be called for special tokens")


def encoded_value(token, provider):
    """Value id, scale and value-table row of ``token`` in a one-window batch."""
    batch = encode_batch([window_of([token], 8)], provider)
    value_id = batch.value_ids[0, 1]
    return value_id, batch.value_scale[0, 1], batch.value_table[value_id - FILL_ID]


class TestValuePreEmbedding:
    def test_continuous_uses_fill(self):
        token = Token("a: b", 1.2, 0, 0, is_continuous=True)
        value_id, scale, row = encoded_value(token, StubProvider(dim=4))
        assert value_id == FILL_ID
        assert scale == np.float32(1.2)
        assert np.array_equal(row, np.ones(4))

    def test_categorical_uses_provider(self):
        provider = StubProvider(dim=4)
        token = Token("a: b", "positive", 0, 0, is_continuous=False)
        _, scale, row = encoded_value(token, provider)
        assert scale == 1.0
        assert np.array_equal(row, provider.embed_text("positive"))

    def test_special_bypasses_provider(self):
        batch = encode_batch([window_of([], 8)], _ExplodingProvider())
        assert batch.value_ids[0].tolist() == [0] + [1] * 7  # CLS, then PAD
        assert batch.feature_table.shape == (0, 4)
