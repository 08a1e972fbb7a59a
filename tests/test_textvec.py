import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icuseq.errors import CacheMiss, FormatError, NonFiniteValue
from icuseq.textvec import (
    FileCacheProvider,
    StubProvider,
    fill,
    read_cache,
    value_pre_embedding,
    write_cache,
)
from icuseq.types import Special, Token


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


class TestFill:
    def test_zero(self):
        assert np.array_equal(fill(0.0, 768), np.zeros(768, dtype=np.float32))

    def test_repeat(self):
        assert fill(2.5, 4).tolist() == [2.5, 2.5, 2.5, 2.5]

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteValue):
            fill(float("nan"), 768)
        with pytest.raises(NonFiniteValue):
            fill(float("inf"), 8)

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    def test_linearity(self, a, x):
        lhs = fill(np.float32(a * np.float32(x)), 8)
        rhs = np.float32(a) * fill(x, 8)
        assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-6)


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


class _ExplodingProvider:
    dim = 4

    def embed_text(self, text):
        raise AssertionError("provider must not be called for special tokens")


class TestValuePreEmbedding:
    specials = {Special.CLS: np.full(4, 7.0), Special.MASK: np.full(4, 9.0)}

    def test_continuous_uses_fill(self):
        token = Token("a: b", 1.2, 0, 0, is_continuous=True)
        out = value_pre_embedding(token, StubProvider(dim=4), self.specials)
        assert np.allclose(out, 1.2)

    def test_categorical_uses_provider(self):
        provider = StubProvider(dim=4)
        token = Token("a: b", "positive", 0, 0, is_continuous=False)
        out = value_pre_embedding(token, provider, self.specials)
        assert np.array_equal(out, provider.embed_text("positive"))

    def test_special_bypasses_provider(self):
        token = Token("[CLS]", Special.CLS, 0, 0, is_continuous=False)
        out = value_pre_embedding(token, _ExplodingProvider(), self.specials)
        assert np.allclose(out, 7.0)
