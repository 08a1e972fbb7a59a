"""Pre-trained text-embedding providers and their binary cache file.

The real biomedical text encoder runs out of process: either its vectors are
shipped in a binary cache file, or a deterministic hash-seeded stub stands in
for fully hermetic runs. Both providers are pure functions of their inputs.
"""

from __future__ import annotations

import hashlib
import os
import secrets
import struct
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import CacheMiss, FormatError

CACHE_MAGIC = b"EHRV1"
DEFAULT_DIM = 768


class EmbeddingProvider:
    """Maps text to a fixed-dimension vector, identically for the whole run."""

    dim: int

    def embed_text(self, text: str) -> np.ndarray:
        raise NotImplementedError


class StubProvider(EmbeddingProvider):
    """Deterministic stand-in: unit-norm vector from a hash-seeded generator."""

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = 0):
        self.dim = int(dim)
        self.seed = int(seed)
        self._memo: dict[str, np.ndarray] = {}

    def embed_text(self, text: str) -> np.ndarray:
        if not text:
            raise CacheMiss(text)
        vec = self._memo.get(text)
        if vec is None:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            words = np.frombuffer(digest, dtype=np.uint32)
            rng = np.random.default_rng([self.seed, *words.tolist()])
            raw = rng.standard_normal(self.dim)
            vec = (raw / np.linalg.norm(raw)).astype(np.float32)
            vec.flags.writeable = False
            self._memo[text] = vec
        return vec


class FileCacheProvider(EmbeddingProvider):
    """Lookup into a precomputed table, optionally falling back to another provider."""

    def __init__(self, table: Mapping[str, np.ndarray], fallback: Optional[EmbeddingProvider] = None):
        if not table and fallback is None:
            raise FormatError("empty cache with no fallback provider")
        dims = {len(v) for v in table.values()}
        if len(dims) > 1:
            raise FormatError(f"cache mixes vector dimensions: {sorted(dims)}")
        if fallback is not None and table and fallback.dim not in dims:
            raise FormatError("fallback dimension disagrees with cache")
        self.dim = dims.pop() if dims else fallback.dim
        self._table = {k: np.asarray(v, dtype=np.float32) for k, v in table.items()}
        self._fallback = fallback

    @classmethod
    def from_file(cls, path: str, fallback: Optional[EmbeddingProvider] = None) -> "FileCacheProvider":
        return cls(read_cache(path), fallback=fallback)

    def embed_text(self, text: str) -> np.ndarray:
        vec = self._table.get(text)
        if vec is not None:
            return vec
        if self._fallback is not None:
            return self._fallback.embed_text(text)
        raise CacheMiss(text)


def write_cache(path: str, entries: Mapping[str, np.ndarray]) -> None:
    """Write the embedding cache file atomically (temp file + rename)."""
    dims = {len(np.asarray(v).ravel()) for v in entries.values()}
    if len(dims) != 1:
        raise FormatError("all cache entries must share one dimension")
    dim = dims.pop()
    buf = bytearray()
    buf += CACHE_MAGIC
    buf += struct.pack("<II", len(entries), dim)
    for key, vec in entries.items():
        encoded = key.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += np.asarray(vec, dtype="<f4").tobytes()
    atomic_write(path, bytes(buf))


def read_cache(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise FormatError("bad cache magic")
    off = len(CACHE_MAGIC)
    try:
        count, dim = struct.unpack_from("<II", data, off)
        off += 8
        table: dict[str, np.ndarray] = {}
        for _ in range(count):
            (key_len,) = struct.unpack_from("<I", data, off)
            off += 4
            raw_key = data[off : off + key_len]
            if len(raw_key) != key_len:
                raise FormatError("truncated cache entry key")
            try:
                key = raw_key.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"cache entry key is not UTF-8: {exc.reason}") from exc
            off += key_len
            raw = data[off : off + 4 * dim]
            if len(raw) != 4 * dim:
                raise FormatError("truncated cache entry vector")
            off += 4 * dim
            table[key] = np.frombuffer(raw, dtype="<f4").copy()
    except struct.error as exc:
        raise FormatError(f"truncated cache file: {exc}") from exc
    if off != len(data):
        raise FormatError("trailing bytes after last cache entry")
    return table


def atomic_write(path: str, data: bytes | Iterable[bytes | memoryview]) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename: one buffer, or buffers in order.

    An iterable is written as it is produced, so a caller can stream a file
    it does not want to hold whole. If writing fails, or the iterable
    raises, the temp file is removed and ``path`` is left as it was. The
    file's mode follows the umask, as with ``open(path, "wb")``.
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{secrets.token_hex(8)}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mkstemp would make it 0600
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
