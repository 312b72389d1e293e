"""Stable hashing: term ids, doc ids, fingerprints.

The reference derives keys from values directly — numeric columns use the
uint64 value, string columns pack each trigram's 3 runes into a uint64
(reference: util.go:60-91) — and identifies records by filesystem
(inode, offset) (record.go:18-23). Here:

- ``term_id = fnv1a64(token)`` (vectorized over the Arrow string buffer;
  trigram mode packs runes like the reference instead — see tokenizer.py),
- ``doc_id  = first 8 bytes of sha1(url)`` big-endian (stable, order-free),
  or the corpus's own int64 ``doc_id`` column when one exists.

All hashes are pure functions of their input — deterministic across
processes, cluster sizes and runs, which is what makes builds resumable and
results rank-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)
MAX_TOKEN_BYTES = 64  # bound the vectorized loop; tokens longer than this
# hash their first 64 bytes plus their length (mixed in), still stable.


def _string_array_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Return (value_bytes, offsets) views of a pyarrow (large_)string array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    buffers = arr.buffers()
    width = 8 if pa.types.is_large_string(arr.type) else 4
    odtype = np.int64 if width == 8 else np.int32
    offsets = np.frombuffer(buffers[1], dtype=odtype,
                            count=arr.offset + len(arr) + 1)[arr.offset:]
    data = np.frombuffer(buffers[2], dtype=np.uint8)
    return data, offsets.astype(np.int64, copy=False)


def fnv1a64_tokens(arr: pa.Array) -> np.ndarray:
    """Vectorized FNV-1a 64 over every string in an Arrow string array."""
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    data, offsets = _string_array_buffers(arr)
    starts = offsets[:-1]
    lens = offsets[1:] - starts
    return fnv1a64_spans(data, starts, lens)


def fnv1a64_spans(data: np.ndarray, starts: np.ndarray,
                  lens: np.ndarray) -> np.ndarray:
    """FNV-1a 64 over byte spans (starts, lens) of one buffer — the
    shared kernel for Arrow string arrays and the byte-level tokenizer.

    Spans are sorted once by capped length, longest first, so the
    spans still hashing at byte ``i`` are a prefix of that order: each
    byte position updates the slice ``h[:k]`` in place, with no mask."""
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    capped = np.minimum(lens, MAX_TOKEN_BYTES)
    # stable radix sort of a uint8 key, longest first
    order = np.argsort((MAX_TOKEN_BYTES - capped).astype(np.uint8),
                       kind="stable")
    ptr = starts[order]  # advanced one byte per round
    # n_longer[i] = spans longer than i bytes
    n_longer = n - np.cumsum(np.bincount(capped,
                                         minlength=MAX_TOKEN_BYTES + 1))
    hs = np.full(n, FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(int(capped.max())):
            k = int(n_longer[i])
            head, at = hs[:k], ptr[:k]  # views: updated in place
            head ^= data.take(at)
            head *= FNV_PRIME
            at += 1
        h = np.empty(n, dtype=np.uint64)
        h[order] = hs
        long = lens > MAX_TOKEN_BYTES
        if long.any():
            h[long] = (h[long] ^ lens[long].astype(np.uint64)) * FNV_PRIME
    return h


def fnv1a64(token: str) -> int:
    """Scalar twin of fnv1a64_tokens (oracle + query side)."""
    b = token.encode("utf-8")
    h = 0xCBF29CE484222325
    for c in b[:MAX_TOKEN_BYTES]:
        h = ((h ^ c) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    if len(b) > MAX_TOKEN_BYTES:
        h = ((h ^ len(b)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def doc_id_from_url(url: str) -> int:
    """doc_id = first 8 bytes of sha1(url), big-endian uint64 (SURVEY §7.2)."""
    return int.from_bytes(hashlib.sha1(url.encode("utf-8")).digest()[:8], "big")


def doc_ids_from_urls(arr: pa.Array) -> np.ndarray:
    """sha1-derived doc ids for an Arrow string array of urls.

    hashlib's C sha1 per short url is ~1µs; this per-row loop is only on the
    id-assignment stage (not the tokenize hot path) and parallelizes across
    Ray tasks.
    """
    sha1 = hashlib.sha1
    return np.fromiter(
        (int.from_bytes(sha1(u.encode()).digest()[:8], "big")
         for u in arr.to_pylist()),
        dtype=np.uint64, count=len(arr))


def mix32(ids: np.ndarray) -> np.ndarray:
    """Vectorized 32-bit integer finalizer (two multiplicative mixing
    rounds, Knuth / xxHash-prime constants) over int ids — the
    deterministic priority behind train/eval splitting and stratified
    sampling.  Reproducible in plain SQL with HUGEINT arithmetic + xor
    (see the ``train_split`` / ``stratified_sample`` oracles).  Returns
    int64 values in [0, 2^32)."""
    h = ids.astype(np.uint64)
    m32 = np.uint64(0xFFFFFFFF)
    h1 = (h * np.uint64(2654435761)) & m32
    h2 = ((h1 ^ (h1 >> np.uint64(16))) * np.uint64(2246822519)) & m32
    return (h2 ^ (h2 >> np.uint64(13))).astype(np.int64)
