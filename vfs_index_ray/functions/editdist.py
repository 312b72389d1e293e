"""Edit-distance (Levenshtein) near-duplicate detection.

The exact-verify member of the near-dup family (minhash/simhash/
embedding are probabilistic): candidate pairs come from a
DETERMINISTIC blocking key — same group columns + same text prefix +
same length bucket — so the candidate set is exactly reproducible in
SQL (a self-join on the blocking key), unlike LSH-band recall.  Within
a block, every pair is verified with a true Levenshtein DP.

Scale shape: blocks hash-partition through the keyed-op substrate
(windows._keyed_partition_op — the one every keyed op here uses);
pair enumeration and DP run per partition as independent
tasks.  Blocks are tiny by construction (same prefix AND same length
bucket), so the per-block quadratic never sees the corpus.

Distance is computed over UTF-8 BYTES, matching DuckDB's
``levenshtein`` (byte-based: levenshtein('köln','koln') = 2); for
ASCII corpora byte and character distances coincide.  The DP row
recurrence is fully vectorized — the sequential left-to-right
deletion chain collapses to a prefix-min via the standard
"subtract index, accumulate-min, add index back" identity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def levenshtein_bytes(a: bytes, b: bytes) -> int:
    """Exact Levenshtein distance between two byte strings; O(|a|)
    numpy-vectorized inner rows (no per-cell Python)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    av = np.frombuffer(a, np.uint8)
    bv = np.frombuffer(b, np.uint8)
    if len(av) < len(bv):  # fewer DP rows over the longer axis
        av, bv = bv, av
    lb = len(bv)
    idx = np.arange(1, lb + 1, dtype=np.int32)
    prev = np.arange(lb + 1, dtype=np.int32)
    for i in range(1, len(av) + 1):
        m = np.minimum(prev[1:] + 1,
                       prev[:-1] + (bv != av[i - 1]))
        # cur[j] = min(m[j], min_{k<j}(cur-chain) + (j-k)) with
        # cur[0]=i: subtract j, running min, add j back
        g = np.minimum.accumulate(
            np.concatenate(([np.int32(i)], m - idx)))
        cur = np.empty(lb + 1, np.int32)
        cur[0] = i
        cur[1:] = g[1:] + idx
        prev = cur
    return int(prev[-1])


_SEP = "\x1f"


def edit_near_dup(ds, *, id_col: str = "doc_id",
                  text_col: str = "text",
                  group_cols: list[str] | None = None,
                  prefix_len: int = 32, len_bucket: int = 64,
                  max_dist: int = 10,
                  spill_dir: str | None = None):
    """All (id_a < id_b, dist) pairs with Levenshtein(text_a, text_b)
    <= ``max_dist`` among rows sharing the deterministic blocking key
    (``group_cols`` + first ``prefix_len`` chars + byte-length //
    ``len_bucket``).  Returns a Dataset of (id_a, id_b, dist)."""
    from ..hashing import fnv1a64_tokens
    from .windows import _keyed_partition_op

    gcols = list(group_cols or ())
    num_parts = 64

    def add_part(t: pa.Table) -> pa.Table:
        key = pc.utf8_slice_codeunits(t[text_col], 0, prefix_len)
        lb = pc.divide(pc.binary_length(t[text_col]),
                       len_bucket).cast(pa.string())
        for c in gcols:
            key = pc.binary_join_element_wise(
                t[c].cast(pa.string()), key, _SEP)
        key = pc.binary_join_element_wise(key, lb, _SEP)
        h = fnv1a64_tokens(key.combine_chunks()
                           if isinstance(key, pa.ChunkedArray) else key)
        part = (h % np.uint64(num_parts)).astype(np.int64)
        return pa.table({
            "_eid": t[id_col].cast(pa.int64()),
            "_etx": t[text_col],
            "_ek": key,
            "_ep": pa.array(part, pa.int64())})

    def per_part(g: pa.Table) -> pa.Table:
        codes = g["_ek"].combine_chunks().dictionary_encode() \
            if isinstance(g["_ek"], pa.ChunkedArray) \
            else g["_ek"].dictionary_encode()
        gc = codes.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        ids = g["_eid"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, gc))
        gc, ids = gc[order], ids[order]
        txt = g["_etx"].take(pa.array(order)).to_pylist()
        first = np.empty(len(gc), bool)
        if len(gc):
            first[0] = True
            np.not_equal(gc[1:], gc[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(gc))
        a_out, b_out, d_out = [], [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < 2:
                continue
            enc = [t.encode("utf-8") for t in txt[s:e]]
            for i in range(s, e):
                for j in range(i + 1, e):
                    d = levenshtein_bytes(enc[i - s], enc[j - s])
                    if d <= max_dist:
                        a_out.append(int(ids[i]))
                        b_out.append(int(ids[j]))
                        d_out.append(d)
        return pa.table({"id_a": pa.array(a_out, pa.int64()),
                         "id_b": pa.array(b_out, pa.int64()),
                         "dist": pa.array(d_out, pa.int64())})

    return _keyed_partition_op(ds, add_part, "_ep", per_part,
                               spill_dir=spill_dir)
