"""Deduplication operators (SURVEY extension set):

- exact:       content-hash groupby → keep min doc_id per hash
- MinHash-LSH: shingle → minhash signature → banded groupby → candidate
               pairs → signature-agreement estimate
- SimHash:     64-bit weighted-bit fingerprint + banded near-dup pairs
- n-gram Jaccard: exact Jaccard verification of candidate pairs
- embedding:   cosine near-dup pairs over an embedding column

Shuffle shapes: exact dedup hash-partitions on the content hash
(uniform, skew-free; hive disk spill above the auto threshold or with a
``spill_dir``, sort groupby otherwise); LSH bucketing is a
hive-partitioned disk shuffle + per-part tasks (``banded_bucket_apply``
— the build.py postings pattern, because Ray Data's pull-based sort
shuffle anti-scales at high core counts); candidate-pair verification
touches only the (tiny) candidate set.
Nothing materializes the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import fnv1a64_tokens
from ..tokenizer import word_tokens_flat
from . import collect_arrow

_MERSENNE = np.uint64((1 << 61) - 1)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def _content_hash(batch: pa.Table, text_col: str) -> pa.Array:
    """h = md5(text) (hex) — matches DuckDB ``md5(text)``."""
    return pa.array([hashlib.md5(s.encode("utf-8")).hexdigest()
                     for s in batch[text_col].to_pylist()], pa.string())


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_partitions: int | None = None,
                spill_dir: str | None = None):
    """groupby(content hash) → (h, doc_id=min, n=count).

    The A5 exact-dedup analog (search_finder.go:242-244 uniq on record
    identity), as a hash-partitioned keyed op
    (``windows._keyed_partition_op``): ``fnv(h) % P`` puts every hash
    group whole in one part, so per-part Arrow min/count aggregation is
    exact.  The substrate is ``windows._use_disk``'s: the disk spill on
    large inputs or with ``spill_dir`` (interleaved at 1.2M pages, 32
    cpus: sort 13.5-14.1 s vs disk 2.3-3.5 s), Ray Data's groupby
    otherwise."""
    import ray

    from .boilerplate import _group_counts
    from .windows import _keyed_partition_op

    num_parts = num_partitions or max(
        16, 2 * int(ray.cluster_resources().get("CPU", 8)))

    def add_part(t: pa.Table) -> pa.Table:
        h = _content_hash(t, text_col)
        part = (fnv1a64_tokens(h) % np.uint64(num_parts)).astype(np.int32)
        return pa.table({"h": h, id_col: t[id_col],
                         "hpart": pa.array(part, pa.int32())})

    def per_part(t: pa.Table) -> pa.Table:
        g = _group_counts(t, ["h"],
                          [(id_col, "min"), (id_col, "count")])
        return pa.table({
            "h": g["h"],
            "doc_id": g[f"{id_col}_min"],
            "n": g[f"{id_col}_count"].cast(pa.int64()),
        })

    return _keyed_partition_op(ds, add_part, "hpart", per_part,
                               spill_dir=spill_dir)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    a = rng.integers(1, (1 << 61) - 1, num_perm, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, num_perm, dtype=np.uint64)
    return a, b


class MinHashSignature:
    """Per-doc MinHash over word-shingle hashes.

    Output: doc_id, sig (list<uint64> of num_perm minima). Universal
    hashing h_i(x) = (a_i*x + b_i) mod 2^61-1 over the doc's distinct
    shingle hashes, vectorized as an (n_shingles × num_perm) broadcast.
    """

    def __init__(self, num_perm: int = 64, shingle: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.num_perm = num_perm
        self.shingle = shingle
        self.text_col = text_col
        self.id_col = id_col
        self.a, self.b = _perm_params(num_perm)

    def _shingle_hashes(self, texts: pa.Array):
        """(hashes, parent): one fnv hash per k-token shingle."""
        flat, parent, dl = word_tokens_flat(texts)
        h = fnv1a64_tokens(flat)
        k = self.shingle
        if len(h) == 0 or k <= 1:
            return h, parent
        # rolling combine of k consecutive token hashes within one doc
        valid = parent[: len(parent) - k + 1] == parent[k - 1:]
        combo = h[: len(h) - k + 1].copy()
        with np.errstate(over="ignore"):
            for j in range(1, k):
                combo = combo * np.uint64(1099511628211) ^ h[j: len(h) - k + 1 + j]
        return combo[valid], parent[: len(parent) - k + 1][valid]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = batch.num_rows
        h, parent = self._shingle_hashes(texts)
        sigs = np.full((n, self.num_perm), np.iinfo(np.uint64).max,
                       dtype=np.uint64)
        if len(h):
            with np.errstate(over="ignore"):
                hv = (h[:, None] * self.a[None, :] + self.b[None, :]) \
                    % _MERSENNE
            np.minimum.at(sigs, parent, hv)
        return pa.table({
            "doc_id": batch[self.id_col],
            "sig": pa.array(list(sigs), pa.list_(pa.uint64())),
        })


class BandEmit:
    """sig → one row per LSH band: (band, band_hash, doc_id)."""

    def __init__(self, num_bands: int = 16):
        self.num_bands = num_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig_col = batch["sig"]
        if isinstance(sig_col, pa.ChunkedArray):
            sig_col = sig_col.combine_chunks()
        sigs = np.asarray(sig_col.values.to_numpy(zero_copy_only=False))
        n = batch.num_rows
        if n == 0:
            return pa.table({"band": pa.array([], pa.int32()),
                             "band_hash": pa.array([], pa.uint64()),
                             "doc_id": pa.array([], pa.int64())})
        num_perm = len(sigs) // n
        sigs = sigs.reshape(n, num_perm)
        rows_per_band = num_perm // self.num_bands
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        bands, hashes, docs = [], [], []
        with np.errstate(over="ignore"):
            for bi in range(self.num_bands):
                seg = sigs[:, bi * rows_per_band:(bi + 1) * rows_per_band]
                bh = np.full(n, np.uint64(0xCBF29CE484222325))
                for j in range(rows_per_band):
                    bh = (bh ^ seg[:, j]) * np.uint64(0x100000001B3)
                bands.append(np.full(n, bi, np.int32))
                hashes.append(bh)
                docs.append(doc)
        return pa.table({
            "band": pa.array(np.concatenate(bands), pa.int32()),
            "band_hash": pa.array(np.concatenate(hashes), pa.uint64()),
            "doc_id": pa.array(np.concatenate(docs).astype(np.int64),
                               pa.int64()),
        })


def banded_bucket_apply(bands, key_cols, bucket_fn, *,
                        num_parts: int | None = None,
                        spill_dir: str | None = None):
    """Group LSH band rows by ``key_cols`` and apply ``bucket_fn`` per
    bucket — as a hive-partitioned DISK shuffle + per-part Ray tasks,
    replacing ``groupby().map_groups()``.

    Why: Ray Data's default pull-based sort shuffle anti-scales on
    high-core hosts (measured in-repo: 3 s @ 8 cpus → 18 s @ 32 on 5M
    rows) and ``map_groups`` runs per-group fns with almost no
    parallelism across groups in one block. This is the same shuffle
    shape as the index build's postings write (build.py): each write
    task splits its blocks by ``part = fnv(key_cols) % P``, so every
    bucket lands whole inside exactly one part's file set; P independent
    tasks then sort their part locally (lexsort + boundary diffs — never
    np.unique on the hot path) and run ``bucket_fn`` once per bucket.
    The only all-to-all traffic is sequential disk-backed parquet, and
    the spill itself is restartable state.

    Returns a ``ray.data.Dataset`` over the per-part result tables
    (``from_arrow_refs`` — results stay in the object store, never the
    driver), or ``None`` when the band input is empty.

    ``spill_dir`` accepts any ``spillfs.open_spill`` spec (local path,
    URI, ``(pyarrow_fs, path)``); a unique run-scoped subdir is always
    created inside it.
    """
    import ray
    import ray.data

    from ..spillfs import partition_apply

    if num_parts is None:
        num_parts = max(16, 2 * int(ray.cluster_resources().get("CPU", 8)))
    kc = list(key_cols)

    def add_part(t: pa.Table) -> pa.Table:
        h = np.full(t.num_rows, np.uint64(0xCBF29CE484222325))
        with np.errstate(over="ignore"):
            for c in kc:
                v = t[c].to_numpy(zero_copy_only=False).astype(np.uint64)
                h = (h ^ v) * np.uint64(0x100000001B3)
        part = (h % np.uint64(num_parts)).astype(np.int32)
        return t.append_column("part", pa.array(part, pa.int32()))

    def per_part(t: pa.Table) -> pa.Table:
        arrs = [t[c].to_numpy(zero_copy_only=False) for c in kc]
        n = t.num_rows
        if n == 0:
            return bucket_fn(t.slice(0, 0))
        order = np.lexsort(arrs[::-1])
        t = t.take(pa.array(order))
        arrs = [a[order] for a in arrs]
        change = np.zeros(n, bool)
        change[0] = True
        for a in arrs:
            change[1:] |= a[1:] != a[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        outs = [bucket_fn(t.slice(int(s), int(e - s)))
                for s, e in zip(starts, ends)]
        outs = [o for o in outs if o is not None and o.num_rows]
        if not outs:
            return bucket_fn(t.slice(0, 0))
        return pa.concat_tables(outs).combine_chunks()

    refs = partition_apply(
        bands.map_batches(add_part, batch_format="pyarrow"), "part",
        per_part, spill_dir=spill_dir, prefix="lsh_bands_")
    return ray.data.from_arrow_refs(refs) if refs else None


def minhash_candidates(ds, *, num_perm: int = 64, num_bands: int = 16,
                       shingle: int = 3, text_col: str = "text",
                       id_col: str = "doc_id",
                       spill_dir: str | None = None,
                       sig_concurrency: int | tuple | None = None,
                       bucket_cap: int | None = 64,
                       stats: dict | None = None):
    """MinHash-LSH near-dup candidate pairs with signature-agreement sim.

    Pipeline: signatures (map_batches) → spilled to parquet (one
    execution; the object store never holds all signatures) → band rows
    (map_batches over the spill) → hive-partitioned bucket shuffle
    (``banded_bucket_apply``: part = fnv(band, band_hash) % P, per-part
    Ray tasks — no sort shuffle) → within-bucket pairs → dedup pairs →
    estimate sim from signature
    agreement. Returns a pyarrow Table (doc_a, doc_b, est_jaccard_x1e4)
    sorted by (doc_a, doc_b).

    Scale shape: the signature spill is partitioned parquet (512 B/doc
    stays on disk, not the driver or object store); the candidate-only
    gather is a predicate-pushdown read of the spill; bucket sizes are
    capped at ``bucket_cap`` docs — buckets above it are DROPPED, and
    the drop is reported (count + docs) through ``stats`` and a warning
    line, never silent; the pair pipeline executes exactly once.
    ``sig_concurrency`` caps the signature stage (None = Ray auto-scales
    tasks across the cluster)."""
    import ray.data

    from ..spillfs import open_spill

    sig_kwargs = {} if sig_concurrency is None else \
        {"concurrency": sig_concurrency}
    sigs = ds.map_batches(MinHashSignature(num_perm, shingle, text_col,
                                           id_col),
                          batch_format="pyarrow", **sig_kwargs)
    sp = open_spill(spill_dir, prefix="minhash_sigs_")
    try:
        sp.write_parquet(sigs)
        sig_ds = ray.data.read_parquet(sp.path, filesystem=sp.fs)
        bands = sig_ds.map_batches(BandEmit(num_bands),
                                   batch_format="pyarrow")

        def bucket_pairs(group: pa.Table) -> pa.Table:
            docs = np.unique(group["doc_id"].to_numpy(zero_copy_only=False))
            # default cap 64 is deliberate HERE: these pairs are raw
            # UNVERIFIED candidates (verification is a later stage), so
            # a degenerate bucket would emit m^2 rows downstream;
            # bucket_cap=None opts into exhaustive emission
            if bucket_cap is not None and len(docs) > bucket_cap:
                # emit a sentinel row so the drop is visible, not silent
                return pa.table({"doc_a": pa.array([-1], pa.int64()),
                                 "doc_b": pa.array([len(docs)], pa.int64())})
            if len(docs) < 2:
                return pa.table({"doc_a": pa.array([], pa.int64()),
                                 "doc_b": pa.array([], pa.int64())})
            ia, ib = np.triu_indices(len(docs), k=1)
            return pa.table({"doc_a": pa.array(docs[ia], pa.int64()),
                             "doc_b": pa.array(docs[ib], pa.int64())})

        pairs_ds = banded_bucket_apply(bands, ("band", "band_hash"),
                                       bucket_pairs)
        ptbl = collect_arrow(pairs_ds) if pairs_ds is not None else None
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "est_jaccard_x1e4": pa.array([], pa.int64())})
        a = ptbl["doc_a"].to_numpy(zero_copy_only=False) \
            if ptbl is not None else np.empty(0, np.int64)
        b = ptbl["doc_b"].to_numpy(zero_copy_only=False) \
            if ptbl is not None else np.empty(0, np.int64)
        drop = a < 0
        n_drop = int(drop.sum())
        if stats is not None:
            stats["buckets_dropped"] = n_drop
            stats["docs_in_dropped_max"] = \
                int(b[drop].max()) if n_drop else 0
            stats["bucket_cap"] = bucket_cap
        if n_drop:
            print(f"minhash_candidates: dropped {n_drop} LSH "
                  f"buckets over cap={bucket_cap} "
                  f"(largest {int(b[drop].max())} docs)")
        a, b = a[~drop], b[~drop]
        if not len(a):
            return empty
        # dedup pairs found in multiple bands (lexsort + boundary diffs)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        first = np.ones(len(a), bool)
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        uniq = np.stack([a[first], b[first]], axis=1)
        # gather signatures of candidate docs only: predicate-pushdown
        # read of the spill (row-group pruning; never all signatures)
        need = np.unique(uniq)
        cand = sp.read_table(
            sp.path, filters=[("doc_id", "in", need.tolist())])
        sig_rows = {did: np.asarray(sig, np.uint64)
                    for did, sig in zip(cand["doc_id"].to_pylist(),
                                        cand["sig"].to_pylist())}
        a_s = np.stack([sig_rows[x] for x in uniq[:, 0]])
        b_s = np.stack([sig_rows[x] for x in uniq[:, 1]])
        est = (a_s == b_s).mean(axis=1)
        return pa.table({
            "doc_a": pa.array(uniq[:, 0], pa.int64()),
            "doc_b": pa.array(uniq[:, 1], pa.int64()),
            "est_jaccard_x1e4": pa.array(
                np.floor(est * 10000.0 + 0.5).astype(np.int64), pa.int64()),
        })
    finally:
        sp.cleanup()


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact verification)
# ---------------------------------------------------------------------------

def ngram_jaccard_pairs(ds, pairs: pa.Table, *, shingle: int = 3,
                        text_col: str = "text", id_col: str = "doc_id"):
    """Exact token-shingle Jaccard for given candidate pairs.

    Gathers only the candidate docs' texts (filtered read), computes
    |A∩B|/|A∪B| on distinct shingle-hash sets."""
    need = np.unique(np.concatenate([
        pairs["doc_a"].to_numpy(zero_copy_only=False),
        pairs["doc_b"].to_numpy(zero_copy_only=False)])).astype(np.int64)
    need_set = pa.array(need, pa.int64())

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=need_set))

    small = ds.map_batches(keep, batch_format="pyarrow").take_all()
    mh = MinHashSignature(1, shingle, text_col, id_col)  # reuse shingler
    sets = {}
    for row in small:
        texts = pa.array([row[text_col]])
        h, _ = mh._shingle_hashes(texts)
        sets[row[id_col]] = set(h.tolist())
    out = []
    for a, b in zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()):
        sa, sb = sets.get(a, set()), sets.get(b, set())
        u = len(sa | sb)
        j = (len(sa & sb) / u) if u else 0.0
        out.append((a, b, int(np.floor(j * 10000 + 0.5))))
    return pa.table({
        "doc_a": pa.array([r[0] for r in out], pa.int64()),
        "doc_b": pa.array([r[1] for r in out], pa.int64()),
        "jaccard_x1e4": pa.array([r[2] for r in out], pa.int64()),
    })


# ---------------------------------------------------------------------------
# cluster assembly + corpus filtering
# ---------------------------------------------------------------------------

def cluster_pairs(pairs: pa.Table) -> dict[int, int]:
    """Union near-dup pairs into clusters: doc_id → representative
    (cluster min). Driver-side union-find — the candidate PAIR set is
    small by construction (LSH-bucketed); the corpus never is. Union-find
    on the driver is correct only because of that bound; at a scale where
    pairs outgrow the driver, switch to min-label propagation via
    iterated groupby."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in list(parent)}


def drop_near_dups(ds, pairs: pa.Table, id_col: str = "doc_id"):
    """Filter a corpus Dataset to one representative (min doc_id) per
    near-dup cluster: broadcast the drop-set, filter inside map_batches —
    no shuffle of the corpus."""
    reps = cluster_pairs(pairs)
    drop = sorted(d for d, r in reps.items() if d != r)
    drop_arr = pa.array(drop, pa.int64())

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t[id_col], value_set=drop_arr)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHash:
    """64-bit SimHash per doc: sign of tf-weighted bit sums of token
    hashes. Output: doc_id, simhash:uint64."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = batch.num_rows
        flat, parent, _ = word_tokens_flat(texts)
        h = fnv1a64_tokens(flat)
        out = np.zeros((n, 64), bool)
        if len(h):
            bits = np.unpackbits(h[:, None].view(np.uint8), axis=1,
                                 bitorder="little")[:, :64]
            # tokens arrive grouped by doc (parent non-decreasing), so
            # per-doc bit counts are segment sums: one contiguous cumsum
            # + boundary diffs (np.add.at's unbuffered scatter and
            # axis-0 reduceat are both >10x slower on the same data).
            # Sign rule unchanged: set-unset > 0  <=>  2*set > n_tokens.
            starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
            ends = np.append(starts[1:], len(parent)) - 1
            csum = np.cumsum(bits, axis=0, dtype=np.int32)
            setcnt = csum[ends].copy()
            nz = starts > 0
            setcnt[nz] -= csum[starts[nz] - 1]
            ntok = np.diff(np.append(starts, len(parent)))
            out[parent[starts]] = (2 * setcnt) > ntok[:, None]
        packed = np.packbits(out, axis=1, bitorder="little"
                             ).view(np.uint64).ravel()
        return pa.table({
            "doc_id": batch[self.id_col],
            "simhash": pa.array(packed, pa.uint64()),
        })


def _simhash_band_rows(batch: pa.Table) -> pa.Table:
    """(doc_id, simhash) → 4 rows per doc: (band, key, doc_id, simhash).
    The full hash rides along so buckets verify hamming in-group — the
    driver only ever sees the (tiny) verified pair set."""
    hv = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    doc = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(hv)
    bands, keys = [], []
    for band in range(4):
        bands.append(np.full(n, band, np.int32))
        keys.append((hv >> np.uint64(16 * band)) & np.uint64(0xFFFF))
    return pa.table({
        "band": pa.array(np.concatenate(bands), pa.int32()),
        "key": pa.array(np.concatenate(keys), pa.uint64()),
        "doc_id": pa.array(np.tile(doc, 4), pa.int64()),
        "simhash": pa.array(np.tile(hv, 4), pa.uint64()),
    })


def _pair_blocks(n: int, chunk: int = 2048):
    """All i<j index pairs of range(n), yielded in blocks of at most
    ``chunk²`` pairs — bounded memory for giant LSH buckets (a
    5000-doc bucket never materializes its 12.5M pairs at once); the
    union over blocks is exactly ``np.triu_indices(n, 1)``."""
    for s0 in range(0, n, chunk):
        e0 = min(s0 + chunk, n)
        ia, ib = np.triu_indices(e0 - s0, k=1)
        yield ia + s0, ib + s0
        for s1 in range(e0, n, chunk):
            e1 = min(s1 + chunk, n)
            yield (np.repeat(np.arange(s0, e0), e1 - s1),
                   np.tile(np.arange(s1, e1), e0 - s0))


_PAIR_CHUNK = 2048  # docs per work-item side: ≤ chunk² hammings/task


def _hamming_work_kernel(batch: pa.Table, max_hamming: int) -> pa.Table:
    """Verify one batch of chunk-pair work items: each row carries two
    doc/hash chunks (intra: da==db triu; cross: full product). Runs as a
    PARALLEL map_batches stage — the m² work of a giant bucket spreads
    across tasks instead of serializing inside one group fn."""
    out_a, out_b, out_h = [], [], []
    da_col = batch["docs_a"]
    db_col = batch["docs_b"]
    ha_col = batch["hash_a"]
    hb_col = batch["hash_b"]
    intra = batch["intra"].to_numpy(zero_copy_only=False)
    drop = batch["dropped"].to_numpy(zero_copy_only=False)
    for i in range(batch.num_rows):
        if drop[i] > 0:  # dropped-bucket sentinel flows through
            out_a.append(np.array([-1], np.int64))
            out_b.append(np.array([drop[i]], np.int64))
            out_h.append(np.array([-1], np.int64))
            continue
        da = np.asarray(da_col[i].as_py(), np.int64)
        ha = np.asarray(ha_col[i].as_py(), np.uint64)
        if intra[i]:
            ia, ib = np.triu_indices(len(da), k=1)
            dbv, hb = da, ha
        else:
            dbv = np.asarray(db_col[i].as_py(), np.int64)
            hb = np.asarray(hb_col[i].as_py(), np.uint64)
            ia = np.repeat(np.arange(len(da)), len(dbv))
            ib = np.tile(np.arange(len(dbv)), len(da))
        if len(ia) == 0:
            continue
        x = ha[ia] ^ hb[ib]
        ham = np.bitwise_count(x) if hasattr(np, "bitwise_count") \
            else np.unpackbits(x[:, None].view(np.uint8),
                               axis=1).sum(axis=1)
        keep = ham <= max_hamming
        out_a.append(da[ia[keep]])
        out_b.append(dbv[ib[keep]])
        out_h.append(ham[keep].astype(np.int64))
    if not out_a:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "hamming": pa.array([], pa.int64())})
    return pa.table({
        "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
        "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
        "hamming": pa.array(np.concatenate(out_h), pa.int64()),
    })


def simhash_near_dups(ds, *, max_hamming: int = 3, text_col: str = "text",
                      id_col: str = "doc_id",
                      bucket_cap: int | None = 8192,
                      pairs: str = "all",
                      stats: dict | None = None) -> pa.Table:
    """Near-dup pairs by SimHash: 4-band LSH on 16-bit chunks guarantees
    recall for hamming ≤ 3 (pigeonhole), verified exactly.

    Scale shape: band rows go through ``banded_bucket_apply`` (hive-
    partitioned disk shuffle + per-part tasks — the same shape as
    MinHash banding). The bucket fn does NOT do the m² work: it only
    splits
    the bucket into ≤2048-doc chunks and emits chunk-pair WORK ITEMS
    (docs + hashes ride along, ≤ ~64 KB/row); a downstream map_batches
    verifies hamming in PARALLEL tasks, so a 100k-doc dup bucket becomes
    ~1.2k independent ~30 ms tasks instead of one serial group. Only
    verified pairs reach the driver.

    ``pairs="all"`` enumerates every verified pair — note a corpus
    whose dup cluster is a constant fraction of the corpus has Θ(n²)
    TRUE pairs, so the OUTPUT itself is quadratic; ``bucket_cap``
    (default 8192) drops + REPORTS buckets beyond it. For dedup at
    scale use ``pairs="star"``: each bucket contributes only verified
    hub→member edges (hub = lowest doc id; O(m) edges per bucket, so
    output stays corpus-linear) — exactly what union-find/min-label
    clustering (cluster_and_drop) needs to drop duplicates, at the
    standard LSH-dedup cost that members failing the hub test are not
    chained further."""
    sh = ds.map_batches(SimHash(text_col, id_col), batch_format="pyarrow")
    bands = sh.map_batches(_simhash_band_rows, batch_format="pyarrow")
    # capture the MODE as a plain bool before any name in this scope is
    # rebound: bucket_work runs lazily inside Ray tasks, so reading the
    # `pairs` parameter there would see whatever the name holds at
    # execution time (and cloudpickle whatever object that is into every
    # task)
    star = pairs == "star"

    def bucket_work(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        h = group["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        # one row per distinct doc (a doc can land once per bucket only,
        # but be defensive about duplicate input rows)
        d, first = np.unique(d, return_index=True)
        h = h[first]
        cols = {"docs_a": [], "hash_a": [], "docs_b": [], "hash_b": [],
                "intra": [], "dropped": []}
        if star and len(d) >= 2:
            # linear spanning edges: hub (lowest id) vs member chunks —
            # O(m) work AND output, so no cap is needed
            C = _PAIR_CHUNK
            for s1 in range(1, len(d), C):
                e1 = min(s1 + C, len(d))
                cols["docs_a"].append(d[:1].tolist())
                cols["hash_a"].append(h[:1].tolist())
                cols["docs_b"].append(d[s1:e1].tolist())
                cols["hash_b"].append(h[s1:e1].tolist())
                cols["intra"].append(False)
                cols["dropped"].append(0)
        elif not star and bucket_cap is not None \
                and len(d) > bucket_cap:
            cols["docs_a"].append([])
            cols["hash_a"].append([])
            cols["docs_b"].append([])
            cols["hash_b"].append([])
            cols["intra"].append(False)
            cols["dropped"].append(len(d))
        elif not star and len(d) >= 2:
            C = _PAIR_CHUNK
            starts = list(range(0, len(d), C))
            for si, s0 in enumerate(starts):
                e0 = min(s0 + C, len(d))
                cols["docs_a"].append(d[s0:e0].tolist())
                cols["hash_a"].append(h[s0:e0].tolist())
                cols["docs_b"].append([])
                cols["hash_b"].append([])
                cols["intra"].append(True)
                cols["dropped"].append(0)
                for s1 in starts[si + 1:]:
                    e1 = min(s1 + C, len(d))
                    cols["docs_a"].append(d[s0:e0].tolist())
                    cols["hash_a"].append(h[s0:e0].tolist())
                    cols["docs_b"].append(d[s1:e1].tolist())
                    cols["hash_b"].append(h[s1:e1].tolist())
                    cols["intra"].append(False)
                    cols["dropped"].append(0)
        return pa.table({
            "docs_a": pa.array(cols["docs_a"], pa.list_(pa.int64())),
            "hash_a": pa.array(cols["hash_a"], pa.list_(pa.uint64())),
            "docs_b": pa.array(cols["docs_b"], pa.list_(pa.int64())),
            "hash_b": pa.array(cols["hash_b"], pa.list_(pa.uint64())),
            "intra": pa.array(cols["intra"], pa.bool_()),
            "dropped": pa.array(cols["dropped"], pa.int64()),
        })

    work = banded_bucket_apply(bands, ("band", "key"), bucket_work)
    tbl = None
    if work is not None:
        verified = work.map_batches(
            lambda b: _hamming_work_kernel(b, max_hamming),
            batch_format="pyarrow", batch_size=8)
        tbl = collect_arrow(verified)  # pairs + dropped sentinels
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})
    if tbl is None:
        if stats is not None:
            stats["buckets_dropped"] = 0
            stats["docs_in_dropped_max"] = 0
            stats["bucket_cap"] = bucket_cap
        return empty
    a = tbl["doc_a"].to_numpy(zero_copy_only=False)
    b = tbl["doc_b"].to_numpy(zero_copy_only=False)
    ham = tbl["hamming"].to_numpy(zero_copy_only=False)
    drop = a < 0
    n_drop = int(drop.sum())
    if stats is not None:
        stats["buckets_dropped"] = n_drop
        stats["docs_in_dropped_max"] = int(b[drop].max()) if n_drop else 0
        stats["bucket_cap"] = bucket_cap
    if n_drop:
        print(f"simhash_near_dups: dropped {n_drop} LSH buckets "
              f"over cap={bucket_cap} (largest {int(b[drop].max())} docs)")
    keep = ~drop
    a, b, ham = a[keep], b[keep], ham[keep]
    if not len(a):
        return empty
    # dedup pairs found in multiple bands: lexsort + boundary diffs
    # (identical pairs carry identical hamming, so any survivor's value
    # is THE value; never np.unique on the hot path — CLAUDE.md)
    order = np.lexsort((b, a))
    a, b, ham = a[order], b[order], ham[order]
    first = np.ones(len(a), bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return pa.table({
        "doc_a": pa.array(a[first], pa.int64()),
        "doc_b": pa.array(b[first], pa.int64()),
        "hamming": pa.array(ham[first], pa.int64()),
    })
