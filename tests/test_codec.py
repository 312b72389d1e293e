"""Codec unit tests: varint/delta roundtrips, skip blocks, partition encode.

Mirrors the reference's operator-level tests (trigram roundtrip
vfsindex_internal_test.go:707-718, sorted-insert vfsindex_test.go:405-445)
for our encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfs_index_ray import codec


def test_varint_roundtrip_edges():
    vals = np.array([0, 1, 127, 128, 16383, 16384, 2**32, 2**63, 2**64 - 1],
                    dtype=np.uint64)
    assert (codec.varint_decode(codec.varint_encode(vals)) == vals).all()


def test_varint_empty():
    assert codec.varint_encode(np.empty(0, np.uint64)) == b""
    assert len(codec.varint_decode(b"")) == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=500))
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert (codec.varint_decode(codec.varint_encode(arr)) == arr).all()


def test_varint_roundtrip_all_decode_branches():
    """Deterministic fuzz hitting every decode strategy: uniform-width
    strided (1..10 bytes), shrinking-subset (small + large continuation
    sets, bsearch and cumsum value-index), and the dense very-wide
    fallback — at sizes crossing the branch thresholds."""
    rng = np.random.Generator(np.random.Philox(key=[31, 0]))
    cases = []
    for w in range(10):  # uniform widths 1..10 bytes
        lo = 0 if w == 0 else 1 << (7 * w)
        hi = (1 << (7 * (w + 1))) - 1 if w < 9 else 2**64 - 1
        cases.append(rng.integers(lo, hi, 2000, dtype=np.uint64))
    # mixed magnitudes (subset branch, both value-index strategies)
    small = rng.integers(0, 100, 5000, dtype=np.uint64)
    m = small.copy(); m[rng.integers(0, 5000, 50)] = 2**63
    cases.append(m)                      # sparse wide -> bsearch path
    m2 = rng.integers(0, 1 << 20, 5000, dtype=np.uint64)
    cases.append(m2)                     # dense 1-3 byte -> cumsum path
    cases.append(rng.integers(1 << 56, 2**64 - 1, 3000,
                              dtype=np.uint64))  # dense fallback
    cases.append(np.array([0, 2**64 - 1, 127, 128, 16383, 16384],
                          np.uint64))
    for arr in cases:
        buf = codec.varint_encode(arr)
        got = codec.varint_decode(buf, count=len(arr))
        assert (got == arr).all()


def _random_postings(rng, n, dense=False):
    """Ascending doc ids: hash-like 62-bit ids (their deltas are too wide
    for varint, so the partition stores fixed64 docs), or ``dense`` ids
    a few apart (delta varint)."""
    if dense:
        docs = np.cumsum(rng.integers(1, 50, n)).astype(np.uint64)
    else:
        docs = np.unique(rng.integers(0, 2**62, n).astype(np.uint64))
    tfs = rng.integers(1, 40, len(docs)).astype(np.uint64)
    dls = rng.integers(20, 400, len(docs)).astype(np.uint64)
    return docs, tfs, dls


def _one_term_row(docs, tfs, dls) -> dict:
    """The one chunk row of a one-term partition, as the engine reads
    it (numpy views)."""
    seg = codec.encode_partition(np.zeros(len(docs), np.uint64), docs, tfs,
                                 dls)
    (row,) = codec.chunk_rows_columnar(seg)
    return row


@pytest.mark.parametrize("n", [1, 127, 128, 129, 5000])
def test_chunk_roundtrip(n):
    rng = np.random.default_rng(n)
    for dense, denc in ((False, 1), (True, 0)):
        docs, tfs, dls = _random_postings(rng, n, dense)
        row = _one_term_row(docs, tfs, dls)
        assert row["denc"] == denc
        d, t, l = codec.decode_chunk(row)
        assert (d == docs).all() and (t == tfs).all() and (l == dls).all()


def test_block_decode_matches_slices():
    rng = np.random.default_rng(7)
    for dense in (False, True):
        docs, tfs, dls = _random_postings(rng, 1000, dense)
        row = _one_term_row(docs, tfs, dls)
        nblocks = len(row["skip_doc_last"])
        assert nblocks == -(-len(docs) // codec.BLOCK)
        for bi in range(nblocks):
            bd, bt, bl = codec.decode_block(row, bi)
            s, e = bi * codec.BLOCK, min((bi + 1) * codec.BLOCK, len(docs))
            assert (bd == docs[s:e]).all()
            assert (bt == tfs[s:e]).all()
            assert (bl == dls[s:e]).all()


def test_block_metadata_bounds():
    rng = np.random.default_rng(11)
    docs, tfs, dls = _random_postings(rng, 700)
    row = _one_term_row(docs, tfs, dls)
    for bi in range(len(row["skip_doc_last"])):
        s, e = bi * codec.BLOCK, min((bi + 1) * codec.BLOCK, len(docs))
        assert row["skip_doc_last"][bi] == docs[e - 1]
        assert row["block_tf_max"][bi] == tfs[s:e].max()
        assert row["block_dl_min"][bi] == dls[s:e].min()


@pytest.mark.parametrize("shift", [64, 58])
def test_encode_partition_roundtrip(shift):
    rng = np.random.default_rng(3)
    terms_l, docs_l, tfs_l, dls_l = [], [], [], []
    for t in sorted(rng.integers(0, 2**63, 50).astype(np.uint64).tolist()):
        docs, tfs, dls = _random_postings(rng, int(rng.integers(1, 400)))
        terms_l.append(np.full(len(docs), t, np.uint64))
        docs_l.append(docs)
        tfs_l.append(tfs)
        dls_l.append(dls)
    terms = np.concatenate(terms_l)
    docs = np.concatenate(docs_l)
    tfs = np.concatenate(tfs_l)
    dls = np.concatenate(dls_l)
    seg = codec.encode_partition(terms, docs, tfs, dls, bucket_shift=shift)
    per_term: dict[int, list] = {}
    for row in seg.to_pylist():
        per_term.setdefault(row["term_id"], []).append(row)
    assert len(per_term) == 50
    for t, rows in per_term.items():
        d = np.concatenate([codec.decode_chunk(r)[0] for r in rows])
        tf = np.concatenate([codec.decode_chunk(r)[1] for r in rows])
        m = terms == np.uint64(t)
        assert (d == docs[m]).all()
        assert (tf == tfs[m]).all()
        assert rows[0]["df"] == int(m.sum())
        # chunks doc-range disjoint & ascending (salt invariant, SURVEY §7.6)
        assert (np.diff(d.astype(np.float64)) > 0).all()


@pytest.mark.parametrize("enc", ["varint", "fixed", "auto"])
def test_encode_partition_doc_encodings(enc):
    """The doc-stream encoding is picked per partition from its data:
    dense ids → delta varint; hash-like ids → fixed64; a mostly-dense
    partition with one hash-id term ("auto") stays varint for every
    term, the wide one included. Each decodes whole and per block."""
    rng = np.random.default_rng(9)
    terms_l, docs_l = [], []
    for i, t in enumerate(sorted(
            rng.integers(0, 2**63, 20).astype(np.uint64).tolist())):
        wide = enc == "fixed" or (enc == "auto" and i == 0)
        d = _random_postings(rng, 300, dense=not wide)[0]
        terms_l.append(np.full(len(d), t, np.uint64))
        docs_l.append(d)
    terms = np.concatenate(terms_l)
    docs = np.concatenate(docs_l)
    tfs = rng.integers(1, 9, len(terms)).astype(np.uint64)
    dls = rng.integers(20, 400, len(terms)).astype(np.uint64)
    seg = codec.encode_partition(terms, docs, tfs, dls)
    rows = seg.to_pylist()
    assert {r["denc"] for r in rows} == {1 if enc == "fixed" else 0}
    for r in rows:
        d, tf, dl = codec.decode_chunk(r)
        m = terms == np.uint64(r["term_id"])
        # single-bucket mode: one chunk per term
        assert (d == docs[m]).all() and (tf == tfs[m]).all()
        for bi in range(len(r["skip_doc_last"])):
            bd, bt, _ = codec.decode_block(r, bi)
            s, e = bi * codec.BLOCK, min((bi + 1) * codec.BLOCK, int(m.sum()))
            assert (bd == docs[m][s:e]).all()


def test_auto_picks_varint_for_dense_ids():
    # dense doc ids (small deltas) → varint wins → denc == 0
    docs = np.arange(1, 2000, dtype=np.uint64)
    terms = np.zeros(len(docs), np.uint64)
    tfs = np.ones(len(docs), np.uint64)
    dls = np.full(len(docs), 100, np.uint64)
    seg = codec.encode_partition(terms, docs, tfs, dls)
    assert seg.to_pylist()[0]["denc"] == 0
    d, _, _ = codec.decode_chunk(seg.to_pylist()[0])
    assert (d == docs).all()


def test_bloom_sorted_matches_unsorted():
    import numpy as np

    from vfs_index_ray.codec import bloom_build
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    terms = rng.integers(0, 1 << 63, 5000, dtype=np.uint64)
    terms = np.repeat(terms, 3)  # duplicates, like real postings
    assert bloom_build(np.sort(terms), assume_sorted=True) == \
        bloom_build(terms)


def test_sorted_intersect_edges():
    import numpy as np

    from vfs_index_ray.search import sorted_intersect
    a = np.array([1, 5, 9, 2**63, 2**64 - 1], np.uint64)
    b = np.array([5, 9, 11, 2**64 - 1], np.uint64)
    assert sorted_intersect(a, b).tolist() == [5, 9, 2**64 - 1]
    assert sorted_intersect(b, a).tolist() == [5, 9, 2**64 - 1]
    e = np.empty(0, np.uint64)
    assert sorted_intersect(a, e).tolist() == []
    assert sorted_intersect(e, a).tolist() == []
    assert sorted_intersect(a, np.array([2], np.uint64)).tolist() == []


# ---------------------------------------------------------------- frontier
def _frontier_postings(n_terms=40, seed=7, heavy_df=400):
    """Postings sorted by (term, doc): one heavy term (df=heavy_df) plus
    small ones, skewed tf and dl."""
    rng = np.random.default_rng(seed)
    terms, docs, tfs, dls = [], [], [], []
    for t in range(n_terms):
        df = heavy_df if t == 0 else int(rng.integers(1, 40))
        d = np.sort(rng.choice(10 ** 6, size=df, replace=False).astype(
            np.uint64))
        terms.append(np.full(df, t, np.uint64))
        docs.append(d)
        tfs.append(1 + rng.geometric(0.3, df).astype(np.uint64))
        dls.append(rng.integers(5, 500, df).astype(np.uint64))
    return (np.concatenate(terms), np.concatenate(docs),
            np.concatenate(tfs), np.concatenate(dls))


def test_impact_frontier_dominates_every_posting():
    """Frontier validity: each posting in a frontier chunk is dominated
    by some bin (bin_tf >= tf and bin_dl <= dl) — so max over bins of a
    tf-monotone/dl-antitone score is a true upper bound."""
    terms, docs, tfs, dls = _frontier_postings()
    seg = codec.encode_partition(terms, docs, tfs, dls, bucket_shift=64)
    rows = codec.chunk_rows_columnar(seg)
    saw_frontier = False
    for row in rows:
        itf = np.asarray(row["imp_tf"], np.uint64)
        idl = np.asarray(row["imp_dl"], np.uint64)
        d, tf, dl = codec.decode_chunk(row)
        if int(row["n"]) < codec.IMPACT_MIN_N:
            assert len(itf) == 0
            continue
        saw_frontier = True
        assert len(itf) == len(idl) == len(row["imp_doc"]) > 0
        dominated = (tf[:, None] <= itf[None, :]) & \
                    (dl[:, None] >= idl[None, :])
        assert dominated.any(axis=1).all()
        # below-cap bins are REAL postings (exact-tightness)
        for btf, bdl in zip(itf, idl):
            if btf < codec.IMPACT_CAP:
                assert ((tf == btf) & (dl == bdl)).any()
        # frontier docs are real docs of this chunk
        assert np.isin(np.asarray(row["imp_doc"], np.uint64), d).all()
    assert saw_frontier


def test_impact_frontier_ub_exact_below_cap():
    """For a chunk whose tfs are all below the cap, the frontier ub
    equals the true max single-posting contribution for ANY (k1,b,avgdl)
    — spot-checked with the engine's scoring shape."""
    rng = np.random.default_rng(3)
    n = 300
    d = np.sort(rng.choice(10 ** 6, n, replace=False).astype(np.uint64))
    tf = rng.integers(1, 20, n).astype(np.uint64)
    dl = rng.integers(5, 300, n).astype(np.uint64)
    seg = codec.encode_partition(np.zeros(n, np.uint64), d, tf, dl,
                                 bucket_shift=64)
    row = codec.chunk_rows_columnar(seg)[0]
    itf = np.asarray(row["imp_tf"], np.float64)
    idl = np.asarray(row["imp_dl"], np.float64)
    for avgdl in (8.0, 60.0, 900.0):
        def s(t, l):
            return t * 2.2 / (t + 1.2 * (0.25 + 0.75 * l / avgdl))
        assert np.isclose(s(itf, idl).max(),
                          s(tf.astype(np.float64),
                            dl.astype(np.float64)).max(), rtol=0, atol=0)


def test_frontier_absent_rows_still_score(tmp_path):
    """Chunks below IMPACT_MIN_N postings carry no impact frontier (empty
    imp_* lists) and take the block-metadata upper bound."""
    from vfs_index_ray.search import Postings, SearchEngine
    rng = np.random.default_rng(11)
    n = codec.IMPACT_MIN_N - 1
    d = np.sort(rng.choice(10 ** 6, n, replace=False).astype(np.uint64))
    row = _one_term_row(d, rng.integers(1, 9, n).astype(np.uint64),
                        rng.integers(5, 99, n).astype(np.uint64))
    assert len(row["imp_tf"]) == len(row["imp_doc"]) == 0
    eng = SearchEngine.__new__(SearchEngine)
    eng.avgdl, eng.ndocs = 50.0, 1000
    p = Postings(0, n, [row])
    ub = eng._term_ub(p)
    p.decode()
    true_max = eng._term_score(p.tfs, p.dls, p.df).max()
    assert ub >= true_max - 1e-12
