"""Codec unit tests: stream widths, partition encode, point probes, the
positions streams.

Mirrors the reference's operator-level tests (trigram roundtrip
vfsindex_internal_test.go:707-718, sorted-insert vfsindex_test.go:405-445)
for our encoding."""

import numpy as np
import pyarrow as pa
import pytest

from vfs_index_ray import codec


def _width_of(v) -> int:
    """The stream width a partition whose largest value is max(v) gets."""
    top = int(np.max(v))
    return 1 if top < 2**8 else 2 if top < 2**16 else 4 if top < 2**32 \
        else 8


def _random_postings(rng, n, dense=False):
    """Ascending doc ids: hash-like 62-bit ids (an 8-byte doc stream), or
    ``dense`` ids a few apart (a narrow one)."""
    if dense:
        docs = np.cumsum(rng.integers(1, 50, n)).astype(np.uint64)
    else:
        docs = np.unique(rng.integers(0, 2**62, n).astype(np.uint64))
    tfs = rng.integers(1, 40, len(docs)).astype(np.uint64)
    dls = rng.integers(20, 400, len(docs)).astype(np.uint64)
    return docs, tfs, dls


def _one_term_rows(docs, tfs, dls) -> codec.Chunks:
    """The one row of a one-term partition, as the engine reads it
    (column views)."""
    seg = codec.encode_partition(np.zeros(len(docs), np.uint64), docs, tfs,
                                 dls)
    return codec.Chunks(seg)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 5000])
def test_chunk_roundtrip(n):
    rng = np.random.default_rng(n)
    for dense in (False, True):
        docs, tfs, dls = _random_postings(rng, n, dense)
        rows = _one_term_rows(docs, tfs, dls)
        (row,) = rows
        assert row["docs_w"] == (_width_of(docs) if dense else 8)
        assert (row["tfs_w"], row["dls_w"]) == (1, _width_of(dls))
        d, t, l = codec.decode_postings(rows)
        assert (d == docs).all() and (t == tfs).all() and (l == dls).all()


def test_encode_partition_roundtrip():
    """One row per term, in term order, whose ``n`` is the term's df;
    each row decodes to the term's postings, and a run of rows to the
    run's postings in order."""
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
    seg = codec.encode_partition(terms, docs, tfs, dls)
    assert seg["term_id"].to_pylist() == sorted(set(terms.tolist()))
    for i, row in enumerate(seg.to_pylist()):
        d, tf, dl = codec.decode_postings(codec.Chunks(seg.slice(i, 1)))
        m = terms == np.uint64(row["term_id"])
        assert row["n"] == int(m.sum())
        assert (d == docs[m]).all() and (tf == tfs[m]).all()
        assert (dl == dls[m]).all()
    whole = codec.decode_postings(codec.Chunks(seg.slice(10, 20)))
    m = np.isin(terms, seg["term_id"].to_numpy()[10:30])
    assert (whole[0] == docs[m]).all() and (whole[1] == tfs[m]).all()


@pytest.mark.parametrize("enc", ["varint", "fixed", "auto"])
def test_encode_partition_doc_encodings(enc):
    """The doc-stream width is picked per partition from its largest id:
    dense ids ("varint", the encoding they got before fixed-width
    streams) → a narrow width; hash-like ids ("fixed") → 8 bytes; a
    mostly-dense partition with one hash-id term ("auto") → 8 bytes for
    every term, the dense ones included. Each decodes whole."""
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
    assert {r["docs_w"] for r in rows} == {_width_of(docs)}
    assert (_width_of(docs) == 8) == (enc != "varint")
    for i, r in enumerate(rows):
        one = codec.Chunks(seg.slice(i, 1))
        d, tf, dl = codec.decode_postings(one)
        m = terms == np.uint64(r["term_id"])
        assert (d == docs[m]).all() and (tf == tfs[m]).all()


def test_dense_ids_get_narrow_doc_width():
    # ids below 2**16 → 2-byte docs; tf 1 and dl 100 → 1-byte streams
    docs = np.arange(1, 2000, dtype=np.uint64)
    terms = np.zeros(len(docs), np.uint64)
    tfs = np.ones(len(docs), np.uint64)
    dls = np.full(len(docs), 100, np.uint64)
    seg = codec.encode_partition(terms, docs, tfs, dls)
    row = seg.to_pylist()[0]
    assert (row["docs_w"], row["tfs_w"], row["dls_w"]) == (2, 1, 1)
    assert len(row["docs"]) == 2 * len(docs)
    d, _, _ = codec.decode_postings(codec.Chunks(seg))
    assert (d == docs).all()


@pytest.mark.parametrize("top,width", [
    (255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4),
    (2**32, 8), (2**64 - 1, 8)])
@pytest.mark.parametrize("stream", ["docs", "tfs", "dls"])
def test_stream_width_boundaries(stream, top, width):
    """A stream whose largest value is ``top`` is stored at ``width``
    bytes per value and round-trips exactly, whole and by probe."""
    rng = np.random.default_rng(top % 1000)
    n = 300
    cols = {"docs": np.arange(n, dtype=np.uint64),
            "tfs": np.ones(n, np.uint64),
            "dls": np.full(n, 7, np.uint64)}
    vals = np.sort(rng.integers(0, min(top, 2**63), n, dtype=np.uint64,
                                endpoint=True))
    vals[-1] = top
    if stream == "docs":
        vals = np.unique(vals)
    cols[stream] = vals
    n = len(cols[stream])
    cols = {k: v[:n] for k, v in cols.items()}
    seg = codec.encode_partition(np.zeros(n, np.uint64), cols["docs"],
                                 cols["tfs"], cols["dls"])
    assert seg[stream + "_w"].to_pylist() == [width]
    assert len(seg[stream][0].as_py()) == n * width
    rows = codec.Chunks(seg)
    full = codec.decode_postings(rows)
    for got, want in zip(full, (cols["docs"], cols["tfs"], cols["dls"])):
        assert got.dtype == np.uint64 and (got == want).all()
    tf, dl, hit = codec.probe(rows, cols["docs"])
    assert hit.all() and (tf == cols["tfs"]).all()
    assert (dl == cols["dls"]).all()


# ------------------------------------------------------------ probe kernel
def _partition(rng, sizes, dense):
    """A partition of one term per entry of ``sizes``, its postings and
    its segment rows."""
    terms, docs, tfs, dls = [], [], [], []
    for t, n in enumerate(sizes):
        d, tf, dl = _random_postings(rng, n, dense)
        terms.append(np.full(len(d), t, np.uint64))
        docs.append(d)
        tfs.append(tf)
        dls.append(dl)
    terms, docs, tfs, dls = (np.concatenate(a) for a in
                             (terms, docs, tfs, dls))
    return (docs, tfs, dls), codec.encode_partition(terms, docs, tfs, dls)


def _lookup(full, targets):
    """(tfs, dls, hit) of ``targets`` in one term's full decode
    ``full``, by a uint64 binary search; 0 where a target misses."""
    d, tf, dl = full
    pos = np.minimum(np.searchsorted(d, targets), max(len(d) - 1, 0))
    hit = (d[pos] == targets) if len(d) else np.zeros(len(targets), bool)
    return (np.where(hit, tf[pos] if len(d) else 0, 0),
            np.where(hit, dl[pos] if len(d) else 0, 0), hit)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_probe_matches_full_decode(width):
    """``probe`` of any targets in a term's row gives the (tf, dl, hit)
    of a lookup in the row's full decode, when every stream has
    ``width`` bytes: present and absent targets, ones below the first
    doc and above the last, ones above the width's maximum (clipped to
    it, where the first term holds a doc), and an empty term, each probe
    made after a decode of the same ``Chunks`` (so it reads the streams
    that decode checked and kept). A truncated stream raises as in
    ``decode_postings``, on every call."""
    rng = np.random.default_rng(width)
    top = 2**(8 * width) - 1
    sizes = [250, 129, 1, 200]  # at most 256 distinct 1-byte doc ids
    n = sum(sizes)
    terms = np.repeat(np.arange(len(sizes), dtype=np.uint64), sizes)
    docs = np.concatenate([np.sort(rng.choice(
        min(top, 2**62) - 1, s, replace=False).astype(np.uint64) + 1)
        for s in sizes])  # no doc 0: a target below every first doc
    docs[sizes[0] - 1] = top  # the first term's last doc
    tfs = rng.integers(1, 9, n, dtype=np.uint64)
    dls = rng.integers(0, top, n, dtype=np.uint64, endpoint=True)
    tfs[0], dls[0] = top, top
    seg = codec.encode_partition(terms, docs, tfs, dls)
    for s in ("docs", "tfs", "dls"):
        assert set(seg[s + "_w"].to_pylist()) == {width}
    over = [t for t in (top + 1, 2**40 + 3, 2**63 + 5) if top < t < 2**64]
    for i in range(seg.num_rows):
        row = codec.Chunks(seg.slice(i, 1))
        full = codec.decode_postings(row)
        d = full[0]
        targets = np.concatenate([
            d, rng.choice(d, min(len(d), 7)), d[d < top] + 1, d - 1,
            np.array([0, 1, top] + over, np.uint64)]).astype(np.uint64)
        rng.shuffle(targets)
        got = codec.probe(row, targets)
        for g, w in zip(got, _lookup(full, targets)):
            assert g.dtype == w.dtype and (g == w).all(), (width, i)
        assert got[2][np.isin(targets, d)].all() and got[2].sum() >= len(d)
        assert not got[2][np.isin(targets, np.array(over, np.uint64))].any()
    for empty in (codec.Chunks(), codec.Chunks(seg.slice(0, 0))):
        tf, dl, hit = codec.probe(empty, np.array([0, 1, top], np.uint64))
        assert not hit.any() and not tf.any() and not dl.any()
    with pytest.raises(ValueError, match="one term's row"):
        codec.probe(codec.Chunks(seg), docs[:1])
    col = seg["docs"].combine_chunks()
    offs = np.frombuffer(col.buffers()[1], np.int64).copy()
    offs[1] += 1  # one byte moved from the second row to the first
    cut = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(col),
        [None, pa.py_buffer(offs), col.buffers()[2]])
    bad = seg.set_column(seg.schema.get_field_index("docs"), "docs", cut)
    for i in (0, 1):
        bad_row = codec.Chunks(bad.slice(i, 1))
        for _ in range(2):  # a failed check is not kept: it fails again
            with pytest.raises(ValueError, match="truncated or corrupt"):
                codec.probe(bad_row, docs[:3])


@pytest.mark.parametrize("stream", ["docs", "tfs", "dls"])
def test_stream_of_wrong_length_raises(stream):
    """A stream whose rows do not hold n × width bytes each (a truncated
    segment) raises instead of decoding shifted postings: one byte cut
    off the end, or one byte moved from one row to the next."""
    rng = np.random.default_rng(4)
    _, seg = _partition(rng, [300, 140], True)
    col = seg[stream].combine_chunks()
    offs = np.frombuffer(col.buffers()[1], np.int64).copy()
    data = col.buffers()[2]
    for bad in (np.r_[offs[:-1], offs[-1] - 1], np.r_[offs[0], offs[1] + 1,
                                                      offs[2:]]):
        cut = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(col),
            [None, pa.py_buffer(bad.astype(np.int64)), data])
        bad_seg = seg.set_column(seg.schema.get_field_index(stream),
                                 stream, cut)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            codec.decode_postings(codec.Chunks(bad_seg))
        with pytest.raises(ValueError, match="truncated or corrupt"):
            codec.probe(codec.Chunks(bad_seg.slice(1, 1)),
                        np.arange(3, dtype=np.uint64))


def test_decode_postings_rows_of_several_segments():
    """A table gathered from two segments of one set of stream widths
    decodes whole; rows that mix widths are refused."""
    rng = np.random.default_rng(8)
    (d1, t1, l1), s1 = _partition(rng, [300, 140], True)
    (d2, t2, l2), s2 = _partition(rng, [260], True)
    seg = pa.concat_tables([s1, s2, s1])
    full = codec.decode_postings(codec.Chunks(seg))
    for got, a, b in zip(full, (d1, t1, l1), (d2, t2, l2)):
        assert (got == np.concatenate([a, b, a])).all()
    _, wide = _partition(rng, [260], False)
    with pytest.raises(ValueError, match="mix docs widths"):
        codec.decode_postings(codec.Chunks(pa.concat_tables([s1, wide])))


def test_chunks_rows_are_read_only_views():
    rng = np.random.default_rng(2)
    _, seg = _partition(rng, [200, 3], True)
    rows = list(codec.Chunks(seg))
    assert len(rows) == 2 and list(rows[0]) == codec.SEGMENT_SCHEMA.names
    assert sum(r["docs"].nbytes for r in rows) == \
        pa.compute.sum(pa.compute.binary_length(seg["docs"])).as_py()
    with pytest.raises(TypeError):
        rows[0]["n"] = 1
    assert len(codec.Chunks()) == 0
    assert all(len(a) == 0 for a in codec.decode_postings(codec.Chunks()))


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
    """Frontier validity: each posting of a frontier term is dominated
    by some bin (bin_tf >= tf and bin_dl <= dl) — so max over bins of a
    tf-monotone/dl-antitone score is a true upper bound."""
    terms, docs, tfs, dls = _frontier_postings()
    seg = codec.encode_partition(terms, docs, tfs, dls)
    rows = codec.Chunks(seg)
    saw_frontier = False
    for i, row in enumerate(rows):
        itf = np.asarray(row["imp_tf"], np.uint64)
        idl = np.asarray(row["imp_dl"], np.uint64)
        d, tf, dl = codec.decode_postings(codec.Chunks(seg.slice(i, 1)))
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
        # frontier docs are real docs of this term
        assert np.isin(np.asarray(row["imp_doc"], np.uint64), d).all()
    assert saw_frontier


def test_impact_frontier_ub_exact_below_cap():
    """For a term whose tfs are all below the cap, the frontier ub
    equals the true max single-posting contribution for ANY (k1,b,avgdl)
    — spot-checked with the engine's scoring shape."""
    rng = np.random.default_rng(3)
    n = 300
    d = np.sort(rng.choice(10 ** 6, n, replace=False).astype(np.uint64))
    tf = rng.integers(1, 20, n).astype(np.uint64)
    dl = rng.integers(5, 300, n).astype(np.uint64)
    seg = codec.encode_partition(np.zeros(n, np.uint64), d, tf, dl)
    (row,) = codec.Chunks(seg)
    itf = np.asarray(row["imp_tf"], np.float64)
    idl = np.asarray(row["imp_dl"], np.float64)
    for avgdl in (8.0, 60.0, 900.0):
        def s(t, l):
            return t * 2.2 / (t + 1.2 * (0.25 + 0.75 * l / avgdl))
        assert np.isclose(s(itf, idl).max(),
                          s(tf.astype(np.float64),
                            dl.astype(np.float64)).max(), rtol=0, atol=0)


def test_frontier_absent_rows_still_score(tmp_path):
    """Terms below IMPACT_MIN_N postings carry no impact frontier (empty
    imp_* lists) and take the (tf_max, dl_min) pairing of their decoded
    postings as their upper bound: exactly that pairing's score, and at
    least every posting's."""
    from vfs_index_ray.search import Postings, SearchEngine
    rng = np.random.default_rng(11)
    n = codec.IMPACT_MIN_N - 1
    d = np.sort(rng.choice(10 ** 6, n, replace=False).astype(np.uint64))
    rows = _one_term_rows(d, rng.integers(1, 9, n).astype(np.uint64),
                          rng.integers(5, 99, n).astype(np.uint64))
    (row,) = rows
    assert len(row["imp_tf"]) == len(row["imp_doc"]) == 0
    eng = SearchEngine.__new__(SearchEngine)
    eng.avgdl, eng.ndocs = 50.0, 1000
    p = Postings(0, n, rows)
    ub = eng._term_ub(p)
    p.decode()
    pair = eng._term_score(p.tfs.max(keepdims=True),
                           p.dls.min(keepdims=True), p.df)[0]
    assert ub == pair
    assert ub >= eng._term_score(p.tfs, p.dls, p.df).max()


def test_positions_roundtrip():
    """``encode_positions`` then ``decode_positions`` gives back each
    posting's ordinals, for the whole part and for any run of rows, with
    each posting's end at ``cumsum`` of the rows' tfs; tfs that do not
    add up to a row's ordinal count raise."""
    rng = np.random.Generator(np.random.Philox(key=[53, 0]))
    n = np.array([3, 1, 5, 2], np.int64)          # postings per row
    lens = rng.integers(1, 6, int(n.sum()))       # ordinals per posting
    ords = np.concatenate([np.sort(rng.choice(70000, k, replace=False))
                           for k in lens]).astype(np.uint32)
    terms = np.repeat(np.arange(len(n)), n).astype(np.uint64)
    docs = np.concatenate([np.arange(k) for k in n]).astype(np.uint64)
    dls = np.full(len(terms), 9, np.uint64)

    def encode(tfs):
        return codec.encode_positions(
            codec.encode_partition(terms, docs, tfs, dls), lens, ords)

    tbl = encode(lens)
    assert tbl.schema.equals(codec.POSITIONAL_SCHEMA)
    assert tbl["pos_w"][0].as_py() == (4 if ords.max() > 65535 else 2)
    starts = np.cumsum(lens) - lens
    post0 = np.cumsum(n) - n
    for i, j in [(0, 4), (1, 3), (2, 3), (3, 4), (2, 2)]:
        ks = range(post0[i], post0[i] + int(n[i:j].sum()))
        ends, got = codec.decode_positions(codec.Chunks(tbl.slice(i, j - i)))
        assert len(ends) == len(ks)
        for local, k in enumerate(ks):
            lo = ends[local - 1] if local else 0
            assert got[lo:ends[local]].tolist() == \
                ords[starts[k]:starts[k] + lens[k]].tolist()
    # one ordinal moved from the last posting of row 0 to row 1
    moved = lens.copy()
    moved[n[0] - 1] -= 1
    moved[n[0]] += 1
    for bad in (lens + 1, np.r_[lens[:-1], lens[-1] - 1], moved):
        with pytest.raises(ValueError, match="truncated or corrupt"):
            codec.decode_positions(codec.Chunks(encode(bad)))
