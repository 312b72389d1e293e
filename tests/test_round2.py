"""Round-2 hardening: fetch_rows row-group pruning, truncated-index
detection, absorb scratch-loss recovery, empty-segment schema parity."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus
from vfs_index_ray.segment import part_path, segments_dir


@pytest.fixture(scope="module")
def id_corpus(tmp_path_factory):
    """doc_id-keyed pages, doc_id-sorted, small row groups (8 of 50)."""
    d = tmp_path_factory.mktemp("idpages")
    path = str(d / "docs.parquet")
    pages = corpus.generate_pages(400)
    ids = pa.array(np.arange(400, dtype=np.int64), pa.int64())
    tbl = pages.append_column("doc_id", ids)
    pq.write_table(tbl, path, row_group_size=50)
    return path


@pytest.fixture(scope="module")
def id_engine(ray_session, id_corpus, tmp_path_factory):
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path_factory.mktemp("idx") / "word")
    IndexBuilder(idx, mode="word", num_parts=4,
                 id_col="doc_id").build([id_corpus])
    return SearchEngine(idx, corpus_files=[id_corpus], id_col="doc_id")


def test_fetch_rows_prunes_row_groups(id_engine):
    """The semi-join must read ONLY row groups whose id stats intersect
    the wanted set — 3 ids inside one 50-row group → 1 of 8 groups."""
    rows = id_engine.fetch_rows(np.array([101, 120, 140], np.uint64),
                                columns=["doc_id", "text"])
    assert rows["doc_id"].to_pylist() == [101, 120, 140]
    st = id_engine.last_fetch_stats
    assert st["row_groups_total"] == 8
    assert st["row_groups_read"] == 1


def test_fetch_rows_empty_and_spread(id_engine):
    rows = id_engine.fetch_rows(np.array([], np.uint64), columns=["doc_id"])
    assert rows.num_rows == 0
    rows = id_engine.fetch_rows(np.array([0, 399], np.uint64),
                                columns=["doc_id"])
    assert rows["doc_id"].to_pylist() == [0, 399]
    assert id_engine.last_fetch_stats["row_groups_read"] == 2


def test_missing_part_file_raises(ray_session, id_corpus, tmp_path):
    """A truncated index (segment partition file deleted) must fail
    loudly, not silently answer df=0 (ADVICE item 2)."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path / "trunc")
    IndexBuilder(idx, mode="word", num_parts=4,
                 id_col="doc_id").build([id_corpus])
    eng = SearchEngine(idx)
    tid = eng.query_term_ids("bababa")[0]
    os.remove(part_path(segments_dir(idx), tid % 4))
    eng._cache.clear()
    with pytest.raises(RuntimeError, match="partition file missing"):
        eng.match("bababa")


def _trunc_calls():
    from vfs_index_ray.merge import (merge_indexes, purge_tombstones,
                                     repartition_index)
    from vfs_index_ray.search import SearchEngine
    return {
        "index_stats": lambda idx, out: SearchEngine(idx).index_stats(),
        "term_range_docs": lambda idx, out:
            SearchEngine(idx).term_range_docs(None, None),
        "nearest_term": lambda idx, out:
            SearchEngine(idx).nearest_term(1 << 63),
        "select_keys": lambda idx, out: SearchEngine(idx).select_keys(),
        "merge_indexes": lambda idx, out: merge_indexes([idx], out),
        "repartition_index": lambda idx, out:
            repartition_index(idx, out, 2),
        "purge_tombstones": lambda idx, out: purge_tombstones(idx, out),
    }


@pytest.mark.parametrize("call", ["index_stats", "term_range_docs",
                                  "nearest_term", "select_keys",
                                  "merge_indexes", "repartition_index",
                                  "purge_tombstones"])
def test_missing_part_file_raises_everywhere(id_engine, tmp_path, call):
    """Every build and merge writes every part, so a missing segment
    file is a truncated index for EVERY reader — none may treat it as
    an empty part (a smaller index with wrong statistics)."""
    import shutil

    idx = str(tmp_path / "trunc")
    shutil.copytree(id_engine.index_dir, idx)
    tid = id_engine.query_term_ids("bababa")[0]
    os.remove(part_path(segments_dir(idx), tid % 4))
    with pytest.raises(RuntimeError, match="partition file missing"):
        _trunc_calls()[call](idx, str(tmp_path / "out"))


@pytest.mark.parametrize("call", ["index_stats", "nearest_term",
                                  "merge_indexes"])
def test_old_parquet_segments_raise_rebuild(id_engine, tmp_path, call):
    """An index whose segments are still ``part=N.parquet`` (the old
    format) is refused with a rebuild hint, not reported as truncated."""
    import shutil

    from vfs_index_ray.segment import SegmentReader

    idx = str(tmp_path / "old")
    shutil.copytree(id_engine.index_dir, idx)
    reader = SegmentReader(idx)
    for p in range(4):
        pq.write_table(reader.read_range(p),
                       part_path(reader.segments_dir, p, "parquet"))
        os.remove(part_path(reader.segments_dir, p))
    with pytest.raises(RuntimeError,
                       match="old Parquet segment format and must be "
                             "rebuilt"):
        _trunc_calls()[call](idx, str(tmp_path / "out"))


def _rewrite_with_v030_columns(path: str) -> None:
    """Rewrite one segment file with two columns 0.3.0 wrote: a per-row
    ``bsz`` (third, as it followed 0.3.0's ``denc``) and a ``tf_sum``
    after ``n``."""
    with open(path, "rb") as f:
        src = pa.ipc.open_file(pa.py_buffer(f.read()))
    schema = src.schema.insert(2, pa.field("bsz", pa.uint32()))
    schema = schema.insert(schema.get_field_index("n") + 1,
                           pa.field("tf_sum", pa.uint64()))
    with pa.OSFile(path, "wb") as sink, \
            pa.ipc.new_file(sink, schema) as writer:
        for i in range(src.num_record_batches):
            batch = src.get_batch(i)
            cols = dict(zip(batch.schema.names, batch.columns))
            cols["bsz"] = pa.array(np.full(batch.num_rows, 128, np.uint32))
            cols["tf_sum"] = pa.array(np.ones(batch.num_rows, np.uint64))
            writer.write_batch(pa.record_batch(
                [cols[n] for n in schema.names], schema=schema))


@pytest.mark.parametrize("shape", ["load_terms", "read_range", "nearest",
                                   "decode_part"])
def test_v030_segment_schema_raises_rebuild(id_engine, tmp_path, shape):
    """A segment written with 0.3.0's columns is refused with the
    rebuild error by every read shape — never read with its columns
    shifted against the current schema."""
    import shutil

    from vfs_index_ray.segment import SegmentReader

    idx = str(tmp_path / "v030")
    shutil.copytree(id_engine.index_dir, idx)
    tid = id_engine.query_term_ids("bababa")[0]
    part = tid % 4
    reader = SegmentReader(idx)
    _rewrite_with_v030_columns(part_path(reader.segments_dir, part))
    call = {"load_terms": lambda: reader.load_terms(part, [tid]),
            "read_range": lambda: reader.read_range(part),
            "nearest": lambda: reader.nearest(part, tid, less=True),
            "decode_part": lambda: reader.decode_part(part)}[shape]
    with pytest.raises(RuntimeError, match="must be rebuilt"):
        call()


def test_absorb_recovers_lost_scratch(ray_session, tmp_path):
    """absorb() after scratch loss re-tokenizes lost waves instead of
    silently dropping their docs (ADVICE item 1)."""
    import shutil

    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    pages = corpus.generate_pages(120)
    ids = pa.array(np.arange(120, dtype=np.int64), pa.int64())
    tbl = pages.append_column("doc_id", ids)
    f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(tbl.slice(0, 80), f1)
    pq.write_table(tbl.slice(80), f2)

    idx = str(tmp_path / "idx")
    scratch = str(tmp_path / "scratch")
    b = IndexBuilder(idx, mode="word", num_parts=4, id_col="doc_id",
                     scratch_dir=scratch)
    b.build([f1])
    shutil.rmtree(os.path.join(scratch, "postings"))  # simulate /dev/shm loss
    os.makedirs(os.path.join(scratch, "postings"), exist_ok=True)
    stats = b.absorb([f2])
    assert stats["n_docs"] == 120
    eng = SearchEngine(idx, corpus_files=[f1, f2], id_col="doc_id")
    # docs from BOTH waves are searchable
    docs = eng.match("bababa")
    assert (docs < 80).any() and (docs >= 80).any()


def test_build_segments_raises_on_lost_scratch(ray_session, tmp_path):
    import shutil

    from vfs_index_ray.build import IndexBuilder

    pages = corpus.generate_pages(40)
    ids = pa.array(np.arange(40, dtype=np.int64), pa.int64())
    f1 = str(tmp_path / "a.parquet")
    pq.write_table(pages.append_column("doc_id", ids), f1)
    idx = str(tmp_path / "idx")
    scratch = str(tmp_path / "scratch")
    b = IndexBuilder(idx, mode="word", num_parts=2, id_col="doc_id",
                     scratch_dir=scratch)
    b.build_postings_wave(0, [f1])
    shutil.rmtree(os.path.join(scratch, "postings"))
    os.makedirs(os.path.join(scratch, "postings"), exist_ok=True)
    with pytest.raises(RuntimeError, match="postings lost"):
        b.build_segments()


def test_empty_segment_schema_matches_nonempty():
    """Empty and non-empty segment tables share one schema (concat-safe)."""
    from vfs_index_ray.codec import SEGMENT_SCHEMA, encode_partition

    t = np.array([1, 1, 2], np.uint64)
    d = np.array([10, 20, 10], np.uint64)
    tf = np.array([1, 2, 3], np.uint64)
    dl = np.array([5, 6, 5], np.uint64)
    seg = encode_partition(t, d, tf, dl)
    empty = SEGMENT_SCHEMA.empty_table()
    assert empty.schema == seg.schema
    assert pa.concat_tables([empty, seg]).num_rows == seg.num_rows


def test_query_service_matches_engine(id_engine, ray_session, id_corpus,
                                      tmp_path_factory):
    """QueryService replicas return bit-identical results to the local
    engine, reuse actors across calls, and route deterministically."""
    from vfs_index_ray.service import QueryService

    svc = QueryService(id_engine.index_dir, replicas=3)
    try:
        queries = ["bababa", "bababa babade", "nosuchtoken42",
                   corpus.RARE_TERM]
        results = svc.bm25_batch(queries, k=10)
        for q, (docs, scores) in zip(queries, results):
            ed, es = id_engine.bm25(q, 10)
            assert docs.tolist() == ed.tolist()
            assert scores.tolist() == es.tolist()
        # second call reuses the same resident actors (call counters grow)
        before = svc.calls_per_worker()
        svc.bm25_batch(queries, k=10)
        after = svc.calls_per_worker()
        assert sum(after) > sum(before)
        # deterministic routing: repeated query hits the same replica
        assert svc._route("bababa") == svc._route("bababa")
        assert svc.match("bababa").tolist() == \
            id_engine.match("bababa").tolist()
    finally:
        svc.shutdown()


def test_absent_terms_read_the_segment(id_engine):
    """A term lookup is the segment's binary search: an absent term is
    an empty result (df 0) of the part's one read, present terms are
    unaffected, and a build writes no per-part filter beside its
    segments."""
    id_engine._cache.clear()
    dfs = id_engine.df("zzqqxyzzy bababa")
    assert dfs["zzqqxyzzy"] == 0 and dfs["bababa"] > 0
    # an all-absent query still reads each of its terms' parts once
    id_engine._cache.clear()
    q = "zzqqxyzzy qqqzzz9x"
    assert id_engine.match(q).tolist() == []
    parts = {t % id_engine.num_parts for t in id_engine.query_term_ids(q)}
    assert id_engine.last_load_stats == {"parts_read": len(parts)}
    seg = segments_dir(id_engine.index_dir)
    assert not [n for n in os.listdir(seg) if n.endswith(".bloom")]


def test_reader_trusts_no_bloom_file(id_engine, tmp_path):
    """A ``part=NNNNN.bloom`` left beside the segments (older builds
    wrote one per part) is never read: with every one cut to half its
    size, df and bm25 equal those of the untouched index."""
    import shutil

    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path / "cut")
    shutil.copytree(id_engine.index_dir, idx)
    seg = segments_dir(idx)
    for p in range(id_engine.num_parts):
        path = part_path(seg, p, "bloom")
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            data = data[:len(data) // 2]
        else:
            data = bytes(64)  # half the smallest filter, every bit clear
        with open(path, "wb") as f:
            f.write(data)
    cut = SearchEngine(idx)
    words = " ".join(corpus.vocab()[:200] + [corpus.RARE_TERM])
    want = id_engine.df(words)
    assert sum(df > 0 for df in want.values()) > 100
    assert cut.df(words) == want
    for q in (corpus.RARE_TERM, corpus.PHRASE, "bababa babade", words):
        d1, s1 = cut.bm25(q, 20)
        d2, s2 = id_engine.bm25(q, 20)
        assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()


def test_key_range_and_nearest_fuzz(id_engine, id_corpus):
    """Fuzz the key-space scan + nearest-key against a brute-force map
    built from the corpus tokens (word mode: hashed keyspace — order is
    arbitrary but the scan contract is pure uint64 ranges)."""
    import re

    from vfs_index_ray.hashing import fnv1a64

    tbl = pq.read_table(id_corpus, columns=["doc_id", "text"])
    keymap: dict[int, set[int]] = {}
    for did, text in zip(tbl["doc_id"].to_pylist(),
                         tbl["text"].to_pylist()):
        for tok in re.split(r"[^a-z0-9]+", text.lower()):
            if tok:
                keymap.setdefault(fnv1a64(tok), set()).add(did)
    keys = np.array(sorted(keymap), np.uint64)
    rng = np.random.Generator(np.random.Philox(key=[77, 0]))
    for _ in range(25):
        a, b = rng.integers(0, 1 << 64, 2, dtype=np.uint64)
        lo, hi = (a, b) if a <= b else (b, a)
        expect = sorted(set().union(*(
            keymap[k] for k in keys[(keys >= lo) & (keys <= hi)])) or set())
        got = id_engine.term_range_docs(int(lo), int(hi))
        assert got.tolist() == expect
        # nearest at both ends of the range
        below = keys[keys <= hi]
        want = int(below[-1]) if len(below) else None
        res = id_engine.nearest_term(int(hi), less=True)
        assert (res[0] if res else None) == want
        above = keys[keys >= lo]
        want = int(above[0]) if len(above) else None
        res = id_engine.nearest_term(int(lo), less=False)
        assert (res[0] if res else None) == want


def test_explain_profile(id_engine):
    out = id_engine.explain("bababa zzqqnotthere", k=5)
    assert out["method"] in ("exact", "maxscore")
    assert out["terms"]["bababa"] > 0
    assert out["terms"]["zzqqnotthere"] == 0
    assert out["n_terms"] == 1  # df=0 term dropped before scoring
    assert out["ms"] >= 0


def test_verify_index(ray_session, id_corpus, tmp_path):
    import json

    from vfs_index_ray.build import IndexBuilder, verify_index

    idx = str(tmp_path / "vidx")
    IndexBuilder(idx, mode="word", num_parts=4,
                 id_col="doc_id").build([id_corpus])
    rep = verify_index(idx)
    assert rep["ok"], rep["errors"]
    # truncate one segment file → size mismatch flagged
    f = part_path(segments_dir(idx), 1)
    data = open(f, "rb").read()
    open(f, "wb").write(data[:100])
    rep = verify_index(idx)
    assert not rep["ok"]
    assert any("size mismatch" in e for e in rep["errors"])
    # corrupt stats n_docs → cross-check flagged
    open(f, "wb").write(data)  # restore
    st = json.load(open(os.path.join(idx, "stats.json")))
    st["n_docs"] += 1
    json.dump(st, open(os.path.join(idx, "stats.json"), "w"))
    rep = verify_index(idx)
    assert any("n_docs" in e for e in rep["errors"])


def test_fetch_rows_uint64_ids_above_2_63(ray_session, tmp_path):
    """Hash-derived doc_ids above 2^63 survive stats pruning, pushdown,
    and the sorted-set filter (signed-reinterpret hazards)."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    ids = np.sort(np.array([2**63 + 5, 2**63 + 100, 2**64 - 2, 10, 20],
                           np.uint64))
    src = str(tmp_path / "big.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.uint64()),
        "text": pa.array([f"zzmarker doc{i}" for i in range(5)],
                         pa.string()),
    }), src, row_group_size=2)
    idx = str(tmp_path / "bigidx")
    IndexBuilder(idx, mode="word", num_parts=2,
                 id_col="doc_id").build([src])
    eng = SearchEngine(idx, corpus_files=[src], id_col="doc_id")
    docs = eng.match("zzmarker")
    assert docs.tolist() == ids.tolist()
    rows = eng.fetch_rows(np.array([2**64 - 2, 10], np.uint64),
                          columns=["doc_id", "text"])
    assert sorted(rows["doc_id"].to_pylist()) == [10, 2**64 - 2]
    assert eng.last_fetch_stats["row_groups_read"] <= 2
    # key-space ops on the full uint64 range
    t, df = eng.nearest_term(2**64 - 1, less=True)
    assert df >= 1


def test_ranked_filtered_search(id_engine, id_corpus):
    """ranked(): AND filter then BM25 over the text predicate — scores
    equal the unfiltered bm25 restricted to eligible docs (global
    stats), ties (score desc, doc_id asc)."""
    from vfs_index_ray.planner import QueryExecutor

    ex = QueryExecutor(id_engine, [id_corpus], text_col="text",
                       id_col="doc_id")
    docs, scores = ex.ranked('text.search("bababa") && doc_id < 100', k=5)
    eligible = set(ex.execute('text.search("bababa") && doc_id < 100')
                   .tolist())
    assert set(docs.tolist()) <= eligible
    # scores == full bm25 scores of those docs (global statistics)
    full_d, full_s = id_engine.bm25("bababa", 10_000)
    full = dict(zip(full_d.tolist(), full_s.tolist()))
    for d, s in zip(docs.tolist(), scores.tolist()):
        assert s == full[d]
    # descending with doc_id tiebreak
    pairs = list(zip(scores.tolist(), [-d for d in docs.tolist()]))
    assert pairs == sorted(pairs, reverse=True)
    # no text predicate → plain filter, zero scores
    d2, s2 = ex.ranked("doc_id < 3", k=10)
    assert d2.tolist() == [0, 1, 2] and not s2.any()
