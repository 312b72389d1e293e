"""Terms split into several chunk rows: the pruned MaxScore path, point
scoring and the distributed scorer all agree bit for bit with exact
scoring, for a narrow and for an 8-byte doc stream.

The ``varint`` case (named for the encoding small ids got before
fixed-width streams) indexes dense int ids ``0..N_PAGES-1`` with
``bucket_shift=9``, so they span four buckets and a 2-byte doc stream.
The ``fixed64`` case hashes urls into 64-bit ids (``id_col=None``, an
8-byte doc stream) with ``bucket_shift=61``."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus

N_PAGES = 2000


def _queries(pages: pa.Table) -> list[str]:
    """Two- and three-term queries over head and mid terms."""
    counts = Counter(w for t in pages["text"].to_pylist()
                     for w in t.lower().split() if w.isalpha())
    ranked = [w for w, _ in counts.most_common()]
    head, mid = ranked[:4], ranked[40:44]
    return [f"{head[0]} {head[1]}", f"{head[2]} {mid[0]}",
            f"{head[0]} {mid[1]} {mid[2]}", f"{head[3]} {mid[3]}",
            f"{corpus.RARE_TERM} {head[1]}"]


@pytest.fixture(scope="module", params=["varint", "fixed64"])
def bucketed(request, ray_session, tmp_path_factory):
    """(index dir, engine factory, queries, docs_w) of one id space."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    d = tmp_path_factory.mktemp(f"bucketed_{request.param}")
    pages = corpus.generate_pages(N_PAGES)
    i = np.arange(N_PAGES, dtype=np.int64)
    if request.param == "varint":
        pages = pages.append_column("doc_id", pa.array(i))
        id_col, shift, width = "doc_id", 9, 2
    else:
        id_col, shift, width = None, 61, 8
    src = str(d / "pages.parquet")
    pq.write_table(pages, src)
    idx = str(d / "idx")
    IndexBuilder(idx, mode="word", num_parts=4, bucket_shift=shift,
                 id_col=id_col).build([src])
    return idx, lambda: SearchEngine(idx), _queries(pages), width


def test_terms_span_several_rows(bucketed):
    idx, engine, queries, width = bucketed
    eng = engine()
    tids = sorted({t for q in queries for t in eng.query_term_ids(q)})
    loaded = eng.load_terms(tids)
    rows = [p.chunks for p in loaded.values() if p.df > 0]
    assert max(len(c) for c in rows) > 1
    assert max(np.max(np.diff(c.offsets("skip_doc_last"))) for c in rows) > 1
    assert {int(w) for c in rows for w in c.column("docs_w")} == {width}


def test_maxscore_matches_exact(bucketed):
    _, engine, queries, _ = bucketed
    for q in queries:
        de, se = engine().bm25(q, 10, method="exact")
        eng = engine()
        dm, sm = eng.bm25(q, 10, method="maxscore")
        assert eng.last_query_stats["method"] == "maxscore"
        assert dm.tolist() == de.tolist(), q
        assert sm.tolist() == se.tolist(), q


def test_scores_for_matches_exact(bucketed):
    _, engine, queries, _ = bucketed
    for q in queries:
        de, se = engine().bm25(q, 50, method="exact")
        # the top docs plus docs that hold none of the terms
        absent = np.array([N_PAGES + 3, N_PAGES + 5, 2 ** 62 + 7],
                          np.uint64)
        docs, scores = engine().bm25_scores_for(q, np.r_[de, absent])
        got = dict(zip(docs.tolist(), scores.tolist()))
        assert [got[d] for d in de.tolist()] == se.tolist(), q
        assert all(got[int(d)] == 0.0 for d in absent if int(d) not in
                   set(de.tolist()))


def test_ray_topk_matches_exact(bucketed):
    from vfs_index_ray.search import bm25_topk_ray

    idx, engine, queries, _ = bucketed
    for q in queries:
        de, se = engine().bm25(q, 10, method="exact")
        dr, sr = bm25_topk_ray(idx, q, 10)
        assert dr.tolist() == de.tolist(), q
        assert sr.tolist() == se.tolist(), q


def test_blocks_probed_counter(bucketed):
    """``n_blocks_probed`` is 0 on the exact path and the same positive
    count on two fresh engines running one MaxScore query."""
    _, engine, queries, _ = bucketed
    q = queries[0]
    eng = engine()
    eng.bm25(q, 10, method="exact")
    assert eng.last_query_stats["n_blocks_probed"] == 0
    counts = []
    for _ in range(2):
        out = engine().explain(q, 10, method="maxscore")
        assert out["method"] == "maxscore"
        counts.append(out["n_blocks_probed"])
    assert counts[0] == counts[1] > 0
