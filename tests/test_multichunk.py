"""Head terms of many postings: one segment row per term, and the
pruned MaxScore path and point scoring agree bit for bit with exact
scoring, for a narrow and for an 8-byte doc stream.

The ``varint`` case (named for the encoding small ids got before
fixed-width streams) indexes dense int ids ``0..N_PAGES-1``, a 2-byte
doc stream. The ``fixed64`` case hashes urls into 64-bit ids
(``id_col=None``, an 8-byte doc stream)."""

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
def id_space(request, ray_session, tmp_path_factory):
    """(index dir, engine factory, queries, docs_w, pages) of one id
    space."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    d = tmp_path_factory.mktemp(f"ids_{request.param}")
    pages = corpus.generate_pages(N_PAGES)
    i = np.arange(N_PAGES, dtype=np.int64)
    if request.param == "varint":
        pages = pages.append_column("doc_id", pa.array(i))
        id_col, width = "doc_id", 2
    else:
        id_col, width = None, 8
    src = str(d / "pages.parquet")
    pq.write_table(pages, src)
    idx = str(d / "idx")
    IndexBuilder(idx, mode="word", num_parts=4, id_col=id_col).build([src])
    return idx, lambda: SearchEngine(idx), _queries(pages), width, pages


def test_one_row_per_term(id_space):
    """Every term is one segment row whose ``n`` is the term's df; the
    head terms' docs streams hold many postings."""
    from vfs_index_ray.segment import SegmentReader

    idx, engine, queries, width, pages = id_space
    eng = engine()
    docs_of: dict[str, set] = {}
    for i, t in enumerate(pages["text"].to_pylist()):
        for w in set(t.lower().split()):
            docs_of.setdefault(w, set()).add(i)
    words = sorted({w for q in queries for w in q.split()})
    tids = [eng.query_term_ids(w)[0] for w in words]
    loaded = eng.load_terms(tids)
    for w, t in zip(words, tids):
        rows = loaded[t].chunks
        assert len(rows) == 1, w
        assert int(rows.column("n")[0]) == loaded[t].df == \
            len(docs_of[w]), w
        assert int(rows.column("docs_w")[0]) == width
    assert max(len(loaded[t].chunks.column("docs"))
               for t in tids) > 4 * 128 * width
    reader = SegmentReader(idx)
    for p in range(4):
        part = reader.read_range(p, columns=["term_id"])
        tid = part["term_id"].to_numpy()
        assert (tid[1:] > tid[:-1]).all()  # no term spans two rows


def test_maxscore_matches_exact(id_space):
    _, engine, queries, _, _ = id_space
    for q in queries:
        de, se = engine().bm25(q, 10, method="exact")
        eng = engine()
        dm, sm = eng.bm25(q, 10, method="maxscore")
        assert eng.last_query_stats["method"] == "maxscore"
        assert dm.tolist() == de.tolist(), q
        assert sm.tolist() == se.tolist(), q


def test_scores_for_matches_exact(id_space):
    _, engine, queries, _, _ = id_space
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


def test_probe_counter(id_space):
    """``n_probes`` is 0 on the exact path and the same positive count
    on two fresh engines running one MaxScore query (a head and a mid
    term: the candidates are looked up in both terms' docs streams)."""
    _, engine, queries, _, _ = id_space
    q = queries[1]
    eng = engine()
    eng.bm25(q, 10, method="exact")
    assert eng.last_query_stats["n_probes"] == 0
    counts = []
    for _ in range(2):
        out = engine().explain(q, 10, method="maxscore")
        assert out["method"] == "maxscore"
        counts.append(out["n_probes"])
    assert counts[0] == counts[1] > 0
