"""Doc-level deletes: tombstone filtering + physical purge.

Contract (search.py delete_docs): result-set APIs never return a
deleted doc, effective immediately and persistently; survivors keep
their exact pre-delete BM25 scores (stale-statistics scoring) until
purge_tombstones rewrites the segments, after which the index is
byte-identical to a fresh build of the surviving corpus.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus
from vfs_index_ray.segment import part_path, segments_dir


@pytest.fixture(scope="module")
def tomb_setup(ray_session, pages_file, tmp_path_factory):
    """Own index (never the shared session one — deletes mutate it)."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path_factory.mktemp("tomb") / "idx")
    IndexBuilder(idx, mode="word", num_parts=4, id_col=None,
                 positions=True).build([pages_file])
    eng = SearchEngine(idx, corpus_files=[pages_file])
    # delete two of the planted rare term's four docs + one head doc
    rare = eng.match(corpus.RARE_TERM)
    assert len(rare) == 4
    head = eng.match("bababa")
    victims = np.array([rare[0], rare[2], head[5]], np.uint64)
    return idx, eng, victims


def _fresh(idx, pages_file):
    from vfs_index_ray.search import SearchEngine
    return SearchEngine(idx, corpus_files=[pages_file])


def test_delete_filters_all_result_apis(tomb_setup, pages_file):
    idx, _, victims = tomb_setup
    eng = _fresh(idx, pages_file)  # pre-delete snapshot engine
    before_match = eng.match(corpus.RARE_TERM)
    before_docs, before_scores = eng.bm25("bababa babade", 500)

    n = eng.delete_docs(victims)
    assert n == len(victims)
    assert eng.delete_docs(victims) == 0  # idempotent

    # match: exactly the old result minus the victims
    after = eng.match(corpus.RARE_TERM)
    want = np.setdiff1d(before_match, victims)
    assert after.tolist() == want.tolist()
    assert not np.isin(victims, eng.match("bababa")).any()

    # bm25: survivors keep their EXACT fp64 scores (stale stats),
    # ranking is the old ranking with the victims removed
    mask = ~np.isin(before_docs, victims)
    exp_docs, exp_scores = before_docs[mask][:10], before_scores[mask][:10]
    got_docs, got_scores = eng.bm25("bababa babade", 10)
    assert got_docs.tolist() == exp_docs.tolist()
    assert got_scores.tolist() == exp_scores.tolist()

    # explicit pruned method falls back to the (identical) exact path
    md, ms = eng.bm25("bababa babade", 10, method="maxscore")
    assert md.tolist() == exp_docs.tolist()
    assert ms.tolist() == exp_scores.tolist()

    # fetch_rows / phrase / nears never surface a victim
    rows = eng.fetch_rows(before_match)
    got_ids = set()
    for col in ("doc_id", "url"):
        if col in rows.column_names and col == "doc_id":
            got_ids = set(rows["doc_id"].to_pylist())
    if got_ids:
        assert not (got_ids & set(victims.tolist()))
    nd, _ = eng.nears(corpus.RARE_TERM)
    assert not np.isin(victims, nd).any()
    assert not np.isin(victims, eng.phrase_match(corpus.PHRASE)).any()
    assert not np.isin(
        victims, eng.phrase_match_positional(corpus.PHRASE)).any()

    # persistence: a brand-new engine on the same dir sees the deletes
    eng2 = _fresh(idx, pages_file)
    assert eng2.match(corpus.RARE_TERM).tolist() == want.tolist()


def test_purge_matches_fresh_build(tomb_setup, pages_file,
                                   tmp_path_factory):
    """purge_tombstones(src) produces byte-identical segments, their
    positions included (and equal stats), to building the surviving
    corpus from scratch — df/avgdl/n_docs all physically correct again."""
    import ray

    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.hashing import doc_ids_from_urls
    from vfs_index_ray.merge import purge_tombstones
    from vfs_index_ray.search import SearchEngine

    idx, eng, victims = tomb_setup
    eng.delete_docs(victims)  # idempotent with the other test's deletes

    root = tmp_path_factory.mktemp("purge")
    purged = str(root / "purged")
    stats = purge_tombstones(idx, purged)
    assert stats["purged_docs"] == len(victims)

    # surviving corpus on disk → fresh reference build
    pages = pq.read_table(pages_file)
    ids = doc_ids_from_urls(pages["url"].combine_chunks())
    keep = ~np.isin(ids, victims)
    live_file = str(root / "live.parquet")
    pq.write_table(pages.filter(np.asarray(keep)), live_file)
    ref = str(root / "ref")
    ref_stats = IndexBuilder(ref, mode="word", num_parts=4, id_col=None,
                             positions=True).build([live_file])

    assert stats["n_docs"] == ref_stats["n_docs"]
    assert stats["total_tokens"] == ref_stats["total_tokens"]
    assert stats["avgdl"] == ref_stats["avgdl"]
    for p in range(4):
        a = part_path(segments_dir(purged), p)
        b = part_path(segments_dir(ref), p)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), f"segment part {p} differs"

    # the purged index carries no tombstones and answers like the
    # tombstoned engine (doc sets; scores now use live stats)
    peng = SearchEngine(purged, corpus_files=[pages_file])
    assert len(peng.tombstones) == 0
    assert peng.match(corpus.RARE_TERM).tolist() == \
        eng.match(corpus.RARE_TERM).tolist()
    assert peng.match("bababa babade").tolist() == \
        eng.match("bababa babade").tolist()
    # purge is resumable/idempotent: re-running changes nothing
    stats2 = purge_tombstones(idx, purged)
    assert stats2["n_docs"] == stats["n_docs"]
    assert stats2["purged_docs"] == stats["purged_docs"]


def test_range_scan_filters_tombstones(tomb_setup, pages_file):
    idx, eng, victims = tomb_setup
    eng.delete_docs(victims)
    docs = eng.term_range_docs(None, None)  # every indexed doc
    assert not np.isin(victims, docs).any()


def test_uncommitted_tombstone_files_are_ignored(tomb_setup, pages_file,
                                                 tmp_path):
    """Only committed ``del-*.parquet`` files are read: a tmp file a
    killed ``delete_docs`` left, torn or complete, neither breaks an
    engine open nor applies its uncommitted deletes."""
    from vfs_index_ray.search import load_tombstones

    idx = str(tmp_path / "idx")
    shutil.copytree(tomb_setup[0], idx, ignore=shutil.ignore_patterns(
        "tombstones"))
    d = os.path.join(idx, "tombstones")
    os.makedirs(d)
    pq.write_table(pa.table({"doc_id": pa.array([5, 9], pa.uint64())}),
                   os.path.join(d, "del-000000000001.parquet"))
    pq.write_table(pa.table({"doc_id": pa.array([7], pa.uint64())}),
                   os.path.join(d, ".tmp.del-000000000002.parquet"))
    with open(os.path.join(d, ".tmp.del-000000000003.parquet"), "wb") as f:
        f.write(b"PAR1\x00\x00")  # killed mid-write
    assert load_tombstones(idx).tolist() == [5, 9]
    assert _fresh(idx, pages_file).tombstones.tolist() == [5, 9]
