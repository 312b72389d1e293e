"""Re-crawl upsert (merge.upsert_docs): replaced docs lose their old
postings, inserts land, and the result is statistically and
posting-identical to a fresh build over the latest-snapshot corpus."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _v1_table(n=240):
    from vfs_index_ray import corpus
    pages = corpus.generate_pages(n)
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pages["text"],
    })


def _v2_table(v1: pa.Table):
    """Re-crawl snapshot: ids % 7 == 2 change text (and lose every
    'the'-like head token by prefixing a marker), ids 9000.. are new."""
    import pyarrow.compute as pc
    ids = v1["doc_id"].to_numpy(zero_copy_only=False)
    rep = v1.filter(pa.array(ids % 7 == 2))
    new_txt = pc.binary_join_element_wise(
        pa.array(["fresh recrawl marker"] * rep.num_rows),
        pc.replace_substring(rep["text"].combine_chunks(),
                             "bababa", "zzzunseen"), " ")
    inserts = pa.table({
        "doc_id": pa.array(np.arange(9000, 9030, dtype=np.int64)),
        "text": pa.array([f"brand new page number {i} about glacier "
                          f"mapping telescopes" for i in range(30)]),
    })
    rep2 = pa.table({"doc_id": rep["doc_id"], "text": new_txt})
    return pa.concat_tables([rep2, inserts])


def _latest(v1: pa.Table, v2: pa.Table) -> pa.Table:
    ids = v1["doc_id"].to_numpy(zero_copy_only=False)
    keep = v1.filter(pa.array(ids % 7 != 2))
    return pa.concat_tables([keep, v2])


@pytest.fixture(scope="module")
def upsert_env(ray_session, tmp_path_factory):
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.merge import upsert_docs

    d = tmp_path_factory.mktemp("upsert")
    v1, = [_v1_table()]
    v2 = _v2_table(v1)
    v1_f, v2_f, latest_f = (str(d / f) for f in
                            ("v1.parquet", "v2.parquet", "latest.parquet"))
    pq.write_table(v1, v1_f)
    pq.write_table(v2, v2_f)
    pq.write_table(_latest(v1, v2), latest_f)

    base = str(d / "base")
    IndexBuilder(base, mode="word", num_parts=8,
                 id_col="doc_id").build([v1_f])
    out = str(d / "out")
    stats = upsert_docs(base, [v2_f], out, id_col="doc_id",
                        old_files=[v1_f])

    fresh = str(d / "fresh")
    fstats = IndexBuilder(fresh, mode="word", num_parts=8,
                          id_col="doc_id").build([latest_f])
    return {"d": d, "v1_f": v1_f, "v2_f": v2_f, "latest_f": latest_f,
            "base": base, "out": out, "fresh": fresh,
            "stats": stats, "fstats": fstats}


def test_upsert_stats_match_fresh_build(upsert_env):
    s, f = upsert_env["stats"], upsert_env["fstats"]
    for k in ("n_docs", "total_tokens", "avgdl", "num_parts", "mode"):
        assert s[k] == f[k], k


def test_upsert_postings_identical_to_fresh(upsert_env):
    from vfs_index_ray.segment import SegmentReader
    out = SegmentReader(upsert_env["out"])
    fresh = SegmentReader(upsert_env["fresh"])
    for p in range(8):
        ta, da, fa, la = out.decode_part(p)
        tb, db, fb, lb = fresh.decode_part(p)
        assert (ta == tb).all() and (da == db).all()
        assert (fa == fb).all() and (la == lb).all()


def test_upsert_bm25_fp64_identical_to_fresh(upsert_env):
    from vfs_index_ray.search import SearchEngine
    eo = SearchEngine(upsert_env["out"], corpus_files=[
        upsert_env["latest_f"]], id_col="doc_id")
    ef = SearchEngine(upsert_env["fresh"], corpus_files=[
        upsert_env["latest_f"]], id_col="doc_id")
    for q in ("bababa babade", "glacier mapping", "fresh recrawl"):
        do_, so = eo.bm25(q, 12)
        df_, sf = ef.bm25(q, 12)
        assert (do_ == df_).all()
        assert (so == sf).all()  # fp64 equality, not approx


def test_upsert_replaces_and_inserts(upsert_env):
    from vfs_index_ray.search import SearchEngine
    eng = SearchEngine(upsert_env["out"], corpus_files=[
        upsert_env["latest_f"]], id_col="doc_id")
    hits = eng.match("bababa")
    assert len(hits) and not (hits.astype(np.int64) % 7 == 2).any(), \
        "replaced docs must lose their old postings"
    marker = eng.match("zzzunseen")
    assert len(marker) and (marker.astype(np.int64) % 7 == 2).all()
    ins = eng.match("glacier telescopes")
    assert set(ins.astype(np.int64)) == set(range(9000, 9030))


def test_upsert_rerun_is_idempotent(upsert_env):
    from vfs_index_ray.merge import upsert_docs
    again = upsert_docs(upsert_env["base"], [upsert_env["v2_f"]],
                        upsert_env["out"], id_col="doc_id",
                        old_files=[upsert_env["v1_f"]])
    assert again["n_docs"] == upsert_env["stats"]["n_docs"]
    assert again["total_tokens"] == upsert_env["stats"]["total_tokens"]
