"""Mixed-workload QueryService (service.py): BM25 + planner
expressions + IVF ANN (plain and filtered) all served by the same
resident replica pool, bit-identical to the direct engine paths."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus


@pytest.fixture(scope="module")
def mixed_setup(tmp_path_factory, ray_session):
    import ray.data

    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.functions.similarity import IVFIndex

    d = tmp_path_factory.mktemp("svc_mixed")
    pages = corpus.generate_pages(200)
    ids = pa.array(np.arange(200, dtype=np.int64), pa.int64())
    src = str(d / "docs.parquet")
    pq.write_table(pages.append_column("doc_id", ids), src)
    idx = str(d / "idx")
    IndexBuilder(idx, mode="word", num_parts=4,
                 id_col="doc_id").build([src])

    g = np.random.Generator(np.random.Philox(key=[23, 0]))
    mats = g.normal(size=(500, 16))
    mats /= np.linalg.norm(mats, axis=1, keepdims=True)
    offs = np.arange(0, 501 * 16, 16, dtype=np.int32)
    emb = pa.table({
        "vec_id": pa.array(np.arange(500), pa.int64()),
        "embedding": pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()),
            pa.array(mats.ravel(), pa.float64())),
        "label": pa.array((np.arange(500) % 3 == 0).astype(np.int64),
                          pa.int64()),
    })
    ivf_dir = str(d / "ivf")
    IVFIndex.build(ray.data.from_arrow(emb), ivf_dir, num_centroids=8,
                   seed_centroids=True, keep_cols=["label"])
    emb_file = str(d / "emb.parquet")
    pq.write_table(emb, emb_file)
    return src, idx, ivf_dir, mats, emb_file


def test_mixed_service_matches_direct_paths(ray_session, mixed_setup):
    from vfs_index_ray.functions.similarity import IVFIndex
    from vfs_index_ray.planner import QueryExecutor
    from vfs_index_ray.search import SearchEngine
    from vfs_index_ray.service import QueryService

    src, idx, ivf_dir, mats, emb_file = mixed_setup
    svc = QueryService(idx, replicas=2, corpus_files=[src],
                       ann_dir=ivf_dir)
    try:
        # BM25 (regression: unchanged by the new constructor params)
        eng = SearchEngine(idx, corpus_files=[src], id_col="doc_id")
        d1, s1 = svc.bm25("bababa babade", 10)
        d2, s2 = eng.bm25("bababa babade", 10)
        assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()

        # planner expression through the resident replica
        ex = QueryExecutor(eng, [src], text_col="text", id_col="doc_id")
        expr = 'text.search("bababa") && !text.search("babade")'
        got = svc.execute(expr)
        want = np.asarray(ex.execute(expr))
        assert got.tolist() == want.tolist()
        # second call reuses the resident executor (counters grow)
        before = svc.calls_per_worker()
        svc.execute(expr)
        assert sum(svc.calls_per_worker()) > sum(before)

        # ANN: plain and filtered probes, vs the direct IVFIndex
        ivf = IVFIndex(ivf_dir)
        qvecs = [mats[7], mats[21], mats[40], mats[63]]
        exq = [7, 21, 40, 63]
        got = svc.ann_batch(qvecs, k=5, nprobe=4, exclude_ids=exq)
        for (ids, sims), v, e in zip(got, qvecs, exq):
            wi, ws = ivf.search(v, 5, nprobe=4, exclude_id=e)
            assert ids.tolist() == wi.tolist()
            np.testing.assert_array_equal(sims, ws)
        gotf = svc.ann_batch(qvecs, k=5, nprobe=4,
                             filters=[("label", "==", 1)],
                             exclude_ids=exq)
        for (ids, sims), v, e in zip(gotf, qvecs, exq):
            wi, ws = ivf.search_filtered(v, 5,
                                         filters=[("label", "==", 1)],
                                         nprobe=4, exclude_id=e)
            assert ids.tolist() == wi.tolist()
            np.testing.assert_array_equal(sims, ws)
    finally:
        svc.shutdown()


def test_service_pq_batch_matches_direct(ray_session, mixed_setup):
    """Resident PQ/ADC in the replica pool: service results equal a
    driver-side PQSearcher with the same state and re-rank budget."""
    import ray.data

    from vfs_index_ray.functions.similarity import PQSearcher
    from vfs_index_ray.service import QueryService

    src, idx, ivf_dir, mats, emb_file = mixed_setup
    ds = ray.data.read_parquet(emb_file,
                               columns=["vec_id", "embedding"])
    searcher = PQSearcher(ds, subs=4, k=16, dim=16)
    svc = QueryService(idx, replicas=2, corpus_files=[src],
                       pq_state=searcher.state(), emb_file=emb_file)
    try:
        t = pq.read_table(emb_file, columns=["vec_id", "embedding"])
        ids_all = t["vec_id"].to_numpy()
        mat = np.asarray(t["embedding"].to_pylist(), np.float64)
        pos = {int(i): j for j, i in enumerate(ids_all)}

        def lookup(want):
            return mat[[pos[int(w)] for w in want]]

        qids = [7, 21, 40]
        got = svc.pq_batch([mats[i] for i in qids], k=5, rerank=64,
                           exclude_ids=qids)
        for (ids, d2), qi in zip(got, qids):
            wi, wd = searcher.search(mats[qi], 5, rerank=64,
                                     exact_lookup=lookup,
                                     exclude_ids=[qi])
            assert ids.tolist() == wi.tolist()
            assert d2.tolist() == wd.tolist()
    finally:
        svc.shutdown()


@pytest.mark.parametrize("call", ["ann_batch", "pq_batch"])
def test_service_rejects_misaligned_exclude_ids(ray_session, mixed_setup,
                                                call):
    """exclude_ids pairs one id with each query vector: a list of another
    length is rejected before any replica is called."""
    from vfs_index_ray.service import QueryService

    src, idx, ivf_dir, mats, emb_file = mixed_setup
    svc = QueryService(idx, replicas=1, corpus_files=[src])
    try:
        with pytest.raises(ValueError, match="exclude_ids has 1 entries"):
            getattr(svc, call)([mats[7], mats[21]], k=5,
                               exclude_ids=[7])
        assert svc.calls_per_worker() == [0]
    finally:
        svc.shutdown()
