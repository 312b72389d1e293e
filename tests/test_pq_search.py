"""PQSearcher (ADC + exact re-rank): determinism, exactness of the
re-rank arithmetic, and recall against the brute-force oracle."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.01"


def _fixture():
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    return ids, mat


def _lookup(ids_all, mat):
    def f(want):
        pos = {int(i): j for j, i in enumerate(ids_all)}
        return mat[[pos[int(w)] for w in want]]
    return f


@pytest.mark.parametrize("kw", [dict(k=257, subs=8, dim=64),
                                dict(k=64, subs=8, dim=60)])
def test_pq_rejects_bad_shape(kw):
    """k > 256 would wrap the uint8 codes; subs not dividing dim has no
    subspace split. Both are rejected before any data is read."""
    from vfs_index_ray.functions.similarity import PQSearcher

    with pytest.raises(ValueError, match="PQSearcher needs"):
        PQSearcher(None, **kw)


def test_pq_search_recall_and_exact_rerank(ray_session):
    import ray.data

    from vfs_index_ray.functions.similarity import PQSearcher

    ids, mat = _fixture()
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    s = PQSearcher(ds, subs=8, k=64, dim=64)
    assert s.codes.shape == (len(ids), 8)

    grid = np.floor(mat * 10000.0 + 0.5).astype(np.int64)
    lookup = _lookup(ids, mat)
    hits = total = 0
    for qi in (0, 7, 23, 101, 250):
        qvec = mat[ids == qi][0]
        got_ids, got_d2 = s.search(qvec, k=5, rerank=128,
                                   exact_lookup=lookup,
                                   exclude_ids=[qi])
        # exact re-rank distances match the int-grid L2
        qg = grid[ids == qi][0]
        for gid, gd2 in zip(got_ids, got_d2):
            assert gd2 == ((grid[ids == gid][0] - qg) ** 2).sum()
        # brute-force oracle top-5 (d2 asc, id asc)
        d2 = ((grid - qg[None, :]) ** 2).sum(axis=1)
        m = ids != qi
        order = np.lexsort((ids[m], d2[m]))[:5]
        want = set(ids[m][order].tolist())
        hits += len(want & set(got_ids.tolist()))
        total += 5
    assert hits / total >= 0.8          # ADC@rerank=128 recall floor


def test_pq_full_rerank_is_exact(ray_session):
    """rerank = corpus size degrades ADC to candidate generation only:
    the exact re-rank then reproduces brute force bit-for-bit."""
    import ray.data

    from vfs_index_ray.functions.similarity import PQSearcher

    ids, mat = _fixture()
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    s = PQSearcher(ds, subs=8, k=64, dim=64)
    grid = np.floor(mat * 10000.0 + 0.5).astype(np.int64)
    lookup = _lookup(ids, mat)
    qvec = mat[ids == 3][0]
    got_ids, _ = s.search(qvec, k=5, rerank=len(ids),
                          exact_lookup=lookup, exclude_ids=[3])
    qg = grid[ids == 3][0]
    d2 = ((grid - qg[None, :]) ** 2).sum(axis=1)
    m = ids != 3
    want = ids[m][np.lexsort((ids[m], d2[m]))[:5]]
    assert list(got_ids) == list(want)
