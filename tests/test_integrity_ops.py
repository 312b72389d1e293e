"""Round-5 fifth-session additions: per-group OLS moments, the
order-independent table checksum, and deterministic exact-k sampling —
each pinned against a brute-force recomputation of the same integer
arithmetic (the DuckDB differential is the oracle gate's job)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_events_ols_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.analytics import q_events_ols
    from vfs_index_ray.pipelines.common import _sdiv

    got = q_events_ols(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_type", "ts", "value"])
    x = (t["ts"].cast(pa.int64()).to_numpy() // 60_000_000
         - 28_401_120)
    y = np.floor(t["value"].to_numpy() * 10000.0 + 0.5).astype(np.int64)
    et = np.asarray(t["event_type"].to_pylist())
    want = {}
    for e in np.unique(et):
        m = et == e
        n = int(m.sum())
        sx, sy = int(x[m].sum()), int(y[m].sum())
        sxx = sum(int(v) * int(v) for v in x[m])
        sxy = sum(int(a) * int(b) for a, b in zip(x[m], y[m]))
        den = n * sxx - sx * sx
        want[e] = (n, _sdiv((n * sxy - sx * sy) * 10**6, den),
                   _sdiv(sy * sxx - sx * sxy, den))
    assert len(got) == len(want)
    for r in got:
        n, s, i = want[r["event_type"]]
        assert (r["n"], r["slope_x1e6"], r["icept_x1e4"]) == (n, s, i)
    # sanity: integer slope tracks the float least-squares fit
    for r in got:
        m = et == r["event_type"]
        fit = np.polyfit(x[m].astype(float), y[m].astype(float), 1)
        assert abs(r["slope_x1e6"] / 1e6 - fit[0]) < 1e-3


def test_table_checksum_detects_mutation_and_order(ray_session, tmp_path):
    """The digest is invariant to row order but flips on a single-cent
    mutation of one row — the property that makes it a copy check."""
    import shutil

    from vfs_index_ray.pipelines.analytics import q_table_checksum

    base = q_table_checksum(SF).to_pylist()
    assert [r["tbl"] for r in base] == ["lineitem", "orders"]

    work = tmp_path / "sf"
    work.mkdir()
    for f in ("lineitem", "orders"):
        shutil.copy(f"{SF}/{f}.parquet", work / f"{f}.parquet")
    # permuted orders -> identical digest
    t = pq.read_table(f"{SF}/orders.parquet")
    perm = t.take(pc.sort_indices(t, sort_keys=[("o_custkey",
                                                 "ascending")]))
    pq.write_table(perm, work / "orders.parquet")
    same = q_table_checksum(str(work)).to_pylist()
    assert same == base
    # one cent on one row -> digest flips, count doesn't
    price = t["o_totalprice"].to_numpy(zero_copy_only=False).copy()
    price[0] += 0.01
    mut = t.set_column(t.schema.get_field_index("o_totalprice"),
                       "o_totalprice", pa.array(price))
    pq.write_table(mut, work / "orders.parquet")
    diff = q_table_checksum(str(work)).to_pylist()
    assert diff[0] == base[0]                      # lineitem untouched
    assert diff[1]["n"] == base[1]["n"]
    assert diff[1]["hash_sum"] != base[1]["hash_sum"]


def test_sample_exact_k_is_bottom_k(ray_session):
    from vfs_index_ray.hashing import mix32
    from vfs_index_ray.pipelines.text import q_sample_exact_k

    got = q_sample_exact_k(SF)
    ids = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_numpy()
    pri = mix32(ids)
    order = np.lexsort((ids, pri))[:100]
    assert got.num_rows == min(100, len(ids))
    assert got["doc_id"].to_pylist() == list(ids[order])
    assert got["priority"].to_pylist() == list(pri[order])


def test_events_mad_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.analytics import q_events_mad

    got = q_events_mad(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_type", "value"])
    v = np.floor(t["value"].to_numpy() * 10000.0 + 0.5).astype(np.int64)
    et = np.asarray(t["event_type"].to_pylist())
    for r in got:
        g = np.sort(v[et == r["event_type"]])
        n = len(g)
        rk = (n * 50 + 99) // 100
        med = int(g[rk - 1])
        dv = np.sort(np.abs(g - med))
        assert r["n"] == n
        assert r["median_x1e4"] == med
        assert r["mad_x1e4"] == int(dv[rk - 1])


def test_mad_is_outlier_robust(ray_session):
    """One planted 1e6 outlier leaves the MAD unchanged (the property
    variance lacks)."""
    import ray.data

    from vfs_index_ray.functions.quantiles import grouped_mad

    vals = np.concatenate([np.arange(1, 1002, dtype=np.float64)])
    base = pa.table({"k": pa.array(["a"] * len(vals)),
                     "v": pa.array(vals)})
    spiked = pa.table({"k": pa.array(["a"] * (len(vals) + 1)),
                       "v": pa.array(np.append(vals, 1e6))})
    m0 = grouped_mad(ray.data.from_arrow(base), key_col="k",
                     val_col="v").to_pylist()[0]
    m1 = grouped_mad(ray.data.from_arrow(spiked), key_col="k",
                     val_col="v").to_pylist()[0]
    assert m0["mad_x1e4"] == 250 * 10000
    assert m1["mad_x1e4"] == m0["mad_x1e4"]


def test_embedding_gram_matches_numpy(ray_session):
    from vfs_index_ray.pipelines.vector import q_embedding_gram

    got = q_embedding_gram(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    q = np.floor(np.asarray(t["embedding"].to_pylist(),
                            dtype=np.float64) * 10000.0
                 + 0.5).astype(np.int64)
    g = q.T @ q
    iu, ju = np.triu_indices(64)
    assert got.num_rows == len(iu)
    assert got["i"].to_pylist() == list(iu + 1)
    assert got["j"].to_pylist() == list(ju + 1)
    assert got["sum_x1e8"].to_pylist() == list(g[iu, ju])


def test_min_should_match_brackets_and_or(ray_session):
    """m = k reproduces AND (match); m = 1 is the full OR union;
    counts match a brute-force token scan."""
    import re

    from vfs_index_ray.pipelines.common import get_engine

    eng = get_engine(SF)
    q = "spark shuffle window"
    d_and = eng.match(q)
    docs1, n1 = eng.min_should_match(q, 1)
    docs3, n3 = eng.min_should_match(q, 3)
    assert list(docs3) == list(d_and)
    assert (n3 == 3).all()

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    terms = set(q.split())
    want = {}
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = set(re.split(r"[^a-z0-9]+", txt.lower()))
        c = len(terms & toks)
        if c >= 1:
            want[did] = c
    assert dict(zip(docs1.tolist(), n1.tolist())) == want


def test_kmeans_step_matches_numpy(ray_session):
    from vfs_index_ray.pipelines.vector import q_kmeans_step

    got = q_kmeans_step(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    q = np.floor(np.asarray(t["embedding"].to_pylist(),
                            dtype=np.float64) * 10000.0
                 + 0.5).astype(np.int64)
    seeds = q[np.argsort(ids, kind="stable")[:8]]
    d2 = ((q[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    asg = np.argmin(d2, axis=1)
    rows = {}
    for c in range(8):
        m = asg == c
        if m.sum():
            rows[c] = (int(m.sum()), q[m].sum(axis=0))
    out = got.to_pylist()
    assert len(out) == 64 * len(rows)
    for r in out:
        n, s = rows[r["cluster"]]
        assert r["n"] == n
        assert r["sum_x1e4"] == int(s[r["dim"] - 1])


def test_corrected_search_fixes_typos(ray_session):
    """The fuzzy top-1 corrections resolve to the intended vocabulary
    words, and the result equals BM25 on the corrected query."""
    from vfs_index_ray.functions.fuzzy import fuzzy_terms
    from vfs_index_ray.pipelines.common import _docs_ds, get_engine
    from vfs_index_ray.pipelines.index import q_corrected_search

    ds = _docs_ds(SF, columns=["doc_id", "text"])
    fixes = {typo: fuzzy_terms(ds, typo, k=1)["token"][0].as_py()
             for typo in ("sparkk", "windoww", "joinz")}
    assert fixes == {"sparkk": "spark", "windoww": "window",
                     "joinz": "join"}
    eng = get_engine(SF)
    docs, scores = eng.bm25("join spark window", 10)
    got = q_corrected_search(SF)
    assert got["doc_id"].to_pylist() == list(docs.astype(np.int64))


def test_weighted_median_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.analytics import q_weighted_median

    got = q_weighted_median(SF).to_pylist()
    t = pq.read_table(
        f"{SF}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"])
    v = np.floor(t["l_extendedprice"].to_numpy() * 10000.0
                 + 0.5).astype(np.int64)
    w = np.floor(t["l_quantity"].to_numpy() + 0.5).astype(np.int64)
    fl = np.asarray(t["l_returnflag"].to_pylist())
    for r in got:
        m = fl == r["l_returnflag"]
        order = np.argsort(v[m], kind="stable")
        vv, ww = v[m][order], w[m][order]
        cum = np.cumsum(ww)
        total = int(cum[-1])
        rk = (total * 50 + 99) // 100
        med = int(vv[int(np.searchsorted(cum, rk, side="left"))])
        assert (r["total_w"], r["wmedian_x1e4"]) == (total, med)


def test_events_iqr_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.analytics import q_events_iqr

    got = q_events_iqr(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_type", "value"])
    v = np.floor(t["value"].to_numpy() * 10000.0 + 0.5).astype(np.int64)
    et = np.asarray(t["event_type"].to_pylist())
    for r in got:
        g = np.sort(v[et == r["event_type"]])
        n = len(g)
        q1 = int(g[(n * 25 + 99) // 100 - 1])
        q3 = int(g[(n * 75 + 99) // 100 - 1])
        out = int(((2 * g < 5 * q1 - 3 * q3)
                   | (2 * g > 5 * q3 - 3 * q1)).sum())
        assert (r["n"], r["q1_x1e4"], r["q3_x1e4"],
                r["n_outliers"]) == (n, q1, q3, out)


def test_kmv_overlap_accuracy_and_exact_small(ray_session):
    """Saturated sketches estimate the true overlap within KMV error
    (~1/sqrt(k)); under-k sets are EXACT by the CASE both engines
    share."""
    import ray.data

    from vfs_index_ray.functions.sketches import kmv_overlap

    rng = np.random.default_rng(11)
    a_ids = rng.choice(100_000, 3000, replace=False).astype(np.int64)
    b_ids = np.concatenate([a_ids[:1500],
                            rng.choice(np.arange(100_000, 200_000),
                                       1500,
                                       replace=False).astype(np.int64)])
    t = pa.table({
        "side": pa.array(["a"] * len(a_ids) + ["b"] * len(b_ids)),
        "id": pa.array(np.concatenate([a_ids, b_ids]), pa.int64())})
    est = kmv_overlap(ray.data.from_arrow(t), id_col="id",
                      side_col="side", side_a="a", side_b="b",
                      k=256).to_pylist()[0]
    true_inter, true_union = 1500, 4500
    assert abs(est["inter_est"] - true_inter) < 0.35 * true_inter
    assert abs(est["union_est"] - true_union) < 0.2 * true_union
    # exact path: both sets below k
    small = pa.table({"side": pa.array(["a", "a", "b", "b", "b"]),
                      "id": pa.array([1, 2, 2, 3, 4], pa.int64())})
    e2 = kmv_overlap(ray.data.from_arrow(small), id_col="id",
                     side_col="side", side_a="a", side_b="b",
                     k=64).to_pylist()[0]
    assert e2["union_est"] == 4 and e2["inter_est"] == 1


def test_sample_k_per_group_quota_and_priority(ray_session):
    from vfs_index_ray.hashing import mix32
    from vfs_index_ray.pipelines.text import q_sample_k_per_group

    got = q_sample_k_per_group(SF)
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "lang"])
    ids = t["doc_id"].to_numpy()
    langs = np.asarray(t["lang"].to_pylist())
    pri = mix32(ids)
    out = got.to_pylist()
    for lg in np.unique(langs):
        m = langs == lg
        order = np.lexsort((ids[m], pri[m]))[:20]
        want = list(ids[m][order])
        have = [r["doc_id"] for r in out if r["lang"] == lg]
        assert have == want


def test_fk_orphans_detects_planted(ray_session, tmp_path):
    import shutil

    from vfs_index_ray.pipelines.analytics import q_fk_orphans

    clean = q_fk_orphans(SF).to_pylist()
    assert all(r["n_orphans"] == 0 for r in clean)

    work = tmp_path / "sf"
    work.mkdir()
    for f in ("lineitem", "orders", "customer"):
        shutil.copy(f"{SF}/{f}.parquet", work / f"{f}.parquet")
    li = pq.read_table(f"{SF}/lineitem.parquet")
    keys = li["l_orderkey"].to_numpy(zero_copy_only=False).copy()
    keys[:7] = 10_000_000_000          # no such order
    li = li.set_column(li.schema.get_field_index("l_orderkey"),
                       "l_orderkey", pa.array(keys))
    pq.write_table(li, work / "lineitem.parquet")
    got = {r["relation"]: r for r in q_fk_orphans(str(work)).to_pylist()}
    assert got["lineitem->orders"]["n_orphans"] == 7
    assert got["orders->customer"]["n_orphans"] == 0


def test_corr_matrix_matches_numpy(ray_session):
    from vfs_index_ray.pipelines.analytics import q_lineitem_corr_matrix

    got = q_lineitem_corr_matrix(SF).to_pylist()
    t = pq.read_table(f"{SF}/lineitem.parquet")
    v = {"qty": np.floor(t["l_quantity"].to_numpy() * 100 + 0.5),
         "price": np.floor(t["l_extendedprice"].to_numpy() + 0.5),
         "disc": np.floor(t["l_discount"].to_numpy() * 100 + 0.5),
         "tax": np.floor(t["l_tax"].to_numpy() * 100 + 0.5)}
    assert len(got) == 6
    for r in got:
        c = np.corrcoef(v[r["var_a"]], v[r["var_b"]])[0, 1]
        assert abs(r["corr_x1e6"] / 1e6 - c) < 2e-6
        assert r["n"] == t.num_rows


def test_events_ewma_matches_sequential(ray_session):
    from vfs_index_ray.pipelines.events import q_events_ewma

    got = q_events_ewma(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_type", "ts"])
    w = t["ts"].cast(pa.int64()).to_numpy() // 3_600_000_000
    et = np.asarray(t["event_type"].to_pylist())
    for r in got:
        hrs, counts = np.unique(w[et == r["event_type"]],
                                return_counts=True)
        s = int(counts[0])
        for x in counts[1:]:
            s = (int(x) + s) // 2
        assert (r["n_hours"], r["ewma"]) == (len(hrs), s)


def test_pq_codes_matches_numpy(ray_session):
    from vfs_index_ray.pipelines.vector import q_pq_codes

    got = q_pq_codes(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    q = np.floor(np.asarray(t["embedding"].to_pylist(),
                            dtype=np.float64) * 10000.0
                 + 0.5).astype(np.int64).reshape(-1, 8, 8)
    cent = q[np.argsort(ids, kind="stable")[:16]]
    order = np.argsort(ids, kind="stable")
    want = {}
    for vi in range(len(ids)):
        for s in range(8):
            d2 = ((cent[:, s, :] - q[vi, s, :]) ** 2).sum(axis=1)
            want[(int(ids[vi]), s)] = int(np.argmin(d2))
    out = got.to_pylist()
    assert len(out) == len(ids) * 8
    for r in out:
        assert r["code"] == want[(r["vec_id"], r["sub"])]
    # compression sanity: codes use the full range
    assert len({r["code"] for r in out}) > 4


def test_feature_vectors_matches_bruteforce(ray_session):
    import re

    from vfs_index_ray.pipelines.text import q_feature_vectors

    got = q_feature_vectors(SF).to_pylist()
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    vocab = sorted({tok for txt in t["text"].to_pylist()
                    for tok in re.split(r"[^a-z0-9]+", txt.lower())
                    if tok})
    rank = {tok: i % 64 for i, tok in enumerate(vocab)}
    want = {}
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        if did % 50:
            continue
        for tok in re.split(r"[^a-z0-9]+", txt.lower()):
            if tok:
                key = (did, rank[tok])
                want[key] = want.get(key, 0) + 1
    assert {(r["doc_id"], r["slot"]): r["n"] for r in got} == want


def test_multi_vector_search_is_maxpool(ray_session):
    from vfs_index_ray.pipelines.vector import q_multi_vector_search

    got = q_multi_vector_search(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
    qm = m[np.isin(ids, [0, 1, 2])]
    sims = (qm @ m.T).max(axis=0)
    mask = ~np.isin(ids, [0, 1, 2])
    idx = np.flatnonzero(mask)
    top = idx[np.lexsort((ids[idx], -sims[idx]))[:10]]
    assert got["vec_id"].to_pylist() == list(ids[top])
    assert got["rank"].to_pylist() == list(range(1, 11))


def test_collocations_lift_matches_bruteforce(ray_session):
    import itertools
    import re

    from vfs_index_ray.pipelines.text import q_collocations

    got = q_collocations(SF).to_pylist()
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    docs = [set(x for x in re.split(r"[^a-z0-9]+", txt.lower()) if x)
            for txt in t["text"].to_pylist()]
    df = {}
    for d in docs:
        for tok in d:
            df[tok] = df.get(tok, 0) + 1
    top = sorted(df, key=lambda k: (-df[k], k))[:50]
    tops = set(top)
    n = len(docs)
    rows = []
    for a, b in itertools.combinations(sorted(tops), 2):
        pair = sum(1 for d in docs if a in d and b in d)
        if pair >= 5:
            rows.append((pair * n * 10**6 // (df[a] * df[b]), a, b,
                         pair))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    want = [{"tok_a": a, "tok_b": b, "pair": p, "lift_x1e6": lf}
            for lf, a, b, p in rows[:20]]
    assert got == want


def test_conversion_lag_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.events import q_conversion_lag

    got = {r["user_id"]: r["lag_s"]
           for r in q_conversion_lag(SF).to_pylist()}
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["user_id", "event_type", "ts"])
    uid = t["user_id"].to_numpy()
    ts = t["ts"].cast(pa.int64()).to_numpy()
    et = np.asarray(t["event_type"].to_pylist())
    want = {}
    for u in np.unique(uid):
        m = uid == u
        clicks = ts[m & (et == "click")]
        if not len(clicks):
            continue
        mc = clicks.min()
        purch = ts[m & (et == "purchase")]
        purch = purch[purch >= mc]
        if len(purch):
            want[int(u)] = int((purch.min() - mc) // 1_000_000)
    assert got == want


def test_benford_prices_shares(ray_session):
    from vfs_index_ray.pipelines.analytics import q_benford_prices

    got = q_benford_prices(SF).to_pylist()
    t = pq.read_table(f"{SF}/orders.parquet", columns=["o_totalprice"])
    cents = np.floor(t["o_totalprice"].to_numpy() * 100 + 0.5
                     ).astype(np.int64)
    digits = np.array([int(str(c)[0]) for c in cents])
    total = len(digits)
    for r in got:
        n = int((digits == r["digit"]).sum())
        assert r["n"] == n
        assert r["share_x1e6"] == n * 10**6 // total
    assert sum(r["n"] for r in got) == total


def test_grouped_search_is_per_facet_filtered(ray_session):
    """Each facet's rows equal the filtered ranked path for that
    facet, and scores are the GLOBAL BM25 scores (model unchanged by
    the facet filter)."""
    from vfs_index_ray.pipelines.common import _doc_file, get_engine
    from vfs_index_ray.pipelines.index import q_grouped_search
    from vfs_index_ray.planner import QueryExecutor

    got = q_grouped_search(SF).to_pylist()
    eng = get_engine(SF)
    ex = QueryExecutor(eng, [_doc_file(SF)], text_col="text",
                       id_col="doc_id")
    langs = {r["lang"] for r in got}
    assert len(langs) >= 2
    for lg in langs:
        docs, scores = ex.ranked(
            f'text.search("spark join") && lang == "{lg}"', k=3)
        rows = [r for r in got if r["lang"] == lg]
        assert [r["doc_id"] for r in rows] == list(docs)
        assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))


def test_events_wow_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.common import _sdiv
    from vfs_index_ray.pipelines.events import q_events_wow

    got = q_events_wow(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_type", "ts"])
    w = t["ts"].cast(pa.int64()).to_numpy() // 604_800_000_000
    et = np.asarray(t["event_type"].to_pylist())
    want = []
    for e in np.unique(et):
        wk, cnt = np.unique(w[et == e], return_counts=True)
        for i in range(1, len(wk)):
            want.append({"event_type": str(e), "week": int(wk[i]),
                         "n": int(cnt[i]),
                         "chg_x1e6": _sdiv((int(cnt[i])
                                            - int(cnt[i - 1]))
                                           * 10**6, int(cnt[i - 1]))})
    assert got == want


def test_events_peak_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.events import q_events_peak

    got = q_events_peak(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_type", "ts"])
    us = t["ts"].cast(pa.int64()).to_numpy()
    et = np.asarray(t["event_type"].to_pylist())
    hop = 300_000_000
    for r in got:
        tt = us[et == r["event_type"]]
        wins = {}
        for x in tt:
            base = (int(x) // hop) * hop
            for k in range(6):
                w = base - k * hop
                wins[w] = wins.get(w, 0) + 1
        best = min(((-n, w) for w, n in wins.items()))
        assert (r["window_us"], r["peak_n"]) == (best[1], -best[0])


def test_pareto_users_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.analytics import q_pareto_users

    got = q_pareto_users(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet", columns=["user_id"])
    u, c = np.unique(t["user_id"].to_numpy(), return_counts=True)
    order = np.lexsort((u, -c))
    cs = c[order]
    total = int(cs.sum())
    for r in got:
        top = int(cs[:r["k"]].sum())
        assert r["events"] == top
        assert r["share_x1e6"] == top * 10**6 // total


def test_orders_rfm_matches_duckdb(ray_session):
    import duckdb

    from vfs_index_ray.pipelines.analytics import q_orders_rfm

    got = q_orders_rfm(SF).to_pylist()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    want = con.sql("""
WITH c AS (
  SELECT o_custkey, max(epoch_us(o_orderdate)) AS last_us,
         count(*)::BIGINT AS cnt,
         sum(CAST(floor(o_totalprice*100+0.5) AS BIGINT))::BIGINT
           AS cents
  FROM orders GROUP BY 1
), b AS (
  SELECT ntile(5) OVER (ORDER BY last_us DESC, o_custkey) AS r,
         ntile(5) OVER (ORDER BY cnt DESC, o_custkey) AS f,
         ntile(5) OVER (ORDER BY cents DESC, o_custkey) AS m
  FROM c)
SELECT r::BIGINT AS r, f::BIGINT AS f, m::BIGINT AS m,
       count(*)::BIGINT AS n_customers
FROM b GROUP BY 1,2,3 ORDER BY 1,2,3""").df().to_dict("records")
    assert got == want
    assert sum(x["n_customers"] for x in got) > 0


def test_events_dow_shares(ray_session):
    from vfs_index_ray.pipelines.events import q_events_dow

    got = q_events_dow(SF).to_pylist()
    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_type", "ts"])
    days = t["ts"].cast(pa.int64()).to_numpy() // 86_400_000_000
    dow = (days + 4) % 7
    et = np.asarray(t["event_type"].to_pylist())
    # 1970-01-01 is a Thursday: the closed form maps it to 4 (Sun=0)
    assert ((0 + 4) % 7) == 4
    for r in got:
        m = et == r["event_type"]
        n = int((dow[m] == r["dow"]).sum())
        assert r["n"] == n
        assert r["share_x1e6"] == n * 10**6 // int(m.sum())


def test_orders_monthly_matches_bruteforce(ray_session):
    from vfs_index_ray.pipelines.tpch import q_orders_monthly

    got = q_orders_monthly(SF).to_pylist()
    t = pq.read_table(f"{SF}/orders.parquet",
                      columns=["o_orderdate", "o_totalprice"])
    m = (t["o_orderdate"].cast(pa.int64()).to_numpy()
         .astype("datetime64[us]").astype("datetime64[M]")
         .astype(np.int64))
    cents = np.floor(t["o_totalprice"].to_numpy() * 100 + 0.5
                     ).astype(np.int64)
    for r in got:
        key = (r["year"] - 1970) * 12 + (r["month"] - 1)
        sel = m == key
        assert r["n_orders"] == int(sel.sum())
        assert r["revenue_cents"] == int(cents[sel].sum())
    assert sum(r["n_orders"] for r in got) == t.num_rows


def test_nation_balance_iqr_negative_values(ray_session):
    """Per-nation robust stats match brute force (this synthetic
    fixture has no negative balances; the grid kernel itself is
    sign-agnostic — floor(v*1e4+0.5) on both sides)."""
    from vfs_index_ray.pipelines.analytics import q_nation_balance_iqr

    got = q_nation_balance_iqr(SF).to_pylist()
    t = pq.read_table(f"{SF}/supplier.parquet",
                      columns=["s_nationkey", "s_acctbal"])
    v = np.floor(t["s_acctbal"].to_numpy() * 10000.0 + 0.5
                 ).astype(np.int64)
    nk = t["s_nationkey"].to_numpy()
    for r in got:
        g = np.sort(v[nk == r["nation_key"]])
        n = len(g)
        q1 = int(g[(n * 25 + 99) // 100 - 1])
        q3 = int(g[(n * 75 + 99) // 100 - 1])
        out = int(((2 * g < 5 * q1 - 3 * q3)
                   | (2 * g > 5 * q3 - 3 * q1)).sum())
        assert (r["n"], r["q1_x1e4"], r["q3_x1e4"],
                r["n_outliers"]) == (n, q1, q3, out)
