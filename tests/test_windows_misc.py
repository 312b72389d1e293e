"""Session windows, nearest/last lookups, head suppression, budgeted
merge rounds."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus


def test_sessionize_vs_pandas(ray_session):
    import ray.data

    from vfs_index_ray.functions.windows import sessionize_table
    src = "/root/testdata/sf0.001/events.parquet"
    ds = ray.data.read_parquet(src, columns=["event_id", "user_id", "ts"])
    got = sessionize_table(ds, gap_minutes=30).to_pandas()
    # independent pandas implementation
    df = pq.read_table(src, columns=["event_id", "user_id", "ts"]
                       ).to_pandas().sort_values(["user_id", "ts",
                                                  "event_id"])
    want_rows = []
    for uid, g in df.groupby("user_id"):
        sess = (g["ts"].diff() > pd.Timedelta(minutes=30)).cumsum()
        for sid, sg in g.groupby(sess):
            want_rows.append((uid, int(sid), sg["ts"].min(),
                              sg["ts"].max(), len(sg)))
    want = pd.DataFrame(want_rows, columns=["user_id", "session_id",
                                            "session_start", "session_end",
                                            "n_events"])
    got = got.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    want = want.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_latest_per_key_vs_pandas(ray_session):
    import ray.data

    from vfs_index_ray.functions.windows import latest_per_key
    src = "/root/testdata/sf0.001/events.parquet"
    ds = ray.data.read_parquet(src, columns=["event_id", "user_id", "ts"])
    rows = latest_per_key(ds).take_all()
    got = pd.DataFrame(rows)[["user_id", "event_id"]].sort_values(
        "user_id").reset_index(drop=True)
    df = pq.read_table(src, columns=["event_id", "user_id", "ts"]
                       ).to_pandas()
    want = (df.sort_values(["user_id", "ts", "event_id"])
              .groupby("user_id").tail(1)[["user_id", "event_id"]]
              .sort_values("user_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # one row per key, always
    assert got["user_id"].is_unique


def test_decontaminate_modes(ray_session):
    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions.textstats import Decontaminate
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["clean text here", "has probe one inside",
                          "probe two and probe one", "also clean"]),
    })
    ds = ray.data.from_arrow(tbl)
    clean = ds.map_batches(
        Decontaminate(["probe one", "probe two"]),
        batch_format="pyarrow").take_all()
    assert sorted(r["doc_id"] for r in clean) == [0, 3]
    flagged = ds.map_batches(
        Decontaminate(["probe one", "probe two"], mode="flag"),
        batch_format="pyarrow").take_all()
    # first matching probe wins (doc 2 contains both -> idx 0)
    assert {r["doc_id"]: r["probe_idx"] for r in flagged} == {1: 0, 2: 0}
    # null text counts as uncontaminated (documented contract)
    tbl_null = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["has probe one", None, "clean"], pa.string()),
    })
    ds_null = ray.data.from_arrow(tbl_null)
    clean_null = ds_null.map_batches(
        Decontaminate(["probe one"]), batch_format="pyarrow").take_all()
    assert sorted(r["doc_id"] for r in clean_null) == [1, 2]
    flag_null = ds_null.map_batches(
        Decontaminate(["probe one"], mode="flag"),
        batch_format="pyarrow").take_all()
    assert [r["doc_id"] for r in flag_null] == [0]


def test_chunk_documents_paths_agree():
    import pyarrow as pa

    from vfs_index_ray.functions.textstats import ChunkDocuments
    ck = ChunkDocuments(window=8, stride=5)
    texts = ["", "short", "exactly8", "a" * 13, "0123456789abcdefgh",
             "x" * 5, "y" * 18]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    fast = ck(tbl)
    # force the python fallback by appending a non-ascii row, then
    # compare the shared prefix (same docs chunk identically)
    tbl2 = pa.table({
        "doc_id": pa.array(list(range(len(texts))) + [99], pa.int64()),
        "text": pa.array(texts + ["日本語テキストのチャンク分割テスト"])})
    slow = ck(tbl2)
    k = fast.num_rows
    assert fast.equals(slow.slice(0, k))
    # brute-force semantics
    want = []
    for i, t in enumerate(texts):
        nchunks = 1 + max(0, -(-(len(t) - 8) // 5))
        for j in range(nchunks):
            want.append((i, j, t[j * 5:j * 5 + 8]))
    got = list(zip(fast["doc_id"].to_pylist(), fast["chunk_id"].to_pylist(),
                   fast["chunk"].to_pylist()))
    assert got == want
    # non-ascii row chunks by CODE POINTS, not bytes
    ja = slow.slice(k)
    assert ja["chunk"].to_pylist()[0] == "日本語テキストのチャンク分割テスト"[:8]


def test_redact_regex(ray_session):
    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions.textstats import RedactRegex
    tbl = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["mail me at a.b@x.io or c@y.z now",
                          "no addresses here"]),
    })
    out = ray.data.from_arrow(tbl).map_batches(
        RedactRegex(r"[A-Za-z0-9._]+@[A-Za-z0-9.]+", "<EMAIL>"),
        batch_format="pyarrow").take_all()
    by_id = {r["doc_id"]: r["text"] for r in out}
    assert by_id[0] == "mail me at <EMAIL> or <EMAIL> now"
    assert by_id[1] == "no addresses here"


def test_last(built_index, pages_file, oracle_index):
    from vfs_index_ray.planner import QueryExecutor
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx, corpus_files=[pages_file])
    ex = QueryExecutor(eng, [pages_file], text_col="text", id_col="doc_id")
    q = f'text.search("{corpus.RARE_TERM}")'
    assert ex.last(q) == oracle_index.match(corpus.RARE_TERM)[-1]
    assert ex.last('text.search("nosuchtokenzz")') is None


def test_nearest(built_index, pages_file):
    from vfs_index_ray.hashing import doc_id_from_url
    from vfs_index_ray.planner import QueryExecutor
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx, corpus_files=[pages_file])
    # nearest over a derived numeric column: use warc_ts microseconds? the
    # pages table has no numeric col except timestamps; check against the
    # documents testdata instead
    src = "/root/testdata/sf0.001/documents.parquet"
    ex = QueryExecutor(eng, [src], text_col="text", id_col="doc_id")
    hit = ex.nearest("n_chars", 300)
    tbl = pq.read_table(src, columns=["doc_id", "n_chars"]).to_pandas()
    tbl["d"] = (tbl["n_chars"] - 300).abs()
    best = tbl.sort_values(["d", "n_chars", "doc_id"]).iloc[0]
    assert hit["doc_id"] == best["doc_id"]
    assert hit["n_chars"] == best["n_chars"]


def test_cooccur_filter_head(built_index):
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx)
    # >10 keys per side with a mix of head and tail terms
    head_tail = " ".join(["bababa", "babade", corpus.RARE_TERM] +
                         [f"tok{i}" for i in range(9)])
    d_plain = eng.cooccur_distance(head_tail, head_tail)
    d_filt = eng.cooccur_distance(head_tail, head_tail, filter_head=True)
    # suppression drops above-median-df keys → fewer pairs, both defined
    assert 0.0 <= d_filt <= 1.0 and 0.0 <= d_plain <= 1.0
    # identical queries with only rare terms kept still self-match
    assert eng.cooccur_distance(corpus.RARE_TERM, corpus.RARE_TERM,
                                filter_head=True) == 0.0


def test_merge_budgeted_rounds(ray_session, tmp_path):
    """max_parts bounds a merge round; rounds resume to completion
    (MergeDuration analog)."""
    import pyarrow.parquet as pq2

    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.merge import merge_indexes
    from vfs_index_ray.search import SearchEngine

    pages = corpus.generate_pages(300)
    a = str(tmp_path / "a.parquet")
    b = str(tmp_path / "b.parquet")
    pq2.write_table(pages.slice(0, 150), a)
    pq2.write_table(pages.slice(150, 150), b)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    IndexBuilder(ia, mode="word", num_parts=8, id_col=None).build([a])
    IndexBuilder(ib, mode="word", num_parts=8, id_col=None).build([b])
    out = str(tmp_path / "merged")
    r1 = merge_indexes([ia, ib], out, max_parts=3)
    assert r1["status"] == "partial" and r1["parts_remaining"] == 5
    r2 = merge_indexes([ia, ib], out, max_parts=8)
    assert r2["n_docs"] == 300
    # the report covers every part, not just the last round's
    assert [r["part"] for r in r2["merge_report"]] == list(range(8))
    for r in r2["merge_report"]:
        assert r["n_merged"] == sum(r["n_sources"]) - r["overlap"]
    full = str(tmp_path / "full")
    IndexBuilder(full, mode="word", num_parts=8, id_col=None).build([a, b],
                                                                    waves=2)
    e1, e2 = SearchEngine(out), SearchEngine(full)
    for q in [corpus.RARE_TERM, "bababa babade"]:
        d1, s1 = e1.bm25(q, 10)
        d2, s2 = e2.bm25(q, 10)
        assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()


def test_json_extract_int_missing_and_negative(ray_session):
    import pyarrow as pa

    from vfs_index_ray.functions.windows import JsonExtractInt
    t = pa.table({"props": pa.array(
        ['{"k": 7}', '{"k": -3, "z": 1}', '{"other": 5}', "", None],
        pa.string())})
    out = JsonExtractInt("k")(t)
    assert out["k"].to_pylist() == [7, -3, None, None, None]


def test_disk_shuffle_identical_to_sort_shuffle(ray_session, tmp_path,
                                               disk_calls):
    """The keyed-partition ops produce identical results on Ray Data's
    sort-shuffle groupby (the default on a small input) and the
    hive-partitioned disk spill (forced by ``spill_dir``)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions import windows as W
    from vfs_index_ray.functions.sampling import budget_mix as _budget_mix_op

    rng = np.random.default_rng(23)
    n = 2000
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array((rng.integers(0, 86_400, n) * 1_000_000
                        ).astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, 40, n)),
        "event_type": pa.array(
            np.array(["click", "purchase", "view"])[rng.integers(0, 3, n)]),
        "value": pa.array(rng.random(n)),
        "source": pa.array(
            np.array(["a", "b", "c"])[rng.integers(0, 3, n)]),
        "n_chars": pa.array(rng.integers(1, 500, n)),
    })

    def rows(out, keys):
        return sorted((tuple(r[k] for k in keys) for r in out.take_all()))

    for op, kw, keys in [
        (W.sessionize, {}, ["user_id", "session_id", "session_start",
                            "session_end", "n_events"]),
        (W.latest_per_key, {}, ["user_id", "event_id"]),
        (W.asof_prior, {"left_type": "purchase", "right_type": "click"},
         ["event_id", "match_event_id", "lag_us"]),
        (W.window_count_prior,
         {"left_type": "purchase", "right_type": "click"},
         ["event_id", "n_window"]),
        (W.pack_by_budget, {"key_col": "source", "order_col": "event_id",
                            "weight_col": "n_chars", "budget": 2048},
         ["event_id", "pack_id"]),
        (_budget_mix_op, {"key_col": "source", "id_col": "event_id",
                          "weight_col": "n_chars", "budget": 4096},
         ["source", "event_id", "prio", "weight", "cum_weight"]),
    ]:
        disk_calls.clear()
        a = rows(op(ray.data.from_arrow(t), spill_dir=str(tmp_path),
                    **kw), keys)
        assert disk_calls == ["winpart_"]
        b = rows(op(ray.data.from_arrow(t), **kw), keys)
        assert disk_calls == ["winpart_"]  # the default ran the groupby
        assert a == b and len(a) > 0


def test_exact_dedup_disk_identical_to_sort(ray_session, tmp_path,
                                            disk_calls):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions.dedup import exact_dedup

    rng = np.random.default_rng(31)
    texts = [f"doc {i % 37}" for i in range(300)]  # planted dup groups
    t = pa.table({"doc_id": pa.array(np.arange(300, dtype=np.int64)),
                  "text": pa.array(texts)})

    def rows(**kw):
        out = exact_dedup(ray.data.from_arrow(t), **kw)
        return sorted((r["h"], r["doc_id"], r["n"])
                      for r in out.take_all())

    a = rows(spill_dir=str(tmp_path))
    assert disk_calls == ["winpart_"]
    b = rows()
    assert disk_calls == ["winpart_"]  # the default ran the groupby
    assert a == b and len(a) == 37


def test_substrate_rule_picks_disk_or_sort(ray_session, tmp_path,
                                           monkeypatch, disk_calls):
    """``windows._use_disk`` is the one disk-or-sort rule: an input
    over ``AUTO_DISK_BYTES`` or a caller's ``spill_dir`` takes the disk
    spill — for a windows op, ``exact_dedup`` and both of
    ``cooccur_pairs``' partial and merge — and a small input takes Ray
    Data's groupby; the three runs agree row for row."""
    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions import windows as W
    from vfs_index_ray.functions.dedup import exact_dedup
    from vfs_index_ray.functions.pairs import cooccur_pairs

    rng = np.random.default_rng(41)
    n = 600
    events = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array((rng.integers(0, 86_400, n) * 1_000_000
                        ).astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, 25, n)),
    })
    docs = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "text": pa.array([f"doc {i % 53}" for i in range(n)])})
    baskets = pa.table({
        "g": pa.array(rng.integers(0, 80, n), pa.int64()),
        "it": pa.array([f"t{int(x)}" for x in rng.integers(0, 7, n)])})
    default_bytes = W.AUTO_DISK_BYTES

    def rows(out):
        return sorted(tuple(r.values()) for r in out.take_all())

    for run, spills in [
        (lambda **kw: W.sessionize(ray.data.from_arrow(events), **kw),
         ["winpart_"]),
        (lambda **kw: exact_dedup(ray.data.from_arrow(docs), **kw),
         ["winpart_"]),
        (lambda **kw: cooccur_pairs(ray.data.from_arrow(baskets),
                                    group_col="g", item_col="it", **kw),
         ["winpart_", "hashagg_"]),
    ]:
        disk_calls.clear()
        sort = rows(run())
        assert disk_calls == []
        forced = rows(run(spill_dir=str(tmp_path)))
        assert disk_calls == spills
        disk_calls.clear()
        monkeypatch.setattr(W, "AUTO_DISK_BYTES", 0)
        large = rows(run())
        monkeypatch.setattr(W, "AUTO_DISK_BYTES", default_bytes)
        assert disk_calls == spills
        assert sort == forced == large and len(sort) > 0


def test_substrate_rule_never_executes_its_input(ray_session, tmp_path,
                                                monkeypatch):
    """``_use_disk`` sizes a derived input from the nearest upstream
    operator whose size is known (here the parquet read) and runs none
    of the plan: the map function of a ``map_batches`` over the read
    runs zero times while the rule decides, both ways."""
    import os
    import time

    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions import windows as W

    src = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": np.arange(5000, dtype=np.int64)}), src)
    calls = tmp_path / "calls"
    calls.mkdir()

    def mark(batch):
        (calls / f"{os.getpid()}-{time.monotonic_ns()}").touch()
        return batch

    read = ray.data.read_parquet(src)
    mapped = read.map_batches(mark, batch_format="pyarrow")
    size = read._logical_plan.dag.infer_metadata().size_bytes
    assert size and mapped._logical_plan.dag.infer_metadata(
    ).size_bytes is None
    assert W._plan_size_bytes(mapped._logical_plan.dag) == (size, True)
    # a union with a source of unknown size keeps the known bytes
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class Unsized(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism, **kw):
            meta = BlockMetadata(num_rows=None, size_bytes=None,
                                 input_files=None, exec_stats=None)
            return [ReadTask(lambda: [mark(pa.table({"x": [0]}))], meta)]

    union = mapped.union(ray.data.read_datasource(Unsized()))
    assert W._plan_size_bytes(union._logical_plan.dag) == (size, False)
    monkeypatch.setattr(W, "AUTO_DISK_BYTES", size)
    assert not W._use_disk(mapped, None)
    assert not W._use_disk(union, None)
    monkeypatch.setattr(W, "AUTO_DISK_BYTES", size - 1)
    assert W._use_disk(mapped, None)
    assert W._use_disk(union, None)
    assert list(calls.iterdir()) == []
    assert len(mapped.take_all()) == 5000 and list(calls.iterdir())


def test_budget_mix_greedy_semantics():
    """The kernel keeps docs in (mix32(id), id) order while the key's
    exclusive prefix-sum is under budget — the crossing doc is kept,
    everything after it dropped; keys are independent."""
    import pyarrow as pa

    from vfs_index_ray.functions.sampling import _budget_mix_kernel
    from vfs_index_ray.hashing import mix32

    ids = np.arange(10, dtype=np.int64)
    t = pa.table({
        "source": pa.array(["a"] * 5 + ["b"] * 5),
        "doc_id": pa.array(ids),
        "n_chars": pa.array(np.full(10, 30, np.int64)),
    })
    out = _budget_mix_kernel(t, "source", "doc_id", "n_chars", 100)
    # 30-char docs, budget 100: excl sums 0,30,60,90 < 100 -> 4 docs
    # per key (the 4th crosses 100 and is kept), the 5th dropped
    assert out.num_rows == 8
    per = out.to_pydict()
    for key in ("a", "b"):
        rows = [(p, d, c) for s, d, p, c in zip(
            per["source"], per["doc_id"], per["prio"], per["cum_weight"])
            if s == key]
        assert len(rows) == 4
        assert [c for _, _, c in rows] == [30, 60, 90, 120]
        # priority order == mix32 order over that key's ids
        kid = ids[:5] if key == "a" else ids[5:]
        want = sorted(zip(mix32(kid).tolist(), kid.tolist()))[:4]
        assert [(p, d) for p, d, _ in rows] == want


def test_running_total_negative_values(ray_session):
    """Per-key running sums with NEGATIVE values: the run-base repeat
    must stay exact (a monotonicity-assuming accumulate would not)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from vfs_index_ray.functions.windows import running_total

    n = 400
    g = np.random.Generator(np.random.Philox(key=[77, 0]))
    users = g.integers(0, 7, n).astype(np.int64)
    vals = g.uniform(-5, 5, n).round(4)
    ts = np.datetime64("2026-01-01", "us") + \
        g.integers(0, 10**9, n).astype("timedelta64[us]")
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array(users, pa.int64()),
        "value": pa.array(vals, pa.float64()),
    })
    out = running_total(ray.data.from_arrow(t))
    got = pa.concat_tables(ray.get(out.to_arrow_refs())).combine_chunks()
    got = {e: r for e, r in zip(got["event_id"].to_pylist(),
                                got["running_x1e4"].to_pylist())}
    # brute force
    order = np.lexsort((np.arange(n), ts, users))
    q = np.floor(vals * 10000.0 + 0.5).astype(np.int64)
    want, acc = {}, {}
    for i in order:
        u = users[i]
        acc[u] = acc.get(u, 0) + int(q[i])
        want[i] = acc[u]
    assert got == want


def test_top_n_per_key_ties_and_partitions(ray_session):
    """Value ties break to the smaller id; partition-count invariant."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from vfs_index_ray.functions.windows import top_n_per_key

    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 2], pa.int64()),
        "value": pa.array([5, 9, 9, 1, 3, 3, 3], pa.int64()),
    })
    want = {(1, 1): 2, (1, 2): 3, (1, 3): 1,   # 9(id2) 9(id3) 5(id1)
            (2, 1): 5, (2, 2): 6, (2, 3): 7}
    for parts in (1, 4):
        out = top_n_per_key(ray.data.from_arrow(t), val_col="value",
                            n=3, num_partitions=parts)
        got = pa.concat_tables(
            ray.get(out.to_arrow_refs())).combine_chunks()
        m = {(u, r): e for u, r, e in zip(got["user_id"].to_pylist(),
                                          got["rank"].to_pylist(),
                                          got["event_id"].to_pylist())}
        assert m == want


def test_lag_moving_stringagg_kernels_vs_pandas(ray_session):
    import numpy as np
    import pyarrow as pa

    from vfs_index_ray.functions.windows import (
        _lag_diff_kernel, _moving_sum_kernel, _string_agg_kernel)
    rng = np.random.default_rng(np.random.Philox(key=[7, 0]))
    n = 5000
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(rng.integers(0, 40, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10**9, n), pa.timestamp("us")),
        "value": pa.array(rng.normal(0, 5, n)),
        "event_type": pa.array([f"t{r}" for r in rng.integers(0, 5, n)]),
    })
    df = t.to_pandas()
    df["us"] = df["ts"].astype("int64")
    df = df.sort_values(["user_id", "us", "event_id"])
    df["gap_us"] = (df.groupby("user_id")["us"].diff()
                    .fillna(-1).astype(np.int64))
    got = _lag_diff_kernel(t, "user_id", "ts", "event_id").to_pandas()
    assert (got.set_index("event_id")["gap_us"].sort_index()
            == df.set_index("event_id")["gap_us"].sort_index()).all()
    df["v"] = np.floor(df["value"].to_numpy() * 10000 + 0.5).astype(np.int64)
    df["ms"] = df.groupby("user_id")["v"].transform(
        lambda s: s.rolling(3, min_periods=1).sum()).astype(np.int64)
    got = _moving_sum_kernel(t, "user_id", "ts", "event_id",
                             "value", 3).to_pandas()
    assert (got.set_index("event_id")["moving_x1e4"].sort_index()
            == df.set_index("event_id")["ms"].sort_index()).all()
    got = _string_agg_kernel(t, "user_id", "ts", "event_id",
                             "event_type", ",").to_pandas()
    want = df.groupby("user_id")["event_type"].agg(",".join)
    assert (got.set_index("user_id")["seq"].sort_index()
            == want.sort_index()).all()
    assert (got.set_index("user_id")["n_events"].sort_index()
            == df.groupby("user_id").size().sort_index()).all()


def test_lag_gaps_distributed_matches_kernel(ray_session):
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from vfs_index_ray.functions.windows import (_lag_diff_kernel,
                                                 lag_gaps)
    src = "/root/testdata/sf0.001/events.parquet"
    cols = ["event_id", "user_id", "ts"]
    ds = ray.data.read_parquet(src, columns=cols)
    got = pa.concat_tables(
        [b for b in lag_gaps(ds).iter_batches(batch_format="pyarrow")]
        or [pa.table({"event_id": [], "user_id": [], "gap_us": []})])
    got = got.take(pc.sort_indices(got, sort_keys=[("event_id",
                                                    "ascending")]))
    want = _lag_diff_kernel(pq.read_table(src, columns=cols),
                            "user_id", "ts", "event_id")
    want = want.take(pc.sort_indices(want, sort_keys=[
        ("event_id", "ascending")]))
    assert got.select(["event_id", "gap_us"]).equals(
        want.select(["event_id", "gap_us"]))


def test_weighted_sample_bounds_and_determinism(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from vfs_index_ray.functions.sampling import weighted_sample

    n = 2000
    rng = np.random.default_rng(31)
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "w": pa.array(rng.integers(0, 2000, n).astype(np.int64)),
    })

    def ids_of(ds):
        got = pa.concat_tables(ray.get(
            weighted_sample(ds, id_col="doc_id", weight_col="w",
                            scale=1000).to_arrow_refs()))
        return sorted(got["doc_id"].to_pylist())

    a = ids_of(ray.data.from_arrow(t))
    b = ids_of(ray.data.from_arrow(t).repartition(13))
    assert a == b  # partitioning-independent
    w = dict(zip(t["doc_id"].to_pylist(), t["w"].to_pylist()))
    kept = set(a)
    # weight >= scale => always kept; weight 0 => never kept
    for d, ww in w.items():
        if ww >= 1000:
            assert d in kept
        if ww == 0:
            assert d not in kept
    # roughly half the mass retained for uniform weights in [0,2000)
    assert 0.5 < len(a) / n < 0.8
