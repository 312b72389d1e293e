"""Differential tests: Ray engine vs single-process oracle (SURVEY §5).

The FIXTURES.md query set: term equality, AND intersection, short-query
empty, df counts, limit, top-k BM25 rank-identical (doc ids AND fp64
scores), distributed-path equality, determinism across parallelism."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus


@pytest.fixture(scope="module")
def engine(built_index, pages_file):
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    return SearchEngine(idx, corpus_files=[pages_file], id_col="doc_id")


QUERIES = [
    corpus.RARE_TERM,                       # planted rare term, df=4
    corpus.PHRASE,                          # planted phrase
    "bababa",                               # Zipf head term
    "bababa babade",                        # head + mid AND
    corpus.RARE_TERM + " bababa",           # rare + head
    "nosuchtoken42",                        # absent term
]


def test_stats_match_oracle(built_index, oracle_index):
    _, stats = built_index
    assert stats["n_docs"] == oracle_index.ndocs
    assert stats["avgdl"] == pytest.approx(oracle_index.avgdl, rel=1e-12)


@pytest.mark.parametrize("q", QUERIES)
def test_match_identical(engine, oracle_index, q):
    assert engine.match(q).tolist() == oracle_index.match(q)


def test_rare_term_df(engine):
    # planted df == 4 (analog of the reference's 活動内 df test)
    assert engine.df(corpus.RARE_TERM) == {corpus.RARE_TERM: 4}


def test_count(engine, oracle_index):
    assert engine.count(corpus.PHRASE) == oracle_index.count(corpus.PHRASE) == 3


@pytest.mark.parametrize("q", QUERIES)
@pytest.mark.parametrize("k", [3, 10, 50])
def test_bm25_rank_identical(engine, oracle_index, q, k):
    docs, scores = engine.bm25(q, k)
    expected = oracle_index.bm25(q, k)
    assert [int(d) for d in docs] == [d for d, _ in expected]
    # fp64 scores identical (fixed accumulation order), not approx
    assert [float(s) for s in scores] == [s for _, s in expected]


@pytest.mark.parametrize("q", QUERIES)
def test_bm25_maxscore_identical_to_exact(engine, q):
    de, se = engine.bm25(q, 10, method="exact")
    dm, sm = engine.bm25(q, 10, method="maxscore")
    assert de.tolist() == dm.tolist()
    assert se.tolist() == sm.tolist()


def test_fetch_rows_semijoin(engine, pages_file):
    docs = engine.match(corpus.RARE_TERM)
    rows = engine.fetch_rows(docs, columns=["url", "text"])
    assert rows.num_rows == 4
    assert all(corpus.RARE_TERM in t for t in rows["text"].to_pylist())


def test_text_byte_identical_per_url(pages_file):
    # per-row invariant (input_hint): text carried through untouched
    tbl = pq.read_table(pages_file, columns=["url", "text"])
    regen = corpus.generate_pages(tbl.num_rows)
    assert tbl["text"].to_pylist() == regen["text"].to_pylist()


def test_build_deterministic_across_parallelism(ray_session, pages_file,
                                                tmp_path, built_index,
                                                monkeypatch):
    """Two builds at different parallelism → identical segment contents
    (FIXTURES.md item 10). A 16 KB task budget splits the second
    build's wave into dozens of tokenize tasks."""
    from vfs_index_ray import build
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    idx1, _ = built_index
    idx2 = str(tmp_path / "idx2")
    monkeypatch.setattr(build, "WAVE_TASK_BYTES", 16 << 10)
    IndexBuilder(idx2, mode="word", num_parts=8, id_col=None
                 ).build([pages_file])
    e1, e2 = SearchEngine(idx1), SearchEngine(idx2)
    for q in QUERIES:
        d1, s1 = e1.bm25(q, 20)
        d2, s2 = e2.bm25(q, 20)
        assert d1.tolist() == d2.tolist()
        assert s1.tolist() == s2.tolist()
    # segment files logically identical
    from vfs_index_ray.segment import SegmentReader
    r1, r2 = SegmentReader(idx1), SegmentReader(idx2)
    for p in range(8):
        assert r1.read_range(p).equals(r2.read_range(p)), p


@pytest.mark.parametrize("tasks_per_cpu", [1, 2])
@pytest.mark.parametrize("files_per_cpu", [0, 3])
def test_wave_spill_files_bounded_by_cpus(ray_session, tmp_path,
                                          monkeypatch, tasks_per_cpu,
                                          files_per_cpu):
    """A wave runs one read→tokenize→write task per cluster CPU, so it
    writes CPUs × num_parts spill files, also when it reads more files
    than there are CPUs, or one file (0 per CPU) that Ray Data would
    read and tokenize in one task; a wave over ``WAVE_TASK_BYTES`` per
    CPU runs (and writes for) more tasks. A 16 KB block cap gives the
    read the block count of a large file."""
    import os

    import ray

    from vfs_index_ray import build
    from vfs_index_ray.build import IndexBuilder

    pages = corpus.generate_pages(600)
    ncpu = int(ray.cluster_resources()["CPU"])
    n_files = max(1, files_per_cpu * ncpu)
    monkeypatch.setattr(build, "WAVE_BLOCK_BYTES", 16 << 10)
    files = []
    for i, lo in enumerate(range(0, 600, 600 // n_files)):
        files.append(str(tmp_path / f"p{i:02d}.parquet"))
        pq.write_table(pages.slice(lo, 600 // n_files), files[-1])
    if tasks_per_cpu > 1:
        nbytes = sum(build._column_bytes(pq.read_metadata(f),
                                         ["text", "url"]) for f in files)
        monkeypatch.setattr(build, "WAVE_TASK_BYTES",
                            -(-nbytes // (tasks_per_cpu * ncpu)))
    b = IndexBuilder(str(tmp_path / "idx"), mode="word", num_parts=8,
                     id_col=None)
    b.build_postings_wave(0, files)
    spill = [f for _, _, fs in os.walk(f"{b.postings_dir}/wave=0000")
             for f in fs]
    assert (tasks_per_cpu * ncpu - 1) * 8 < len(spill) \
        <= tasks_per_cpu * ncpu * 8


@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("id_col", ["doc_id", None])
def test_spill_files_are_sorted_runs(ray_session, pages_file, tmp_path,
                                     positions, id_col):
    """Phase 1's spill contract: every spill file of a small build (one
    block per task) holds postings in ``postings_schema(positions)``,
    sorted by (term_id, doc_id), all of its part — with dense ids and
    with url-hash ids, which the tokenizer puts in order first."""
    import os

    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.segment import postings_schema

    b = IndexBuilder(str(tmp_path / "idx"), mode="word", num_parts=8,
                     id_col=id_col, positions=positions)
    b.build_postings_wave(0, [pages_file])
    n = 0
    for root, _, names in os.walk(f"{b.postings_dir}/wave=0000"):
        for name in names:
            t = pq.ParquetFile(os.path.join(root, name)).read()
            assert t.schema.equals(postings_schema(positions))
            terms = t["term_id"].to_numpy()
            docs = t["doc_id"].to_numpy()
            assert ((terms[1:] > terms[:-1])
                    | ((terms[1:] == terms[:-1])
                       & (docs[1:] > docs[:-1]))).all()
            part = int(os.path.basename(root).removeprefix("part="))
            assert (terms % 8 == part).all()
            n += t.num_rows
    assert n > 0


def test_phrase_match(engine, pages_file):
    """Index-AND candidates + substring verification (phrase search)."""
    import pyarrow.parquet as pqx

    docs = engine.phrase_match(corpus.PHRASE)
    assert len(docs) == 3  # the planted phrase rows
    texts = {t for t in engine.fetch_rows(docs, columns=["text"])
             ["text"].to_pylist()}
    assert all(corpus.PHRASE in t for t in texts)
    # tokens co-occur but not adjacent → verified out
    tbl = pqx.read_table(pages_file, columns=["text"])
    scattered = [t for t in tbl["text"].to_pylist()
                 if all(w in t.split() for w in corpus.PHRASE.split())
                 and corpus.PHRASE not in t]
    n_all_tokens = len(engine.match(corpus.PHRASE))
    assert n_all_tokens == len(docs) + len(scattered)
    assert engine.phrase_match("nosuchtokenzz phrase").tolist() == []


def test_query_actor_batch(ray_session, built_index, oracle_index):
    """Actor-pool batch scorer returns per-query ranked results."""
    import ray.data

    from vfs_index_ray.search import QueryActor

    idx, _ = built_index
    qs = [corpus.RARE_TERM, corpus.PHRASE, "bababa"]
    out = ray.data.from_items([{"query": q} for q in qs]).map_batches(
        QueryActor, fn_constructor_kwargs=dict(index_dir=idx, k=5),
        batch_format="pyarrow", concurrency=1).take_all()
    by_q = {}
    for r in out:
        by_q.setdefault(r["query"], []).append((r["rank"], r["doc_id"],
                                                r["score"]))
    for q in qs:
        got = sorted(by_q.get(q, []))
        expected = oracle_index.bm25(q, 5)
        assert [d for _, d, _ in got] == [d for d, _ in expected], q
        assert [s for _, _, s in got] == [s for _, s in expected], q


def test_bm25_auto_method_identical(engine, oracle_index):
    """method='auto' picks a pruned path for big multi-term queries and
    stays bit-identical to exact (the engine-wide invariant); a method
    outside the accepted set is an error, never a silent exact run."""
    for q in QUERIES:
        de, se = engine.bm25(q, 10, "exact")
        da, sa = engine.bm25(q, 10, "auto")
        assert de.tolist() == da.tolist()
        assert se.tolist() == sa.tolist()
    for bad in ("typo", "blockmax"):
        with pytest.raises(ValueError, match="exact, maxscore, auto"):
            engine.bm25(QUERIES[0], 10, bad)
        with pytest.raises(ValueError, match="exact, maxscore, auto"):
            engine.explain(QUERIES[0], 10, bad)


def test_bm25_search_after_pages_tile_deep_topk(engine):
    """Cursor pagination invariant: walking pages of k=7 via
    search_after reproduces one deep top-k exactly (ranks, docs,
    fp64 scores), for head-heavy and rare+head query shapes."""
    for q in ["bababa babade", corpus.RARE_TERM + " bababa"]:
        deep_d, deep_s = engine.bm25(q, 50)
        got_d, got_s = [], []
        cursor = None
        while len(got_d) < len(deep_d):
            d, s = engine.bm25(q, 7, search_after=cursor)
            if len(d) == 0:
                break
            got_d.extend(d.tolist())
            got_s.extend(s.tolist())
            cursor = (float(s[-1]), int(d[-1]))
        n = len(deep_d)  # last 7-row page can overshoot the deep k
        assert got_d[:n] == deep_d.tolist(), q
        assert got_s[:n] == deep_s.tolist(), q


def test_bm25_search_after_empty_past_end(engine):
    d, s = engine.bm25("bababa", 10)
    d2, _ = engine.bm25("bababa", 10,
                        search_after=(float(s[-1]), int(d[-1])))
    # cursor strictly advances: nothing from page 1 reappears
    assert set(d2.tolist()).isdisjoint(set(d.tolist()))
