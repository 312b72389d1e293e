"""Planner (M6/M7), merge/compaction (P4) and repartition tests."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus
from vfs_index_ray.planner import Predicate, parse


# ---------------------------------------------------------------- parser
def test_parse_ops():
    p = parse('id == 132763')
    assert p.predicates == [Predicate("id", "==", 132763)]
    p = parse('id >= 10 && id < 99')
    assert [(x.op, x.value) for x in p.predicates] == [(">=", 10), ("<", 99)]


def test_parse_search():
    p = parse('title.search("拉致問") && id == 132763')
    assert p.predicates[0] == Predicate("title", "search", "拉致問")
    assert p.predicates[1] == Predicate("id", "==", 132763)


def test_parse_string_value():
    p = parse('name == "foo bar"')
    assert p.predicates == [Predicate("name", "==", "foo bar")]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse("&& id == 1")
    with pytest.raises(ValueError):
        parse("id == 1 &&")
    with pytest.raises(ValueError):
        parse("id == 1 ??? bogus")
    with pytest.raises(ValueError):
        parse("|| id == 1")
    with pytest.raises(ValueError):
        parse("id == 1 ||")
    with pytest.raises(ValueError):
        parse("id == 1 || && id == 2")
    with pytest.raises(ValueError, match="AND groups"):
        parse(" && ".join(["(a == 1 || b == 2)"] * 40))  # 2^40 groups


def test_parse_negation():
    p = parse('a == 1 && !b.search("x")')
    assert [x.negated for x in p.predicates] == [False, True]
    assert p.predicates[1].op == "search"
    with pytest.raises(ValueError):
        parse("!")
    with pytest.raises(ValueError):
        parse("! && a == 1")
    # double negation cancels (NNF pushdown) — round-5 paren grammar
    p2 = parse("!!a == 1")
    assert [x.negated for x in p2.predicates] == [False]


def test_parse_or_groups():
    # && binds tighter than || (DNF groups)
    p = parse('a == 1 && b == 2 || c == 3')
    assert [[(x.column, x.value) for x in g] for g in p.groups] == \
        [[("a", 1), ("b", 2)], [("c", 3)]]
    assert len(p.predicates) == 3  # flat view keeps every predicate
    p = parse('a == 1')
    assert p.groups == [p.predicates]


# ------------------------------------------------------- planner executor
@pytest.fixture(scope="module")
def executor(built_index, pages_file):
    from vfs_index_ray.planner import QueryExecutor
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx, corpus_files=[pages_file])
    return QueryExecutor(eng, [pages_file], text_col="text", id_col="doc_id")


def test_executor_search_only(executor, oracle_index):
    docs = executor.execute(f'text.search("{corpus.RARE_TERM}")')
    assert docs.tolist() == oracle_index.match(corpus.RARE_TERM)


def test_executor_limit(executor, oracle_index):
    docs = executor.execute('text.search("bababa")', limit=3)
    assert len(docs) == 3
    assert docs.tolist() == oracle_index.match("bababa")[:3]


def test_executor_count_all_terms(executor, oracle_index):
    # correct AND-count semantics (NOT the reference's last-fn-only quirk,
    # search_finder.go:325-332)
    q = f'text.search("{corpus.PHRASE.split()[0]} {corpus.PHRASE.split()[1]}")'
    assert executor.count(q) == len(
        oracle_index.match(" ".join(corpus.PHRASE.split()[:2])))


def test_executor_first(executor, oracle_index):
    got = executor.first(f'text.search("{corpus.RARE_TERM}")')
    assert got == oracle_index.match(corpus.RARE_TERM)[0]


def test_executor_and_not(executor, oracle_index):
    a, b = corpus.PHRASE.split()[0], corpus.PHRASE.split()[1]
    got = executor.execute(f'text.search("{a}") && !text.search("{b}")')
    want = sorted(set(oracle_index.match(a)) - set(oracle_index.match(b)))
    assert got.tolist() == want
    # pure NOT is rejected (would need the doc universe)
    with pytest.raises(ValueError, match="positive predicate"):
        executor.execute(f'!text.search("{a}")')
    # negation composes with OR groups
    got = executor.execute(
        f'text.search("{a}") && !text.search("{b}") || '
        f'text.search("{corpus.RARE_TERM}")')
    want = sorted((set(oracle_index.match(a)) -
                   set(oracle_index.match(b))) |
                  set(oracle_index.match(corpus.RARE_TERM)))
    assert got.tolist() == want


def test_ranked_ignores_negated_text_terms(executor, oracle_index):
    """A negated text predicate filters candidates but must not add
    BM25 mass: scores for 'a && !b' equal the a-only scores of the
    surviving docs."""
    a, b = corpus.PHRASE.split()[0], corpus.PHRASE.split()[1]
    docs_n, scores_n = executor.ranked(
        f'text.search("{a}") && !text.search("{b}")', k=10)
    docs_a, scores_a = executor.ranked(f'text.search("{a}")', k=10**9)
    amap = dict(zip(docs_a.tolist(), scores_a.tolist()))
    for d, s in zip(docs_n.tolist(), scores_n.tolist()):
        assert s == amap[d]  # fp64-exact: same single-term contribution
    excluded = set(oracle_index.match(b))
    assert not (set(docs_n.tolist()) & excluded)


def test_executor_dnf_fuzz(executor, oracle_index):
    """Random DNF expressions (1-3 OR groups x 1-3 predicates, random
    negation, >=1 positive per group) vs python set algebra."""
    toks = corpus.PHRASE.split() + [corpus.RARE_TERM]
    sets = {t: set(oracle_index.match(t)) for t in toks}
    rng = np.random.Generator(np.random.Philox(key=[41, 0]))
    for _ in range(30):
        ngroups = int(rng.integers(1, 4))
        groups, want = [], set()
        for _ in range(ngroups):
            npred = int(rng.integers(1, 4))
            picks = [toks[int(i)] for i in
                     rng.integers(0, len(toks), npred)]
            negs = [bool(rng.integers(0, 2)) for _ in picks]
            negs[0] = False  # >=1 positive
            gset = None
            parts = []
            for t, ng in zip(picks, negs):
                parts.append(('!' if ng else '') + f'text.search("{t}")')
            for t, ng in zip(picks, negs):
                if not ng:
                    gset = sets[t] if gset is None else (gset & sets[t])
            for t, ng in zip(picks, negs):
                if ng:
                    gset = gset - sets[t]
            groups.append(" && ".join(parts))
            want |= gset
        q = " || ".join(groups)
        got = executor.execute(q)
        assert got.tolist() == sorted(want), q


def test_executor_or_union(executor, oracle_index):
    a, b = corpus.PHRASE.split()[0], corpus.PHRASE.split()[1]
    got = executor.execute(
        f'text.search("{corpus.RARE_TERM}") || text.search("{a} {b}")')
    want = sorted(set(oracle_index.match(corpus.RARE_TERM)) |
                  set(oracle_index.match(f"{a} {b}")))
    assert got.tolist() == want
    # OR of AND-groups: the && applies within its group only
    got = executor.execute(
        f'text.search("{a}") && text.search("{b}") || '
        f'text.search("{corpus.RARE_TERM}")')
    want = sorted((set(oracle_index.match(a)) &
                   set(oracle_index.match(b))) |
                  set(oracle_index.match(corpus.RARE_TERM)))
    assert got.tolist() == want


# ------------------------------------------------------------- merge
@pytest.fixture(scope="module")
def split_corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("merge_corpora")
    pages = corpus.generate_pages(500)
    a = str(d / "a.parquet")
    b = str(d / "b.parquet")
    ov_a = str(d / "ov_a.parquet")
    ov_b = str(d / "ov_b.parquet")
    pq.write_table(pages.slice(0, 300), a)
    pq.write_table(pages.slice(300, 200), b)
    pq.write_table(pages.slice(0, 350), ov_a)      # rows 0-349
    pq.write_table(pages.slice(300, 200), ov_b)    # rows 300-499 (overlap 50)
    return dict(a=a, b=b, ov_a=ov_a, ov_b=ov_b)


def _build(ray_session, path, out, **kw):
    from vfs_index_ray.build import IndexBuilder
    kw.setdefault("mode", "word")
    kw.setdefault("num_parts", 8)
    kw.setdefault("id_col", None)
    return IndexBuilder(out, **kw).build([path] if isinstance(path, str)
                                         else path)


def test_merge_disjoint_equals_full_build(ray_session, split_corpora,
                                          tmp_path, built_index):
    from vfs_index_ray.merge import merge_indexes
    from vfs_index_ray.search import SearchEngine

    ia = str(tmp_path / "ia")
    ib = str(tmp_path / "ib")
    im = str(tmp_path / "im")
    _build(ray_session, split_corpora["a"], ia)
    _build(ray_session, split_corpora["b"], ib)
    stats = merge_indexes([ia, ib], im)
    assert stats["n_docs"] == 500
    assert sum(r["overlap"] for r in stats["merge_report"]) == 0
    full_idx, _ = built_index
    ef, em = SearchEngine(full_idx), SearchEngine(im)
    for q in [corpus.RARE_TERM, corpus.PHRASE, "bababa babade"]:
        d1, s1 = ef.bm25(q, 20)
        d2, s2 = em.bm25(q, 20)
        assert d1.tolist() == d2.tolist()
        assert s1.tolist() == s2.tolist()
    # segment files logically identical to the full build's
    from vfs_index_ray.segment import SegmentReader
    r1, r2 = SegmentReader(full_idx), SegmentReader(im)
    for p in range(8):
        assert r1.read_range(p).equals(r2.read_range(p)), p


def test_clean_after_merge_crash_protocol(ray_session, split_corpora,
                                          tmp_path):
    """Clean-after-merge (reference EnableCleanAfterMerge +
    column.go:586-602): sources are deleted only AFTER the merged index
    verifies as fully committed; a crash between commit and clean loses
    nothing (re-running the clean completes it), and queries after clean
    are identical to before."""
    from vfs_index_ray.merge import (clean_merged_sources, merge_indexes,
                                     merged_sources)
    from vfs_index_ray.search import SearchEngine

    ia = str(tmp_path / "ca")
    ib = str(tmp_path / "cb")
    im = str(tmp_path / "cm")
    _build(ray_session, split_corpora["a"], ia)
    _build(ray_session, split_corpora["b"], ib)
    # merge WITHOUT clean = the "crash between commit and clean" state
    merge_indexes([ia, ib], im)
    assert os.path.isdir(ia) and os.path.isdir(ib)  # nothing lost
    assert merged_sources(im) == [ia, ib]           # lineage recorded
    before = {q: SearchEngine(im).bm25(q, 20)
              for q in [corpus.RARE_TERM, "bababa babade"]}
    # clean refuses while the merged index is NOT fully committed
    side = os.path.join(im, "segments", "part=00003.json")
    backup = side + ".bak"
    os.rename(side, backup)
    with pytest.raises(ValueError, match="not fully committed"):
        clean_merged_sources(im)
    assert os.path.isdir(ia) and os.path.isdir(ib)  # refused = untouched
    os.rename(backup, side)
    # resume the crashed clean: verifies, then deletes the sources
    rep = clean_merged_sources(im)
    assert sorted(rep["removed"]) == sorted([ia, ib])
    assert not os.path.isdir(ia) and not os.path.isdir(ib)
    # idempotent second run
    rep2 = clean_merged_sources(im)
    assert rep2["removed"] == [] and sorted(
        rep2["already_missing"]) == sorted([ia, ib])
    # re-query after clean: identical results
    eng = SearchEngine(im)
    for q, (d0, s0) in before.items():
        d1, s1 = eng.bm25(q, 20)
        assert d1.tolist() == d0.tolist()
        assert s1.tolist() == s0.tolist()


def test_merge_clean_after_merge_flag(ray_session, split_corpora,
                                      tmp_path):
    """merge_indexes(clean_after_merge=True) reclaims sources in one
    call and reports it."""
    from vfs_index_ray.merge import merge_indexes
    from vfs_index_ray.search import SearchEngine

    ia = str(tmp_path / "fa")
    ib = str(tmp_path / "fb")
    im = str(tmp_path / "fm")
    _build(ray_session, split_corpora["a"], ia)
    _build(ray_session, split_corpora["b"], ib)
    stats = merge_indexes([ia, ib], im, clean_after_merge=True)
    assert sorted(stats["clean_report"]["removed"]) == sorted([ia, ib])
    assert not os.path.isdir(ia) and not os.path.isdir(ib)
    assert len(SearchEngine(im).match(corpus.RARE_TERM)) > 0


def test_merge_overlap_invariant(ray_session, split_corpora, tmp_path,
                                 built_index):
    """count(merged) = count(a) + count(b) − overlap
    (vfsindex_internal_test.go:752-975 analog)."""
    from vfs_index_ray.build import read_stats
    from vfs_index_ray.merge import merge_indexes
    from vfs_index_ray.search import SearchEngine

    ia = str(tmp_path / "ova")
    ib = str(tmp_path / "ovb")
    im = str(tmp_path / "ovm")
    _build(ray_session, split_corpora["ov_a"], ia)
    _build(ray_session, split_corpora["ov_b"], ib)
    stats = merge_indexes([ia, ib], im, n_docs_override=500)
    rep = stats["merge_report"]
    n_a = sum(r["n_sources"][0] for r in rep)
    n_b = sum(r["n_sources"][1] for r in rep)
    n_m = sum(r["n_merged"] for r in rep)
    ov = sum(r["overlap"] for r in rep)
    assert n_m == n_a + n_b - ov
    assert ov > 0  # rows 300-349 genuinely shared
    assert read_stats(im)["n_docs"] == 500
    # results identical to the full 500-doc build
    full_idx, _ = built_index
    ef, em = SearchEngine(full_idx), SearchEngine(im)
    for q in [corpus.RARE_TERM, corpus.PHRASE, "bababa"]:
        d1, s1 = ef.bm25(q, 20)
        d2, s2 = em.bm25(q, 20)
        assert d1.tolist() == d2.tolist()
        assert s1.tolist() == s2.tolist()


def test_like_reproduces_every_recorded_setting(tmp_path):
    """``IndexBuilder.like`` copies every index setting stats.json
    records, and stats.json records no setting ``like`` drops: every
    recorded setting gets a non-default value here and must survive the
    copy (merge, purge, repartition and upsert all derive through
    ``like``)."""
    import inspect

    from vfs_index_ray.build import IndexBuilder, read_stats

    settings = dict(mode="trigram", num_parts=3, positions=True)
    defaults = inspect.signature(IndexBuilder).parameters
    assert all(v != defaults[k].default for k, v in settings.items())
    src, out = str(tmp_path / "src"), str(tmp_path / "out")
    IndexBuilder(src, **settings).finalize()
    stats = read_stats(src)
    data = {"version", "n_docs", "total_tokens", "avgdl", "k1", "b",
            "waves"}
    assert set(stats) - data == set(settings)
    got = IndexBuilder.like(src, out).finalize()
    assert {k: got[k] for k in settings} == settings


def test_repartition_same_results(ray_session, built_index, tmp_path,
                                  oracle_index, pages_file):
    from vfs_index_ray.merge import repartition_index
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    out = str(tmp_path / "repart4")
    st = repartition_index(idx, out, 4)
    assert st["num_parts"] == 4
    e = SearchEngine(out)
    for q in [corpus.RARE_TERM, corpus.PHRASE, "bababa babade"]:
        docs, scores = e.bm25(q, 10)
        expected = oracle_index.bm25(q, 10)
        assert [int(x) for x in docs] == [d for d, _ in expected]
        assert [float(x) for x in scores] == [s for _, s in expected]
    # the repartitioned index IS a fresh 4-part build: same segment
    # bytes, same stats
    from vfs_index_ray.build import IndexBuilder, read_stats

    fresh = str(tmp_path / "fresh4")
    IndexBuilder(fresh, mode="word", num_parts=4,
                 id_col=None).build([pages_file])

    from vfs_index_ray.segment import part_path, segments_dir

    for p in range(4):
        with open(part_path(segments_dir(out), p), "rb") as a, \
                open(part_path(segments_dir(fresh), p), "rb") as b:
            assert a.read() == b.read(), p
    assert read_stats(out) == read_stats(fresh)


def test_merge_bucketed_indexes(ray_session, split_corpora, tmp_path,
                                oracle_index):
    """Merging indexes of url-hash doc ids (8-byte doc streams; these
    were doc-range-bucketed builds before 0.8.0) gives one row per term
    and the oracle's results."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.merge import merge_indexes
    from vfs_index_ray.search import SearchEngine

    ia = str(tmp_path / "ba")
    ib = str(tmp_path / "bb")
    im = str(tmp_path / "bm")
    for src, out in [(split_corpora["a"], ia), (split_corpora["b"], ib)]:
        IndexBuilder(out, mode="word", num_parts=8,
                     id_col=None).build([src])
    merge_indexes([ia, ib], im)
    em = SearchEngine(im)
    for p in range(8):
        tids = em.segments.read_range(p, columns=["term_id"])[
            "term_id"].to_numpy()
        assert (tids[1:] > tids[:-1]).all()
    for q in [corpus.RARE_TERM, corpus.PHRASE, "bababa babade"]:
        docs, scores = em.bm25(q, 20)
        expected = oracle_index.bm25(q, 20)
        assert [int(x) for x in docs] == [d for d, _ in expected], q
        assert [float(x) for x in scores] == [s for _, s in expected], q


def test_federated_engine_matches_merged(ray_session, tmp_path,
                                         ray_tasks, ray_down):
    """FederatedEngine over doc-disjoint indexes is fp64-identical to
    the merged index; merge-on-search compacts budgeted rounds per query
    and transparently swaps once complete (search_cond.go:828-837)."""
    import contextlib

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vfs_index_ray import corpus
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.merge import FederatedEngine, merge_indexes
    from vfs_index_ray.search import SearchEngine

    pages = corpus.generate_pages(200)
    ids = pa.array(np.arange(200, dtype=np.int64), pa.int64())
    tbl = pages.append_column("doc_id", ids)
    f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(tbl.slice(0, 120), f1)
    pq.write_table(tbl.slice(120), f2)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    IndexBuilder(ia, mode="word", num_parts=4, id_col="doc_id").build([f1])
    IndexBuilder(ib, mode="word", num_parts=4, id_col="doc_id").build([f2])
    ref_dir = str(tmp_path / "ref_merged")
    merge_indexes([ia, ib], ref_dir)
    ref = SearchEngine(ref_dir)

    fed = FederatedEngine([ia, ib])
    for q in ["bababa", "bababa babade", corpus.RARE_TERM,
              "nosuchtokenzz"]:
        rd, rs = ref.bm25(q, 10)
        for dist in (True, False):  # Ray fan-out and in-process paths
            ray_tasks.clear()
            with contextlib.nullcontext() if dist else ray_down():
                fd, fs = fed.bm25(q, 10)
                fm = fed.match(q)
            assert bool(ray_tasks) == dist, (q, dist)
            assert fd.tolist() == rd.tolist(), (q, dist)
            assert fs.tolist() == rs.tolist(), (q, dist)  # fp64-identical
            assert fm.tolist() == ref.match(q).tolist()
    assert fed.df("bababa") == ref.df("bababa")

    # merge-on-search: budget 2 parts/query → compacts over 2 queries,
    # then swaps to the merged engine; answers identical throughout
    out = str(tmp_path / "mos")
    mos = FederatedEngine([ia, ib], out_dir=out, merge_budget=2)
    d1, s1 = mos.bm25("bababa", 10)
    assert mos.merged is None                         # round 1: partial
    d2, s2 = mos.bm25("bababa", 10)
    assert mos.merged is not None                     # round 2: complete
    rd, rs = ref.bm25("bababa", 10)
    assert d1.tolist() == d2.tolist() == rd.tolist()
    assert s1.tolist() == s2.tolist() == rs.tolist()


def test_federated_background_compaction(ray_session, tmp_path):
    """background_merge=True: compaction runs in a daemon thread while
    queries keep answering through the federated path (never waiting on a
    merge round); once the last partition commits the engine atomically
    swaps to the merged index with identical results (the reference's
    background MergeIdxToIdx goroutine, column.go:512-518)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vfs_index_ray import corpus
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.merge import FederatedEngine, merge_indexes
    from vfs_index_ray.search import SearchEngine

    pages = corpus.generate_pages(200)
    ids = pa.array(np.arange(200, dtype=np.int64), pa.int64())
    tbl = pages.append_column("doc_id", ids)
    f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(tbl.slice(0, 120), f1)
    pq.write_table(tbl.slice(120), f2)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    IndexBuilder(ia, mode="word", num_parts=4, id_col="doc_id").build([f1])
    IndexBuilder(ib, mode="word", num_parts=4, id_col="doc_id").build([f2])
    ref_dir = str(tmp_path / "ref_merged")
    merge_indexes([ia, ib], ref_dir)
    ref = SearchEngine(ref_dir)

    out = str(tmp_path / "bg_out")
    fed = FederatedEngine([ia, ib], out_dir=out, merge_budget=1,
                          background_merge=True)
    # query continuously while the thread compacts — answers identical
    # whichever side of the swap each call lands on
    queries = ["bababa", corpus.RARE_TERM, "bababa babade"]
    expected = {q: ref.bm25(q, 10) for q in queries}
    for _ in range(10):
        for q in queries:
            fd, fs = fed.bm25(q, 10)
            assert fd.tolist() == expected[q][0].tolist(), q
            assert fs.tolist() == expected[q][1].tolist(), q
    assert fed.wait_compaction(timeout=120)
    assert fed.merged is not None
    for q in queries:
        fd, fs = fed.bm25(q, 10)          # post-swap: merged engine
        assert fd.tolist() == expected[q][0].tolist()
        assert fs.tolist() == expected[q][1].tolist()


def test_parse_parens_and_de_morgan():
    # (a || b) && c distributes to two groups each carrying c
    p = parse('(a == 1 || b == 2) && c == 3')
    assert [[(x.column, x.value, x.negated) for x in g]
            for g in p.groups] == [
        [("a", 1, False), ("c", 3, False)],
        [("b", 2, False), ("c", 3, False)]]
    # !(a || b) pushes to a conjunction of negations (De Morgan)
    p = parse('c == 3 && !(a == 1 || b == 2)')
    assert [[(x.column, x.negated) for x in g] for g in p.groups] == \
        [[("c", False), ("a", True), ("b", True)]]
    # !(a && b) becomes an OR of negations -> two groups
    p = parse('c == 3 && !(a == 1 && b == 2)')
    assert [[(x.column, x.negated) for x in g] for g in p.groups] == \
        [[("c", False), ("a", True)], [("c", False), ("b", True)]]
    # nesting + precedence: parens override && over ||
    p = parse('a == 1 && (b == 2 || (c == 3 && d == 4))')
    assert [[x.column for x in g] for g in p.groups] == \
        [["a", "b"], ["a", "c", "d"]]
    with pytest.raises(ValueError):
        parse('(a == 1 && b == 2')
    with pytest.raises(ValueError):
        parse('a == 1) && b == 2')


def test_paren_executor_matches_flat_dnf(ray_session):
    """A parenthesized expression and its hand-distributed DNF give
    identical doc sets through the executor."""
    from vfs_index_ray.pipelines.common import _doc_file, get_engine
    from vfs_index_ray.planner import QueryExecutor

    sf = "/root/testdata/sf0.001"
    eng = get_engine(sf)
    ex = QueryExecutor(eng, [_doc_file(sf)], text_col="text",
                       id_col="doc_id")
    a = ex.execute('(text.search("spark") || text.search("batch"))'
                   ' && !text.search("window")')
    b = ex.execute('text.search("spark") && !text.search("window") ||'
                   ' text.search("batch") && !text.search("window")')
    assert list(a) == list(b)


def test_parse_phrase_predicate():
    p = parse('text.phrase("big slow sort") && a == 1')
    assert p.predicates[0] == Predicate("text", "phrase",
                                        "big slow sort")
    # phrase composes with parens and negation
    p = parse('!(text.phrase("a b") || c == 2) && d == 3')
    assert [[(x.op, x.negated) for x in g] for g in p.groups] == \
        [[("phrase", True), ("==", True), ("==", False)]]


def test_phrase_executor_matches_positional(ray_session):
    from vfs_index_ray.pipelines.common import _doc_file, get_engine
    from vfs_index_ray.planner import QueryExecutor

    sf = "/root/testdata/sf0.001"
    eng = get_engine(sf)
    ex = QueryExecutor(eng, [_doc_file(sf)], text_col="text",
                       id_col="doc_id")
    got = ex.execute('text.phrase("order sort table")')
    want = np.sort(eng.phrase_match_positional("order sort table"))
    assert list(got) == list(want)
    # AND-NOT with a phrase on the negative side
    both = ex.execute('text.search("order") && '
                      '!text.phrase("order sort table")')
    assert set(both.tolist()) == \
        set(eng.match("order").tolist()) - set(want.tolist())


def test_parse_near_predicate():
    p = parse('text.near("big sort", 7) && a == 1')
    assert p.predicates[0].op == "near"
    assert p.predicates[0].value == "big sort"
    assert p.predicates[0].arg == 7
    # arg survives De Morgan re-wrapping
    p = parse('a == 1 && !(text.near("x y", 2))')
    near = [x for x in p.predicates if x.op == "near"][0]
    assert near.negated and near.arg == 2


def test_near_executor_matches_proximity(ray_session):
    from vfs_index_ray.pipelines.common import _doc_file, get_engine
    from vfs_index_ray.planner import QueryExecutor

    sf = "/root/testdata/sf0.001"
    eng = get_engine(sf)
    ex = QueryExecutor(eng, [_doc_file(sf)], text_col="text",
                       id_col="doc_id")
    got = ex.execute('text.near("spark window", 4)')
    want = np.sort(np.asarray(eng.proximity_match("spark window", 4)))
    assert list(got) == list(want)
