"""Positional-postings tests: token-adjacency phrase matching with no
corpus access, verified against a plain-Python position oracle."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus


def _tokens(text: str) -> list[str]:
    return [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]


def _py_phrase_docs(texts, ids, phrase):
    seq = _tokens(phrase)
    out = []
    for i, t in zip(ids, texts):
        toks = _tokens(t)
        for j in range(len(toks) - len(seq) + 1):
            if toks[j:j + len(seq)] == seq:
                out.append(i)
                break
    return sorted(out)


def _pages_oracle(pages_file):
    """(texts, doc ids) of the pages corpus, for the Python oracles."""
    from vfs_index_ray.hashing import doc_id_from_url

    tbl = pq.read_table(pages_file, columns=["url", "text"])
    return (tbl["text"].to_pylist(),
            [doc_id_from_url(u) for u in tbl["url"].to_pylist()])


@pytest.fixture(scope="module")
def pos_index(ray_session, pages_file, tmp_path_factory):
    from vfs_index_ray.build import IndexBuilder

    idx = str(tmp_path_factory.mktemp("posidx") / "idx")
    IndexBuilder(idx, mode="word", num_parts=8, id_col=None,
                 positions=True).build([pages_file])
    return idx


def test_positional_phrase_matches_planted(pos_index, pages_file):
    from vfs_index_ray.hashing import doc_id_from_url
    from vfs_index_ray.search import SearchEngine

    eng = SearchEngine(pos_index, corpus_files=[pages_file])
    got = eng.phrase_match_positional(corpus.PHRASE)
    tbl = pq.read_table(pages_file, columns=["url", "text"])
    want = _py_phrase_docs(tbl["text"].to_pylist(),
                           [doc_id_from_url(u)
                            for u in tbl["url"].to_pylist()],
                           corpus.PHRASE)
    assert got.tolist() == want
    assert len(got) == 3  # the planted rows


def test_positional_phrase_fuzz(pos_index, pages_file):
    from vfs_index_ray.hashing import doc_id_from_url
    from vfs_index_ray.search import SearchEngine

    eng = SearchEngine(pos_index, corpus_files=[pages_file])
    tbl = pq.read_table(pages_file, columns=["url", "text"])
    texts = tbl["text"].to_pylist()
    ids = [doc_id_from_url(u) for u in tbl["url"].to_pylist()]
    rng = np.random.Generator(np.random.Philox(key=[31, 0]))
    for _ in range(25):
        # sample real phrases (guaranteed hits) + shuffled ones (mostly 0)
        doc = texts[int(rng.integers(0, len(texts)))]
        toks = _tokens(doc)
        if len(toks) < 4:
            continue
        j = int(rng.integers(0, len(toks) - 3))
        ln = int(rng.integers(2, 4))
        phrase = " ".join(toks[j:j + ln])
        got = eng.phrase_match_positional(phrase).tolist()
        assert got == _py_phrase_docs(texts, ids, phrase), phrase


def test_token_adjacency_vs_substring_semantics(ray_session, tmp_path):
    """'aurora, borealis' is token-adjacent (positions consecutive) but
    not a substring match — positional finds it, substring variant not."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    rows = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["aurora, borealis lights",
                          "aurora borealis lights",
                          "aurora shines borealis"], pa.string()),
    })
    src = str(tmp_path / "mini.parquet")
    pq.write_table(rows, src)
    idx = str(tmp_path / "idx")
    IndexBuilder(idx, mode="word", num_parts=2, id_col="doc_id",
                 positions=True).build([src])
    eng = SearchEngine(idx, corpus_files=[src], id_col="doc_id")
    assert eng.phrase_match_positional("aurora borealis").tolist() == [1, 2]
    assert eng.phrase_match("aurora borealis").tolist() == [2]
    # non-adjacent tokens match neither
    assert eng.phrase_match_positional("borealis aurora").tolist() == []


def test_repeated_token_phrase(ray_session, tmp_path):
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    rows = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["stream stream stream data",
                          "stream data stream"], pa.string()),
    })
    src = str(tmp_path / "rep.parquet")
    pq.write_table(rows, src)
    idx = str(tmp_path / "idx")
    IndexBuilder(idx, mode="word", num_parts=2, id_col="doc_id",
                 positions=True).build([src])
    eng = SearchEngine(idx)
    assert eng.phrase_match_positional("stream stream").tolist() == [1]
    assert eng.phrase_match_positional("stream stream stream").tolist() == [1]


def test_positions_require_flag(built_index):
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index  # built without positions
    eng = SearchEngine(idx)
    with pytest.raises(ValueError):
        eng.phrase_match_positional("bababa babade")


def test_proximity_vs_python(pos_index, pages_file, ray_tasks):
    from vfs_index_ray.search import SearchEngine

    eng = SearchEngine(pos_index)
    texts, ids = _pages_oracle(pages_file)

    def py_prox(qtoks, window):
        out = []
        for i, t in zip(ids, texts):
            toks = _tokens(t)
            poss = [[j for j, w in enumerate(toks) if w == qt]
                    for qt in qtoks]
            if any(not p for p in poss):
                continue
            import itertools
            best = min(max(c) - min(c)
                       for c in itertools.product(*poss))
            if best <= window:
                out.append(i)
        return sorted(out)

    for q, w in [("bababa babade", 3), ("bababa babade", 20),
                 (corpus.PHRASE, 3), ("bababa babade", 1),
                 ("bababa babade kekeke", 6)]:
        got = eng.proximity_match(q, w).tolist()
        assert got == py_prox(sorted(set(q.split())), w), (q, w)
    # window 0 with two distinct terms → impossible
    assert eng.proximity_match("bababa babade", 0).tolist() == []
    # one path at every candidate count, in process
    assert not ray_tasks


def test_trigram_positional_exact_substring(ray_session, tmp_path):
    """Trigram-positional chaining makes CJK substring search EXACT: doc
    B has both query trigrams scattered (the reference's unverified AND
    would return it); the positional chain rejects it."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    rows = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["前置活動内容後置",      # contains 活動内容
                          "活動内と動内容は別々"],  # scattered trigrams
                         pa.string()),
    })
    src = str(tmp_path / "cjk.parquet")
    pq.write_table(rows, src)
    idx = str(tmp_path / "idx")
    IndexBuilder(idx, mode="trigram", num_parts=2, id_col="doc_id",
                 positions=True).build([src])
    eng = SearchEngine(idx)
    q = "活動内容"
    # unverified AND (reference semantics): both docs
    assert eng.match(q).tolist() == [1, 2]
    # positional chain: only the true substring match
    assert eng.phrase_match_positional(q).tolist() == [1]
    # short query still yields nothing (reference conformance)
    assert eng.phrase_match_positional("鬼滅").tolist() == []


def test_trigram_positional_fuzz(ray_session, tmp_path):
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    ref = corpus.generate_ref_records()
    src = str(tmp_path / "ref.parquet")
    pq.write_table(ref, src)
    idx = str(tmp_path / "idx")
    IndexBuilder(idx, mode="trigram", num_parts=4, text_col="content",
                 id_col="id", positions=True).build([src])
    eng = SearchEngine(idx)
    contents = ref["content"].to_pylist()
    ids = ref["id"].to_pylist()
    rng = np.random.Generator(np.random.Philox(key=[41, 0]))
    for _ in range(20):
        doc = contents[int(rng.integers(0, len(contents)))]
        i = int(rng.integers(0, len(doc) - 6))
        q = doc[i:i + int(rng.integers(3, 7))]
        got = eng.phrase_match_positional(q).tolist()
        want = sorted(i_ for i_, c in zip(ids, contents) if q in c)
        assert got == want, q


def test_absorb_rewrites_positions(ray_session, tmp_path, pages_file):
    """Incremental absorb regenerates positional files — positional
    queries on an absorbed index equal the full build's."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    pages = pq.read_table(pages_file)
    a = str(tmp_path / "a.parquet")
    b = str(tmp_path / "b.parquet")
    pq.write_table(pages.slice(0, 250), a)
    pq.write_table(pages.slice(250, 250), b)
    full = str(tmp_path / "full")
    IndexBuilder(full, mode="word", num_parts=4, id_col=None,
                 positions=True).build([a, b], waves=2)
    inc = str(tmp_path / "inc")
    bi = IndexBuilder(inc, mode="word", num_parts=4, id_col=None,
                      positions=True)
    bi.build([a])
    bi.absorb([b])
    ef, ei = SearchEngine(full), SearchEngine(inc)
    got_f = ef.phrase_match_positional(corpus.PHRASE)
    got_i = ei.phrase_match_positional(corpus.PHRASE)
    assert got_f.tolist() == got_i.tolist()
    assert len(got_f) == 3


def test_merge_carries_positions(ray_session, tmp_path, pages_file):
    """Merging two positional halves answers positional phrases like the
    full positional build and writes the same segment files; sources
    that disagree on positions raise."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.merge import merge_indexes
    from vfs_index_ray.search import SearchEngine
    from vfs_index_ray.segment import part_path, segments_dir

    pages = pq.read_table(pages_file)
    a = str(tmp_path / "a.parquet")
    b = str(tmp_path / "b.parquet")
    pq.write_table(pages.slice(0, 250), a)
    pq.write_table(pages.slice(250, 250), b)
    kw = dict(mode="word", num_parts=4, id_col=None)
    full, ia, ib, plain, merged = (
        str(tmp_path / n) for n in ("full", "ia", "ib", "plain", "merged"))
    IndexBuilder(full, positions=True, **kw).build([a, b], waves=2)
    IndexBuilder(ia, positions=True, **kw).build([a])
    IndexBuilder(ib, positions=True, **kw).build([b])
    merge_indexes([ia, ib], merged)
    got = SearchEngine(merged).phrase_match_positional(corpus.PHRASE)
    want = SearchEngine(full).phrase_match_positional(corpus.PHRASE)
    assert got.tolist() == want.tolist()
    assert len(got) == 3
    for p in range(4):
        with open(part_path(segments_dir(merged), p), "rb") as fm, \
                open(part_path(segments_dir(full), p), "rb") as ff:
            assert fm.read() == ff.read(), f"segment part {p} differs"

    IndexBuilder(plain, **kw).build([b])
    with pytest.raises(ValueError, match="positions"):
        merge_indexes([ia, plain], str(tmp_path / "mixed"))


def test_phrase_fuzz_long_and_repeated(pos_index, pages_file):
    """Fuzzed 2-4 token phrases and repeated-token phrases (several
    base constraints from one term) match the Python oracle."""
    from vfs_index_ray.search import SearchEngine

    eng = SearchEngine(pos_index)
    texts, ids = _pages_oracle(pages_file)
    rng = np.random.Generator(np.random.Philox(key=[77, 0]))
    checked = 0
    for _ in range(25):
        toks = _tokens(texts[int(rng.integers(0, len(texts)))])
        if len(toks) < 4:
            continue
        j = int(rng.integers(0, len(toks) - 3))
        phrase = " ".join(toks[j:j + int(rng.integers(2, 5))])
        assert eng.phrase_match_positional(phrase).tolist() == \
            _py_phrase_docs(texts, ids, phrase), phrase
        checked += 1
    assert checked > 10
    for phrase in ("ba ba", "bababa bababa", "bababa babade bababa"):
        assert eng.phrase_match_positional(phrase).tolist() == \
            _py_phrase_docs(texts, ids, phrase), phrase


def test_head_phrase_oracle(pos_index, pages_file, ray_tasks):
    """Phrases of the corpus' most frequent tokens — the most candidates
    the chain meets — match the Python oracle, in process."""
    from collections import Counter

    from vfs_index_ray.search import SearchEngine

    eng = SearchEngine(pos_index)
    texts, ids = _pages_oracle(pages_file)
    head = [t for t, _ in Counter(
        t for text in texts for t in set(_tokens(text))).most_common(4)]
    phrases = [f"{a} {b}" for a in head for b in head if a != b]
    phrases.append(" ".join(head[:3]))
    assert max(len(eng.match(p)) for p in phrases) > len(texts) // 4
    for phrase in phrases:
        assert eng.phrase_match_positional(phrase).tolist() == \
            _py_phrase_docs(texts, ids, phrase), phrase
    assert not ray_tasks


def test_staged_phrase_ordinal_underflow(ray_session, tmp_path):
    """Regression: the rare-pivot chain's base keys wrap uint64 when the
    rarest term occurs at an ordinal SMALLER than its phrase index in
    the first candidate (doc0 = 'beta alpha' for phrase 'alpha beta'
    puts beta at ordinal 0 with idx 1) — used to IndexError on the
    live-set update; such occurrences are now masked out."""
    import pyarrow as pa

    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    texts = ["beta alpha", "alpha beta"] + \
        [f"alpha filler{i} words here" for i in range(6)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    }), src)
    idx = str(tmp_path / "idx")
    IndexBuilder(idx, mode="word", num_parts=2, id_col="doc_id",
                 positions=True).build([src])
    eng = SearchEngine(idx, corpus_files=[src], id_col="doc_id")
    assert eng.phrase_match_positional("alpha beta").tolist() == [1]
    assert eng.phrase_match_positional("beta alpha").tolist() == [0]


def test_repartition_carries_positions(ray_session, tmp_path, pos_index,
                                      pages_file):
    """Repartitioning a positional index answers phrase and proximity
    queries like a fresh build at the new part count and writes the
    same segment files, byte for byte."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.merge import repartition_index
    from vfs_index_ray.search import SearchEngine
    from vfs_index_ray.segment import part_path, segments_dir

    rep, fresh = str(tmp_path / "rep"), str(tmp_path / "fresh")
    repartition_index(pos_index, rep, 3)
    IndexBuilder(fresh, mode="word", num_parts=3, id_col=None,
                 positions=True).build([pages_file])
    for p in range(3):
        with open(part_path(segments_dir(rep), p), "rb") as fr, \
                open(part_path(segments_dir(fresh), p), "rb") as ff:
            assert fr.read() == ff.read(), f"segment part {p} differs"
    er, ef = SearchEngine(rep), SearchEngine(fresh)
    for q in (corpus.PHRASE, "bababa babade", "babade bababa"):
        assert er.phrase_match_positional(q).tolist() == \
            ef.phrase_match_positional(q).tolist(), q
        assert er.proximity_match(q, 4).tolist() == \
            ef.proximity_match(q, 4).tolist(), q
    assert len(er.phrase_match_positional(corpus.PHRASE)) == 3


def _binary_rows(values: np.ndarray, counts: np.ndarray, width: int
                 ) -> pa.Array:
    """``values`` at ``width`` bytes each as a binary column whose row i
    holds the next ``counts[i]`` of them."""
    offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(counts),
        [None, pa.py_buffer(offs * width),
         pa.py_buffer(np.asarray(values).astype(f"<u{width}"))])


def _rewrite_segment(idx: str, part: int, fn) -> None:
    """Replace the part's segment file with ``fn(its table)`` and record
    the new byte size in its sidecar, so only the content is wrong."""
    import json
    import os

    from vfs_index_ray.segment import _write_batch, part_path, segments_dir

    seg_dir = segments_dir(idx)
    path = part_path(seg_dir, part)
    with open(path, "rb") as f:
        tbl = pa.ipc.open_file(pa.py_buffer(f.read())).read_all()
    _write_batch(fn(tbl), path)
    sidecar = part_path(seg_dir, part, "json")
    with open(sidecar) as f:
        row = json.load(f)
    row["output_bytes"] = os.path.getsize(path)
    with open(sidecar, "w") as f:
        json.dump(row, f)


def test_v090_positional_layout_must_be_rebuilt(pos_index, tmp_path):
    """An index in 0.9.0's positional layout (an 11-column segment per
    part, its ordinals in ``positions/part=N.arrow``) raises "must be
    rebuilt" from every read: BM25, phrase and proximity queries, the
    postings that merge, purge and repartition re-encode, each of those,
    and ``verify_index`` for every part."""
    import os
    import shutil

    from vfs_index_ray.build import verify_index
    from vfs_index_ray.codec import SEGMENT_SCHEMA
    from vfs_index_ray.merge import (merge_indexes, purge_tombstones,
                                     repartition_index)
    from vfs_index_ray.search import SearchEngine
    from vfs_index_ray.segment import _write_batch, part_path, segments_dir

    idx = str(tmp_path / "idx")
    shutil.copytree(pos_index, idx)
    os.makedirs(os.path.join(idx, "positions"))
    for part in range(8):
        with open(part_path(segments_dir(idx), part), "rb") as f:
            tbl = pa.ipc.open_file(pa.py_buffer(f.read())).read_all()
        _write_batch(tbl.select(["pos_w", "pos"]),
                     os.path.join(idx, "positions", f"part={part:05d}.arrow"))
        _rewrite_segment(idx, part, lambda t: t.select(SEGMENT_SCHEMA.names))
    rep = verify_index(idx)
    assert len(rep["errors"]) == 8
    assert all("must be rebuilt" in e for e in rep["errors"])
    eng = SearchEngine(idx)
    for call in (lambda: eng.bm25("bababa babade", 10),
                 lambda: eng.phrase_match_positional(corpus.PHRASE),
                 lambda: eng.proximity_match(corpus.PHRASE, 3),
                 lambda: eng.segments.postings(0),
                 lambda: merge_indexes([idx], str(tmp_path / "m")),
                 lambda: purge_tombstones(idx, str(tmp_path / "pu")),
                 lambda: repartition_index(idx, str(tmp_path / "re"), 3)):
        with pytest.raises(RuntimeError, match="must be rebuilt"):
            call()


@pytest.mark.parametrize("positions", [False, True])
def test_segments_must_match_stats_positions(built_index, pos_index,
                                             tmp_path, positions):
    """A positional segment in an index whose stats.json says
    ``positions=False``, or the reverse, raises "must be rebuilt"."""
    import json
    import shutil

    from vfs_index_ray.build import verify_index
    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path / "idx")
    shutil.copytree(pos_index if positions else built_index[0], idx)
    with open(f"{idx}/stats.json") as f:
        stats = json.load(f)
    stats["positions"] = not positions
    with open(f"{idx}/stats.json", "w") as f:
        json.dump(stats, f)
    rep = verify_index(idx)
    assert len(rep["errors"]) == 8
    assert all("must be rebuilt" in e for e in rep["errors"])
    with pytest.raises(RuntimeError, match="must be rebuilt"):
        SearchEngine(idx).bm25("bababa babade", 10)


def test_cut_ordinal_is_caught(pos_index, tmp_path):
    """A segment with one ordinal cut from a term's ``pos`` stream (its
    sidecar size updated) holds fewer ordinals than the part's tokens:
    ``verify_index`` reports that part, and a phrase query over the term
    raises instead of answering from shifted ordinals."""
    import shutil

    from vfs_index_ray.build import verify_index
    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path / "idx")
    shutil.copytree(pos_index, idx)
    term = SearchEngine(idx)._phrase_keys(corpus.PHRASE)[0]
    part = term % 8

    def cut_one(tbl):
        i = int(np.searchsorted(tbl["term_id"].to_numpy(), np.uint64(term)))
        col = tbl["pos"].combine_chunks()
        w = tbl["pos_w"][0].as_py()
        offs = np.frombuffer(col.buffers()[1], np.int64)[:len(col) + 1]
        data = np.frombuffer(col.buffers()[2], np.uint8)[:offs[-1]]
        end = offs[i + 1]
        data = np.concatenate([data[:end - w], data[end:]])
        counts = np.diff(offs) // w
        counts[i] -= 1
        return tbl.set_column(
            tbl.schema.get_field_index("pos"), "pos",
            _binary_rows(data.view(f"<u{w}"), counts, w))

    _rewrite_segment(idx, part, cut_one)
    rep = verify_index(idx)
    assert len(rep["errors"]) == 1
    assert rep["errors"][0].startswith(f"part={part}: ")
    assert "truncated or corrupt" in rep["errors"][0]
    with pytest.raises(ValueError, match="truncated or corrupt"):
        SearchEngine(idx).phrase_match_positional(corpus.PHRASE)


def test_duplicate_doc_joins_positions(ray_session, tmp_path):
    """A doc id in two waves (a re-crawl) is one posting per term, its
    tfs summed and its ordinals joined ascending, so each version's
    phrases still match it."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                             "text": ["alpha beta", "beta alpha"]}), a)
    pq.write_table(pa.table({"doc_id": pa.array([1], pa.int64()),
                             "text": ["gamma alpha beta"]}), b)
    idx = str(tmp_path / "idx")
    IndexBuilder(idx, mode="word", num_parts=2, id_col="doc_id",
                 positions=True).build([a, b], waves=2)
    eng = SearchEngine(idx)
    assert eng.df("alpha") == {"alpha": 2}
    assert eng.phrase_match_positional("alpha beta").tolist() == [1]
    assert eng.phrase_match_positional("gamma alpha beta").tolist() == [1]
    assert eng.phrase_match_positional("beta alpha").tolist() == [2]
