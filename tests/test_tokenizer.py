"""Tokenizer/hashing tests, incl. reference-conformance trigram semantics."""

import collections

import numpy as np
import pyarrow as pa
import pytest

from vfs_index_ray import corpus
from vfs_index_ray.hashing import MAX_TOKEN_BYTES, fnv1a64, fnv1a64_tokens
from vfs_index_ray.oracle import oracle_tokenize
from vfs_index_ray.tokenizer import (pack_trigram, postings_from_texts,
                                     tokenize_query, trigram_ids_flat)


def test_fnv_vector_matches_scalar():
    toks = pa.array(["hello", "a", "", "x" * 100, "日本語", "0abc9"])
    hv = fnv1a64_tokens(toks)
    assert [int(x) for x in hv] == [fnv1a64(t) for t in toks.to_pylist()]
    # seeded random tokens of 0-80 UTF-8 bytes: both sides of the
    # MAX_TOKEN_BYTES cap, multi-byte characters, every length in one
    # call (the kernel sorts spans by length)
    rng = np.random.default_rng(11)
    alphabet = list("abcxyz019-_") + ["é", "ß", "日", "語", "🙂"]
    words = []
    for _ in range(2000):
        budget = int(rng.integers(0, 81))
        w = ""
        for c in rng.choice(alphabet, size=budget):
            if len((w + c).encode()) > budget:
                break
            w += c
        words.append(w)
    lens = [len(w.encode()) for w in words]
    assert min(lens) == 0 and max(lens) > MAX_TOKEN_BYTES
    assert any(len(w) < n for w, n in zip(words, lens))  # non-ASCII
    hv = fnv1a64_tokens(pa.array(words))
    assert [int(x) for x in hv] == [fnv1a64(w) for w in words]


def _postings_via_oracle(texts, mode):
    out = []
    for i, s in enumerate(texts):
        c = collections.Counter(oracle_tokenize(s, mode))
        out.extend((i, k, v) for k, v in sorted(c.items()))
    return sorted(out)


def test_word_postings_match_oracle():
    texts = pa.array(["Hello, World! hello", "the quick brown fox", "",
                      "UPPER lower 123 mixed-case", "日本語テキスト"])
    t = postings_from_texts(texts, np.arange(5, dtype=np.uint64), "word")
    got = sorted(zip(t["doc_id"].to_pylist(),
                     [int(x) for x in t["term_id"].to_pylist()],
                     t["tf"].to_pylist()))
    assert got == _postings_via_oracle(texts.to_pylist(), "word")


def test_trigram_postings_match_oracle():
    texts = pa.array(["北朝鮮による日本人拉致問題", "短い", "", "abcdef",
                      "活動内容の活動内容"])
    t = postings_from_texts(texts, np.arange(5, dtype=np.uint64), "trigram")
    got = sorted(zip(t["doc_id"].to_pylist(),
                     [int(x) for x in t["term_id"].to_pylist()],
                     t["tf"].to_pylist()))
    assert got == _postings_via_oracle(texts.to_pylist(), "trigram")


def test_trigram_short_string_zero_keys():
    # reference semantics: <3 runes → zero keys → Match("鬼滅") finds nothing
    # (vfsindex_test.go:149-159)
    assert pack_trigram("鬼滅") == []
    ids, parent, dl = trigram_ids_flat(pa.array(["ab", "x"]))
    assert len(ids) == 0
    assert dl.tolist() == [0, 0]


def test_trigram_count_is_runes_minus_two():
    # reference: len(TriKeys(s)) == len(runes)-2 (vfsindex_test.go:306-313)
    s = "活動内容のテスト文字列"
    assert len(pack_trigram(s)) == len(s) - 2


def test_trigram_roundtrip_packing():
    # pack is 16 bits per rune, 3 runes — decodable (util.go:76-83 analog)
    s = "活動内"
    key = pack_trigram(s)[0]
    runes = [(key >> 32) & 0xFFFF, (key >> 16) & 0xFFFF, key & 0xFFFF]
    assert "".join(chr(r) for r in runes) == s


def test_dl_counts_tokens():
    texts = pa.array(["one two three", "one one", ""])
    t = postings_from_texts(texts, np.arange(3, dtype=np.uint64), "word")
    by_doc = {}
    for r in t.to_pylist():
        by_doc[r["doc_id"]] = r["dl"]
    assert by_doc[0] == 3 and by_doc[1] == 2 and 2 not in by_doc


def test_tokenize_query_dedup_order():
    out = tokenize_query("B a b A c")
    assert [t for t, _ in out] == ["b", "a", "c"]


def test_ref_records_activity_planted():
    rr = corpus.generate_ref_records()
    # df of the planted trigram == 4 docs (vfsindex_internal_test.go:720-739)
    key = pack_trigram(corpus.ACTIVITY_TRIGRAM)[0]
    n = sum(1 for c in rr["content"].to_pylist()
            if key in oracle_tokenize(c, "trigram"))
    assert n == 4
    assert rr.num_rows == 31
    assert set(corpus.REF_IDS) <= set(rr["id"].to_pylist())


def test_pages_determinism_per_row():
    # per-row invariant: text byte-identical per url across regenerations
    a = corpus.generate_pages(300)
    b = corpus.generate_pages(300)
    assert a.equals(b)
    # and independent of total size: row r identical in different-sized runs
    c = corpus.generate_pages(120)
    assert a["text"].to_pylist()[:120] == c["text"].to_pylist()
    assert a["url"].to_pylist()[:120] == c["url"].to_pylist()


def _assert_term_doc_sorted(t):
    """``t``'s rows strictly ascend by (term_id, doc_id)."""
    terms = t["term_id"].to_numpy()
    docs = t["doc_id"].to_numpy()
    assert ((terms[1:] > terms[:-1])
            | ((terms[1:] == terms[:-1]) & (docs[1:] > docs[:-1]))).all()


@pytest.mark.parametrize("mode,positions,ids", [
    ("word", False, "ascending"), ("trigram", False, "ascending"),
    ("word", True, "ascending"), ("trigram", True, "ascending"),
    ("word", False, "descending"), ("word", True, "shuffled"),
    ("trigram", False, "descending")])
def test_tokenize_postings_is_one_sorted_run(mode, positions, ids):
    """Phase 1's output contract: a batch's postings are ordered
    (term_id, doc_id) whatever the order of its ids, each posting's
    ordinals ascend (one per tf), and the postings are the oracle's."""
    from vfs_index_ray.stages.tokenize import tokenize_postings

    texts = corpus.generate_pages(120)["text"].to_pylist()
    texts += ["北朝鮮による日本人拉致問題", "", "活動内容の活動内容"]
    doc_ids = np.arange(len(texts), dtype=np.uint64) * 7 + 3
    if ids == "descending":
        doc_ids = doc_ids[::-1].copy()
    elif ids == "shuffled":
        doc_ids = np.random.default_rng(5).permutation(doc_ids)
    batch = pa.table({"doc_id": doc_ids, "text": texts})
    t = tokenize_postings(batch, mode=mode, positions=positions)
    _assert_term_doc_sorted(t)
    got = sorted(zip(t["doc_id"].to_pylist(),
                     [int(x) for x in t["term_id"].to_pylist()],
                     t["tf"].to_pylist()))
    assert got == sorted((int(doc_ids[i]), k, v) for i, k, v
                         in _postings_via_oracle(texts, mode))
    if positions:
        for ords, tf in zip(t["pos"].to_pylist(), t["tf"].to_pylist()):
            assert len(ords) == tf and ords == sorted(set(ords))
