"""Generic Select visitor traversal (reference index_file.go:481-537):
ordered key-space scan with vectorized condition, limit, direction and
early-stop visitor — checked against a brute-force (key, df) map."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus
from vfs_index_ray.hashing import fnv1a64


@pytest.fixture(scope="module")
def scan_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("scanpages")
    path = str(d / "docs.parquet")
    pages = corpus.generate_pages(300)
    ids = pa.array(np.arange(300, dtype=np.int64), pa.int64())
    pq.write_table(pages.append_column("doc_id", ids), path,
                   row_group_size=64)
    return path


@pytest.fixture(scope="module")
def scan_engine(ray_session, scan_corpus, tmp_path_factory):
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path_factory.mktemp("idx") / "word")
    IndexBuilder(idx, mode="word", num_parts=4,
                 id_col="doc_id").build([scan_corpus])
    return SearchEngine(idx, corpus_files=[scan_corpus], id_col="doc_id")


@pytest.fixture(scope="module")
def keydf(scan_corpus):
    """Brute-force sorted (key, df) arrays from the corpus tokens."""
    tbl = pq.read_table(scan_corpus, columns=["doc_id", "text"])
    m: dict[int, set[int]] = {}
    for did, text in zip(tbl["doc_id"].to_pylist(),
                         tbl["text"].to_pylist()):
        for tok in re.split(r"[^a-z0-9]+", text.lower()):
            if tok:
                m.setdefault(fnv1a64(tok), set()).add(did)
    keys = np.array(sorted(m), np.uint64)
    dfs = np.array([len(m[int(k)]) for k in keys], np.uint64)
    return keys, dfs


# defined as a default-arg lambda factory so cloudpickle ships it BY
# VALUE (workers cannot import the tests package)
def _cond_even_df():
    return lambda tids, dfs: (dfs % 2) == 0


def test_select_keys_full_scan_matches_bruteforce(scan_engine, keydf):
    keys, dfs = keydf
    out = scan_engine.select_keys()
    assert out["term_id"].to_pylist() == keys.tolist()
    assert out["df"].to_pylist() == dfs.tolist()


def test_select_keys_range_cond_limit_desc(scan_engine, keydf):
    keys, dfs = keydf
    lo, hi = int(keys[len(keys) // 8]), int(keys[-len(keys) // 8])
    in_rng = (keys >= lo) & (keys <= hi)
    want_mask = in_rng & ((dfs % 2) == 0)
    wk, wd = keys[want_mask], dfs[want_mask]

    out = scan_engine.select_keys(lo=lo, hi=hi, cond=_cond_even_df())
    assert out["term_id"].to_pylist() == wk.tolist()
    assert out["df"].to_pylist() == wd.tolist()

    # ascending limit = head; descending limit = reversed tail
    out = scan_engine.select_keys(lo=lo, hi=hi, cond=_cond_even_df(),
                                  limit=7)
    assert out["term_id"].to_pylist() == wk[:7].tolist()
    out = scan_engine.select_keys(lo=lo, hi=hi, cond=_cond_even_df(),
                                  asc=False, limit=7)
    assert out["term_id"].to_pylist() == wk[::-1][:7].tolist()
    assert out["df"].to_pylist() == wd[::-1][:7].tolist()


_FANOUT_CALLS = {
    "select_keys": lambda e, keys: e.select_keys(
        lo=int(keys[3]), hi=int(keys[-3])),
    "term_range_docs": lambda e, keys: e.term_range_docs(
        int(keys[3]), int(keys[-3])),
    "nearest_below": lambda e, keys: e.nearest_term(
        int(keys[5]) + 1, less=True),
    "nearest_above": lambda e, keys: e.nearest_term(
        int(keys[5]) + 1, less=False),
    "nearest_none": lambda e, keys: e.nearest_term(
        int(keys[0]) - 1, less=True),
}


@pytest.mark.parametrize("call", sorted(_FANOUT_CALLS))
def test_select_keys_distributed_matches_local(scan_engine, keydf, call,
                                               ray_tasks, ray_down):
    """Both branches of the per-part fan-out (one Ray task per part
    with Ray up vs the local loop with Ray down) give the same answer
    for every caller."""
    keys, dfs = keydf
    a = _FANOUT_CALLS[call](scan_engine, keys)
    assert len(ray_tasks) == 1          # 4 parts, Ray up: fanned out
    with ray_down():
        b = _FANOUT_CALLS[call](scan_engine, keys)
    assert len(ray_tasks) == 1          # the local loop made no task
    if isinstance(a, pa.Table):
        assert a.num_rows > 0 and a.equals(b)
    elif isinstance(a, np.ndarray):
        assert len(a) > 0 and np.array_equal(a, b)
    else:
        want = {"nearest_below": (int(keys[5]), int(dfs[5])),
                "nearest_above": (int(keys[6]), int(dfs[6])),
                "nearest_none": None}[call]
        assert a == b == want


def test_select_visitor_order_and_early_stop(scan_engine, keydf):
    keys, dfs = keydf
    seen = []

    def visit(tid, df):
        seen.append((tid, df))

    n = scan_engine.select(visit, limit=10)
    assert n == 10
    assert seen == list(zip(keys[:10].tolist(), dfs[:10].tolist()))

    # returning False stops the walk (reference error-return stop)
    seen.clear()

    def visit_stop(tid, df):
        seen.append(tid)
        return None if len(seen) < 4 else False

    n = scan_engine.select(visit_stop)
    assert n == 4
    assert seen == keys[:4].tolist()


def test_select_keys_empty_range(scan_engine, keydf):
    keys, _ = keydf
    # a gap between two adjacent keys is empty
    gaps = np.flatnonzero(np.diff(keys) > 2)
    lo = int(keys[gaps[0]]) + 1
    hi = int(keys[gaps[0] + 1]) - 1
    out = scan_engine.select_keys(lo=lo, hi=hi)
    assert out.num_rows == 0
    assert out.schema.field("term_id").type == pa.uint64()


def test_select_cond_bad_shape_raises(scan_engine):
    with pytest.raises(Exception, match="one bool per candidate"):
        scan_engine.select_keys(cond=lambda t, d: np.array([True]))
