"""Exact duplicate-span detection (substring-dedup statistics)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


def _brute_windows(texts, L):
    out = []
    for i, t in enumerate(texts):
        toks = ("" if t is None else t).split(" ")
        for j in range(max(len(toks) - L + 1, 0)):
            out.append((i, " ".join(toks[j:j + L])))
    return out


def test_window_spans_matches_bruteforce():
    from vfs_index_ray.functions.spans import _window_spans
    cases = [
        ["a b c d e", "x y", "", None, "one two three four",
         "a  b c d", " lead", "trail ", "日本 語 テスト 分割 あ"],
        ["solo"],
        [],
        ["a b a b a b a b"],
    ]
    for texts in cases:
        for L in (2, 3, 8):
            wd, w = _window_spans(pa.array(texts, pa.string()), L)
            assert list(zip(wd.tolist(), w.to_pylist())) == \
                _brute_windows(texts, L)
    # large_string input takes the same path
    wd, w = _window_spans(
        pa.array(["p q r s", "t u v"], pa.large_string()), 2)
    assert list(zip(wd.tolist(), w.to_pylist())) == \
        _brute_windows(["p q r s", "t u v"], 2)


def test_dup_spans_planted(ray_session):
    """Planted repeated spans are found exactly: cross-doc, within-doc,
    and unique docs score zero."""
    import ray.data

    from vfs_index_ray.functions.spans import dup_spans, duplicate_windows

    span = "q w e r"                      # the shared 4-token span
    texts = [
        f"{span} a b c",                  # doc 0: span at head
        f"x y {span} z",                  # doc 1: span mid
        "u1 u2 u3 u4 u5 u6",              # doc 2: all unique
        f"{span} k {span} m",             # doc 3: span twice (self-dup)
        "tiny",                           # doc 4: < L tokens
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})

    # brute-force oracle over window strings
    wins = _brute_windows(texts, 4)
    from collections import Counter
    cnt = Counter(g for _, g in wins)
    want = {}
    for i in range(len(texts)):
        mine = [g for d, g in wins if d == i]
        want[i] = (len(mine), sum(1 for g in mine if cnt[g] >= 2))

    for par in (1, 4):
        ds = ray.data.from_arrow(t).repartition(par)
        rows = {r["doc_id"]: (r["n_windows"], r["dup_windows"])
                for r in dup_spans(ds, L=4).take_all()}
        assert rows == want
    assert want[2][1] == 0 and want[4] == (0, 0)
    assert want[3][1] > 0                 # within-doc repetition counts

    dup = duplicate_windows(ray.data.from_arrow(t), L=4)
    got = dict(zip(dup["window"].to_pylist(), dup["n"].to_pylist()))
    assert got == {g: c for g, c in cnt.items() if c >= 2}


def test_dup_spans_exact_duplicate_docs(ray_session):
    """Two identical docs: every window of both is a duplicate."""
    import ray.data

    from vfs_index_ray.functions.spans import dup_spans

    text = " ".join(f"t{i}" for i in range(20))
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array([text, text,
                                    " ".join(f"u{i}" for i in range(20))])})
    rows = {r["doc_id"]: r for r in
            dup_spans(ray.data.from_arrow(t), L=8).take_all()}
    assert rows[0]["n_windows"] == 13
    assert rows[0]["dup_windows"] == 13 == rows[1]["dup_windows"]
    assert rows[0]["dup_frac_x1e4"] == 10000
    assert rows[2]["dup_windows"] == 0


def test_span_dedup_spills_under_caller_root(ray_session, tmp_path,
                                            monkeypatch):
    """Every spill of duplicate_windows and remove_dup_spans (the hash
    prefilter included) opens under the caller's ``spill_dir``, never
    the driver's local /tmp."""
    import ray.data

    from vfs_index_ray import spillfs
    from vfs_index_ray.functions.spans import (duplicate_windows,
                                               remove_dup_spans)

    specs = []
    real = spillfs.open_spill

    def recording(spill_dir=None, **kw):
        specs.append(spill_dir)
        return real(spill_dir, **kw)

    monkeypatch.setattr(spillfs, "open_spill", recording)
    root = str(tmp_path / "spill")
    os.makedirs(root)
    span = "q w e r"
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array([f"{span} a b", f"x {span} y",
                                    "u1 u2 u3 u4 u5"])})

    dup = duplicate_windows(ray.data.from_arrow(t), L=4, num_parts=4,
                            spill_dir=root)
    assert dup["window"].to_pylist() == [span]
    out = remove_dup_spans(ray.data.from_arrow(t), L=4, num_parts=4,
                           spill_dir=root).take_all()
    assert {r["doc_id"]: r["n_removed"] for r in out} == {0: 0, 1: 4,
                                                           2: 0}
    assert specs and all(s == root for s in specs)
    assert os.listdir(root) == []
