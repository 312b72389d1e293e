"""Levenshtein near-dup (functions/editdist.py): byte-DP vs DuckDB,
blocking determinism, and shuffle-path equivalence."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest


def test_levenshtein_matches_duckdb_random():
    import random

    from vfs_index_ray.functions.editdist import levenshtein_bytes

    con = duckdb.connect()
    rng = random.Random(7)
    for _ in range(200):
        a = "".join(rng.choice("abcde") for _ in range(
            rng.randint(0, 40)))
        b = "".join(rng.choice("abcde") for _ in range(
            rng.randint(0, 40)))
        want = con.execute("select levenshtein(?, ?)",
                           [a, b]).fetchone()[0]
        assert levenshtein_bytes(a.encode(), b.encode()) == want


def test_levenshtein_byte_semantics():
    from vfs_index_ray.functions.editdist import levenshtein_bytes

    # DuckDB's levenshtein is byte-based: ö is two UTF-8 bytes
    assert levenshtein_bytes("köln".encode(), "koln".encode()) == 2
    assert levenshtein_bytes(b"", b"abc") == 3
    assert levenshtein_bytes(b"abc", b"") == 3


def _corpus(n=400, seed=13):
    rng = np.random.default_rng(seed)
    base = ["the quick brown fox jumps over the lazy dog " * 3,
            "pack my box with five dozen liquor jugs " * 3,
            "how vexingly quick daft zebras jump " * 3]
    rows = []
    for i in range(n):
        s = base[int(rng.integers(0, 3))]
        # mutate a few characters past the 32-char blocking prefix
        k = int(rng.integers(0, 4))
        chars = list(s)
        for _ in range(k):
            p = int(rng.integers(40, len(chars)))
            chars[p] = "xyz"[int(rng.integers(0, 3))]
        rows.append("".join(chars))
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "lang": pa.array(["en"] * n),
        "text": pa.array(rows),
    })


@pytest.mark.parametrize("substrate", ["sort", "disk"])
def test_edit_near_dup_matches_duckdb(ray_session, substrate, tmp_path,
                                      disk_calls):
    """The default on this small input is the groupby; ``spill_dir``
    forces the disk spill."""
    import ray
    import ray.data

    from vfs_index_ray.functions.editdist import edit_near_dup

    t = _corpus()
    spill_dir = str(tmp_path) if substrate == "disk" else None
    out = edit_near_dup(ray.data.from_arrow(t).repartition(5),
                        group_cols=["lang"], prefix_len=32,
                        len_bucket=64, max_dist=4, spill_dir=spill_dir)
    got = pa.concat_tables(
        [t for t in ray.get(out.to_arrow_refs()) if t.num_rows])
    assert len(disk_calls) == (substrate == "disk")
    gset = {(a, b, d) for a, b, d in zip(got["id_a"].to_pylist(),
                                         got["id_b"].to_pylist(),
                                         got["dist"].to_pylist())}
    con = duckdb.connect()
    con.register("docs", t)
    want = con.execute("""
        WITH b AS (SELECT doc_id, lang, substr(text,1,32) p,
                          strlen(text)//64 lb, text FROM docs)
        SELECT a.doc_id, c.doc_id, levenshtein(a.text, c.text)
        FROM b a JOIN b c ON a.lang=c.lang AND a.p=c.p AND a.lb=c.lb
                         AND a.doc_id < c.doc_id
        WHERE levenshtein(a.text, c.text) <= 4""").fetchall()
    assert gset == set(want)
    assert len(gset) > 0  # the fixture plants real near-dups
