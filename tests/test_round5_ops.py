"""Round-5 fourth-session ops: retention cohorts, integer-exact
hourly anomalies, weighted-OR more-like-this, index_stats audit —
differential-tested against DuckDB / brute-force Python."""

from __future__ import annotations

import re

import duckdb
import numpy as np
import pyarrow as pa
import pytest


def _rand_events(n=6000, users=53, seed=11):
    rng = np.random.default_rng(seed)
    base = 1_700_000_000_000_000  # us epoch
    ts = base + rng.integers(0, 40 * 86_400_000_000, n)
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.integers(0, users, n).astype(np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_type": pa.array(
            np.array(["view", "click", "purchase"])[
                rng.integers(0, 3, n)]),
        "value": pa.array(rng.uniform(0, 10, n)),
    })


RETENTION_SQL = """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM e
), c AS (
  SELECT user_id, min(day) AS cohort FROM d GROUP BY user_id
)
SELECT c.cohort::BIGINT AS cohort_day,
       (d.day - c.cohort)::BIGINT AS day_offset,
       count(*)::BIGINT AS n_users
FROM d JOIN c USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


@pytest.mark.parametrize("substrate", ["sort", "disk"])
def test_retention_matches_duckdb(ray_session, substrate, tmp_path,
                                  disk_calls):
    """The default on this small input is the groupby; ``spill_dir``
    forces the disk spill."""
    import ray.data

    from vfs_index_ray.functions.windows import retention_cohorts

    t = _rand_events()
    spill_dir = str(tmp_path) if substrate == "disk" else None
    got = retention_cohorts(ray.data.from_arrow(t),
                            spill_dir=spill_dir).to_pandas()
    assert len(disk_calls) == (substrate == "disk")
    con = duckdb.connect()
    con.register("e", t)
    want = con.sql(RETENTION_SQL).df()
    assert len(got) == len(want)
    for c in ("cohort_day", "day_offset", "n_users"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    # triangle sanity: offset-0 row of each cohort counts every user
    # of that cohort (every user is active on their own cohort day)
    z = got[got.day_offset == 0]
    assert z.n_users.sum() == t["user_id"].to_pandas().nunique()


def test_hourly_anomalies_planted(ray_session):
    import ray.data

    from vfs_index_ray.functions.windows import hourly_anomalies

    rng = np.random.default_rng(3)
    base = 1_700_000_000_000_000
    # calm background: ~40/hour over 72 hours, one planted 30x spike
    hrs = rng.integers(0, 72, 3000)
    spike = np.full(1200, 10)
    all_hr = np.concatenate([hrs, spike])
    ts = (base + all_hr * 3_600_000_000
          + rng.integers(0, 3_600_000_000, len(all_hr)))
    t = pa.table({
        "event_type": pa.array(["view"] * len(all_hr)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": pa.array(np.ones(len(all_hr))),
    })
    got = hourly_anomalies(ray.data.from_arrow(t), sigmas=2)
    gp = got.to_pandas()
    spike_hour = base // 3_600_000_000 + 10
    assert int(gp[gp.hour_id == spike_hour].anom.iloc[0]) == 1
    # closed form vs DuckDB HUGEINT transcription
    con = duckdb.connect()
    con.register("e", t)
    want = con.sql("""
      WITH h AS (
        SELECT event_type, epoch_us(ts) // 3600000000 AS hour_id,
               count(*)::BIGINT AS n
        FROM e GROUP BY 1, 2
      ), s AS (
        SELECT event_type, count(*)::HUGEINT AS hh,
               sum(n)::HUGEINT AS ss,
               sum(n::HUGEINT * n)::HUGEINT AS sq
        FROM h GROUP BY event_type
      )
      SELECT h.event_type, h.hour_id::BIGINT AS hour_id, h.n,
             (CASE WHEN (h.n * s.hh - s.ss) > 0
                   AND (h.n * s.hh - s.ss) * (h.n * s.hh - s.ss)
                       > 4 * (s.hh * s.sq - s.ss * s.ss)
                   THEN 1 ELSE 0 END)::BIGINT AS anom
      FROM h JOIN s USING (event_type) ORDER BY 1, 2
    """).df()
    assert (gp["anom"].to_numpy() == want["anom"].to_numpy()).all()
    assert (gp["n"].to_numpy() == want["n"].to_numpy()).all()


def _tokens(text: str) -> set[str]:
    return {t for t in re.split(r"[^a-z0-9]+", text.lower()) if t}


def test_weighted_or_matches_bruteforce(built_index, pages_file):
    import pyarrow.parquet as pq

    from vfs_index_ray.hashing import doc_id_from_url
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx, corpus_files=[pages_file])
    pages = pq.read_table(pages_file)
    urls = pages["url"].to_pylist()
    texts = pages["text"].to_pylist()
    ids = np.array([doc_id_from_url(u) for u in urls], np.uint64)

    seed_pos = 17
    seed_toks = sorted(_tokens(texts[seed_pos]))
    dfs = eng.df(" ".join(seed_toks))
    weights = {t: 1_000_000 // d for t, d in dfs.items() if d > 0}

    docs, scores = eng.weighted_or(weights, k=10,
                                   exclude={int(ids[seed_pos])})
    # brute force: distinct-token overlap sum per doc
    brute = {}
    for i, txt in enumerate(texts):
        if i == seed_pos:
            continue
        s = sum(w for t, w in weights.items() if t in _tokens(txt))
        if s:
            brute[int(ids[i])] = s
    order = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert [int(d) for d in docs] == [d for d, _ in order]
    assert [int(s) for s in scores] == [s for _, s in order]


def test_index_stats_matches_corpus(built_index, pages_file):
    import pyarrow.parquet as pq

    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx, corpus_files=[pages_file])
    s = eng.index_stats()

    pages = pq.read_table(pages_file)
    texts = pages["text"].to_pylist()
    vocab: set[str] = set()
    postings = 0
    total = 0
    for txt in texts:
        toks = [t for t in re.split(r"[^a-z0-9]+", txt.lower()) if t]
        vocab |= set(toks)
        postings += len(set(toks))
        total += len(toks)
    assert s["n_docs"] == len(texts)
    assert s["n_terms"] == len(vocab)
    assert s["n_postings"] == postings
    assert s["total_tokens"] == total
