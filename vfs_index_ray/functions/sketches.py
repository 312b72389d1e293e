"""Mergeable cardinality sketches: HyperLogLog approximate
count-DISTINCT group-by.

The 100-TB shape for distinct counting: the exact operator
(``distinct_aggregate``) must shuffle every (group, key) pair at least
once; the sketch shuffles NOTHING — each batch folds into a 64-register
max-array per group, partials are tiny (groups x 64 rows) and merge by
max, so a trillion-row input moves only kilobytes.

Everything is integer-exact and closed-form so a SQL oracle can
reproduce the estimate bit-for-bit (pipelines ``events_approx_users``):

- hash: ``hashing.mix32`` (already SQL-proven by the train_split
  oracle) — 32-bit value h; bucket = top 6 bits (m=64 registers),
  w = low 26 bits, rho = 27 - bitlen(w)  (bitlen(0) = 0, so an
  all-zero suffix gives the max rho of 27; any observed row has
  rho >= 1).
- harmonic denominator: rho <= 27, so sum(2^(27-rho)) over the 64
  registers (absent register: 2^27) is an exact int64.
- raw estimate: floor(alpha_64 * m^2 * 2^27 / denom) with
  alpha_64 = 709/1000 (Flajolet et al. 2007's constant, an exact
  rational) — int64-safe integer division on both sides.
- small-range correction (E <= 2.5 m and empty registers exist):
  linear counting m*ln(m/V) via ``LINEAR_COUNT_64`` — 64 PRECOMPUTED
  integer literals shared verbatim by the engine and the embedded SQL
  lookup, so no transcendental function is ever evaluated at query
  time on either side.

Reference analog: vfs-index's COUNT() per key is exact over posting
lists (query.go); this is the companion sketch for when the key space
itself is too large to count exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import mix32
from . import collect_arrow

HLL_P = 6                      # 64 registers
HLL_M = 1 << HLL_P
HLL_WBITS = 32 - HLL_P         # 26 suffix bits -> rho in [1, 27]
HLL_SCALE = 1 << (HLL_WBITS + 1)               # 2^27
_ALPHA_NUM, _ALPHA_DEN = 709, 1000             # alpha_64 exactly
_EST_NUM = _ALPHA_NUM * HLL_M * HLL_M * HLL_SCALE  # fits int64

# linear-counting table: LINEAR_COUNT_64[V] = round(m * ln(m / V)) for
# V empty registers (V=64 -> 0). Both the engine and the generated SQL
# lookup use THESE literals — the ln is evaluated once, here.
LINEAR_COUNT_64 = {
    v: int(round(HLL_M * math.log(HLL_M / v))) for v in range(1, HLL_M + 1)
}


def hll_estimate(denom_scaled: int, zeros: int) -> int:
    """Integer HLL estimate from the merged register state.
    ``denom_scaled`` = sum over all m registers of 2^(27 - rho)
    (empty register: 2^27); ``zeros`` = number of empty registers."""
    e_raw = _EST_NUM // (_ALPHA_DEN * denom_scaled)
    if zeros > 0 and e_raw <= (5 * HLL_M) // 2:   # E <= 2.5 m
        return LINEAR_COUNT_64[zeros]
    return e_raw


def _rho(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bucket, rho) per id — vectorized, no per-row Python."""
    h = mix32(ids).astype(np.uint64)
    bucket = (h >> np.uint64(HLL_WBITS)).astype(np.int64)
    w = (h & np.uint64((1 << HLL_WBITS) - 1)).astype(np.int64)
    bitlen = np.zeros(len(w), np.int64)
    nz = w > 0
    bitlen[nz] = np.floor(np.log2(w[nz])).astype(np.int64) + 1
    return bucket, (HLL_WBITS + 1) - bitlen


def approx_distinct(ds, *, key_col: str, group_col: str,
                    out_col: str = "approx_distinct") -> pa.Table:
    """Approximate count(DISTINCT key_col) GROUP BY group_col via a
    64-register HyperLogLog per group.  Per batch: fold rows into a
    (group, bucket) -> max(rho) partial (at most groups x 64 rows ship
    per batch); the driver merges partials by max and applies the
    closed-form integer estimate.  Null keys are ignored (SQL COUNT
    DISTINCT semantics); null groups are ignored like the exact
    operator.  Output sorted by group. Deterministic under any
    partitioning/ordering (max is order-free)."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, key_col])
        mask = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[key_col]))
        t = t.filter(mask)
        if t.num_rows == 0:
            return pa.table({
                group_col: pa.array([], t.schema.field(group_col).type),
                "bucket": pa.array([], pa.int64()),
                "rho": pa.array([], pa.int64())})
        enc = t[group_col].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        groups = enc.dictionary
        ids = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket, rho = _rho(ids)
        regs = np.zeros(len(groups) * HLL_M, np.int64)
        np.maximum.at(regs, codes * HLL_M + bucket, rho)
        gi, bi = np.nonzero(regs.reshape(len(groups), HLL_M))
        return pa.table({
            group_col: groups.take(pa.array(gi, pa.int64())),
            "bucket": pa.array(bi, pa.int64()),
            "rho": pa.array(regs.reshape(len(groups), HLL_M)[gi, bi],
                            pa.int64()),
        })

    out = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    m = collect_arrow(out)
    if m is None:
        return pa.table({group_col: pa.array([], pa.string()),
                         out_col: pa.array([], pa.int64())})
    # merge partials: max rho per (group, bucket), then estimate
    enc = m[group_col].combine_chunks().dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    groups = enc.dictionary
    bucket = m["bucket"].to_numpy(zero_copy_only=False)
    rho = m["rho"].to_numpy(zero_copy_only=False)
    regs = np.zeros(len(groups) * HLL_M, np.int64)
    np.maximum.at(regs, codes * HLL_M + bucket, rho)
    regs = regs.reshape(len(groups), HLL_M)
    ests = []
    for g in range(len(groups)):
        r = regs[g]
        zeros = int((r == 0).sum())
        denom = int((1 << (HLL_WBITS + 1 - r[r > 0])).sum()) \
            + zeros * HLL_SCALE
        ests.append(hll_estimate(denom, zeros))
    names = groups.to_pylist()
    order = np.argsort(np.asarray(names, object), kind="stable")
    return pa.table({
        group_col: pa.array([names[i] for i in order], pa.string()),
        out_col: pa.array([ests[i] for i in order], pa.int64()),
    })


CMS_D = 4
CMS_W = 1024
# row salts: arbitrary fixed literals shared verbatim with the SQL
CMS_SALTS = (0, 1215752191, 2462152381, 3266489917)


def cms_counts(ds, *, key_col: str, query_keys,
               depth: int = None, width: int = None,
               out_col: str = "approx_count") -> pa.Table:
    """Count-Min-Sketch approximate frequency: estimated occurrence
    count of each ``query_keys`` member in ``ds[key_col]``.

    The 100-TB shape for frequency estimation: exact per-key counts of
    a huge key space need a full keyed shuffle; the sketch ships at
    most depth x width int64 counters per batch (16 KiB at the 4x1024
    default) and merges by addition, so the estimate for ANY key is
    available after one streaming pass with no exchange.  Estimates
    are upper bounds (collisions only ever inflate); rows are salted
    mix32 hashes so the whole thing is integer-exact, deterministic
    under any partitioning, and reproducible in SQL
    (``cms_oracle_sql`` — pipelines ``events_cms_counts``).

    Reference analog: vfs-index's per-key COUNT() is exact over
    posting lists (query.go); this is the companion sketch for
    frequency probes over key spaces too large to index."""
    import ray

    depth = CMS_D if depth is None else depth
    width = CMS_W if width is None else width
    salts = CMS_SALTS[:depth]

    def partial(t: pa.Table) -> pa.Table:
        col = t[key_col].combine_chunks().drop_null()
        if len(col) == 0:
            return pa.table({"rb": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        ids = col.to_numpy(zero_copy_only=False).astype(np.int64)
        counters = np.zeros(depth * width, np.int64)
        for r, s in enumerate(salts):
            b = mix32(ids + np.int64(s)) % width
            np.add.at(counters, r * width + b, 1)
        nz = np.nonzero(counters)[0]
        return pa.table({"rb": pa.array(nz, pa.int64()),
                         "c": pa.array(counters[nz], pa.int64())})

    out = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    merged = np.zeros(depth * width, np.int64)
    for t in ray.get(out.to_arrow_refs()):
        if t.num_rows:
            np.add.at(merged,
                      t["rb"].to_numpy(zero_copy_only=False),
                      t["c"].to_numpy(zero_copy_only=False))
    qk = np.asarray(sorted(int(k) for k in query_keys), np.int64)
    est = np.full(len(qk), np.iinfo(np.int64).max, np.int64)
    for r, s in enumerate(salts):
        b = mix32(qk + np.int64(s)) % width
        np.minimum(est, merged[r * width + b], out=est)
    return pa.table({key_col: pa.array(qk, pa.int64()),
                     out_col: pa.array(est, pa.int64())})


def cms_oracle_sql(table: str, key_col: str, query_keys,
                   depth: int = None, width: int = None,
                   out_col: str = "approx_count") -> str:
    """DuckDB SQL recomputing the exact CMS estimate from the raw
    rows: same salted mix32 buckets, counts per (row, bucket), min
    over rows with COALESCE 0 for never-touched buckets."""
    depth = CMS_D if depth is None else depth
    width = CMS_W if width is None else width
    sal = ", ".join(f"({r}, {s})"
                    for r, s in enumerate(CMS_SALTS[:depth]))
    qk = ", ".join(f"({int(k)})" for k in sorted(query_keys))
    return f"""
WITH sal(r, s) AS (VALUES {sal}),
qk(id) AS (VALUES {qk}),
ev AS (
  SELECT {key_col} AS id FROM {table} WHERE {key_col} IS NOT NULL
), h1 AS (
  SELECT sal.r,
         CAST((CAST(ev.id + sal.s AS HUGEINT) * 2654435761)
              % 4294967296 AS BIGINT) AS v
  FROM ev CROSS JOIN sal
), h2 AS (
  SELECT r, CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519)
                 % 4294967296 AS BIGINT) AS v FROM h1
), cnt AS (
  SELECT r, xor(v, v >> 13) % {width} AS bucket,
         count(*)::BIGINT AS c
  FROM h2 GROUP BY r, xor(v, v >> 13) % {width}
), q1 AS (
  SELECT qk.id, sal.r,
         CAST((CAST(qk.id + sal.s AS HUGEINT) * 2654435761)
              % 4294967296 AS BIGINT) AS v
  FROM qk CROSS JOIN sal
), q2 AS (
  SELECT id, r, CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519)
                     % 4294967296 AS BIGINT) AS v FROM q1
), qb AS (
  SELECT id, r, xor(v, v >> 13) % {width} AS bucket FROM q2
)
SELECT qb.id AS {key_col},
       CAST(min(COALESCE(cnt.c, 0)) AS BIGINT) AS {out_col}
FROM qb LEFT JOIN cnt ON cnt.r = qb.r AND cnt.bucket = qb.bucket
GROUP BY qb.id ORDER BY {key_col}
"""


def hll_oracle_sql(table: str, key_col: str, group_col: str,
                   out_col: str = "approx_distinct") -> str:
    """DuckDB SQL that recomputes the EXACT same sketch from the raw
    rows: the mix32 hash in HUGEINT arithmetic, bitlen via
    length(printf('%b', w)) (pure integer — no floating point
    anywhere), the same integer division, and the linear-counting
    lookup embedded from LINEAR_COUNT_64."""
    lc_rows = ",\n    ".join(f"({v}, {e})"
                             for v, e in sorted(LINEAR_COUNT_64.items()))
    wmask = (1 << HLL_WBITS) - 1
    return f"""
WITH lc(zeros, est) AS (VALUES
    {lc_rows}
), ev AS (
  SELECT {group_col} AS g, {key_col} AS id FROM {table}
  WHERE {group_col} IS NOT NULL AND {key_col} IS NOT NULL
), h1 AS (
  SELECT g, CAST((CAST(id AS HUGEINT) * 2654435761) % 4294967296
                 AS BIGINT) AS v FROM ev
), h2 AS (
  SELECT g, CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519)
                 % 4294967296 AS BIGINT) AS v FROM h1
), hh AS (
  SELECT g, xor(v, v >> 13) AS h FROM h2
), br AS (
  SELECT g, h // {wmask + 1} AS bucket,
    CASE WHEN h % {wmask + 1} = 0 THEN {HLL_WBITS + 1}
         ELSE {HLL_WBITS + 1} - length(printf('%b', h % {wmask + 1}))
    END AS rho
  FROM hh
), reg AS (
  SELECT g, bucket, max(rho) AS rho FROM br GROUP BY g, bucket
), agg AS (
  SELECT g, CAST(sum(1 << ({HLL_WBITS + 1} - rho)) AS BIGINT) AS nzd,
         count(*) AS nb
  FROM reg GROUP BY g
), est AS (
  SELECT g, nzd + ({HLL_M} - nb) * {HLL_SCALE} AS denom,
         {HLL_M} - nb AS zeros
  FROM agg
), raw AS (
  SELECT g, zeros,
         {_EST_NUM} // ({_ALPHA_DEN} * denom) AS e_raw
  FROM est
)
SELECT raw.g AS {group_col},
  CAST(CASE WHEN raw.zeros > 0 AND raw.e_raw <= {(5 * HLL_M) // 2}
            THEN lc.est ELSE raw.e_raw END AS BIGINT) AS {out_col}
FROM raw LEFT JOIN lc ON lc.zeros = raw.zeros
ORDER BY {group_col}
"""


def kmv_overlap(ds, *, id_col: str, side_col: str, side_a: str,
                side_b: str, k: int = 64, prepare=None) -> pa.Table:
    """Bottom-k (KMV) distinct sketches of two id sets + the
    closed-form overlap estimate — approximate set intersection /
    Jaccard WITHOUT shuffling either set: each batch ships at most
    2k (side, hash) rows, the driver merges sketches, and every step
    (mix32 hash, k smallest distinct, theta, the (k-1)·2^32 // theta
    union estimator, c/k Jaccard) is integer arithmetic a SQL oracle
    reproduces bit-for-bit.  When the true union is smaller than k the
    sketches are exhaustive and the estimate is exact by construction
    (the CASE both sides evaluate).  Beinat/Bar-Yossef et al.'s KMV;
    the companion to the HLL group-by above when the question is
    BETWEEN-set overlap rather than per-group cardinality.  Output:
    one row (k_eff, theta, c, union_est, jacc_x1e6, inter_est)."""

    def partial(t: pa.Table) -> pa.Table:
        if prepare is not None:
            t = prepare(t)
        side = t[side_col]
        if isinstance(side, pa.ChunkedArray):
            side = side.combine_chunks()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = mix32(ids)
        out_s, out_h = [], []
        for name in (side_a, side_b):
            m = pc.equal(side, name).to_numpy(zero_copy_only=False)
            hs = np.unique(h[m])[:k]          # distinct + k smallest
            out_s.extend([name] * len(hs))
            out_h.extend(hs.tolist())
        return pa.table({"side": pa.array(out_s, pa.string()),
                         "h": pa.array(out_h, pa.int64())})

    t = collect_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                     zero_copy_batch=True))
    schema = pa.schema([("k_eff", pa.int64()), ("theta", pa.int64()),
                        ("c", pa.int64()), ("union_est", pa.int64()),
                        ("jacc_x1e6", pa.int64()),
                        ("inter_est", pa.int64())])
    if t is None:
        return schema.empty_table()
    side = t["side"]
    h = t["h"].to_numpy(zero_copy_only=False)
    sk = {}
    for name in (side_a, side_b):
        m = pc.equal(side, name).to_numpy(zero_copy_only=False)
        sk[name] = set(np.unique(h[m])[:k].tolist())
    u = np.array(sorted(sk[side_a] | sk[side_b]), np.int64)[:k]
    if len(u) == 0:
        return schema.empty_table()
    k_eff, theta = len(u), int(u[-1])
    both = sk[side_a] & sk[side_b]
    c = sum(1 for x in u.tolist() if x in both)
    union_est = (k_eff if k_eff < k
                 else ((k_eff - 1) * 4294967296) // theta)
    return pa.table({
        "k_eff": pa.array([k_eff], pa.int64()),
        "theta": pa.array([theta], pa.int64()),
        "c": pa.array([c], pa.int64()),
        "union_est": pa.array([union_est], pa.int64()),
        "jacc_x1e6": pa.array([c * 1_000_000 // k_eff], pa.int64()),
        "inter_est": pa.array([c * union_est // k_eff], pa.int64())})
