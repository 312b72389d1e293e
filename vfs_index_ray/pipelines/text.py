"""Queries over the documents table that run without the index:
dedup, tokenization, language and quality signals, sampling, curation,
text rewriting and media decode."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import TOKS, _collect, _conc, _docs_ds, fixed_point, query

JACCARD_PAIRS = [(0, 1), (2, 3), (100, 101)]
DECON_PROBES = ["order sort table", "window spark order",
                "zzzz never occurs qqqq"]
_STOP_SQL = "['the','and','of','to','a','in','is','it']"


@query("""
SELECT md5(text) AS h, min(doc_id)::BIGINT AS doc_id, count(*)::BIGINT AS n
FROM documents GROUP BY md5(text)
""")
def q_dedup_exact(sf_dir: str) -> pa.Table:
    from ..functions.dedup import exact_dedup
    out = exact_dedup(_docs_ds(sf_dir, columns=["doc_id", "text"]))
    tbl = _collect(out)
    return pa.table({
        "h": tbl["h"].cast(pa.string()),
        "doc_id": tbl["doc_id"].cast(pa.int64()),
        "n": tbl["n"].cast(pa.int64()),
    })


@query("SELECT doc_id, md5(lower(text)) AS fp FROM documents")
def q_fingerprint(sf_dir: str, concurrency=None) -> pa.Table:
    from ..functions.textstats import Fingerprint
    out = _docs_ds(sf_dir, columns=["doc_id", "text"]).map_batches(
        Fingerprint, batch_format="pyarrow", concurrency=_conc(concurrency))
    return _collect(out).select(["doc_id", "fp"])


@query(f"""
SELECT doc_id, len({TOKS})::BIGINT AS n_tokens FROM documents
""")
def q_token_count(sf_dir: str, concurrency=None) -> pa.Table:
    from ..functions.textstats import TokenStats
    out = _docs_ds(sf_dir, columns=["doc_id", "text"]).map_batches(
        TokenStats, batch_format="pyarrow", concurrency=_conc(concurrency))
    tbl = _collect(out)
    return tbl.select(["doc_id", "n_tokens"])


@query(f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id,
  len(toks)::BIGINT AS n_tokens,
  len(list_distinct(toks))::BIGINT AS n_uniq,
  CAST(floor(len(list_filter(toks, x -> list_contains({_STOP_SQL}, x)))::DOUBLE
       / greatest(len(toks), 1) * 10000 + 0.5) AS BIGINT) AS stop_ratio_x1e4,
  CAST(floor(list_sum(list_transform(toks, x -> length(x)))::DOUBLE
       / greatest(len(toks), 1) * 10000 + 0.5) AS BIGINT) AS avg_len_x1e4
FROM t
""")
def q_token_stats(sf_dir: str, concurrency=None) -> pa.Table:
    from ..functions.textstats import TokenStats
    out = _docs_ds(sf_dir, columns=["doc_id", "text"]).map_batches(
        TokenStats, batch_format="pyarrow", concurrency=_conc(concurrency))
    return _collect(out).select(
        ["doc_id", "n_tokens", "n_uniq", "stop_ratio_x1e4", "avg_len_x1e4"])


# extract(wrap(text)) == text byte-for-byte: the engine wraps each
# document in the full page template and re-extracts; the oracle is
# the untouched column, so a hash match proves the inversion.
@query("""
SELECT doc_id, text FROM documents ORDER BY doc_id
""")
def q_extract_text(sf_dir: str) -> pa.Table:
    """HTML→text extraction as a pipeline (input_hint's per-row
    invariant: byte-identical extracted text per url). Each document's
    text is wrapped in the full page template (head/title/style/
    attributes/trailing script, body escaped) and then run through the
    vectorized Arrow-RE2 extractor — the oracle is the untouched text
    column, so the value hash proves extract(wrap(t)) == t over the
    whole table, entities and tags included."""
    from ..functions.extract import extract_text_batch, wrap_html

    def wrap(t: pa.Table) -> pa.Table:
        html = wrap_html(t["text"], title=t["source"])
        return pa.table({"doc_id": t["doc_id"], "html": html})

    out = (_docs_ds(sf_dir, columns=["doc_id", "text", "source"])
           .map_batches(wrap, batch_format="pyarrow", zero_copy_batch=True)
           .map_batches(extract_text_batch, batch_format="pyarrow",
                        fn_kwargs=dict(html_col="html", text_col="text")))
    tbl = _collect(out)
    tbl = tbl.sort_by("doc_id")
    return pa.table({"doc_id": tbl["doc_id"].cast(pa.int64()),
                     "text": tbl["text"].cast(pa.string())})


@query("""
SELECT lang, count(*)::BIGINT AS n_docs FROM documents GROUP BY lang
""")
def q_lang_distribution(sf_dir: str) -> pa.Table:
    from ..functions.boilerplate import partial_aggregate
    tbl = partial_aggregate(_docs_ds(sf_dir, columns=["lang"]),
                            ["lang"], [("lang", "count")])
    return pa.table({"lang": tbl["lang"].cast(pa.string()),
                     "n_docs": tbl["lang_count"].cast(pa.int64())})


# ALL-PAIRS exact shingle Jaccard ≥ 0.8 — hash-checks the engine's
# MinHash-LSH candidate recall AND its exact verification stage
@query(f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents),
s AS (SELECT doc_id,
  list_distinct([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                 for i in generate_series(1, len(toks) - 2)]) AS sh
  FROM t),
u AS (SELECT doc_id, unnest(sh) AS g FROM s),
cand AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
         FROM u a JOIN u b ON a.g = b.g AND a.doc_id < b.doc_id
         GROUP BY 1, 2),
j AS (SELECT doc_a, doc_b,
        CAST(floor(inter::DOUBLE /
             greatest(len(sa.sh) + len(sb.sh) - inter, 1) * 10000 + 0.5)
             AS BIGINT) AS jaccard_x1e4
      FROM cand JOIN s sa ON sa.doc_id = cand.doc_a
                JOIN s sb ON sb.doc_id = cand.doc_b)
SELECT doc_a, doc_b, jaccard_x1e4 FROM j WHERE jaccard_x1e4 >= 8000
ORDER BY doc_a, doc_b
""")
def q_minhash_near_dup(sf_dir: str) -> pa.Table:
    """MinHash-LSH candidates → exact shingle-Jaccard verify → pairs
    with jaccard ≥ 0.8. At (64 perms, 16 bands of 4) the miss odds for a
    j≈0.9 pair are ~(1-0.9⁴)¹⁶ ≈ 2e-4 and the pipeline is deterministic
    (seeded permutations), so the output equals the ALL-PAIRS exact SQL
    — the oracle hash-checks candidate recall + verification end-to-end."""
    from ..functions.dedup import minhash_candidates, ngram_jaccard_pairs
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    cands = minhash_candidates(ds, num_perm=64, num_bands=16)
    if cands.num_rows == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "jaccard_x1e4": pa.array([], pa.int64())})
    exact = ngram_jaccard_pairs(ds, cands.select(["doc_a", "doc_b"]))
    keep = pc.greater_equal(exact["jaccard_x1e4"], 8000)
    out = exact.filter(keep)
    order = np.lexsort((out["doc_b"].to_numpy(zero_copy_only=False),
                        out["doc_a"].to_numpy(zero_copy_only=False)))
    return out.take(order)


# keep-smaller-id pairwise removal over the same all-pairs set
@query(f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents),
s AS (SELECT doc_id,
  list_distinct([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                 for i in generate_series(1, len(toks) - 2)]) AS sh
  FROM t),
u AS (SELECT doc_id, unnest(sh) AS g FROM s),
cand AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
         FROM u a JOIN u b ON a.g = b.g AND a.doc_id < b.doc_id
         GROUP BY 1, 2),
j AS (SELECT doc_a, doc_b,
        CAST(floor(inter::DOUBLE /
             greatest(len(sa.sh) + len(sb.sh) - inter, 1) * 10000 + 0.5)
             AS BIGINT) AS jaccard_x1e4
      FROM cand JOIN s sa ON sa.doc_id = cand.doc_a
                JOIN s sb ON sb.doc_id = cand.doc_b)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT doc_b FROM j WHERE jaccard_x1e4 >= 8000)
ORDER BY doc_id
""")
def q_near_dedup_keep(sf_dir: str) -> pa.Table:
    """Near-dup REMOVAL composed on the MinHash pipeline: for every
    verified pair (a, b), a < b, with jaccard ≥ 0.8, drop doc b (the
    keep-smaller-id pairwise policy — each duplicated pair keeps
    exactly one side; transitive-closure canonicalization is the
    clustering family, functions/dedup.py cluster_pairs).  Returns
    the surviving doc ids.

    Probabilistic-recall note (same assumption as minhash_near_dup):
    the engine's candidates come from 64-perm/16-band LSH while the
    oracle enumerates ALL shared-shingle pairs exactly; a true j≈0.8
    pair misses every band with prob ~(1-0.8^4)^16 ≈ 2e-4.  The
    pipeline is deterministic (seeded permutations), and the parity
    is corpus-verified at sf0.01/sf0.1/sf1 at every change — a future
    corpus regeneration could legitimately surface a miss, which
    would show as a 1-2 row diff here, not an engine bug."""
    from ..functions.dedup import minhash_candidates, ngram_jaccard_pairs
    import ray
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    cands = minhash_candidates(ds, num_perm=64, num_bands=16)
    if cands.num_rows == 0:
        removed = pa.array([], pa.int64())
    else:
        exact = ngram_jaccard_pairs(ds, cands.select(["doc_a", "doc_b"]))
        dup = exact.filter(pc.greater_equal(exact["jaccard_x1e4"], 8000))
        removed = dup["doc_b"]
        if isinstance(removed, pa.ChunkedArray):
            removed = removed.combine_chunks()
    removed_ref = ray.put(removed)

    def survivors(t: pa.Table) -> pa.Table:
        rm = ray.get(removed_ref)
        if len(rm):
            keep = pc.invert(pc.is_in(t["doc_id"], value_set=rm))
            t = t.filter(keep)
        return t.select(["doc_id"])

    out = _docs_ds(sf_dir, columns=["doc_id"]).map_batches(
        survivors, batch_format="pyarrow", zero_copy_batch=True)
    tbl = _collect(out)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("doc_id",
                                                    "ascending")]))
    return tbl.cast(pa.schema([("doc_id", pa.int64())]))


# ALL-PAIRS exact 64-bit SimHash hamming ≤ 3, recomputed from
# scratch: FNV-1a64 per token via list_reduce over byte values
# (UBIGINT xor, HUGEINT multiply mod 2^64, matching
# hashing.fnv1a64_spans incl. the 64-byte cap + length fold),
# tf-weighted sign-summed bits, pairwise |bit| differences. The
# engine's 4×16-bit banding has guaranteed recall at hamming ≤ 3,
# so the LSH output must hash-match this exact set.
@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), hv0 AS (
  SELECT doc_id,
    list_reduce(
      list_prepend(14695981039346656037::UBIGINT,
        [ord(substr(tok, i, 1))::UBIGINT
         for i in generate_series(1, least(length(tok), 64))]),
      (acc, b) -> CAST((CAST(xor(acc, b) AS HUGEINT) * 1099511628211)
                       % 18446744073709551616 AS UBIGINT)
    ) AS h, length(tok) AS lt
  FROM tok
), hv AS (
  SELECT doc_id,
    CASE WHEN lt > 64 THEN
      CAST((CAST(xor(h, lt::UBIGINT) AS HUGEINT) * 1099511628211)
           % 18446744073709551616 AS UBIGINT)
    ELSE h END AS h
  FROM hv0
), bits AS (
  SELECT d.doc_id, g.k,
    CASE WHEN coalesce(sum(
      CASE WHEN (h.h >> g.k) & 1 = 1 THEN 1 ELSE -1 END), 0) > 0
    THEN 1 ELSE 0 END AS bit
  FROM (SELECT doc_id FROM documents) d
  CROSS JOIN generate_series(0, 63) AS g(k)
  LEFT JOIN hv h ON h.doc_id = d.doc_id
  GROUP BY d.doc_id, g.k
), sh AS (
  SELECT doc_id, list(bit ORDER BY k) AS bits FROM bits GROUP BY doc_id
), p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
    CAST(list_sum(list_transform(generate_series(1, 64),
        i -> abs(a.bits[i] - b.bits[i]))) AS BIGINT) AS hamming
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
SELECT doc_a, doc_b, hamming FROM p WHERE hamming <= 3
ORDER BY doc_a, doc_b
""")
def q_simhash_near_dup(sf_dir: str) -> pa.Table:
    """SimHash LSH pairs with hamming ≤ 3. The 4×16-bit banding is
    GUARANTEED recall at hamming ≤ 3 (pigeonhole: ≤3 flipped bits can
    spoil at most 3 of 4 bands), and SimHash itself is deterministic
    (FNV-1a64 token hashes, tf-weighted bit sums) — so the output equals
    the ALL-PAIRS exact hamming set, which the oracle recomputes from
    scratch in SQL (FNV via list_reduce over token bytes)."""
    from ..functions.dedup import simhash_near_dups
    return simhash_near_dups(_docs_ds(sf_dir, columns=["doc_id", "text"]))


# the LangId heuristic replicated exactly: CJK codepoint fraction,
# then marker-stopword ratios over the shared tokenizer contract
@query(f"""
WITH t AS (SELECT doc_id, text, {TOKS} AS toks FROM documents),
m AS (SELECT doc_id,
  greatest(length(text), 1) AS nchars,
  length(text) - length(regexp_replace(text,
      '[\\x{{3040}}-\\x{{30FF}}\\x{{4E00}}-\\x{{9FFF}}]', '', 'g')) AS ncjk,
  greatest(len(toks), 1) AS nt,
  len(list_filter(toks, x -> list_contains(
      ['der','die','und','das','ist','nicht'], x))) AS de_cnt,
  len(list_filter(toks, x -> list_contains(
      ['el','la','los','de','que','es'], x))) AS es_cnt
  FROM t)
SELECT doc_id,
  CASE WHEN ncjk::DOUBLE / nchars > 0.2 THEN 'ja'
       WHEN de_cnt::DOUBLE / nt > 0.05 THEN 'de'
       WHEN es_cnt::DOUBLE / nt > 0.08 THEN 'es'
       ELSE 'en' END AS lang_pred
FROM m
""")
def q_langid(sf_dir: str, concurrency=None) -> pa.Table:
    from ..functions.textstats import LangId
    out = _docs_ds(sf_dir, columns=["doc_id", "text"]).map_batches(
        LangId, batch_format="pyarrow", concurrency=_conc(concurrency))
    return _collect(out).select(
        ["doc_id", "lang_pred"])


# pyarrow and DuckDB both use RE2: identical BPE-segment counts
@query(r"""
SELECT doc_id, len(regexp_extract_all(text,
  '''(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+'
  ))::BIGINT AS n_bpe_tokens
FROM documents
""")
def q_bpe_token_count(sf_dir: str, concurrency=None) -> pa.Table:
    from ..functions.textstats import BpeTokenCount
    out = _docs_ds(sf_dir, columns=["doc_id", "text"]).map_batches(
        BpeTokenCount, batch_format="pyarrow", concurrency=_conc(concurrency))
    return _collect(out).select(
        ["doc_id", "n_bpe_tokens"])


@query("""
WITH t AS (
  SELECT doc_id, text, string_split(text, chr(10)) AS lines
  FROM documents
), m AS (
  SELECT doc_id,
    len(lines) AS n_lines,
    greatest(len(lines), 1) AS nl,
    len(lines) - len(list_distinct(lines)) AS dup_lines,
    len(list_filter(lines, x -> starts_with(x, '- ')
                            OR starts_with(x, '* '))) AS bullets,
    greatest(length(text), 1) AS nchars,
    length(regexp_replace(text, '[a-zA-Z0-9 ]', '', 'g')) AS syms
  FROM t)
SELECT doc_id,
  n_lines::BIGINT AS n_lines,
  CAST(floor(dup_lines::DOUBLE / nl * 10000 + 0.5) AS BIGINT)
    AS dup_line_frac_x1e4,
  CAST(floor(syms::DOUBLE / nchars * 10000 + 0.5) AS BIGINT)
    AS symbol_ratio_x1e4,
  CAST(floor(bullets::DOUBLE / nl * 10000 + 0.5) AS BIGINT)
    AS bullet_ratio_x1e4
FROM m
""")
def q_gopher_quality(sf_dir: str, concurrency=None) -> pa.Table:
    from ..functions.textstats import GopherQuality
    out = _docs_ds(sf_dir, columns=["doc_id", "text"]).map_batches(
        GopherQuality, batch_format="pyarrow", concurrency=_conc(concurrency))
    return _collect(out).select(
        ["doc_id", "n_lines", "dup_line_frac_x1e4", "symbol_ratio_x1e4",
         "bullet_ratio_x1e4"])


@query("""
WITH s AS (
  SELECT doc_id FROM documents
  ORDER BY md5('s1|' || doc_id::VARCHAR) LIMIT 20
)
SELECT doc_id FROM s ORDER BY doc_id
""")
def q_sample(sf_dir: str) -> pa.Table:
    """Deterministic uniform sample (§2.7 sampling): priority =
    md5('s1|' + doc_id), global lowest-20 — computed as per-block local
    top-n + tiny driver merge (no shuffle, stable under any
    partitioning; the reservoir-sampling analog with a fixed seed)."""
    import hashlib
    n = 20

    def local_top(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        prio = [hashlib.md5(f"s1|{i}".encode()).hexdigest() for i in ids]
        order = np.argsort(np.array(prio))[:n]
        return pa.table({
            "doc_id": pa.array([ids[i] for i in order], pa.int64()),
            "prio": pa.array([prio[i] for i in order], pa.string()),
        })

    rows = (_docs_ds(sf_dir, columns=["doc_id"])
            .map_batches(local_top, batch_format="pyarrow").take_all())
    rows.sort(key=lambda r: r["prio"])
    return pa.table({"doc_id": pa.array(
        sorted(r["doc_id"] for r in rows[:n]), pa.int64())})


@query(f"""
WITH tok AS (SELECT unnest({TOKS}) AS token FROM documents)
SELECT token, count(*)::BIGINT AS n FROM tok
GROUP BY token ORDER BY n DESC, token LIMIT 20
""")
def q_top_terms(sf_dir: str) -> pa.Table:
    """Exact corpus-wide top-20 frequent terms (vocabulary head)."""
    from ..functions.textstats import top_terms
    return top_terms(_docs_ds(sf_dir, columns=["text"]), k=20)


@query(f"""
WITH d AS (SELECT {TOKS} AS toks FROM documents),
 w AS (SELECT unnest(generate_series(1, len(toks) - 1)) AS i, toks
       FROM d),
 b AS (SELECT toks[i] || ' ' || toks[i + 1] AS bigram FROM w)
SELECT bigram, count(*)::BIGINT AS n FROM b
GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20
""")
def q_top_bigrams(sf_dir: str) -> pa.Table:
    """Exact corpus-wide top-20 frequent bigrams (collocation head):
    adjacent-token pairs within each document, counted via per-batch
    distinct-bigram partials + one tiny merge (functions/textstats.py
    top_bigrams) — the n-gram-LM counting shape, never a token-level
    shuffle."""
    from ..functions.textstats import top_bigrams
    return top_bigrams(_docs_ds(sf_dir, columns=["text"]), k=20)


# 3-token shingles as strings reproduce the engine's hashed shingle
# sets exactly (64-bit fnv collisions are negligible at this scale)
@query(f"""
WITH pairs(doc_a, doc_b) AS (VALUES (0, 1), (2, 3), (100, 101)),
t AS (SELECT doc_id, {TOKS} AS toks FROM documents
      WHERE doc_id IN (0, 1, 2, 3, 100, 101)),
s AS (SELECT doc_id,
  list_distinct([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                 for i in generate_series(1, len(toks) - 2)]) AS sh
  FROM t)
SELECT p.doc_a, p.doc_b,
  CAST(floor(len(list_intersect(a.sh, b.sh))::DOUBLE /
       greatest(len(list_distinct(list_concat(a.sh, b.sh))), 1)
       * 10000 + 0.5) AS BIGINT) AS jaccard_x1e4
FROM pairs p JOIN s a ON a.doc_id = p.doc_a
             JOIN s b ON b.doc_id = p.doc_b
""")
def q_ngram_jaccard(sf_dir: str) -> pa.Table:
    """Exact 3-token-shingle Jaccard for fixed doc pairs (the near-dup
    verification kernel, oracle-checked against SQL shingle sets)."""
    from ..functions.dedup import ngram_jaccard_pairs
    pairs = pa.table({
        "doc_a": pa.array([p[0] for p in JACCARD_PAIRS], pa.int64()),
        "doc_b": pa.array([p[1] for p in JACCARD_PAIRS], pa.int64()),
    })
    return ngram_jaccard_pairs(
        _docs_ds(sf_dir, columns=["doc_id", "text"]), pairs, shingle=3)


def train_split_buckets(ids: np.ndarray) -> np.ndarray:
    """Vectorized deterministic split hash: two 32-bit multiplicative
    mixing rounds (Knuth / xxHash-prime constants) over the doc id —
    reproducible with HUGEINT arithmetic + xor in plain SQL, and a pure
    numpy kernel here (no per-row Python anywhere). Returns bucket in
    [0, 100)."""
    from ..hashing import mix32
    return mix32(ids) % 100


@query("""
WITH h1 AS (
  SELECT doc_id,
    CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS BIGINT)
      AS v FROM documents
), h2 AS (
  SELECT doc_id,
    CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519) % 4294967296
         AS BIGINT) AS v FROM h1
)
SELECT doc_id,
  CASE WHEN xor(v, v >> 13) % 100 < 80 THEN 'train' ELSE 'eval' END
    AS split
FROM h2
""")
def q_train_split(sf_dir: str) -> pa.Table:
    """Deterministic hash-based train/eval split (the held-out-split
    operator every training pipeline needs): bucket =
    train_split_buckets(doc_id) mod 100; train = bucket < 80. Stable
    under any partitioning/ordering and reproducible in SQL."""

    def split(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        b = train_split_buckets(ids)
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "split": pc.if_else(pa.array(b < 80),
                                pa.scalar("train"), pa.scalar("eval")),
        })

    out = _docs_ds(sf_dir, columns=["doc_id"]).map_batches(
        split, batch_format="pyarrow")
    tbl = _collect(out)
    order = np.argsort(tbl["doc_id"].to_numpy(zero_copy_only=False),
                       kind="stable")
    return tbl.take(order).select(["doc_id", "split"])


# the engine's train_split_buckets hash, in HUGEINT/xor SQL
@query("""
WITH h1 AS (
  SELECT doc_id, n_chars,
    CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS BIGINT)
      AS v FROM documents
), h2 AS (
  SELECT doc_id, n_chars,
    CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519) % 4294967296
         AS BIGINT) AS v FROM h1
)
SELECT doc_id, n_chars FROM h2
WHERE xor(v, v >> 13) % 10000 < least(10000, n_chars * 10000 // 1000)
ORDER BY doc_id
""")
def q_weighted_sample(sf_dir: str) -> pa.Table:
    """Length-weighted Bernoulli downsample: keep probability
    min(1, n_chars/1000), decided by a pure integer hash coin
    (mix32(doc_id) % 10000 on the x1e4 grid) — deterministic, stable
    under any partitioning, streaming filter end to end."""
    from ..functions.sampling import weighted_sample

    ds = _docs_ds(sf_dir, columns=["doc_id", "n_chars"])
    out = weighted_sample(ds, id_col="doc_id",
                          weight_col="n_chars", scale=1000)
    t = _collect(out)
    order = np.argsort(t["doc_id"].to_numpy(zero_copy_only=False),
                       kind="stable")
    return pa.table({
        "doc_id": t["doc_id"].cast(pa.int64()),
        "n_chars": t["n_chars"].cast(pa.int64())}).take(order)


@query(f"""
WITH t AS (SELECT source, n_chars, len({TOKS}) AS nt FROM documents)
SELECT source, count(*)::BIGINT AS n_docs,
  CAST(floor(sum(n_chars)::DOUBLE / count(*) * 10000 + 0.5) AS BIGINT)
    AS mean_chars_x1e4,
  CAST(floor(sum(nt)::DOUBLE / count(*) * 10000 + 0.5) AS BIGINT)
    AS mean_tokens_x1e4
FROM t GROUP BY source
""")
def q_source_stats(sf_dir: str) -> pa.Table:
    """Per-source (per-domain) corpus quality rollup: doc counts + mean
    doc length + mean token count — the curation dashboard staple."""
    from ..functions.textstats import TokenStats

    ds = _docs_ds(sf_dir, columns=["doc_id", "source", "text", "n_chars"])

    def signals(t: pa.Table) -> pa.Table:
        stats = TokenStats()(t)
        return pa.table({
            "source": t["source"],
            "n_chars": t["n_chars"].cast(pa.int64()),
            "n_tokens": stats["n_tokens"],
        })

    from ..functions.boilerplate import partial_aggregate
    tbl = partial_aggregate(ds, ["source"],
                            [("source", "count"), ("n_chars", "sum"),
                             ("n_tokens", "sum")], prepare=signals)
    n = tbl["source_count"].to_numpy(zero_copy_only=False
                                     ).astype(np.float64)
    cm = fixed_point(tbl["n_chars_sum"].to_numpy(zero_copy_only=False) / n)
    tm = fixed_point(tbl["n_tokens_sum"].to_numpy(zero_copy_only=False) / n)
    return pa.table({
        "source": tbl["source"].cast(pa.string()),
        "n_docs": tbl["source_count"].cast(pa.int64()),
        "mean_chars_x1e4": pa.array(cm, pa.int64()),
        "mean_tokens_x1e4": pa.array(tm, pa.int64()),
    })


# the full curation pipeline: language + quality filter + exact
# dedup, all via the same SQL fragments as the per-stage oracles
@query(f"""
WITH t AS (SELECT doc_id, text, {TOKS} AS toks FROM documents),
m AS (SELECT doc_id, text,
  len(toks) AS nt,
  greatest(len(toks), 1) AS nts,
  greatest(length(text), 1) AS nchars,
  length(text) - length(regexp_replace(text,
      '[\\x{{3040}}-\\x{{30FF}}\\x{{4E00}}-\\x{{9FFF}}]', '', 'g')) AS ncjk,
  len(list_filter(toks, x -> list_contains(
      ['der','die','und','das','ist','nicht'], x))) AS de_cnt,
  len(list_filter(toks, x -> list_contains(
      ['el','la','los','de','que','es'], x))) AS es_cnt
  FROM t),
f AS (
  SELECT doc_id, text FROM m
  WHERE nt >= 30
    AND NOT (ncjk::DOUBLE / nchars > 0.2)
    AND NOT (de_cnt::DOUBLE / nts > 0.05)
    AND NOT (es_cnt::DOUBLE / nts > 0.08)
)
SELECT min(doc_id)::BIGINT AS doc_id FROM f GROUP BY md5(text)
""")
def q_curation(sf_dir: str) -> pa.Table:
    """End-to-end training-data curation pipeline, composed from the
    operator set and streaming throughout: language filter (LangId) →
    quality filter (TokenStats, n_tokens ≥ 30) → exact dedup (min doc_id
    per content hash). Returns surviving doc_ids — every stage has an
    exact SQL twin, so the WHOLE pipeline is hash-checked."""
    from ..functions.dedup import exact_dedup
    from ..functions.textstats import LangId, TokenStats

    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])

    def keep(t: pa.Table) -> pa.Table:
        stats = TokenStats()(t)
        lang = LangId()(t)
        ok = pc.and_(
            pc.greater_equal(stats["n_tokens"], 30),
            pc.equal(lang["lang_pred"], "en"))
        return t.filter(ok)

    survivors = exact_dedup(ds.map_batches(keep, batch_format="pyarrow",
                                           zero_copy_batch=True))
    tbl = _collect(survivors)
    ids = np.sort(tbl["doc_id"].to_numpy(zero_copy_only=False)
                  .astype(np.int64))
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


# real-decoder media checksums: the engine decodes real container
# bytes (PPM/PNG/WAV built from closed-form pixel/sample rules);
# the SQL recomputes the exact integer checksums analytically from
# doc_id — any decoder defect shifts the sum and fails the hash
@query("""
WITH ids AS (SELECT doc_id AS did FROM documents ORDER BY doc_id LIMIT 64),
dims AS (SELECT did, 24 + did % 17 AS w, 20 + did % 13 AS h FROM ids),
px AS (SELECT did, w, h,
              unnest(generate_series(0, w*h*3 - 1)) AS i FROM dims),
v AS (SELECT did, w, h,
             (i // 3) % w AS x, (i // 3) // w AS y, i % 3 AS c FROM px)
SELECT did AS media_id, w::BIGINT AS width, h::BIGINT AS height,
       sum(least(x*255 // (w-1) + y*131 // (h-1)
                 + (x*7 + y*11 + c*5 + did) % 32, 255))::BIGINT AS pix_sum
FROM v GROUP BY did, w, h ORDER BY media_id
""")
def q_media_decode(sf_dir: str) -> pa.Table:
    """Multimodal image decode, end-to-end ORACLE-CHECKED: a
    closed-form synthetic media table over the first 64 doc_ids (even
    ids as P6 PPM, odd as PNG cycling all five scanline filters —
    synth_media_table(noise=False)) is decoded by the REAL pure-numpy
    decoders in an actor-pool map_batches stage, reduced to the exact
    int64 pixel sum per image.  The SQL oracle recomputes the same sum
    analytically from doc_id alone, so any decoder defect (header
    parse, zlib inflate, scanline unfiltering) shifts the sum and
    fails the hash.  Feature pooling (DecodeImage) stays pinned by
    unit tests."""
    import ray.data

    from ..functions.multimodal import ImageChecksum, synth_media_table
    ids = (_docs_ds(sf_dir, columns=["doc_id"]).take(64))
    doc_ids = np.sort(np.array([r["doc_id"] for r in ids], np.int64))
    media = synth_media_table(doc_ids, noise=False)
    out = (ray.data.from_items(media.to_pylist())
           .map_batches(ImageChecksum, batch_format="pyarrow",
                        batch_size=16, concurrency=(1, 8)).take_all())
    out.sort(key=lambda r: r["media_id"])
    return pa.table({
        "media_id": pa.array([r["media_id"] for r in out], pa.int64()),
        "width": pa.array([r["width"] for r in out], pa.int64()),
        "height": pa.array([r["height"] for r in out], pa.int64()),
        "pix_sum": pa.array([r["pix_sum"] for r in out], pa.int64()),
    })


@query("""
WITH ids AS (SELECT doc_id AS did FROM documents ORDER BY doc_id LIMIT 32),
s AS (SELECT did,
             unnest(generate_series(0, 2048 + (did % 5) * 17 - 1)) AS i
      FROM ids)
SELECT did AS media_id, 16000::BIGINT AS sample_rate,
       (2048 + (did % 5) * 17)::BIGINT AS n_frames,
       sum((did*31 + i*7) % 65536 - 32768)::BIGINT AS sample_sum
FROM s GROUP BY did ORDER BY media_id
""")
def q_media_audio(sf_dir: str) -> pa.Table:
    """WAV decode, end-to-end ORACLE-CHECKED: closed-form PCM16 clips
    (synth_audio_table) through the real RIFF/WAVE decoder in an
    actor-pool stage, reduced to (sample_rate, n_frames, exact int64
    sample sum) — the SQL oracle recomputes all three from doc_id."""
    import ray.data

    from ..functions.multimodal import AudioChecksum, synth_audio_table
    ids = (_docs_ds(sf_dir, columns=["doc_id"]).take(32))
    doc_ids = np.sort(np.array([r["doc_id"] for r in ids], np.int64))
    media = synth_audio_table(doc_ids)
    out = (ray.data.from_items(media.to_pylist())
           .map_batches(AudioChecksum, batch_format="pyarrow",
                        batch_size=8, concurrency=(1, 8)).take_all())
    out.sort(key=lambda r: r["media_id"])
    return pa.table({
        "media_id": pa.array([r["media_id"] for r in out], pa.int64()),
        "sample_rate": pa.array([r["sample_rate"] for r in out],
                                pa.int64()),
        "n_frames": pa.array([r["n_frames"] for r in out], pa.int64()),
        "sample_sum": pa.array([r["sample_sum"] for r in out],
                               pa.int64()),
    })


@query("""
WITH ids AS (SELECT doc_id AS did FROM documents ORDER BY doc_id LIMIT 16),
f AS (SELECT did, unnest(generate_series(0, did % 4)) AS frame FROM ids)
SELECT did AS media_id, frame::BIGINT AS frame,
       (frame * 65536)::BIGINT AS byte_offset
FROM f ORDER BY media_id, frame
""")
def q_media_frames(sf_dir: str) -> pa.Table:
    """Video-column plumbing, ORACLE-CHECKED: deterministic opaque
    payloads (size closed-form in doc_id) sampled into per-frame
    metadata rows by the FrameSample stage; the SQL oracle recomputes
    frame counts and byte offsets from doc_id.  The decode itself
    stays behind the same NotImplementedError boundary as compressed
    images."""
    import ray.data

    from ..functions.multimodal import FrameSample
    ids = _docs_ds(sf_dir, columns=["doc_id"]).take(16)
    rows = []
    for r in sorted(ids, key=lambda x: x["doc_id"]):
        did = int(r["doc_id"])
        size = (1 << 16) * (1 + did % 4) + 100  # 1-4 sampled frames
        rows.append({"media_id": did, "payload": bytes([did % 251]) * size})
    out = (ray.data.from_items(rows)
           .map_batches(FrameSample(), batch_format="pyarrow",
                        batch_size=8).take_all())
    out.sort(key=lambda r: (r["media_id"], r["frame"]))
    return pa.table({
        "media_id": pa.array([r["media_id"] for r in out], pa.int64()),
        "frame": pa.array([r["frame"] for r in out], pa.int64()),
        "byte_offset": pa.array([r["byte_offset"] for r in out],
                                pa.int64()),
    })


# decontamination: first matching probe per contaminated doc (CASE
# order == the engine's lowest-probe-index-first rule)
@query("""
SELECT doc_id,
       CASE WHEN strpos(text, 'order sort table') > 0 THEN 0
            WHEN strpos(text, 'window spark order') > 0 THEN 1
            WHEN strpos(text, 'zzzz never occurs qqqq') > 0 THEN 2
       END::BIGINT AS probe_idx
FROM documents
WHERE strpos(text, 'order sort table') > 0
   OR strpos(text, 'window spark order') > 0
   OR strpos(text, 'zzzz never occurs qqqq') > 0
""")
def q_decontaminate(sf_dir: str) -> pa.Table:
    """Benchmark decontamination: flag docs containing any probe n-gram
    (broadcast tiny probe list, one vectorized substring pass per probe
    per batch); probe_idx = first matching probe."""
    from ..functions.textstats import Decontaminate
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = ds.map_batches(Decontaminate(DECON_PROBES, mode="flag"),
                         batch_format="pyarrow")
    tbl = _collect(out)
    if tbl.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "probe_idx": pa.array([], pa.int64())})
    return tbl.select(["doc_id", "probe_idx"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("probe_idx", pa.int64())]))


# identical RE2 pattern on both sides ('g' = replace every match,
# same as Arrow's replace_substring_regex default)
@query("""
SELECT doc_id, regexp_replace(text, '\\bcustomer\\b', '<ENT>', 'g') AS text
FROM documents
""")
def q_redact(sf_dir: str) -> pa.Table:
    """Regex redaction (PII-scrub shape): RE2 on both sides — Arrow
    replace_substring_regex vs DuckDB regexp_replace(…, 'g') with the
    IDENTICAL pattern, byte-compared over the whole corpus."""
    from ..functions.textstats import RedactRegex
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = ds.map_batches(
        RedactRegex(r"\bcustomer\b", "<ENT>"), batch_format="pyarrow")
    tbl = _collect(out)
    return tbl.select(["doc_id", "text"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string())]))


@query("""
SELECT doc_id,
       trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS text
FROM documents
""")
def q_normalize(sf_dir: str) -> pa.Table:
    """Text normalization (the standard pre-tokenization cleanup):
    lowercase, collapse whitespace runs, strip ends — three vectorized
    Arrow kernels, RE2 on both sides, byte-compared corpus-wide."""
    import pyarrow.compute as pc

    def norm(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch["text"])
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table({"doc_id": batch["doc_id"], "text": t})

    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    tbl = pa.Table.from_pylist(
        ds.map_batches(norm, batch_format="pyarrow").take_all())
    return tbl.select(["doc_id", "text"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string())]))


# chunking: k-th window starts at char k*stride+1 (1-based substr);
# max k = ceil((L - window)/stride) clamped at 0 (>=1 chunk per doc)
@query("""
WITH d AS (SELECT doc_id, text, length(text) AS L FROM documents),
c AS (
  SELECT doc_id, text,
         unnest(generate_series(0,
           CAST(greatest(ceil((L - 256)::DOUBLE / 192.0), 0) AS INTEGER)
         )) AS k
  FROM d
)
SELECT doc_id, k::BIGINT AS chunk_id, substr(text, k*192 + 1, 256) AS chunk
FROM c
""")
def q_chunk_documents(sf_dir: str) -> pa.Table:
    """Sliding-window chunking (LLM context packing): 256-char windows
    every 192 chars, short docs one chunk — vectorized buffer gather,
    chunk text hash-compared against the generate_series/substr SQL."""
    from ..functions.textstats import ChunkDocuments
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = ds.map_batches(ChunkDocuments(window=256, stride=192),
                         batch_format="pyarrow")
    tbl = _collect(out)
    return tbl.select(["doc_id", "chunk_id", "chunk"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("chunk_id", pa.int64()),
        ("chunk", pa.string())]))


@query("""
WITH w AS (
  SELECT doc_id, source,
         sum(n_chars) OVER (
           PARTITION BY source ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS excl
  FROM documents
)
SELECT doc_id, source,
       (CAST(COALESCE(excl, 0) AS BIGINT) // 4096)::BIGINT AS pack_id
FROM w
""")
def q_pack_budget(sf_dir: str) -> pa.Table:
    """Training-shard packing: per source (doc_id order), pack_id =
    exclusive-prefix-sum(n_chars) // 4096 — each pack fills ~one budget
    of consecutive docs. Hash-partition + vectorized prefix kernel."""
    from ..functions.windows import pack_by_budget
    ds = _docs_ds(sf_dir, columns=["doc_id", "source", "n_chars"])
    rows = pack_by_budget(ds, budget=4096).take_all()
    tbl = pa.Table.from_pylist(rows)
    return tbl.select(["doc_id", "source", "pack_id"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("source", pa.string()),
        ("pack_id", pa.int64())]))


# corpus-level frequent-token pruning: threshold in exact integer
# arithmetic (100*df >= 79*N == df >= ceil(0.79*N)); string_agg
# skips the NULLed-out boilerplate tokens, preserving token order.
@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS ord
  FROM documents
), freq AS (
  SELECT tok FROM (
    SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY tok
  ) WHERE 100 * df >= 79 * (SELECT count(*) FROM documents)
), marked AS (
  SELECT doc_id, tok, ord,
         tok IN (SELECT tok FROM freq) AS bad
  FROM toks
), agg AS (
  SELECT doc_id,
         string_agg(CASE WHEN NOT bad THEN tok END, ' ' ORDER BY ord)
           AS text,
         sum(CASE WHEN bad THEN 1 ELSE 0 END)::BIGINT AS n_removed
  FROM marked GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.text, '') AS text,
       coalesce(a.n_removed, 0)::BIGINT AS n_removed
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
""")
def q_prune_boilerplate(sf_dir: str) -> pa.Table:
    """Corpus-level frequent-unit removal (the CCNet/RefinedWeb
    boilerplate-dedup shape, token unit on this corpus): partial
    distinct-doc counts per batch → hive-partitioned disk-shuffle sum +
    threshold (100*df >= 79*N, exact integers) → broadcast frequent set
    → one vectorized is_in + binary_join rebuild pass."""
    from ..functions.boilerplate import remove_boilerplate
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = remove_boilerplate(ds, min_frac=0.79, unit="token")
    tbl = _collect(out)
    return tbl.select(["doc_id", "text", "n_removed"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()),
        ("n_removed", pa.int64())]))


# token i and window start j are 1-based here, 0-based in the
# engine — only the (doc, j) ORDER matters for the keep-first pick
@query("""
WITH d AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
), wins AS (
  SELECT doc_id,
         unnest(generate_series(1, greatest(len(toks) - 7, 0))) AS j,
         toks
  FROM d
), w2 AS (
  SELECT doc_id, j,
         array_to_string(list_slice(toks, j, j + 7), ' ') AS win
  FROM wins
), dupw AS (
  SELECT win FROM w2 GROUP BY win HAVING count(*) >= 2
), occ AS (
  SELECT w.doc_id, w.j,
         row_number() OVER (PARTITION BY w.win
                            ORDER BY w.doc_id, w.j) AS rn
  FROM w2 w JOIN dupw USING (win)
), rem AS (
  SELECT DISTINCT doc_id, j + k AS i
  FROM occ, (SELECT unnest(generate_series(0, 7)) AS k)
  WHERE rn > 1
), toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
), kept AS (
  SELECT t.doc_id, t.i, t.tok, (r.i IS NOT NULL) AS removed
  FROM toks t LEFT JOIN rem r ON r.doc_id = t.doc_id AND r.i = t.i
)
SELECT doc_id,
       coalesce(string_agg(tok, ' ' ORDER BY i)
                FILTER (WHERE NOT removed), '') AS text,
       (count(*) FILTER (WHERE removed))::BIGINT AS n_removed
FROM kept GROUP BY doc_id ORDER BY doc_id
""")
def q_span_dedup(sf_dir: str) -> pa.Table:
    """Exact-substring dedup rewrite (functions/spans.py
    remove_dup_spans): every token covered by a non-first occurrence
    of a corpus-duplicated 8-token window is removed and the text
    rebuilt — the Lee et al. dedup rewrite at token-window
    granularity."""
    from ..functions.spans import remove_dup_spans
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = remove_dup_spans(ds, L=8)
    tbl = _collect(out)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("doc_id",
                                                    "ascending")]))
    return tbl.select(["doc_id", "text", "n_removed"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()),
        ("n_removed", pa.int64())]))


# 8-token reflow on both sides, then keep-first global line dedup:
# rn=1 in (doc_id, ord) order is exactly the engine's min-(doc,ord)
# survivor; a doc whose every line is removed keeps text=''
@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
), lines AS (
  SELECT doc_id, (i - 1) // 8 AS ord,
         string_agg(tok, ' ' ORDER BY i) AS line
  FROM toks GROUP BY doc_id, (i - 1) // 8
), ranked AS (
  SELECT doc_id, ord, line,
         row_number() OVER (PARTITION BY line
                            ORDER BY doc_id, ord) AS rn
  FROM lines
)
SELECT doc_id,
       coalesce(string_agg(line, chr(10) ORDER BY ord)
                FILTER (WHERE rn = 1), '') AS text,
       (count(*) FILTER (WHERE rn > 1))::BIGINT AS n_removed
FROM ranked GROUP BY doc_id ORDER BY doc_id
""")
def q_line_dedup(sf_dir: str) -> pa.Table:
    """C4-shape corpus-wide exact line dedup, keep-first
    (functions/linededup.py).  The testdata documents are single-line,
    so the wrapper first reflows each doc into fixed 8-token lines —
    a deterministic, SQL-reproducible transform — then removes every
    non-first occurrence of each line corpus-wide and rebuilds the
    texts."""
    from ..functions.linededup import line_dedup
    W = 8
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])

    def reflow(t: pa.Table) -> pa.Table:
        texts = t["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        toks = pc.split_pattern(texts, pattern=" ")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        counts = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        offs = np.zeros(t.num_rows + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        pos = np.arange(len(flat), dtype=np.int64) - offs[parent]
        starts = np.nonzero(pos % W == 0)[0]
        line_offs = np.append(starts, len(flat)).astype(np.int64)
        lines = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(line_offs), flat),
            " ")
        lcounts = -(-counts // W)  # ceil; 0-token docs keep 0 lines
        doffs = np.zeros(t.num_rows + 1, np.int64)
        np.cumsum(lcounts, out=doffs[1:])
        text2 = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(doffs), lines),
            "\n")
        if text2.type != pa.string():
            text2 = text2.cast(pa.string())
        return pa.table({"doc_id": t["doc_id"], "text": text2})

    out = line_dedup(ds.map_batches(reflow, batch_format="pyarrow",
                                    zero_copy_batch=True))
    tbl = _collect(out)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("doc_id",
                                                    "ascending")]))
    return tbl.select(["doc_id", "text", "n_removed"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()),
        ("n_removed", pa.int64())]))


# vocabulary document frequencies — the broadcast small side of the
# keyword extractor, checked corpus-wide
@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
)
SELECT tok AS unit, count(DISTINCT doc_id)::BIGINT AS df
FROM toks GROUP BY tok ORDER BY unit
""")
def q_token_df(sf_dir: str) -> pa.Table:
    """Corpus vocabulary statistics: (token, df) document frequencies
    via partial distinct-doc counts + hive-partitioned disk-shuffle
    sum (the postings-shuffle pattern; no Ray Data sort shuffle)."""
    from ..functions.boilerplate import unit_doc_frequencies
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    t = unit_doc_frequencies(ds, unit="token")
    return t.select(["unit", "df"]).cast(pa.schema([
        ("unit", pa.string()), ("df", pa.int64())]))


# rare-term keyword extraction: integer-only ordering (df asc, tf
# desc, token asc) so engine and oracle are bit-identical with no
# floats; row_number ties are impossible (token is unique per doc)
@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::BIGINT AS tf FROM toks
  GROUP BY doc_id, tok
), dfs AS (
  SELECT tok, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY tok
), r AS (
  SELECT t.doc_id, t.tok, t.tf, d.df,
         row_number() OVER (PARTITION BY t.doc_id
                            ORDER BY d.df ASC, t.tf DESC, t.tok ASC)
           AS rnk
  FROM tf t JOIN dfs d USING (tok)
)
SELECT doc_id, rnk::BIGINT AS rank, tok AS token, tf, df
FROM r WHERE rnk <= 3 ORDER BY doc_id, rnk
""")
def q_doc_keywords(sf_dir: str) -> pa.Table:
    """Per-doc top-3 keywords by corpus rarity (df asc, tf desc, token
    asc — the integer-exact tf-idf core): broadcast byte-sorted vocab,
    one Arrow hash aggregation + integer lexsort per batch."""
    from ..functions.keywords import doc_keywords
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = doc_keywords(ds, k=3, unit="token")
    tbl = _collect(out)
    return tbl.select(["doc_id", "rank", "token", "tf", "df"]).cast(
        pa.schema([("doc_id", pa.int64()), ("rank", pa.int64()),
                   ("token", pa.string()), ("tf", pa.int64()),
                   ("df", pa.int64())]))


# word-bigram repetition: ord+1 self-join builds the bigrams; the
# fp64 ratio association (divide, then *10000, then floor(+0.5))
# mirrors the engine's _x1e4 exactly.
@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS ord
  FROM documents
), big AS (
  SELECT a.doc_id, a.tok || ' ' || b.tok AS bg
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
), cnt AS (
  SELECT doc_id, bg, count(*) AS c FROM big GROUP BY doc_id, bg
), per AS (
  SELECT doc_id, sum(c)::BIGINT AS n_bigrams,
         count(*)::BIGINT AS n_distinct, max(c)::BIGINT AS max_c
  FROM cnt GROUP BY doc_id
)
SELECT d.doc_id,
  coalesce(p.n_bigrams, 0)::BIGINT AS n_bigrams,
  CASE WHEN coalesce(p.n_bigrams, 0) = 0 THEN 0
       ELSE floor(((p.n_bigrams - p.n_distinct)::DOUBLE / p.n_bigrams)
                  * 10000 + 0.5) END::BIGINT AS dup_bigram_frac_x1e4,
  CASE WHEN coalesce(p.n_bigrams, 0) = 0 THEN 0
       ELSE floor((p.max_c::DOUBLE / p.n_bigrams)
                  * 10000 + 0.5) END::BIGINT AS top_bigram_frac_x1e4
FROM documents d LEFT JOIN per p USING (doc_id)
ORDER BY d.doc_id
""")
def q_repetition_stats(sf_dir: str) -> pa.Table:
    """Per-doc word-bigram repetition signals (Gopher dup-n-gram family):
    split + element-wise join + Arrow hash aggregation per batch."""
    from ..functions.textstats import RepetitionStats
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = ds.map_batches(RepetitionStats(), batch_format="pyarrow")
    tbl = _collect(out)
    return tbl.select(["doc_id", "n_bigrams", "dup_bigram_frac_x1e4",
                       "top_bigram_frac_x1e4"]).cast(pa.schema([
        ("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
        ("dup_bigram_frac_x1e4", pa.int64()),
        ("top_bigram_frac_x1e4", pa.int64())]))


# unigram-LM quality score: each token's logprob quantized to an
# integer via the SAME libm ln() double, then pure integer sums +
# one final division — no float summation-order hazards
@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), cnt AS (
  SELECT tok, count(*)::BIGINT AS c FROM toks GROUP BY tok
), tot AS (
  SELECT sum(c)::BIGINT AS total FROM cnt
), lp AS (
  SELECT tok,
    CAST(floor(ln(c::DOUBLE / (SELECT total FROM tot)) * 1000000 + 0.5)
         AS BIGINT) AS lp
  FROM cnt
)
SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
  CAST(floor(sum(l.lp)::DOUBLE / count(*)::DOUBLE + 0.5) AS BIGINT)
    AS avg_logprob_x1e6
FROM toks t JOIN lp l ON t.tok = l.tok
GROUP BY t.doc_id ORDER BY t.doc_id
""")
def q_lm_score(sf_dir: str) -> pa.Table:
    """Unigram-LM quality score (the CCNet perplexity-filter shape):
    disk-shuffled corpus (token, tf) counts → fixed-point per-token
    logprobs quantized once on the driver → broadcast vocab + one
    index_in/bincount pass per batch. Integer arithmetic end-to-end
    after the one ln() per vocab entry, so the SQL oracle is
    bit-identical."""
    from ..functions.lmscore import lm_score
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = lm_score(ds, unit="token")
    tbl = _collect(out)
    return tbl.select(["doc_id", "n_tokens", "avg_logprob_x1e6"]).cast(
        pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                   ("avg_logprob_x1e6", pa.int64())]))


# duplicate spans: every 8-token window via list slicing; a window
# is duplicated when its exact joined string occurs >= 2x anywhere
# (within- and cross-document multiplicity both count)
@query("""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS t FROM documents
), wins AS (
  SELECT doc_id, array_to_string(t[i:i+7], ' ') AS g
  FROM toks, UNNEST(generate_series(1, greatest(len(t)-7, 0))) AS s(i)
), cnt AS (SELECT g, count(*) AS c FROM wins GROUP BY g),
per AS (
  SELECT w.doc_id, count(*)::BIGINT AS n_windows,
         sum(CASE WHEN c.c >= 2 THEN 1 ELSE 0 END)::BIGINT AS dup_windows
  FROM wins w JOIN cnt c ON w.g = c.g GROUP BY w.doc_id
)
SELECT d.doc_id, coalesce(n_windows, 0)::BIGINT AS n_windows,
       coalesce(dup_windows, 0)::BIGINT AS dup_windows,
       CASE WHEN coalesce(n_windows, 0) = 0 THEN 0
            ELSE floor(dup_windows::DOUBLE / n_windows * 10000 + 0.5)
       END::BIGINT AS dup_frac_x1e4
FROM documents d LEFT JOIN per USING (doc_id) ORDER BY d.doc_id
""")
def q_dup_spans(sf_dir: str) -> pa.Table:
    """Exact duplicate-span stats (the substring-dedup signal): per doc,
    its 8-token windows occurring >= 2x corpus-wide. Byte-arithmetic
    window kernel + hive disk-shuffle exact window counts + broadcast
    is_in probe."""
    from ..functions.spans import dup_spans
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = dup_spans(ds, L=8)
    tbl = _collect(out)
    idx = pc.sort_indices(tbl, sort_keys=[("doc_id", "ascending")])
    return tbl.take(idx).select(
        ["doc_id", "n_windows", "dup_windows", "dup_frac_x1e4"]).cast(
        pa.schema([("doc_id", pa.int64()), ("n_windows", pa.int64()),
                   ("dup_windows", pa.int64()),
                   ("dup_frac_x1e4", pa.int64())]))


# percentile quality gate: the lm_score CTE, then the exact 30th
# ascending-rank value (ceil(30*n/100), events_quantiles rule) as
# the keep threshold; ties at the threshold survive on both sides
@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), cnt AS (
  SELECT tok, count(*)::BIGINT AS c FROM toks GROUP BY tok
), tot AS (
  SELECT sum(c)::BIGINT AS total FROM cnt
), lp AS (
  SELECT tok,
    CAST(floor(ln(c::DOUBLE / (SELECT total FROM tot)) * 1000000 + 0.5)
         AS BIGINT) AS lp
  FROM cnt
), scored AS (
  SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
    CAST(floor(sum(l.lp)::DOUBLE / count(*)::DOUBLE + 0.5) AS BIGINT)
      AS avg_logprob_x1e6
  FROM toks t JOIN lp l ON t.tok = l.tok GROUP BY t.doc_id
), ranked AS (
  SELECT avg_logprob_x1e6 AS v,
         row_number() OVER (ORDER BY avg_logprob_x1e6) AS rn
  FROM scored
), th AS (
  SELECT v FROM ranked
  WHERE rn = (SELECT (30 * count(*) + 99) // 100 FROM scored)
)
SELECT doc_id, n_tokens, avg_logprob_x1e6 FROM scored
WHERE avg_logprob_x1e6 >= (SELECT v FROM th)
ORDER BY doc_id
""")
def q_quality_filter(sf_dir: str) -> pa.Table:
    """Percentile quality gate on the unigram-LM score: keep docs at or
    above the exact corpus 30th percentile of avg_logprob_x1e6 (discrete
    ceil(pct*n/100) rank — integer scores make it hash-exact). Scores
    histogram as per-ref value-count partials; survivors stay
    distributed (from_arrow_refs)."""
    from ..functions.lmscore import quality_filter
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out, _thr = quality_filter(ds, pct=30, unit="token")
    tbl = _collect(out)
    idx = pc.sort_indices(tbl, sort_keys=[("doc_id", "ascending")])
    return tbl.take(idx).select(
        ["doc_id", "n_tokens", "avg_logprob_x1e6"]).cast(
        pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                   ("avg_logprob_x1e6", pa.int64())]))


# stratified sample: same mix32 hash as train_split, full 32-bit
# value as the priority; k lowest (prio, doc_id) per lang
@query("""
WITH h1 AS (
  SELECT doc_id, lang,
    CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS BIGINT)
      AS v FROM documents
), h2 AS (
  SELECT doc_id, lang,
    CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519) % 4294967296
         AS BIGINT) AS v FROM h1
), p AS (
  SELECT doc_id, lang, xor(v, v >> 13) AS prio FROM h2
), r AS (
  SELECT lang, doc_id, prio,
         row_number() OVER (PARTITION BY lang
                            ORDER BY prio ASC, doc_id ASC) AS rn
  FROM p
)
SELECT lang, doc_id, prio::BIGINT AS prio FROM r WHERE rn <= 5
ORDER BY lang, prio, doc_id
""")
def q_stratified_sample(sf_dir: str) -> pa.Table:
    """Per-language deterministic sample (k lowest mix32(doc_id)
    priorities per lang): per-batch integer lexsort head-take + tiny
    driver merge — no shuffle, stable under any partitioning."""
    from ..functions.sampling import stratified_sample
    ds = _docs_ds(sf_dir, columns=["doc_id", "lang"])
    return stratified_sample(ds, group_col="lang", k=5).cast(pa.schema([
        ("lang", pa.string()), ("doc_id", pa.int64()),
        ("prio", pa.int64())]))


# budget mix: greedy per-source fill in (mix32(doc_id), doc_id)
# order — keep a doc while the source's EXCLUSIVE char prefix-sum
# is below the budget (the crossing doc is included)
@query("""
WITH h1 AS (
  SELECT doc_id, source, n_chars,
    CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS BIGINT)
      AS v FROM documents
), h2 AS (
  SELECT doc_id, source, n_chars,
    CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519) % 4294967296
         AS BIGINT) AS v FROM h1
), p AS (
  SELECT doc_id, source, n_chars, xor(v, v >> 13) AS prio FROM h2
), c AS (
  SELECT source, doc_id, prio, n_chars,
    coalesce(sum(n_chars) OVER (
      PARTITION BY source ORDER BY prio, doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS excl
  FROM p
)
SELECT source, doc_id, prio::BIGINT AS prio,
       n_chars::BIGINT AS weight,
       (excl + n_chars)::BIGINT AS cum_weight
FROM c WHERE excl < 4000
ORDER BY source, prio, doc_id
""")
def q_budget_mix(sf_dir: str) -> pa.Table:
    """Per-source token-budget mixture sampling (the data-mixing step):
    each source contributes docs in deterministic mix32 shuffle order
    until 4000 chars — one hash-partition on source over the auto
    shuffle substrate, one vectorized prefix-sum kernel per part."""
    from ..functions.sampling import budget_mix
    ds = _docs_ds(sf_dir, columns=["doc_id", "source", "n_chars"])
    out = budget_mix(ds, key_col="source", weight_col="n_chars",
                     budget=4000)
    tbl = _collect(out)
    idx = pc.sort_indices(tbl, sort_keys=[
        ("source", "ascending"), ("prio", "ascending"),
        ("doc_id", "ascending")])
    return tbl.take(idx).select(
        ["source", "doc_id", "prio", "weight", "cum_weight"]).cast(
        pa.schema([("source", pa.string()), ("doc_id", pa.int64()),
                   ("prio", pa.int64()), ("weight", pa.int64()),
                   ("cum_weight", pa.int64())]))


# epoch shuffle: shard = mix32(doc_id^42) % 8, pos = rank of
# (prio, doc_id) within the shard — the written shard layout
@query("""
WITH h1 AS (
  SELECT doc_id,
    CAST((CAST(xor(doc_id, 42) AS HUGEINT) * 2654435761) % 4294967296
         AS BIGINT) AS v FROM documents
), h2 AS (
  SELECT doc_id,
    CAST((CAST(xor(v, v >> 16) AS HUGEINT) * 2246822519) % 4294967296
         AS BIGINT) AS v FROM h1
), p AS (
  SELECT doc_id, xor(v, v >> 13) AS prio FROM h2
)
SELECT (prio % 8)::BIGINT AS shard,
  (row_number() OVER (PARTITION BY prio % 8
                      ORDER BY prio ASC, doc_id ASC) - 1)::BIGINT AS pos,
  doc_id
FROM p ORDER BY shard, pos
""")
def q_shuffle_shards(sf_dir: str) -> pa.Table:
    """Deterministic epoch-shuffle shard writer (the training global
    shuffle): prio = mix32(doc_id^seed), shard = prio % S via the hive
    disk-shuffle substrate, per-shard local (prio, id) sort + atomic
    one-file-per-shard commit. The returned (shard, pos, doc_id) table
    IS the written layout read back, so the hash check covers the sink
    itself."""
    import shutil
    import tempfile
    from ..functions.shards import read_shard, write_shuffled_shards
    ds = _docs_ds(sf_dir, columns=["doc_id"])
    out = tempfile.mkdtemp(prefix="shuf_", dir="/tmp")
    try:
        stats = write_shuffled_shards(ds, out, num_shards=8, seed=42)
        parts = []
        for k in range(stats["shards"]):
            t = read_shard(out, k, columns=["pos", "doc_id"])
            parts.append(t.append_column(
                "shard", pa.array(np.full(t.num_rows, k, np.int64))))
        tbl = pa.concat_tables(parts)
        return tbl.select(["shard", "pos", "doc_id"]).cast(pa.schema([
            ("shard", pa.int64()), ("pos", pa.int64()),
            ("doc_id", pa.int64())]))
    finally:
        shutil.rmtree(out, ignore_errors=True)


@query("""
WITH b AS (
  SELECT doc_id, lang, substr(text, 1, 32) AS p,
         strlen(text) // 64 AS lb, text
  FROM documents
)
SELECT a.doc_id AS id_a, c.doc_id AS id_b,
       levenshtein(a.text, c.text)::BIGINT AS dist
FROM b a JOIN b c
  ON a.lang = c.lang AND a.p = c.p AND a.lb = c.lb
 AND a.doc_id < c.doc_id
WHERE levenshtein(a.text, c.text) <= 10
ORDER BY id_a, id_b
""")
def q_edit_near_dup(sf_dir: str) -> pa.Table:
    """Exact-verify near-dup pairs by Levenshtein distance: the
    blocking key (lang + 32-char prefix + byte-length//64 bucket) is
    DETERMINISTIC, so the oracle reproduces the exact candidate set
    with a self-join — no LSH-recall caveat.  Blocks hash-partition
    through the keyed disk spill; the byte-DP (vectorized rows,
    prefix-min deletion chain) matches DuckDB's byte-based
    levenshtein()."""
    from ..functions.editdist import edit_near_dup
    ds = _docs_ds(sf_dir, columns=["doc_id", "text", "lang"])
    out = edit_near_dup(ds, id_col="doc_id", text_col="text",
                        group_cols=["lang"], prefix_len=32,
                        len_bucket=64, max_dist=10)
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                        ("dist", pa.int64())])
    t = _collect(out)
    if t.num_rows == 0:  # all-empty blocks may carry no schema
        return schema.empty_table()
    return t.take(pc.sort_indices(t, sort_keys=[
        ("id_a", "ascending"), ("id_b", "ascending")])).cast(schema)


@query("""
SELECT lang, count(*)::BIGINT AS docs,
       sum(CASE WHEN len(regexp_extract_all(text, '[0-9]{3,}')) > 0
                THEN 1 ELSE 0 END)::BIGINT AS docs_matched,
       sum(len(regexp_extract_all(text, '[0-9]{3,}')))::BIGINT
         AS total_matches
FROM documents GROUP BY lang ORDER BY lang
""")
def q_regex_scan(sf_dir: str) -> pa.Table:
    """Corpus grep: count non-overlapping RE2 matches of a PII-style
    pattern (3+ digit runs) per language — one vectorized
    ``pc.count_substring_regex`` pass per batch folded into per-lang
    partials (output space = languages, tiny), never a row-level loop
    or a shuffle.  pyarrow and DuckDB both embed RE2, so match counts
    are dialect-identical."""
    from ..functions.boilerplate import partial_aggregate
    ds = _docs_ds(sf_dir, columns=["text", "lang"])
    pat = r"[0-9]{3,}"

    def prep(t: pa.Table) -> pa.Table:
        cnt = pc.count_substring_regex(t["text"], pattern=pat)
        cnt = cnt.cast(pa.int64())
        hit = pc.cast(pc.greater(cnt, 0), pa.int64())
        return pa.table({"lang": t["lang"], "m": cnt, "hit": hit})

    out = partial_aggregate(ds, ["lang"],
                            [("hit", "count"), ("hit", "sum"),
                             ("m", "sum")], prepare=prep)
    schema = pa.schema([("lang", pa.string()),
                        ("docs", pa.int64()),
                        ("docs_matched", pa.int64()),
                        ("total_matches", pa.int64())])
    if out is None:
        return schema.empty_table()
    res = pa.table({"lang": out["lang"],
                    "docs": out["hit_count"].cast(pa.int64()),
                    "docs_matched": out["hit_sum"].cast(pa.int64()),
                    "total_matches": out["m_sum"].cast(pa.int64())})
    return res.take(pc.sort_indices(
        res, sort_keys=[("lang", "ascending")])).cast(schema)


@query("""
SELECT doc_id, rn FROM (
  SELECT doc_id,
         row_number() OVER (ORDER BY text, doc_id) AS rn
  FROM documents)
WHERE (rn - 1) % 97 = 0
ORDER BY rn
""")
def q_docs_ordered(sf_dir: str) -> pa.Table:
    """Global sort on a STRING key (document text): the 8-byte
    big-endian routing prefix is monotone w.r.t. UTF-8 bytewise order
    (== DuckDB's binary collation), and rows the prefix cannot
    distinguish co-partition by construction, so the per-part full-key
    sort makes the order exact.  Every 97th global ordinal is
    emitted."""
    from ..functions.sort import order_by
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    out = order_by(ds, [("text", "asc"), ("doc_id", "asc")],
                   row_number_col="rn")

    def stride(t: pa.Table) -> pa.Table:
        rn = t["rn"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((rn - 1) % 97 == 0))
        return t.select(["doc_id", "rn"])

    tbl = _collect(out.map_batches(stride, batch_format="pyarrow",
                                   zero_copy_batch=True))
    return tbl.cast(pa.schema([("doc_id", pa.int64()),
                               ("rn", pa.int64())])).sort_by("rn")


@query("""
WITH h AS (
  SELECT doc_id, source, n_chars, xor(v2, v2 >> 13) AS priority
  FROM (
    SELECT doc_id, source, n_chars,
           CAST((CAST(xor(v1, v1 >> 16) AS HUGEINT) * 2246822519)
                % 4294967296 AS BIGINT) AS v2
    FROM (SELECT doc_id, source, n_chars,
                 CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                      % 4294967296 AS BIGINT) AS v1
          FROM documents))
)
SELECT doc_id, priority, source, n_chars FROM h
ORDER BY priority, doc_id LIMIT 100
""")
def q_sample_exact_k(sf_dir: str) -> pa.Table:
    """Deterministic EXACT-k sample: the k rows with the smallest
    (mix32(doc_id), doc_id) priority — unlike Bernoulli sampling
    (``sample`` / ``weighted_sample``) the output size is exactly k
    regardless of corpus size, yet still partitioning-independent and
    stable under re-runs.  Distributed as per-batch top-k partials
    (each batch ships at most k rows) + one driver merge — a trillion
    rows move only tasks × k rows.  Reference analog: none (vfs-index
    has no sampling); standard bottom-k sketch."""
    from ..hashing import mix32
    k = 100
    ds = _docs_ds(sf_dir, columns=["doc_id", "source", "n_chars"])

    def topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pri = mix32(ids)
        idx = np.lexsort((ids, pri))[:k]
        return pa.table({"doc_id": pa.array(ids[idx], pa.int64()),
                         "priority": pa.array(pri[idx], pa.int64()),
                         "source": t["source"].take(pa.array(idx)),
                         "n_chars": t["n_chars"].take(pa.array(idx))})

    part = _collect(ds.map_batches(topk, batch_format="pyarrow",
                                   zero_copy_batch=True))
    if part.num_rows == 0:
        return pa.schema([("doc_id", pa.int64()),
                          ("priority", pa.int64()),
                          ("source", pa.string()),
                          ("n_chars", pa.int64())]).empty_table()
    order = pc.sort_indices(part, sort_keys=[("priority", "ascending"),
                                             ("doc_id", "ascending")])
    return part.take(order.slice(0, k))


@query("""
WITH h AS (
  SELECT lang, doc_id, xor(v2, v2 >> 13) AS priority FROM (
    SELECT lang, doc_id,
           CAST((CAST(xor(v1, v1 >> 16) AS HUGEINT) * 2246822519)
                % 4294967296 AS BIGINT) AS v2
    FROM (SELECT lang, doc_id,
                 CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                      % 4294967296 AS BIGINT) AS v1
          FROM documents))
)
SELECT lang, doc_id, priority FROM (
  SELECT lang, doc_id, priority,
         row_number() OVER (PARTITION BY lang
                            ORDER BY priority, doc_id) AS rn
  FROM h)
WHERE rn <= 20 ORDER BY lang, priority, doc_id
""")
def q_sample_k_per_group(sf_dir: str) -> pa.Table:
    """Balanced deterministic sampling: EXACTLY k=20 documents per
    language by (mix32(doc_id), doc_id) priority — the per-stratum
    variant of ``sample_exact_k`` (quota sampling for balanced eval
    sets).  Per batch each group ships at most k rows (one lexsort +
    boundary-diff cumcount, no per-group Python loop); the driver
    merge reruns the same kernel on groups × tasks × k rows."""
    from ..hashing import mix32
    k = 20

    def bottomk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pri = t["priority"].to_numpy(zero_copy_only=False) \
            if "priority" in t.column_names else mix32(ids)
        lang = t["lang"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        code = pc.dictionary_encode(lang).indices \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, pri, code))
        gc = code[order]
        starts = np.flatnonzero(
            np.concatenate([[True], gc[1:] != gc[:-1]]))
        # within-group ordinal: position − start of its group run
        pos = np.arange(len(gc)) - np.repeat(
            starts, np.diff(np.append(starts, len(gc))))
        keep = order[pos < k]
        return pa.table({"lang": lang.take(pa.array(keep)),
                         "doc_id": pa.array(ids[keep], pa.int64()),
                         "priority": pa.array(pri[keep], pa.int64())})

    ds = _docs_ds(sf_dir, columns=["doc_id", "lang"])
    part = _collect(ds.map_batches(bottomk, batch_format="pyarrow",
                                   zero_copy_batch=True))
    schema = pa.schema([("lang", pa.string()), ("doc_id", pa.int64()),
                        ("priority", pa.int64())])
    if part.num_rows == 0:
        return schema.empty_table()
    out = bottomk(part)
    return out.take(pc.sort_indices(out, sort_keys=[
        ("lang", "ascending"), ("priority", "ascending"),
        ("doc_id", "ascending")])).cast(schema)


@query("""
WITH tok AS (
  SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '')) AS tok FROM documents
), v AS (
  SELECT DISTINCT tok FROM tok
), r AS (
  SELECT tok, (row_number() OVER (ORDER BY tok) - 1) % 64 AS slot
  FROM v
)
SELECT doc_id, r.slot::BIGINT AS slot, count(*)::BIGINT AS n
FROM tok JOIN r USING (tok)
WHERE doc_id % 50 = 0
GROUP BY 1, 2 ORDER BY doc_id, slot
""")
def q_feature_vectors(sf_dir: str) -> pa.Table:
    """Count-vectorizer (hashed bag-of-words) for ML feature
    extraction: token → slot = vocabulary-rank mod 64, where the rank
    is the position in the byte-sorted corpus vocabulary (the
    keywords-family broadcast convention — deterministic and
    SQL-reproducible, unlike a string hash).  Sparse (doc_id, slot,
    n) triples for the doc_id % 50 == 0 sample; each doc's text lives
    in one row, so per-batch counts are final — no merge.  The vocab
    itself comes from the distributed df pass
    (boilerplate.unit_doc_frequencies)."""
    import ray

    from ..functions.boilerplate import unit_doc_frequencies
    from ..tokenizer import word_tokens_flat
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    vocab = unit_doc_frequencies(ds, unit="token")
    toks = vocab["unit"].combine_chunks()
    order = pc.sort_indices(toks)          # byte order (ASCII corpus)
    sorted_vocab = toks.take(order)
    vocab_ref = ray.put(sorted_vocab)

    def vectorize(t: pa.Table) -> pa.Table:
        voc = ray.get(vocab_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 50 == 0
        if not keep.any():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "slot": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        sub = t.filter(pa.array(keep))
        sids = sub["doc_id"].to_numpy(zero_copy_only=False)
        flat, parent, _ = word_tokens_flat(sub["text"])
        rank = pc.index_in(flat, value_set=voc) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        slot = rank % 64
        key = parent * 64 + slot
        cnt = np.bincount(key, minlength=len(sids) * 64)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "doc_id": pa.array(sids[nz // 64], pa.int64()),
            "slot": pa.array(nz % 64, pa.int64()),
            "n": pa.array(cnt[nz], pa.int64())})

    out = _collect(ds.map_batches(vectorize, batch_format="pyarrow",
                                  zero_copy_batch=True))
    schema = pa.schema([("doc_id", pa.int64()), ("slot", pa.int64()),
                        ("n", pa.int64())])
    if out.num_rows == 0:
        return schema.empty_table()
    return out.take(pc.sort_indices(out, sort_keys=[
        ("doc_id", "ascending"), ("slot", "ascending")])).cast(schema)


@query("""
WITH tok AS (
  SELECT doc_id,
         unnest(list_distinct(list_filter(regexp_split_to_array(
           lower(text), '[^a-z0-9]+'), x -> x <> ''))) AS tok
  FROM documents
), df AS (
  SELECT tok, count(*)::BIGINT AS df FROM tok GROUP BY 1
), top AS (
  SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT 50
), p AS (
  SELECT a.tok AS tok_a, b.tok AS tok_b, count(*)::BIGINT AS pair
  FROM tok a JOIN tok b USING (doc_id)
  WHERE a.tok < b.tok
    AND a.tok IN (SELECT tok FROM top)
    AND b.tok IN (SELECT tok FROM top)
  GROUP BY 1, 2
), n AS (SELECT count(*)::HUGEINT AS nd FROM documents)
SELECT tok_a, tok_b, pair,
       (pair::HUGEINT * nd * 1000000
        // (ta.df::HUGEINT * tb.df))::BIGINT AS lift_x1e6
FROM p
JOIN top ta ON ta.tok = p.tok_a
JOIN top tb ON tb.tok = p.tok_b
CROSS JOIN n
WHERE pair >= 5
ORDER BY lift_x1e6 DESC, tok_a, tok_b LIMIT 20
""")
def q_collocations(sf_dir: str) -> pa.Table:
    """Collocation mining by LIFT over the 50 most frequent tokens:
    pair_df·N / (df_a·df_b) ranks pairs that co-occur MORE than their
    popularity predicts (the symmetric counterpart to related_terms'
    directional confidence).  The candidate space is the top-50 df
    tokens, so the pair statistics come from ONE presence-matrix
    matmul per batch (n_docs×50 0/1 matrix → 50×50 co-occurrence —
    fixed 1275-row partials at ANY corpus size); df pass reuses the
    distributed vocabulary shuffle (unit_doc_frequencies)."""
    import ray

    from ..functions.boilerplate import (partial_aggregate,
                                         unit_doc_frequencies)
    from ..tokenizer import word_tokens_flat
    topn, min_pair = 50, 5
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    n_docs = ds.count()
    vocab = unit_doc_frequencies(ds, unit="token")
    vt = sorted(zip(vocab["unit"].to_pylist(),
                    vocab["df"].to_pylist()),
                key=lambda p: (-p[1], p[0]))[:topn]
    # candidate tokens in BYTE order so pair (i < j) == (tok_i < tok_j)
    toks = sorted(t for t, _ in vt)
    dfs = dict(vt)
    tok_arr = pa.array(toks, pa.string())
    tok_ref = ray.put(tok_arr)
    iu, ju = np.triu_indices(len(toks), k=1)

    def pairs(t: pa.Table) -> pa.Table:
        cand = ray.get(tok_ref)
        flat, parent, _ = word_tokens_flat(t["text"])
        rank = pc.index_in(flat, value_set=cand).fill_null(-1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        hit = rank >= 0
        m = np.zeros((t.num_rows, len(cand)), np.float64)
        m[parent[hit], rank[hit]] = 1.0
        g = (m.T @ m).astype(np.int64)      # exact: 0/1 entries
        return pa.table({"ia": pa.array(iu, pa.int64()),
                         "ib": pa.array(ju, pa.int64()),
                         "c": pa.array(g[iu, ju], pa.int64())})

    out = partial_aggregate(ds, ["ia", "ib"], [("c", "sum")],
                            prepare=pairs)
    schema = pa.schema([("tok_a", pa.string()), ("tok_b", pa.string()),
                        ("pair", pa.int64()), ("lift_x1e6", pa.int64())])
    if out is None:
        return schema.empty_table()
    rows = []
    for ia, ib, c in zip(out["ia"].to_pylist(), out["ib"].to_pylist(),
                         out["c_sum"].to_pylist()):
        c = int(c)
        if c < min_pair:
            continue
        a, b = toks[ia], toks[ib]
        lift = c * n_docs * 1_000_000 // (dfs[a] * dfs[b])
        rows.append({"tok_a": a, "tok_b": b, "pair": c,
                     "lift_x1e6": lift})
    rows.sort(key=lambda r: (-r["lift_x1e6"], r["tok_a"], r["tok_b"]))
    return pa.Table.from_pylist(rows[:20], schema=schema)
