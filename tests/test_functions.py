"""Tests for the training-data operators (dedup, similarity, text stats,
multimodal plumbing) — verified against brute-force computations."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data
    return ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")


@pytest.fixture(scope="module")
def docs_tbl():
    return pq.read_table("/root/testdata/sf0.001/documents.parquet")


def test_exact_dedup_matches_bruteforce(docs_ds, docs_tbl):
    import hashlib

    from vfs_index_ray.functions.dedup import exact_dedup
    got = {r["h"]: (r["doc_id"], r["n"])
           for r in exact_dedup(docs_ds).take_all()}
    want: dict[str, list[int]] = {}
    for d, t in zip(docs_tbl["doc_id"].to_pylist(),
                    docs_tbl["text"].to_pylist()):
        want.setdefault(hashlib.md5(t.encode()).hexdigest(), []).append(d)
    assert len(got) == len(want)
    for h, ids in want.items():
        assert got[h] == (min(ids), len(ids))


def test_minhash_estimates_jaccard(ray_session):
    """Signature agreement approximates true shingle Jaccard."""
    import ray.data

    from vfs_index_ray.functions.dedup import (MinHashSignature,
                                               minhash_candidates,
                                               ngram_jaccard_pairs)
    base = "the quick brown fox jumps over the lazy dog " * 5
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base + " extra tail words here"},  # near-dup
        {"doc_id": 2, "text": "completely different content entirely " * 6},
    ]
    ds = ray.data.from_items(rows)
    pairs = minhash_candidates(ds, num_perm=64, num_bands=16)
    got = {(a, b): j for a, b, j in zip(pairs["doc_a"].to_pylist(),
                                        pairs["doc_b"].to_pylist(),
                                        pairs["est_jaccard_x1e4"].to_pylist())}
    assert (0, 1) in got
    assert got[(0, 1)] > 5000          # clearly similar
    assert (0, 2) not in got or got[(0, 2)] < 2000
    exact = ngram_jaccard_pairs(ds, pairs)
    ex = {(a, b): j for a, b, j in zip(exact["doc_a"].to_pylist(),
                                       exact["doc_b"].to_pylist(),
                                       exact["jaccard_x1e4"].to_pylist())}
    # estimate within 0.2 of exact for the near-dup pair
    assert abs(ex[(0, 1)] - got[(0, 1)]) < 2000


def test_simhash_near_dups(ray_session):
    import ray.data

    from vfs_index_ray.functions.dedup import simhash_near_dups
    # many distinct tokens → stable bit sums → a one-token edit moves the
    # simhash only a few bits (the regime SimHash near-dup targets)
    base = " ".join(f"tok{i:04d}" for i in range(1000))
    rows = [
        {"doc_id": 10, "text": base},
        {"doc_id": 11, "text": base + " zzz"},                # tiny edit
        {"doc_id": 12, "text": "unrelated words " * 30},
    ]
    out = simhash_near_dups(ray.data.from_items(rows), max_hamming=3)
    pairs = set(zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist()))
    assert (10, 11) in pairs
    assert (10, 12) not in pairs


def test_simhash_star_mode(ray_session):
    """pairs="star" emits only hub→member edges (hub = lowest doc id),
    ignores bucket_cap, and never enumerates the full pair set."""
    import ray.data

    from vfs_index_ray.functions.dedup import simhash_near_dups
    n = 5
    rows = [{"doc_id": i, "text": "same words all over again " * 10}
            for i in range(n)]
    ds = ray.data.from_items(rows)
    st: dict = {}
    out = simhash_near_dups(ds, pairs="star", bucket_cap=3, stats=st)
    got = set(zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist()))
    # star mode: exactly the n-1 hub edges, not the C(n,2)=10 all-pairs
    assert got == {(0, i) for i in range(1, n)}
    # star mode keeps oversized buckets (no cap applies)
    assert st["buckets_dropped"] == 0


def test_ann_topk_matches_bruteforce(ray_session):
    import ray.data

    from vfs_index_ray.functions.similarity import ann_cosine_topk
    ds = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    out = ann_cosine_topk(ds, [0, 1], k=5)
    tbl = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    mat = np.array(tbl["embedding"].to_pylist(), np.float64)
    ids = np.array(tbl["vec_id"].to_pylist(), np.int64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qid in (0, 1):
        sims = mat @ mat[list(ids).index(qid)]
        mask = ids != qid
        order = np.lexsort((ids[mask], -sims[mask]))[:5]
        want = ids[mask][order].tolist()
        got = [v for q, v in zip(out["query_id"].to_pylist(),
                                 out["vec_id"].to_pylist()) if q == qid]
        assert got == want, qid


def test_embedding_near_dups_finds_planted(ray_session):
    import ray.data

    from vfs_index_ray.functions.similarity import embedding_near_dups
    rng = np.random.default_rng(5)
    base = rng.normal(size=(20, 32)).astype(np.float32)
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(20)]
    # plant a near-duplicate of vector 3
    dup = base[3] + rng.normal(scale=0.01, size=32).astype(np.float32)
    rows.append({"vec_id": 99, "embedding": dup.tolist()})
    out = embedding_near_dups(ray.data.from_items(rows), threshold=0.95)
    pairs = set(zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist()))
    assert (3, 99) in pairs


def test_token_stats_vs_python(docs_ds, docs_tbl):
    import re

    from vfs_index_ray.functions.textstats import STOPWORDS, TokenStats
    out = docs_ds.map_batches(TokenStats(), batch_format="pyarrow",
                              concurrency=2).take_all()
    got = {r["doc_id"]: r for r in out}
    for d, t in list(zip(docs_tbl["doc_id"].to_pylist(),
                         docs_tbl["text"].to_pylist()))[:50]:
        toks = [w for w in re.split(r"[^a-z0-9]+", t.lower()) if w]
        assert got[d]["n_tokens"] == len(toks)
        assert got[d]["n_uniq"] == len(set(toks))
        stop = sum(w in STOPWORDS for w in toks) / max(len(toks), 1)
        assert got[d]["stop_ratio_x1e4"] == int(np.floor(stop * 1e4 + 0.5))


def test_multimodal_plumbing(ray_session):
    import ray.data

    from vfs_index_ray.functions.multimodal import (DecodeImage, FrameSample,
                                                    decode_images)
    rows = [{"media_id": i, "payload": bytes([i]) * (1000 + i)}
            for i in range(10)]
    ds = ray.data.from_items(rows)
    out = decode_images(ds, fake=True, feat_dim=16, batch_size=4).take_all()
    assert len(out) == 10
    assert all(len(r["features"]) == 16 for r in out)
    # deterministic: same payload → same features
    again = decode_images(ray.data.from_items(rows), fake=True,
                          feat_dim=16).take_all()
    a = {r["media_id"]: r["features"] for r in out}
    b = {r["media_id"]: r["features"] for r in again}
    assert a == b
    # real decode is an explicit stub
    with pytest.raises(NotImplementedError):
        DecodeImage(fake=False)(pa.table({
            "media_id": pa.array([1], pa.int64()),
            "payload": pa.array([b"xx"], pa.binary())}))
    frames = ray.data.from_items(
        [{"media_id": 1, "payload": b"z" * (1 << 17)}]
    ).map_batches(FrameSample(), batch_format="pyarrow").take_all()
    assert len(frames) == 2


def test_langid_on_corpus(ray_session, pages_file):
    import ray.data

    from vfs_index_ray.functions.textstats import LangId
    ds = ray.data.read_parquet(pages_file)

    def add_doc_id(t: pa.Table) -> pa.Table:
        from vfs_index_ray.hashing import doc_ids_from_urls
        ids = doc_ids_from_urls(t["url"].combine_chunks()
                                if isinstance(t["url"], pa.ChunkedArray)
                                else t["url"])
        return t.append_column("doc_id",
                               pa.array(ids.astype(np.int64), pa.int64()))

    out = ds.map_batches(add_doc_id, batch_format="pyarrow").map_batches(
        LangId(), batch_format="pyarrow", concurrency=2).take_all()
    pred_by_id = {r["doc_id"]: r["lang_pred"] for r in out}
    from vfs_index_ray.hashing import doc_id_from_url
    tbl = pq.read_table(pages_file, columns=["url", "lang"])
    n_ja = ja_correct = 0
    for url, lang in zip(tbl["url"].to_pylist(), tbl["lang"].to_pylist()):
        if lang == "ja":
            n_ja += 1
            did = doc_id_from_url(url)
            did = did - (1 << 64) if did >= (1 << 63) else did  # int64 view
            if pred_by_id.get(did) == "ja":
                ja_correct += 1
    # ja rows are pure CJK — the script heuristic must catch all of them
    assert ja_correct == n_ja > 0

def test_ivf_fullprobe_equals_bruteforce(ray_session, tmp_path):
    import ray.data

    from vfs_index_ray.functions.similarity import IVFIndex
    src = "/root/testdata/sf0.001/embeddings.parquet"
    ds = ray.data.read_parquet(src)
    ivf = IVFIndex.build(ds, str(tmp_path / "ivf"), num_centroids=8)
    tbl = pq.read_table(src)
    mat = np.array(tbl["embedding"].to_pylist(), np.float64)
    ids = np.array(tbl["vec_id"].to_pylist(), np.int64)
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qid in (0, 7):
        qi = list(ids).index(qid)
        got_ids, got_sims = ivf.search(mat[qi], k=5, nprobe=8,
                                       exclude_id=qid)
        sims = matn @ matn[qi]
        m = ids != qid
        order = np.lexsort((ids[m], -sims[m]))[:5]
        assert got_ids.tolist() == ids[m][order].tolist()
    # reloading from disk gives identical results (persisted index)
    ivf2 = IVFIndex(str(tmp_path / "ivf"))
    a = ivf.search(mat[0], k=5, nprobe=8)
    b = ivf2.search(mat[0], k=5, nprobe=8)
    assert a[0].tolist() == b[0].tolist()


def test_ivf_probe_recall(ray_session, tmp_path):
    """nprobe < num_centroids trades recall for pruning; top-1 self-bucket
    recall must be decent even on near-random embeddings."""
    import ray.data

    from vfs_index_ray.functions.similarity import IVFIndex
    src = "/root/testdata/sf0.001/embeddings.parquet"
    ds = ray.data.read_parquet(src)
    ivf = IVFIndex.build(ds, str(tmp_path / "ivf2"), num_centroids=8)
    tbl = pq.read_table(src)
    mat = np.array(tbl["embedding"].to_pylist(), np.float64)
    ids = np.array(tbl["vec_id"].to_pylist(), np.int64)
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    hits = total = 0
    for qi in range(0, 50):
        got_ids, _ = ivf.search(mat[qi], k=5, nprobe=4, exclude_id=int(ids[qi]))
        sims = matn @ matn[qi]
        m = ids != ids[qi]
        order = np.lexsort((ids[m], -sims[m]))[:5]
        want = set(ids[m][order].tolist())
        hits += len(want & set(got_ids.tolist()))
        total += 5
    assert hits / total >= 0.5, hits / total


def test_cluster_and_drop_near_dups(ray_session):
    import ray.data

    from vfs_index_ray.functions.dedup import cluster_pairs, drop_near_dups
    pairs = pa.table({"doc_a": pa.array([1, 2, 7], pa.int64()),
                      "doc_b": pa.array([2, 3, 9], pa.int64())})
    reps = cluster_pairs(pairs)
    assert reps[2] == 1 and reps[3] == 1 and reps[9] == 7
    rows = [{"doc_id": i, "text": f"d{i}"} for i in range(10)]
    kept = sorted(r["doc_id"] for r in
                  drop_near_dups(ray.data.from_items(rows), pairs).take_all())
    # drops 2, 3 (cluster rep 1) and 9 (cluster rep 7)
    assert kept == [0, 1, 4, 5, 6, 7, 8]


def test_nears_ranking(ray_session, built_index, oracle_index):
    """Reference Nears tf-share ranking parity (A7)."""
    from vfs_index_ray import corpus as corp
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx)
    docs, dists = eng.nears("bababa " + corp.RARE_TERM, k=10)
    # docs containing BOTH terms must rank before single-term docs
    both = set(oracle_index.match("bababa")) & set(
        oracle_index.match(corp.RARE_TERM))
    if both:
        top = set(int(d) for d in docs[:len(both)])
        assert top == both
    # distances quantized to 1e-5 and ascending
    assert all(dists[i] <= dists[i + 1] for i in range(len(dists) - 1))
    assert all(abs(d * 1e5 - round(d * 1e5)) < 1e-6 for d in dists)


def test_query_stats(built_index):
    from vfs_index_ray import corpus as corp
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    eng = SearchEngine(idx)
    eng.bm25("bababa " + corp.RARE_TERM, 5)
    st = eng.last_query_stats
    assert st["n_terms"] == 2 and st["ms"] > 0 and st["total_df"] > 4


def test_ppm_roundtrip_and_decode():
    from vfs_index_ray.functions.multimodal import (DecodeImage, decode_ppm,
                                                    encode_ppm)
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    pix = rng.integers(0, 256, (11, 7, 3), dtype=np.int64).astype(np.uint8)
    payload = encode_ppm(pix)
    w, h, back = decode_ppm(payload)
    assert (w, h) == (7, 11)
    assert np.array_equal(back, pix)
    # comments + arbitrary whitespace in the header parse too
    hacked = b"P6\n# a comment\n 7\t11 # w h\n255\n" + payload.split(b"255\n", 1)[1]
    assert np.array_equal(decode_ppm(hacked)[2], pix)
    # real decode through the stage: grid-pooled features
    out = DecodeImage(fake=False, feat_dim=16)(pa.table({
        "media_id": pa.array([1], pa.int64()),
        "payload": pa.array([payload], pa.binary())}))
    assert out["width"].to_pylist() == [7]
    assert out["height"].to_pylist() == [11]
    f = out["features"].to_pylist()[0]
    assert len(f) == 16
    # pooled means live in [0,1] and match a brute-force cell check
    gray = pix.astype(np.float64).mean(axis=2) / 255.0
    assert abs(f[0] - gray[:3, :2].mean()) < 1e-6


def test_png_roundtrip_all_filters_and_cross_codec():
    from vfs_index_ray.functions.multimodal import (DecodeImage, decode_png,
                                                    encode_png, encode_ppm)
    rng = np.random.Generator(np.random.Philox(key=[6, 0]))
    # every channel count x every scanline filter roundtrips exactly
    for ch in (1, 2, 3, 4):
        for f in range(5):
            pix = rng.integers(0, 256, (13, 9, ch), dtype=np.int64
                               ).astype(np.uint8)
            w, h, back = decode_png(encode_png(pix, filter_type=f))
            assert (w, h) == (9, 13)
            assert np.array_equal(back, pix), (ch, f)
    # cross-codec agreement: the SAME pixels through PPM and PNG
    # payloads must produce byte-identical stage features
    pix = rng.integers(0, 256, (20, 24, 3), dtype=np.int64).astype(np.uint8)
    stage = DecodeImage(fake=False, feat_dim=16)
    out_ppm = stage(pa.table({
        "media_id": pa.array([1], pa.int64()),
        "payload": pa.array([encode_ppm(pix)], pa.binary())}))
    out_png = stage(pa.table({
        "media_id": pa.array([1], pa.int64()),
        "payload": pa.array([encode_png(pix, filter_type=4)],
                            pa.binary())}))
    assert out_ppm.equals(out_png)
    # unsupported flavors fail loudly at the documented boundary
    import pytest as _pytest
    with _pytest.raises(NotImplementedError):
        decode_png(encode_png(pix)[:8] +  # corrupt: declare 16-bit depth
                   b"\x00\x00\x00\x0dIHDR" +
                   (24).to_bytes(4, "big") + (20).to_bytes(4, "big") +
                   bytes([16, 2, 0, 0, 0]) + b"\x00" * 4)


def test_wav_roundtrip_and_audio_stage(ray_session):
    import ray.data

    from vfs_index_ray.functions.multimodal import (DecodeAudio, decode_wav,
                                                    encode_wav)
    t = np.arange(8000)
    tone = (np.sin(2 * np.pi * 440 * t / 16000) * 20000).astype(np.int16)
    payload = encode_wav(tone, rate=16000)
    rate, back = decode_wav(payload)
    assert rate == 16000
    assert np.array_equal(back[:, 0], tone)
    rows = [{"media_id": 1, "payload": payload},
            {"media_id": 2, "payload": encode_wav(
                np.zeros(1600, np.int16), rate=8000)}]
    out = (ray.data.from_items(rows)
           .map_batches(DecodeAudio(), batch_format="pyarrow",
                        batch_size=2).take_all())
    got = {r["media_id"]: r for r in out}
    assert got[1]["sample_rate"] == 16000 and got[1]["n_frames"] == 8000
    # a 440 Hz tone has rms ~ amplitude/sqrt(2)
    assert abs(got[1]["rms"][0] - (20000 / 32768) / np.sqrt(2)) < 0.01
    assert got[2]["sample_rate"] == 8000
    assert all(v == 0.0 for v in got[2]["rms"])


def test_synth_media_decodes_deterministically(ray_session):
    import ray.data

    from vfs_index_ray.functions.multimodal import (decode_images,
                                                    synth_media_table)
    media = synth_media_table(np.arange(12))
    out = decode_images(ray.data.from_items(media.to_pylist()),
                        feat_dim=16, batch_size=4).take_all()
    assert len(out) == 12
    again = decode_images(ray.data.from_items(media.to_pylist()),
                          feat_dim=16, batch_size=4).take_all()
    a = {r["media_id"]: (r["width"], r["height"], r["features"])
         for r in out}
    b = {r["media_id"]: (r["width"], r["height"], r["features"])
         for r in again}
    assert a == b


def test_bpe_token_count_matches_re(ray_session):
    import ray.data

    from vfs_index_ray.functions.textstats import BPE_SPLIT, BpeTokenCount
    texts = ["Hello world, it's 42 tests!", "", "a'll b've c's",
             "foo-bar  baz\nnew line", "日本語 text 123"]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    out = (ray.data.from_items(rows)
           .map_batches(BpeTokenCount(), batch_format="pyarrow")
           .take_all())
    got = {r["doc_id"]: r["n_bpe_tokens"] for r in out}
    # DuckDB's regexp_extract_all is an independent RE2 implementation
    # of the same pattern — the cross-engine contract the driver checks
    import duckdb
    con = duckdb.connect()
    for i, t in enumerate(texts):
        want = con.execute("SELECT len(regexp_extract_all(?, ?))",
                           [t, BPE_SPLIT]).fetchone()[0]
        assert got[i] == want, t


def test_gopher_quality_bruteforce(ray_session):
    import ray.data

    from vfs_index_ray.functions.textstats import GopherQuality
    texts = ["line a\nline a\nline b", "- one\n* two\nthree",
             "no newline!!!", "", "$$$ @@@ %%%"]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    out = (ray.data.from_items(rows)
           .map_batches(GopherQuality(), batch_format="pyarrow")
           .take_all())
    got = {r["doc_id"]: r for r in out}
    for i, t in enumerate(texts):
        lines = t.split("\n")
        nl = max(len(lines), 1)
        dup = (len(lines) - len(set(lines))) / nl
        bullets = sum(x.startswith(("- ", "* ")) for x in lines) / nl
        sym = sum(not (c.isascii() and (c.isalnum() or c == " "))
                  for c in t) / max(len(t), 1)
        r = got[i]
        assert r["n_lines"] == len(lines)
        assert r["dup_line_frac_x1e4"] == int(np.floor(dup * 1e4 + 0.5))
        assert r["bullet_ratio_x1e4"] == int(np.floor(bullets * 1e4 + 0.5))
        assert r["symbol_ratio_x1e4"] == int(np.floor(sym * 1e4 + 0.5))


def test_quantize_int8_roundtrip(ray_session):
    import ray.data

    from vfs_index_ray.functions.similarity import QuantizeInt8
    rng = np.random.Generator(np.random.Philox(key=[21, 0]))
    rows = [{"vec_id": i, "embedding": rng.normal(size=8).tolist()}
            for i in range(20)]
    out = (ray.data.from_items(rows)
           .map_batches(QuantizeInt8(), batch_format="pyarrow")
           .take_all())
    got = {r["vec_id"]: r for r in out}
    for row in rows:
        v = np.asarray(row["embedding"])
        scale = 127.0 / np.abs(v).max()
        q = np.floor(v * scale + 0.5)
        r = got[row["vec_id"]]
        assert r["q"] == q.astype(np.int8).tolist()
        assert r["qsum"] == int(q.sum())
        assert r["qmax"] <= 127 and r["qmin"] >= -127
        # dequantized vector stays close (int8 symmetric error bound)
        assert np.abs(q / scale - v).max() <= 0.5 / scale + 1e-12


def test_top_terms_exact_and_sketch(docs_ds, docs_tbl):
    """Exact top-k == brute force; the Misra-Gries sketch recovers the
    head terms with counts within n_tokens/capacity."""
    import collections
    import re

    from vfs_index_ray.functions.textstats import top_terms, top_terms_sketch
    counter = collections.Counter()
    for t in docs_tbl["text"].to_pylist():
        counter.update(w for w in re.split(r"[^a-z0-9]+", t.lower()) if w)
    want = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = top_terms(docs_ds, k=10)
    assert list(zip(got["token"].to_pylist(), got["n"].to_pylist())) == want
    n_tokens = sum(counter.values())
    cap = 512
    sk = top_terms_sketch(docs_ds, k=10, capacity=cap)
    sk_map = dict(sk)
    for tok, n in want:
        assert tok in sk_map, tok                      # guaranteed heavy hitter
        assert abs(sk_map[tok] - n) <= n_tokens // cap + 1


def test_centroid_classify_planted_clusters(ray_session):
    """Vectors sampled around 3 orthogonal centroids classify back to
    their planted labels; ranks deterministic."""
    import ray.data

    from vfs_index_ray.functions.similarity import centroid_classify
    rng = np.random.Generator(np.random.Philox(key=[55, 0]))
    cents = np.eye(3, 12)  # 3 orthogonal unit centroids in 12-d
    rows = []
    for i in range(60):
        lab = i % 3
        v = cents[lab] + rng.normal(scale=0.05, size=12)
        rows.append({"vec_id": i, "label": lab, "embedding": v.tolist()})
    out = centroid_classify(ray.data.from_items(rows))
    got = {r["vec_id"]: r["pred_label"]
           for r in out.to_pylist()}
    assert all(got[i] == i % 3 for i in range(60))
    # deterministic across runs
    again = centroid_classify(ray.data.from_items(rows))
    assert out.equals(again)


def test_lsh_dropped_bucket_reporting(ray_session):
    """Buckets over bucket_cap are dropped VISIBLY: the stats dict
    reports count + largest bucket, and capped output never contains
    sentinel rows."""
    import ray.data

    from vfs_index_ray.functions.dedup import (minhash_candidates,
                                               simhash_near_dups)
    # 6 identical docs → every band bucket holds all 6
    rows = [{"doc_id": i, "text": "same words all over again " * 10}
            for i in range(6)]
    ds = ray.data.from_items(rows)
    st: dict = {}
    out = minhash_candidates(ds, num_perm=64, num_bands=16,
                             bucket_cap=4, stats=st)
    assert st["buckets_dropped"] > 0
    assert st["docs_in_dropped_max"] == 6
    assert out.num_rows == 0                      # all pairs were capped
    assert (out["doc_a"].to_numpy(zero_copy_only=False) >= 0).all()
    st2: dict = {}
    out2 = simhash_near_dups(ds, bucket_cap=4, stats=st2)
    assert st2["buckets_dropped"] > 0 and out2.num_rows == 0
    # without the cap the pairs come back and stats report no drops
    st3: dict = {}
    full = minhash_candidates(ds, num_perm=64, num_bands=16, stats=st3)
    assert st3["buckets_dropped"] == 0 and full.num_rows == 15


def test_media_checksum_stages_match_numpy(ray_session):
    """ImageChecksum / AudioChecksum equal direct numpy sums of the
    closed-form synthetic rasters/samples — the decode really ran."""
    import ray.data

    from vfs_index_ray.functions.multimodal import (AudioChecksum,
                                                    ImageChecksum,
                                                    synth_audio_table,
                                                    synth_media_table)

    dids = np.arange(10, dtype=np.int64)
    media = synth_media_table(dids, noise=False)
    out = (ray.data.from_items(media.to_pylist())
           .map_batches(ImageChecksum, batch_format="pyarrow",
                        batch_size=4, concurrency=2).take_all())
    out.sort(key=lambda r: r["media_id"])
    for r in out:
        did = r["media_id"]
        w, h = 24 + did % 17, 20 + did % 13
        yy, xx = np.mgrid[0:h, 0:w]
        cc = np.arange(3)
        base = (xx * 255) // (w - 1) + (yy * 131) // (h - 1)
        tex = (xx[:, :, None] * 7 + yy[:, :, None] * 11
               + cc[None, None, :] * 5 + did) % 32
        want = int(np.minimum(base[:, :, None] + tex, 255).sum())
        assert (r["width"], r["height"], r["pix_sum"]) == (w, h, want)

    audio = synth_audio_table(dids)
    aout = (ray.data.from_items(audio.to_pylist())
            .map_batches(AudioChecksum, batch_format="pyarrow",
                         batch_size=4, concurrency=2).take_all())
    aout.sort(key=lambda r: r["media_id"])
    for r in aout:
        did = r["media_id"]
        n = 2048 + (did % 5) * 17
        i = np.arange(n, dtype=np.int64)
        want = int(((did * 31 + i * 7) % 65536 - 32768).sum())
        assert (r["sample_rate"], r["n_frames"], r["sample_sum"]) == \
            (16000, n, want)


def test_top_bigrams_no_cross_doc_pairs(ray_session):
    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions.textstats import top_bigrams
    t = pa.table({"text": pa.array([
        "alpha beta gamma", "beta gamma", "gamma alpha beta", ""])})
    got = top_bigrams(ray.data.from_arrow(t), k=10).to_pandas()
    want = {"beta gamma": 2, "alpha beta": 2, "gamma alpha": 1}
    assert dict(zip(got["bigram"], got["n"])) == want
    # 'gamma' (doc0 end) + 'beta' (doc1 start) must NOT pair up
    assert "gamma beta" not in set(got["bigram"])
