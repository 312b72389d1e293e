"""Segment reads across record-batch boundaries: an index re-encoded
with a few-KB batch target (many batches per part) answers every read
shape exactly like the default one-batch-per-part encoding."""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from vfs_index_ray import corpus
from vfs_index_ray.segment import SegmentReader, SegmentWriter, part_path

PARTS = 4
QUERIES = [corpus.RARE_TERM, corpus.PHRASE, "bababa babade",
           "the of and"]


@pytest.fixture(scope="module")
def two_encodings(ray_session, pages_file, tmp_path_factory):
    """(default index, the same postings re-encoded in 4 KB batches).
    Bucketed (``bucket_shift=61``) so head terms span several rows."""
    from vfs_index_ray.build import IndexBuilder

    root = tmp_path_factory.mktemp("batches")
    default = str(root / "default")
    IndexBuilder(default, mode="word", num_parts=PARTS, bucket_shift=61,
                 id_col=None).build([pages_file])
    small = str(root / "small")
    shutil.copytree(default, small)
    src = SegmentReader(default, PARTS)
    mp = pytest.MonkeyPatch()
    mp.setattr(SegmentWriter, "BATCH_TARGET_BYTES", 4096)
    try:
        writer = SegmentWriter(SegmentReader(small, PARTS).segments_dir, 61)
        for p in range(PARTS):
            t, d, tf, dl = src.decode_part(p)
            writer.encode_part(p, pa.table({"term_id": t, "doc_id": d,
                                            "tf": tf, "dl": dl}))
    finally:
        mp.undo()
    return default, small


def _batch_firsts(reader, part):
    with pa.memory_map(part_path(reader.segments_dir, part)) as src:
        f = pa.ipc.open_file(src)
        return [f.get_batch(i).column("term_id")[0].as_py()
                for i in range(f.num_record_batches)]


def _rows(by_term):
    return {t: [{k: np.asarray(v).tobytes() for k, v in row.items()}
                for row in rows] for t, rows in by_term.items()}


def test_reads_across_batch_boundaries(two_encodings):
    from vfs_index_ray.search import SearchEngine, bm25_topk_ray

    default, small = two_encodings
    big_r, small_r = SegmentReader(default, PARTS), SegmentReader(small,
                                                                  PARTS)
    for p in range(PARTS):
        assert len(_batch_firsts(big_r, p)) == 1
        firsts = _batch_firsts(small_r, p)
        assert len(firsts) >= 8, p
        terms = big_r.read_range(p, columns=["term_id"])["term_id"]
        terms = np.unique(terms.to_numpy())
        # head terms span several chunk rows: their rows stay together
        assert big_r.read_range(p).num_rows > len(terms)

        # keys on, just below and just above some batch-first terms
        near = sorted({k for f in firsts[1::len(firsts) // 6]
                       for k in (f - 1, f, f + 1)})
        probe = sorted(set(terms[::7].tolist()) | set(near))
        assert (_rows(small_r.load_terms(p, probe))
                == _rows(big_r.load_terms(p, probe)))
        for lo in [None] + near:
            for hi in [None] + near:
                if lo is not None and hi is not None and hi < lo:
                    continue
                assert small_r.read_range(p, lo, hi).equals(
                    big_r.read_range(p, lo, hi)), (p, lo, hi)
                cols = ["df", "term_id"]
                assert small_r.read_range(p, lo, hi, cols).equals(
                    big_r.read_range(p, lo, hi, cols)), (p, lo, hi)
        keys = near + [0, int(terms[0]) - 1, int(terms[0]),
                       int(terms[-1]), int(terms[-1]) + 1, (1 << 64) - 1]
        for key in keys:
            for less in (True, False):
                assert (small_r.nearest(p, key, less)
                        == big_r.nearest(p, key, less)), (p, key, less)
        assert big_r.nearest(p, int(terms[0]) - 1, True) is None
        assert big_r.nearest(p, int(terms[-1]) + 1, False) is None
        for lo, hi in [(None, None), (firsts[2], firsts[5] - 1),
                       (firsts[3] + 1, firsts[3] + 1)]:
            for a, b in zip(small_r.decode_part(p, lo, hi),
                            big_r.decode_part(p, lo, hi)):
                assert np.array_equal(a, b), (p, lo, hi)

    eb, es = SearchEngine(default), SearchEngine(small)
    for q in QUERIES:
        db, sb = eb.bm25(q, 20)
        ds, ss = es.bm25(q, 20)
        assert ds.tolist() == db.tolist() and ss.tolist() == sb.tolist()
        rb, rs = bm25_topk_ray(default, q, 10), bm25_topk_ray(small, q, 10)
        assert rs[0].tolist() == rb[0].tolist()
        assert rs[1].tolist() == rb[1].tolist()
