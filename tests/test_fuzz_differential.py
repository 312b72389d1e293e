"""Differential fuzz: random queries → engine must equal oracle exactly
(match sets, counts, and fp64 BM25 scores) on the session corpus."""

import numpy as np
import pytest

from vfs_index_ray import corpus


@pytest.fixture(scope="module")
def fuzz_engine(built_index):
    from vfs_index_ray.search import SearchEngine

    idx, _ = built_index
    return SearchEngine(idx)


def _random_queries(n: int, seed: int = 99) -> list[str]:
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    vocab = corpus.vocab()
    extras = [corpus.RARE_TERM, "nosuchtokenzz", "x", "", "!!!",
              corpus.PHRASE, "the", "UPPER", "0", "123"]
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 6))
        toks = []
        for _ in range(k):
            r = rng.random()
            if r < 0.15:
                toks.append(extras[int(rng.integers(0, len(extras)))])
            elif r < 0.55:
                # Zipf head (frequent terms stress intersection + scoring)
                toks.append(vocab[int(rng.integers(0, 50))])
            else:
                toks.append(vocab[int(rng.integers(0, len(vocab)))])
        out.append(" ".join(toks))
    return out


def test_fuzz_match_and_count(fuzz_engine, oracle_index):
    for q in _random_queries(120, seed=5):
        assert fuzz_engine.match(q).tolist() == oracle_index.match(q), q
        assert fuzz_engine.count(q) == oracle_index.count(q), q


def test_fuzz_bm25_rank_identical(fuzz_engine, oracle_index):
    for q in _random_queries(120, seed=7):
        for k in (1, 10):
            docs, scores = fuzz_engine.bm25(q, k)
            expected = oracle_index.bm25(q, k)
            assert [int(d) for d in docs] == [d for d, _ in expected], q
            assert [float(s) for s in scores] == \
                [s for _, s in expected], q


def test_fuzz_maxscore_equals_exact(fuzz_engine):
    for q in _random_queries(60, seed=11):
        de, se = fuzz_engine.bm25(q, 10, method="exact")
        dm, sm = fuzz_engine.bm25(q, 10, method="maxscore")
        assert de.tolist() == dm.tolist(), q
        assert se.tolist() == sm.tolist(), q

