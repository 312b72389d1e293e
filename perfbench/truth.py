"""Expected answers from ``vfs_index_ray.oracle.OracleIndex``.

The oracle's own ``build`` tokenizes every page in pure Python, which
costs seconds per ten thousand pages. The generator already knows which
word sits at every token, so the index here is filled from that ground
truth instead: term ids come from the oracle's tokenizer applied to each
word, page lengths and term frequencies from the generated tokens, and
the scoring is ``OracleIndex.bm25`` unchanged. A sample of pages is run
through ``oracle_tokenize`` to confirm the two agree.

Answers depend only on the generated inputs, so they are cached on disk
under a key derived from the corpus fingerprints and the query pool,
and are always ready before any timed region starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys

import numpy as np

from corpus import Corpus

SAMPLE_PAGES = 64


def _oracle_index(corpora: list[Corpus], query_words: set[str]):
    from vfs_index_ray.oracle import OracleIndex, oracle_tokenize

    idx = OracleIndex("word")
    term_of = {w: oracle_tokenize(w)[0] for w in query_words}
    for c in corpora:
        word_idx = {w: i for i, w in enumerate(c.words)}
        wanted = np.array([word_idx[w] for w in query_words if w in word_idx],
                          np.int64)
        lengths = c.lengths
        idx.dl.update(zip(c.doc_ids.tolist(), lengths.tolist()))
        idx.ndocs += c.n_docs
        page = np.repeat(np.arange(c.n_docs), lengths)
        hit = np.isin(c.tokens, wanted)
        pairs, tfs = np.unique(page[hit].astype(np.int64) * len(c.words)
                               + c.tokens[hit], return_counts=True)
        pages, word = np.divmod(pairs, len(c.words))
        docs = c.doc_ids[pages]
        for w in np.unique(word).tolist():
            sel = word == w
            idx.postings.setdefault(term_of[c.words[w]], {}).update(
                zip(docs[sel].tolist(), tfs[sel].tolist()))
        rng = np.random.default_rng(c.n_docs)
        for i in rng.choice(c.n_docs, min(SAMPLE_PAGES, c.n_docs),
                            replace=False).tolist():
            want = [oracle_tokenize(c.words[t])[0] for t in
                    c.tokens[c.offsets[i]:c.offsets[i + 1]].tolist()]
            if oracle_tokenize(c.texts(i, i + 1)[0].as_py()) != want:
                raise RuntimeError(f"generator and oracle tokenizer "
                                   f"disagree on page {i}")
    return idx


def corpus_totals(corpora: list[Corpus]) -> dict:
    return {"n_docs": sum(c.n_docs for c in corpora),
            "total_tokens": int(sum(int(c.offsets[-1]) for c in corpora))}


def fingerprint(c: Corpus) -> str:
    h = hashlib.sha256()
    for a in (c.tokens, c.offsets, c.doc_ids):
        h.update(a.tobytes())
    h.update("\n".join(c.words).encode())
    return h.hexdigest()


def _answer_slice(inputs: str, i: int, procs: int, path: str) -> None:
    """Child-process entry: the answers for every ``procs``-th query of
    the pickled inputs, from the ``i``-th on, as JSON."""
    with open(inputs, "rb") as f:
        corpora, queries, k = pickle.load(f)
    queries = queries[i::procs]
    idx = _oracle_index(corpora, {w for q in queries for w in q.split()})
    out = {q: [[d, s] for d, s in idx.bm25(q, k)] for q in queries}
    with open(path, "w") as f:
        json.dump(out, f)


class Answers:
    """``{query: [[doc_id, score], ...]}``, the oracle's top ``k`` of each
    query over the union of ``corpora``. Unless cached, the answers are
    computed by ``procs`` child processes that run while the caller
    starts Ray; ``result`` waits for them."""

    def __init__(self, corpora: list[Corpus], queries: list[str], k: int,
                 cache_dir: str, procs: int):
        key = hashlib.sha256(json.dumps(
            [[fingerprint(c) for c in corpora], queries, k]).encode()
        ).hexdigest()[:24]
        os.makedirs(cache_dir, exist_ok=True)
        self.path = os.path.join(cache_dir, f"oracle-{key}.json")
        self.jobs: list[subprocess.Popen] = []
        if os.path.exists(self.path):
            return
        self.inputs = f"{self.path}.{os.getpid()}.in"
        with open(self.inputs, "wb") as f:
            pickle.dump((corpora, queries, k), f)
        for i in range(procs):
            self.jobs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), self.inputs,
                 str(i), str(procs), f"{self.path}.{i}"],
                stdin=subprocess.DEVNULL))

    def result(self) -> dict[str, list[list]]:
        if self.jobs:
            merged: dict = {}
            for i, job in enumerate(self.jobs):
                if job.wait() != 0:
                    raise RuntimeError("oracle process failed")
                with open(f"{self.path}.{i}") as f:
                    merged.update(json.load(f))
                os.remove(f"{self.path}.{i}")
            self.jobs = []
            os.remove(self.inputs)
            tmp = f"{self.path}.{os.getpid()}.tmp"
            with open(tmp, "w") as f:
                json.dump(merged, f)
            os.replace(tmp, self.path)
        with open(self.path) as f:
            return json.load(f)

    def close(self) -> None:
        for job in self.jobs:
            if job.poll() is None:
                job.terminate()
            job.wait()
        if self.jobs and os.path.exists(self.inputs):
            os.remove(self.inputs)


def matches(expected: list[list], docs, scores) -> bool:
    """Doc-for-doc in rank order, with bit-identical fp64 scores."""
    got = [[int(d), float(s)] for d, s in zip(docs, scores)]
    return got == [[int(d), float(s)] for d, s in expected]


if __name__ == "__main__":
    # the engine sits beside this file's directory
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    _answer_slice(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]),
                  sys.argv[4])
