"""scripts/curate_corpus.py end-to-end (subprocess: the CLI owns its
own Ray session)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

# the checkout these tests live in
REPO = str(Path(__file__).resolve().parents[1])


def test_curate_corpus_cli(tmp_path):
    quote = " ".join(f"q{i}" for i in range(8))
    docs = []
    for i in range(40):
        body = " ".join(f"w{i}_{j}" for j in range(20))
        if i % 4 == 0:
            body = quote + " " + body      # duplicated 8-token span
        text = body + "\nshared footer line" if i % 2 == 0 else body
        docs.append((i, text))
    src = tmp_path / "in.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in docs], pa.int64()),
        "text": pa.array([t for _, t in docs])}), str(src))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=REPO)
    res = subprocess.run(
        [sys.executable, "scripts/curate_corpus.py", "--input",
         str(src), "--output", str(out), "--line-dedup",
         "--span-dedup", "--min-tokens", "5"],
        cwd=REPO, env=env, capture_output=True, text=True,
        timeout=300)
    assert res.returncode == 0, res.stdout[-1500:] + res.stderr[-1500:]
    stats = json.load(open(out / "stats.json"))
    # 20 docs carry the footer line -> 19 non-first removed; 10 docs
    # carry the quote -> 9 non-first occurrences x 8 tokens
    assert stats == {"input_docs": 40, "lines_removed": 19,
                     "span_tokens_removed": 72, "output_docs": 40}
    import glob

    import pyarrow as _pa
    got = _pa.concat_tables([
        pq.read_table(f) for f in glob.glob(str(out / "*.parquet"))])
    assert got.num_rows == 40
    texts = dict(zip(got["doc_id"].to_pylist(),
                     got["text"].to_pylist()))
    assert quote in texts[0]            # corpus-first occurrence kept
    assert quote not in texts[4]        # later occurrence rewritten
