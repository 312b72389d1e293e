"""Self-test of the benchmark's output contract, at a tiny size.

Runs ``perfbench/run.py`` on every workload, untraced and traced, and
checks that the last line of standard output is the JSON object the
contract asks for, naming every metric of ``BENCHMARK.json`` with its
unit and a finite value. Takes a few minutes (each run starts Ray):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
TINY = ["--seconds", "1", "--pages", "1600"]


def run(cwd: str, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable if BENCH["command"][0] == "python3"
           else BENCH["command"][0], *BENCH["command"][1:],
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), *TINY]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_prints_every_metric(workload, trace):
    p = run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for d in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, d), tmp_path / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run(str(tmp_path), BENCH["workloads"][0]["name"], 0)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
