"""Generic ordered key-space traversal with user condition + visitor.

Reference parity: ``IndexFile.Select(OptCcondFn / OptTraverse)``
(index_file.go:481-537) — the reference walks its key-directory tree in
key order, calls a user condition per entry (CondTrue / CondFalse /
CondSkip / CondLazy), optionally bsearches the start position
(``OptEnableBsearch``), and invokes a user traverse callback per match;
a non-nil error return stops the walk early.

Ray-Data-native restatement over the flat columnar key space:

- the directory tree becomes the hash-partitioned segment files, so
  "walk in key order" = per-part key-range reads merged by key;
- the bsearch start becomes ``lo``/``hi`` key bounds, two binary
  searches of the segment's sorted term_id column;
- the per-entry condition becomes a VECTORIZED predicate
  ``cond(term_ids, dfs) -> bool mask`` over the candidate arrays
  (CondTrue/CondFalse per key; CondSkip and CondLazy are artifacts of the
  Go directory walk — a flat sorted key space has nothing to lazily
  descend into);
- the traverse callback becomes a sequential driver-side visitor
  ``visit(term_id, df) -> False to stop`` over the merged, ordered,
  already-filtered matches.

Scale shape: one Ray task per part (``SegmentReader.map_parts``); each
task key-range-reads ONLY the ``(term_id, n)`` columns of the rows in
[lo, hi] (one row per term; its posting count ``n`` is its df),
applies ``cond`` vectorized, and —
when ``limit`` is set — returns at most ``limit`` matches (the global
ordered head is contained in the union of per-part heads). Only
(term_id, df) pairs cross the wire; the visitor itself never runs inside
tasks, so it may close over arbitrary driver state, exactly like the
reference's traverse fn.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

CondFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _select_part(reader, part: int, lo: int | None, hi: int | None,
                 cond: CondFn | None, asc: bool, limit: int | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One partition: key-range read of (term_id, df), vectorized cond,
    per-part head/tail cap. Runs as a Ray task."""
    tbl = reader.read_range(part, lo, hi, columns=["term_id", "n"])
    tids = tbl["term_id"].to_numpy(zero_copy_only=False)
    dfs = tbl["n"].to_numpy(zero_copy_only=False)
    if len(tids) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    if cond is not None:
        mask = np.asarray(cond(tids, dfs), dtype=bool)
        if mask.shape != tids.shape:
            raise ValueError(
                "cond must return one bool per candidate key "
                f"(got shape {mask.shape} for {tids.shape})")
        tids = tids[mask]
        dfs = dfs[mask]
    if limit is not None and len(tids) > limit:
        # the merged ascending head is contained in the per-part heads
        # (terms are unique across hash partitions), so capping here
        # bounds wire traffic without changing the merged result
        sl = slice(0, limit) if asc else slice(-limit, None)
        tids = tids[sl]
        dfs = dfs[sl]
    return np.ascontiguousarray(tids), np.ascontiguousarray(dfs)


def select_keys(engine, lo: int | None = None, hi: int | None = None,
                cond: CondFn | None = None, asc: bool = True,
                limit: int | None = None) -> pa.Table:
    """Ordered key-space scan: every indexed (term_id, df) with
    ``lo <= term_id <= hi`` passing ``cond``, in key order.

    Returns a pyarrow Table (term_id: uint64, df: uint64). ``cond`` is a
    vectorized predicate over candidate arrays; it is shipped to the
    per-part Ray tasks, so it must be serializable and must not close
    over the engine. Parts fan out as Ray tasks when Ray is up and the
    index has multiple parts (``SegmentReader.map_parts``).
    """
    parts = engine.segments.map_parts(_select_part, lo, hi, cond, asc,
                                      limit)
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return pa.table({"term_id": pa.array([], pa.uint64()),
                         "df": pa.array([], pa.uint64())})
    tids = np.concatenate([p[0] for p in parts])
    dfs = np.concatenate([p[1] for p in parts])
    order = np.argsort(tids, kind="stable")  # terms unique across parts
    if not asc:
        order = order[::-1]
    if limit is not None:
        order = order[:limit]
    return pa.table({"term_id": pa.array(tids[order], pa.uint64()),
                     "df": pa.array(dfs[order], pa.uint64())})


def select(engine, visit: Callable[[int, int], object],
           lo: int | None = None, hi: int | None = None,
           cond: CondFn | None = None, asc: bool = True,
           limit: int | None = None) -> int:
    """Visitor traversal (reference ``Select`` with ``OptTraverse``):
    call ``visit(term_id, df)`` for each matching key in key order;
    ``visit`` returning ``False`` stops the walk early (the reference's
    error-return stop). Returns the number of keys visited.

    The visitor runs on the driver over the merged match list, so — like
    the reference's traverse fn — it may mutate arbitrary local state or
    issue follow-up engine calls (e.g. ``engine.load_terms([tid])``).
    """
    tbl = select_keys(engine, lo=lo, hi=hi, cond=cond, asc=asc,
                      limit=limit)
    tids = tbl["term_id"].to_numpy(zero_copy_only=False)
    dfs = tbl["df"].to_numpy(zero_copy_only=False)
    n = 0
    for tid, df in zip(tids.tolist(), dfs.tolist()):
        n += 1
        if visit(tid, df) is False:
            break
    return n
