"""Event-time windowing over a stream-shaped table (SURVEY §2.10).

Ray Data is a (streaming-)batch engine with no watermarks; windows are
expressed as groupbys over an ordered, partitioned log: hash-partition by
user, then ONE vectorized numpy session-assignment kernel per partition
(all of a partition's users at once — not a per-user pandas fn; a
partition holds many users, so the per-group call count is the partition
count, not the user count). Ordering assumption: per-key event order is
fully determined by (ts, event_id) — both carried in the table — so
results are deterministic under any shuffle.

- ``sessionize``: gap-based session windows per user (session breaks when
  the gap to the previous event exceeds ``gap``). SQL-oracle-equivalent
  via lag()/cumulative sum window functions.
- ``tumbling_aggregate``: fixed windows per (type, window) via per-batch
  partial hash aggregation (no sort shuffle; output space is tiny).
- ``asof_prior`` / ``window_count_prior``: as-of join and range-join
  window counts, same hash-partition + vectorized-kernel shape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import _plan_size_bytes, collect_arrow


# the disk-or-sort rule: below this estimated in-memory size the disk
# spill's fixed cost (parquet write + P part tasks, ~1-2 s) exceeds the
# sort exchange it avoids; above it the sort exchange anti-scales
# (measured crossings: 5k docs sort 0.96 s vs disk ~2 s; 1.2M pages
# sort 13.5-14.1 s vs disk 2.3-3.5 s)
AUTO_DISK_BYTES = 128 * 1024 * 1024


def _use_disk(ds, spill_dir) -> bool:
    """The one substrate rule of every keyed op: a caller's
    ``spill_dir`` (any ``spillfs.open_spill`` spec — shared storage on
    clusters) or an input whose plan-based size estimate
    (``_plan_size_bytes``) exceeds ``AUTO_DISK_BYTES`` means the
    hive-partitioned disk spill; anything else means Ray Data's
    groupby."""
    if spill_dir is not None:
        return True
    return _plan_size_bytes(ds._logical_plan.dag)[0] > AUTO_DISK_BYTES


def _sort_partition_op(keyed_ds, part_col: str, per_part):
    """The groupby branch: Ray Data's sort shuffle on ``part_col``,
    ``per_part`` on each group without it."""
    return keyed_ds.groupby(part_col).map_groups(
        lambda g: per_part(g.drop([part_col])), batch_format="pyarrow")


def _keyed_partition_op(events_ds, add_part, part_col: str, per_part,
                        spill_dir: str | None = None):
    """Run a hash-partitioned per-partition kernel: ``add_part`` maps
    the part column on, ``per_part`` sees one partition's rows without
    it.  ``_use_disk`` picks the substrate: the disk spill
    (``spillfs.partition_apply``, the 100-TB path) or Ray Data's
    groupby (cheaper on small inputs)."""
    keyed = events_ds.map_batches(add_part, batch_format="pyarrow",
                                  zero_copy_batch=True)
    if not _use_disk(events_ds, spill_dir):
        return _sort_partition_op(keyed, part_col, per_part)
    import ray.data

    from ..spillfs import partition_apply

    refs = partition_apply(keyed, part_col, per_part,
                           spill_dir=spill_dir, prefix="winpart_")
    if not refs:
        # empty input: no partitions spilled; the groupby runs
        # trivially and yields the correct (empty) output schema
        return _sort_partition_op(keyed, part_col, per_part)
    return ray.data.from_arrow_refs(refs)


def _sessions_kernel(t: pa.Table, gap_us: int, user_col: str,
                     ts_col: str, id_col: str) -> pa.Table:
    """All rows of one user-partition → one row per (user, session).
    Fully vectorized: lexsort by (user, ts, id), break sessions at user
    boundaries and at gaps > gap_us, reduce per session run."""
    n = t.num_rows
    if n == 0:
        return pa.table({
            user_col: pa.array([], pa.int64()),
            "session_id": pa.array([], pa.int64()),
            "session_start": pa.array([], pa.timestamp("us")),
            "session_end": pa.array([], pa.timestamp("us")),
            "n_events": pa.array([], pa.int64()),
        })
    u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]"
                                                         ).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, ts, u))
    u, ts = u[order], ts[order]

    new_user = np.empty(n, bool)
    new_user[0] = True
    new_user[1:] = u[1:] != u[:-1]
    new_sess = new_user.copy()
    new_sess[1:] |= (ts[1:] - ts[:-1]) > gap_us

    starts = np.flatnonzero(new_sess)
    counts = np.diff(np.append(starts, n))
    ends = starts + counts - 1
    nsess = len(starts)
    # 0-based per-user session index: session ordinal minus the ordinal
    # of the user's first session (user starts are always session starts)
    sess_ord = np.arange(nsess, dtype=np.int64)
    user_first = np.maximum.accumulate(
        np.where(new_user[starts], sess_ord, 0))
    return pa.table({
        user_col: pa.array(u[starts], pa.int64()),
        "session_id": pa.array(sess_ord - user_first, pa.int64()),
        "session_start": pa.array(ts[starts].astype("datetime64[us]")),
        "session_end": pa.array(ts[ends].astype("datetime64[us]")),
        "n_events": pa.array(counts.astype(np.int64), pa.int64()),
    })


def sessionize(events_ds, *, gap_minutes: int = 30,
               user_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", num_partitions: int = 32,
               spill_dir: str | None = None):
    """events → one row per (user, session): session_id (0-based per
    user, in time order), session_start, session_end, n_events.

    Shuffle shape: ONE uniform hash-partition on
    ``user % num_partitions`` (size it to the cluster); the per-part fn
    is a single vectorized kernel over the whole partition, on the
    substrate ``_use_disk`` picks (``spill_dir`` forces the disk
    spill)."""
    gap_us = gap_minutes * 60_000_000

    def add_part(t: pa.Table) -> pa.Table:
        uid = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "upart", pa.array(uid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _sessions_kernel(g, gap_us, user_col, ts_col, id_col)

    return _keyed_partition_op(events_ds, add_part, "upart", per_part,
                               spill_dir=spill_dir)


def tumbling_aggregate(events_ds, *, window_minutes: int = 60,
                       type_col: str = "event_type", ts_col: str = "ts",
                       val_col: str = "value") -> pa.Table:
    """Tumbling-window count + sum per (type, window): per-batch PARTIAL
    Arrow hash aggregation (the output space is types × windows — tiny
    regardless of input rows), partials collected as object-store Arrow
    refs and merged with one more hash aggregation. No sort shuffle:
    the groupby().aggregate() equivalent moves every input row through
    Ray Data's pull-based sort exchange for a 3,600-row result
    (measured 21.1 s vs 2-3 s at 10M events, 32 cpus)."""
    import pyarrow.compute as pc

    from .boilerplate import _group_counts

    win_us = window_minutes * 60_000_000

    def partial(t: pa.Table) -> pa.Table:
        us = t[ts_col].cast(pa.int64())
        w = pc.multiply(pc.floor(pc.divide(us, win_us)), win_us)
        g = _group_counts(
            pa.table({"event_type": t[type_col],
                      "window_us": w.cast(pa.int64()),
                      "v": t[val_col]}),
            ["event_type", "window_us"],
            [("v", "sum"), ("v", "count")])
        return pa.table({"event_type": g["event_type"],
                         "window_us": g["window_us"],
                         "s": g["v_sum"].cast(pa.float64()),
                         "n": g["v_count"].cast(pa.int64())})

    out = events_ds.map_batches(partial, batch_format="pyarrow")
    merged = collect_arrow(out)
    if merged is None:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "window_us": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64()),
                         "sum_value": pa.array([], pa.float64())})
    m = _group_counts(merged, ["event_type", "window_us"],
                      [("s", "sum"), ("n", "sum")])
    return pa.table({"event_type": m["event_type"],
                     "window_us": m["window_us"],
                     "n": m["n_sum"].cast(pa.int64()),
                     "sum_value": m["s_sum"].cast(pa.float64())})


def hopping_aggregate(events_ds, *, window_minutes: int = 120,
                      hop_minutes: int = 30,
                      type_col: str = "event_type", ts_col: str = "ts",
                      val_col: str = "value") -> pa.Table:
    """Hopping (sliding) window count + sum per (type, window_start):
    windows of ``window_minutes`` advance every ``hop_minutes``
    (``window % hop == 0``), so each event lands in exactly
    ``window/hop`` overlapping windows.  Same shuffle-free shape as
    ``tumbling_aggregate``: the window/hop replication happens INSIDE
    the per-batch partial (concat of shifted copies → one Arrow hash
    agg), so a batch still ships one row per (type, window) it saw —
    never ``window/hop × input`` rows.  Values fold on the x1e4
    fixed-point grid (``floor(v*1e4+0.5)``) so the sum is
    integer-exact and DuckDB-comparable."""
    from .boilerplate import _group_counts

    if window_minutes % hop_minutes != 0:
        raise ValueError("window_minutes must be a multiple of "
                         "hop_minutes")
    hop_us = hop_minutes * 60_000_000
    nwin = window_minutes // hop_minutes

    def partial(t: pa.Table) -> pa.Table:
        us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = np.floor(t[val_col].to_numpy(zero_copy_only=False)
                     * 10000.0 + 0.5).astype(np.int64)
        base = (us // hop_us) * hop_us
        reps = [pa.table({"event_type": t[type_col],
                          "window_us": pa.array(base - k * hop_us,
                                                pa.int64()),
                          "v": pa.array(v, pa.int64())})
                for k in range(nwin)]
        g = _group_counts(pa.concat_tables(reps),
                          ["event_type", "window_us"],
                          [("v", "sum"), ("v", "count")])
        return pa.table({"event_type": g["event_type"],
                         "window_us": g["window_us"],
                         "s": g["v_sum"].cast(pa.int64()),
                         "n": g["v_count"].cast(pa.int64())})

    out = events_ds.map_batches(partial, batch_format="pyarrow")
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "window_us": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "sum_x1e4": pa.array([], pa.int64())})
    merged = collect_arrow(out)
    if merged is None:
        return empty
    m = _group_counts(merged, ["event_type", "window_us"],
                      [("s", "sum"), ("n", "sum")])
    return pa.table({"event_type": m["event_type"],
                     "window_us": m["window_us"],
                     "n": m["n_sum"].cast(pa.int64()),
                     "sum_x1e4": m["s_sum"].cast(pa.int64())})


def resample_aggregate(events_ds, *, freq_minutes: int = 15,
                       type_col: str = "event_type",
                       ts_col: str = "ts",
                       val_col: str = "value") -> pa.Table:
    """Time-series resample with GAP FILLING: count + x1e4-exact sum
    per (type, ``freq_minutes`` bucket), then every missing bucket
    between each type's first and last observation is emitted with
    zeros — the regular-grid densification a downstream
    anomaly/forecast stage needs.  Aggregation is the shuffle-free
    hopping/tumbling partial shape; the fill happens on the merged
    grid (types × buckets, tiny) via one ``np.arange`` per type."""
    agg = hopping_aggregate(events_ds, window_minutes=freq_minutes,
                            hop_minutes=freq_minutes,
                            type_col=type_col, ts_col=ts_col,
                            val_col=val_col)
    if agg.num_rows == 0:
        return agg
    step = freq_minutes * 60_000_000
    types = agg["event_type"].to_numpy(zero_copy_only=False)
    ws = agg["window_us"].to_numpy(zero_copy_only=False)
    have = {(t, int(w)): i for i, (t, w) in enumerate(zip(types, ws))}
    n = agg["n"].to_numpy(zero_copy_only=False)
    s = agg["sum_x1e4"].to_numpy(zero_copy_only=False)
    out_t, out_w, out_n, out_s = [], [], [], []
    for t in sorted(set(types.tolist())):
        m = types == t
        grid = np.arange(ws[m].min(), ws[m].max() + 1, step)
        for w in grid.tolist():
            i = have.get((t, w))
            out_t.append(t)
            out_w.append(w)
            out_n.append(0 if i is None else int(n[i]))
            out_s.append(0 if i is None else int(s[i]))
    return pa.table({"event_type": pa.array(out_t, pa.string()),
                     "window_us": pa.array(out_w, pa.int64()),
                     "n": pa.array(out_n, pa.int64()),
                     "sum_x1e4": pa.array(out_s, pa.int64())})


class JsonExtractInt:
    """Vectorized flat-JSON integer field extraction from a string
    column (the decoder-registry analog at column granularity: the
    events table carries ``props`` as a JSON string). One RE2 pass via
    ``pc.extract_regex`` — no per-row json.loads. Nested/quoted JSON
    would need a real parser; the regex contract is a top-level integer
    field, which DuckDB's json_extract reproduces for the oracle."""

    def __init__(self, key: str, json_col: str = "props",
                 out_col: str | None = None):
        self.key = key
        self.json_col = json_col
        self.out_col = out_col or key
        self.pattern = (r'"' + key + r'"\s*:\s*(?P<v>-?\d+)')

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.extract_regex(batch[self.json_col], pattern=self.pattern)
        vals = pc.struct_field(m, "v").cast(pa.int64())
        return batch.append_column(self.out_col, vals)


def sessionize_table(events_ds, **kw) -> pa.Table:
    """Driver-side convenience: run sessionize and return a pyarrow
    Table with a stable column order/types."""
    rows = sessionize(events_ds, **kw).take_all()
    tbl = pa.Table.from_pylist(rows)
    return tbl.select(["user_id", "session_id", "session_start",
                       "session_end", "n_events"]).cast(pa.schema([
                           ("user_id", pa.int64()),
                           ("session_id", pa.int64()),
                           ("session_start", pa.timestamp("us")),
                           ("session_end", pa.timestamp("us")),
                           ("n_events", pa.int64()),
                       ]))


def _latest_kernel(t: pa.Table, key_col: str, ts_col: str,
                   id_col: str) -> pa.Table:
    """One key-partition → the single latest row per key (max ts, ties
    to max id). Vectorized: lexsort + run boundaries."""
    n = t.num_rows
    if n == 0:
        return t
    k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]"
                                                         ).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, ts, k))
    ks = k[order]
    # last row of each key run == (max ts, max id) for that key
    last = np.empty(n, bool)
    last[-1] = True
    last[:-1] = ks[1:] != ks[:-1]
    keep = order[np.flatnonzero(last)]
    return t.take(pa.array(np.sort(keep)))


def latest_per_key(events_ds, *, key_col: str = "user_id",
                   ts_col: str = "ts", id_col: str = "event_id",
                   num_partitions: int = 32,
                   spill_dir: str | None = None):
    """Latest record per key — the re-crawl dedup shape for a web
    corpus (keep the newest snapshot per url: key=url-hash, ts=crawl
    timestamp). Shuffle shape identical to ``sessionize``: ONE uniform
    hash-partition, one vectorized kernel per partition; only one row
    per key survives, so the output is tiny regardless of input size.
    Ties on ts break to the larger ``id_col`` (deterministic).
    """
    def add_part(t: pa.Table) -> pa.Table:
        kid = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "kpart", pa.array(kid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _latest_kernel(g, key_col, ts_col, id_col)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _asof_kernel(t: pa.Table, user_col: str, ts_col: str, id_col: str,
                 type_col: str, left_type: str, right_type: str
                 ) -> pa.Table:
    """One key-partition → for every LEFT-type row, the most recent
    strictly-preceding RIGHT-type row of the same key in (ts, id)
    order. Vectorized segment trick: after the (user, ts, id) lexsort,
    a running max of right-row indices needs no per-segment reset —
    any right index inside the current user's run is larger than every
    index of earlier runs, so a stale carry-over can only ever lose to
    an in-segment hit and is rejected by comparing against the run's
    first index."""
    import pyarrow.compute as pc
    empty = pa.table({
        "event_id": pa.array([], pa.int64()),
        user_col: pa.array([], pa.int64()),
        "match_event_id": pa.array([], pa.int64()),
        "lag_us": pa.array([], pa.int64()),
    })
    n = t.num_rows
    if n == 0:
        return empty
    u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]"
                                                         ).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    typ = t[type_col]
    if isinstance(typ, pa.ChunkedArray):
        typ = typ.combine_chunks()
    is_l = pc.equal(typ, pa.scalar(left_type)).to_numpy(
        zero_copy_only=False).astype(bool)
    is_r = pc.equal(typ, pa.scalar(right_type)).to_numpy(
        zero_copy_only=False).astype(bool)
    order = np.lexsort((ids, ts, u))
    u_s, ts_s, id_s = u[order], ts[order], ids[order]
    ir, il = is_r[order], is_l[order]
    idx = np.arange(n, dtype=np.int64)
    new_user = np.empty(n, bool)
    new_user[0] = True
    new_user[1:] = u_s[1:] != u_s[:-1]
    base = np.maximum.accumulate(np.where(new_user, idx, 0))
    cm = np.maximum.accumulate(np.where(ir, idx, -1))
    prev = np.concatenate([[-1], cm[:-1]])    # strictly preceding
    ok_all = prev >= base                      # same user run
    li = np.flatnonzero(il)
    if len(li) == 0:
        return empty
    j = np.maximum(prev[li], 0)
    ok = ok_all[li]
    return pa.table({
        "event_id": pa.array(id_s[li], pa.int64()),
        user_col: pa.array(u_s[li], pa.int64()),
        "match_event_id": pa.array(
            np.where(ok, id_s[j], -1), pa.int64()),
        "lag_us": pa.array(np.where(ok, ts_s[li] - ts_s[j], -1),
                           pa.int64()),
    })


def asof_prior(events_ds, *, left_type: str, right_type: str,
               user_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", type_col: str = "event_type",
               num_partitions: int = 32,
               spill_dir: str | None = None):
    """As-of join inside one event log: every LEFT-type event matched
    to the latest RIGHT-type event of the same key that strictly
    precedes it in (ts, id) order — the temporal-attribution shape
    (purchase → most recent prior click). Rows with no prior match
    carry ``match_event_id = lag_us = -1``.

    Ray Data has no native as-of join; the composition is the
    sessionize shuffle shape (SURVEY §2.10): filter to the two types
    (column/row pruning belongs at the read), ONE uniform
    hash-partition groupby on the key, then a single vectorized
    running-max kernel per partition. Keys partition independently, so
    this scales exactly like sessionize at 100 TB."""
    import pyarrow.compute as pc

    def add_part(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t[type_col],
                        value_set=pa.array([left_type, right_type]))
        t = t.filter(keep)
        uid = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "upart", pa.array(uid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _asof_kernel(g, user_col, ts_col, id_col, type_col,
                            left_type, right_type)

    return _keyed_partition_op(events_ds, add_part, "upart", per_part,
                               spill_dir=spill_dir)


def _window_count_kernel(t: pa.Table, user_col: str, ts_col: str,
                         id_col: str, type_col: str, left_type: str,
                         right_type: str, window_us: int) -> pa.Table:
    """One key-partition → for every LEFT-type row, the number of
    RIGHT-type rows of the same key inside the half-open window
    ``(ts - window_us, ts)`` — strictly prior in (ts, id) order at the
    top end, exclusive at the bottom. Range joins don't pack into a
    single sortable key (user × microsecond span overflows int64), so
    the kernel merges a PROBE row per left event at ``ts - window_us``
    into the real stream via one lexsort and takes differences of a
    global cumsum of right-rows: both ends of each difference live in
    the same key run, so per-run bases cancel and no reset is needed."""
    import pyarrow.compute as pc
    empty = pa.table({
        "event_id": pa.array([], pa.int64()),
        user_col: pa.array([], pa.int64()),
        "n_window": pa.array([], pa.int64()),
    })
    n = t.num_rows
    if n == 0:
        return empty
    u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]"
                                                         ).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    typ = t[type_col]
    if isinstance(typ, pa.ChunkedArray):
        typ = typ.combine_chunks()
    is_l = pc.equal(typ, pa.scalar(left_type)).to_numpy(
        zero_copy_only=False).astype(bool)
    is_r = pc.equal(typ, pa.scalar(right_type)).to_numpy(
        zero_copy_only=False).astype(bool)
    li = np.flatnonzero(is_l)
    if len(li) == 0:
        return empty
    m = len(li)
    # merged stream: n real rows (kind 0) + m probes (kind 1) at the
    # window's low end; a probe sorts after every real row with the
    # same (user, ts) regardless of id (ts <= low-end is excluded)
    U = np.concatenate([u, u[li]])
    TS = np.concatenate([ts, ts[li] - window_us])
    ID = np.concatenate([ids, ids[li]])
    KIND = np.concatenate([np.zeros(n, np.int8), np.ones(m, np.int8)])
    order = np.lexsort((ID, KIND, TS, U))
    inv = np.empty(n + m, np.int64)
    inv[order] = np.arange(n + m)
    cum = np.cumsum(np.concatenate([is_r, np.zeros(m, bool)])[order]
                    .astype(np.int64))
    at_left = cum[inv[li]] - is_r[li]          # strictly before the row
    at_probe = cum[inv[n:]]                    # rows with ts <= low end
    cnt = at_left - at_probe
    return pa.table({
        "event_id": pa.array(ids[li], pa.int64()),
        user_col: pa.array(u[li], pa.int64()),
        "n_window": pa.array(cnt, pa.int64()),
    })


def window_count_prior(events_ds, *, left_type: str, right_type: str,
                       window_minutes: int = 60,
                       user_col: str = "user_id", ts_col: str = "ts",
                       id_col: str = "event_id",
                       type_col: str = "event_type",
                       num_partitions: int = 32,
                       spill_dir: str | None = None):
    """Range-join windowed aggregate: for every LEFT-type event, how
    many RIGHT-type events of the same key fall in the sliding window
    ``(ts - window, ts)`` strictly before it — the attribution-count
    shape (clicks in the hour before each purchase). Same scale story
    as ``asof_prior``: one uniform hash-partition groupby, one
    lexsort + cumsum kernel per partition, keys fully independent."""
    import pyarrow.compute as pc

    window_us = window_minutes * 60_000_000

    def add_part(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t[type_col],
                        value_set=pa.array([left_type, right_type]))
        t = t.filter(keep)
        uid = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "upart", pa.array(uid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _window_count_kernel(g, user_col, ts_col, id_col,
                                    type_col, left_type, right_type,
                                    window_us)

    return _keyed_partition_op(events_ds, add_part, "upart", per_part,
                               spill_dir=spill_dir)


def _pack_kernel(t: pa.Table, key_col: str, order_col: str,
                 weight_col: str, budget: int) -> pa.Table:
    """One key-partition → pack ids: rows (ordered by ``order_col``
    within each key) are greedily packed so a pack's PRECEDING weight
    stays under ``budget`` (pack_id = floor(exclusive-prefix-sum /
    budget) — each pack holds the rows that fit the next budget span;
    an over-budget single row gets its own pack). Vectorized lexsort +
    cumsum."""
    n = t.num_rows
    if n == 0:
        return t
    k = t[key_col].to_numpy(zero_copy_only=False)
    # keys may be strings (e.g. source): factorize via np.unique
    _, kcode = np.unique(np.asarray(k), return_inverse=True)
    o = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
    w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((o, kcode))
    ks, ws = kcode[order], w[order]
    csum = np.cumsum(ws)
    new_key = np.empty(n, bool)
    new_key[0] = True
    new_key[1:] = ks[1:] != ks[:-1]
    key_base = np.maximum.accumulate(np.where(new_key, csum - ws, 0))
    excl = csum - ws - key_base          # exclusive prefix sum per key
    pack = excl // max(budget, 1)
    out = np.empty(n, np.int64)
    out[order] = pack
    return t.append_column("pack_id", pa.array(out, pa.int64()))


def pack_by_budget(ds, *, key_col: str = "source",
                   order_col: str = "doc_id",
                   weight_col: str = "n_chars", budget: int = 4096,
                   num_partitions: int = 32,
                   spill_dir: str | None = None):
    """Greedy budget packing (training-shard packing: fill each pack
    with ~``budget`` weight of consecutive docs per key). Same shuffle
    shape as sessionize: ONE uniform hash-partition groupby on the key,
    one vectorized kernel per partition — the prefix sum is per-key, so
    keys parallelize perfectly and no global ordering is needed."""
    def add_part(t: pa.Table) -> pa.Table:
        col = t[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(
                col.type):
            # deterministic across workers (python hash() is per-process
            # salted and would split a key across partitions)
            from ..hashing import fnv1a64_tokens
            h = fnv1a64_tokens(col).astype(np.int64) & 0x7FFFFFFFFFFFFFFF
        else:
            h = np.abs(col.to_numpy(zero_copy_only=False).astype(np.int64))
        return t.append_column(
            "kpart", pa.array(h % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _pack_kernel(g, key_col, order_col, weight_col, budget)

    return _keyed_partition_op(ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _running_total_kernel(t: pa.Table, key_col: str, ts_col: str,
                          id_col: str, val_col: str) -> pa.Table:
    """Per-key running sum in (ts, id) order, one vectorized pass:
    global cumsum of the per-row fixed-point values minus each key
    run's base (boundary diffs on the sorted key column)."""
    idx = pc.sort_indices(t, sort_keys=[
        (key_col, "ascending"), (ts_col, "ascending"),
        (id_col, "ascending")])
    t = t.take(idx)
    n = t.num_rows
    if n == 0:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            key_col: pa.array([], pa.int64()),
            "running_x1e4": pa.array([], pa.int64())})
    v = np.floor(t[val_col].to_numpy(zero_copy_only=False)
                 * 10000.0 + 0.5).astype(np.int64)
    cs = np.cumsum(v)
    keys = t[key_col].to_numpy(zero_copy_only=False)
    first = np.empty(n, bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run_lens = np.diff(np.append(starts, n))
    # per-run base = cumsum just before the run start (0 for the
    # first run); repeat-by-run-length stays correct for negative
    # values, unlike a maximum.accumulate
    base_vals = np.concatenate([[0], cs[starts[1:] - 1]])
    running = cs - np.repeat(base_vals, run_lens)
    return pa.table({
        id_col: t[id_col],
        key_col: t[key_col],
        "running_x1e4": pa.array(running, pa.int64())})


def running_total(events_ds, *, key_col: str = "user_id",
                  ts_col: str = "ts", id_col: str = "event_id",
                  val_col: str = "value", num_partitions: int = 32,
                  spill_dir: str | None = None):
    """Per-key running sum (the SQL ``SUM(v) OVER (PARTITION BY key
    ORDER BY ts, id)`` window) — values quantize to integer x1e4 PER
    ROW first, so the cumulative sums are exact and order-stable.
    Same one-hash-partition shuffle shape as ``sessionize``."""
    def add_part(t: pa.Table) -> pa.Table:
        kid = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "kpart", pa.array(kid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _running_total_kernel(g, key_col, ts_col, id_col,
                                     val_col)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _top_n_kernel(t: pa.Table, key_col: str, val_col: str,
                  id_col: str, n: int) -> pa.Table:
    """Per-key top-n rows by (val desc, id asc) — one sort + run-rank
    pass per partition (no per-key loop)."""
    idx = pc.sort_indices(t, sort_keys=[
        (key_col, "ascending"), (val_col, "descending"),
        (id_col, "ascending")])
    t = t.take(idx)
    m = t.num_rows
    if m == 0:
        return t.append_column("rank", pa.array([], pa.int64()))
    keys = t[key_col].to_numpy(zero_copy_only=False)
    first = np.empty(m, bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run_lens = np.diff(np.append(starts, m))
    rank = np.arange(m, dtype=np.int64) - np.repeat(starts, run_lens) + 1
    keep = rank <= n
    return t.filter(pa.array(keep)).append_column(
        "rank", pa.array(rank[keep], pa.int64()))


def top_n_per_key(events_ds, *, key_col: str = "user_id",
                  val_col: str = "value", id_col: str = "event_id",
                  n: int = 3, num_partitions: int = 32,
                  spill_dir: str | None = None):
    """Per-key top-n (the SQL ``row_number() OVER (PARTITION BY key
    ORDER BY val DESC, id) <= n`` shape): one uniform hash partition,
    one vectorized sort + run-rank kernel per partition; output is at
    most ``n`` rows per key regardless of input size."""
    def add_part(t: pa.Table) -> pa.Table:
        kid = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "kpart", pa.array(kid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _top_n_kernel(g, key_col, val_col, id_col, n)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _run_bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run starts + lengths of a SORTED key array (boundary diffs —
    never np.unique on a sorted array; see CLAUDE.md)."""
    n = keys.shape[0]
    first = np.empty(n, bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return starts, np.diff(np.append(starts, n))


def _lag_diff_kernel(t: pa.Table, key_col: str, ts_col: str,
                     id_col: str) -> pa.Table:
    """Per-key previous-event gap (the SQL ``ts - lag(ts) OVER
    (PARTITION BY key ORDER BY ts, id)``) in one vectorized pass:
    sort, shift the int64-microsecond timestamps by one, diff, and
    stamp -1 on each run's first row (the lag-is-NULL sentinel the
    oracle reproduces with COALESCE)."""
    idx = pc.sort_indices(t, sort_keys=[
        (key_col, "ascending"), (ts_col, "ascending"),
        (id_col, "ascending")])
    t = t.take(idx)
    n = t.num_rows
    if n == 0:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            key_col: pa.array([], pa.int64()),
            "gap_us": pa.array([], pa.int64())})
    us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    gap = np.empty(n, np.int64)
    gap[0] = -1
    np.subtract(us[1:], us[:-1], out=gap[1:])
    keys = t[key_col].to_numpy(zero_copy_only=False)
    starts, _ = _run_bounds(keys)
    gap[starts] = -1
    return pa.table({
        id_col: t[id_col],
        key_col: t[key_col],
        "gap_us": pa.array(gap, pa.int64())})


def lag_gaps(events_ds, *, key_col: str = "user_id",
             ts_col: str = "ts", id_col: str = "event_id",
             num_partitions: int = 32,
             spill_dir: str | None = None):
    """Per-key inter-event gap (lag/lead window family): gap_us = ts -
    previous ts of the same key in (ts, id) order, -1 for each key's
    first event.  Same one-hash-partition shuffle shape as
    ``sessionize`` — scales as a single keyed exchange plus one
    vectorized diff pass per partition."""
    def add_part(t: pa.Table) -> pa.Table:
        kid = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "kpart", pa.array(kid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _lag_diff_kernel(g, key_col, ts_col, id_col)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _moving_sum_kernel(t: pa.Table, key_col: str, ts_col: str,
                       id_col: str, val_col: str,
                       frame: int) -> pa.Table:
    """Per-key moving sum over a row frame (``ROWS BETWEEN frame-1
    PRECEDING AND CURRENT ROW``): global cumsum of the per-row
    fixed-point values, each row subtracts the cumsum just before its
    frame start — frame start is clamped to the key's run start, so
    one vectorized pass covers every key in the partition."""
    idx = pc.sort_indices(t, sort_keys=[
        (key_col, "ascending"), (ts_col, "ascending"),
        (id_col, "ascending")])
    t = t.take(idx)
    n = t.num_rows
    if n == 0:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            key_col: pa.array([], pa.int64()),
            "moving_x1e4": pa.array([], pa.int64())})
    v = np.floor(t[val_col].to_numpy(zero_copy_only=False)
                 * 10000.0 + 0.5).astype(np.int64)
    cs = np.cumsum(v)
    keys = t[key_col].to_numpy(zero_copy_only=False)
    starts, run_lens = _run_bounds(keys)
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, run_lens)
    j = np.arange(n, dtype=np.int64) - np.minimum(pos, frame - 1)
    base = np.where(j > 0, cs[j - 1], 0)
    return pa.table({
        id_col: t[id_col],
        key_col: t[key_col],
        "moving_x1e4": pa.array(cs - base, pa.int64())})


def moving_sum(events_ds, *, key_col: str = "user_id",
               ts_col: str = "ts", id_col: str = "event_id",
               val_col: str = "value", frame: int = 3,
               num_partitions: int = 32,
               spill_dir: str | None = None):
    """Per-key moving-window sum (the SQL ``SUM(v) OVER (PARTITION BY
    key ORDER BY ts, id ROWS BETWEEN frame-1 PRECEDING AND CURRENT
    ROW)``); values quantize to integer x1e4 per row so the frame sums
    are exact."""
    def add_part(t: pa.Table) -> pa.Table:
        kid = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "kpart", pa.array(kid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _moving_sum_kernel(g, key_col, ts_col, id_col, val_col,
                                  frame)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _string_agg_kernel(t: pa.Table, key_col: str, ts_col: str,
                       id_col: str, str_col: str,
                       sep: str) -> pa.Table:
    """Per-key ordered string aggregation (the SQL ``string_agg(s, sep
    ORDER BY ts, id)``): sort, find key runs, wrap the string column
    in ONE ListArray (offsets = run starts) and join each list with
    ``pc.binary_join`` — no per-key Python loop."""
    idx = pc.sort_indices(t, sort_keys=[
        (key_col, "ascending"), (ts_col, "ascending"),
        (id_col, "ascending")])
    t = t.take(idx)
    n = t.num_rows
    if n == 0:
        return pa.table({
            key_col: pa.array([], pa.int64()),
            "seq": pa.array([], pa.string()),
            "n_events": pa.array([], pa.int64())})
    keys = t[key_col].to_numpy(zero_copy_only=False)
    starts, run_lens = _run_bounds(keys)
    offsets = pa.array(np.append(starts, n).astype(np.int32))
    values = t[str_col].combine_chunks()
    if isinstance(values, pa.ChunkedArray):  # some versions return CA
        values = (values.chunk(0) if values.num_chunks
                  else pa.array([], values.type))
    lists = pa.ListArray.from_arrays(offsets, values)
    seq = pc.binary_join(lists, sep)
    return pa.table({
        key_col: t[key_col].take(pa.array(starts)),
        "seq": seq,
        "n_events": pa.array(run_lens.astype(np.int64), pa.int64())})


def string_agg_per_key(events_ds, *, key_col: str = "user_id",
                       ts_col: str = "ts", id_col: str = "event_id",
                       str_col: str = "event_type", sep: str = ",",
                       num_partitions: int = 32,
                       spill_dir: str | None = None):
    """Per-key ordered concatenation (sequence assembly — the
    event-sequence-mining / doc-reassembly shape): one hash partition
    by key, one ListArray + ``binary_join`` kernel per partition;
    output is one row per key."""
    def add_part(t: pa.Table) -> pa.Table:
        kid = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "kpart", pa.array(kid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _string_agg_kernel(g, key_col, ts_col, id_col, str_col,
                                  sep)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _rank_kernel(t: pa.Table, key_col: str, val_col: str,
                 id_col: str, ntile: int | None = None) -> pa.Table:
    """Per-key rank / dense_rank / percent_rank by (val desc, id asc):
    one sort + two boundary-diff passes per partition, no per-key
    loop.  ``id_col`` is unique, so the full sort key has no ties and
    rank == SQL ``rank() OVER (... ORDER BY val DESC, id)``;
    dense_rank compresses equal-``val`` runs within a key;
    percent_rank is ``(rank-1)/(n-1)`` computed in fp64 — the same
    division of the same exact small integers the SQL engine does, so
    the quantized output is bit-stable across engines.  ``ntile=k``
    appends SQL ``NTILE(k)``: with n rows per key, the first ``n%k``
    buckets get ``n//k + 1`` rows, the rest ``n//k`` — computed from
    the already-materialized (rank, run_len) arrays, no extra sort."""
    idx = pc.sort_indices(t, sort_keys=[
        (key_col, "ascending"), (val_col, "descending"),
        (id_col, "ascending")])
    t = t.take(idx)
    m = t.num_rows
    if m == 0:
        names = ["rnk", "drnk", "pct_rank_x1e6"]
        if ntile is not None:
            names.append("ntile")
        for name in names:
            t = t.append_column(name, pa.array([], pa.int64()))
        return t
    keys = t[key_col].to_numpy(zero_copy_only=False)
    first = np.empty(m, bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run_lens = np.diff(np.append(starts, m))
    rank = np.arange(m, dtype=np.int64) - np.repeat(starts, run_lens) + 1
    vals = t[val_col].to_numpy(zero_copy_only=False)
    vfirst = np.empty(m, bool)
    vfirst[0] = True
    np.not_equal(vals[1:], vals[:-1], out=vfirst[1:])
    vfirst |= first
    cum = np.cumsum(vfirst.astype(np.int64))
    dense = cum - np.repeat(cum[starts], run_lens) + 1
    n = np.repeat(run_lens, run_lens).astype(np.float64)
    pr = np.where(n > 1.0, (rank - 1).astype(np.float64)
                  / np.maximum(n - 1.0, 1.0), 0.0)
    pct = np.floor(pr * 1e6 + 0.5).astype(np.int64)
    t = (t.append_column("rnk", pa.array(rank, pa.int64()))
          .append_column("drnk", pa.array(dense, pa.int64()))
          .append_column("pct_rank_x1e6", pa.array(pct, pa.int64())))
    if ntile is not None:
        nn = np.repeat(run_lens, run_lens)  # rows in this key
        i = rank - 1
        q, r = nn // ntile, nn % ntile
        big = r * (q + 1)  # rows covered by the size-(q+1) buckets
        nt = np.where(i < big, i // np.maximum(q + 1, 1),
                      r + (i - big) // np.maximum(q, 1)) + 1
        t = t.append_column("ntile", pa.array(nt.astype(np.int64),
                                              pa.int64()))
    return t


def rank_per_key(events_ds, *, key_col: str = "user_id",
                 val_col: str = "value", id_col: str = "event_id",
                 ntile: int | None = None,
                 num_partitions: int = 32,
                 spill_dir: str | None = None):
    """SQL ``rank() / dense_rank() / percent_rank() OVER (PARTITION BY
    key ORDER BY val DESC, id)`` for every input row (plus
    ``NTILE(ntile)`` when requested): one uniform hash partition by
    key, one vectorized sort + run-rank kernel per partition.  Output
    is input-sized (one row per event) — consume it streaming, the
    ranks never gather on the driver."""
    def add_part(t: pa.Table) -> pa.Table:
        kid = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "kpart", pa.array(kid % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _rank_kernel(g, key_col, val_col, id_col, ntile)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def _retention_kernel(t: pa.Table, user_col: str, day_col: str
                      ) -> pa.Table:
    """One user-partition → partial (cohort_day, day_offset, n_users)
    counts.  Vectorized: lexsort by (user, day), boundary-diff dedupe
    of (user, day) pairs, cohort = first day of each user run (the
    partition holds ALL of a user's rows, so the per-partition min IS
    the global min), then a small Arrow hash-agg over the surviving
    pairs.  Output is bounded by cohorts × offsets — tiny."""
    n = t.num_rows
    empty = pa.table({"cohort_day": pa.array([], pa.int64()),
                      "day_offset": pa.array([], pa.int64()),
                      "n_users": pa.array([], pa.int64())})
    if n == 0:
        return empty
    u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
    d = t[day_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((d, u))
    u, d = u[order], d[order]
    # distinct (user, day): boundary diffs on the sorted pairs
    first = np.empty(n, bool)
    first[0] = True
    first[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
    u, d = u[first], d[first]
    m = len(u)
    ufirst = np.empty(m, bool)
    ufirst[0] = True
    ufirst[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(ufirst)
    run_lens = np.diff(np.append(starts, m))
    cohort = np.repeat(d[starts], run_lens)
    pairs = pa.table({"cohort_day": pa.array(cohort, pa.int64()),
                      "day_offset": pa.array(d - cohort, pa.int64())})
    agg = pairs.group_by(["cohort_day", "day_offset"]).aggregate(
        [("cohort_day", "count")])
    return pa.table({
        "cohort_day": agg["cohort_day"],
        "day_offset": agg["day_offset"],
        "n_users": agg["cohort_day_count"].cast(pa.int64())})


def retention_cohorts(events_ds, *, user_col: str = "user_id",
                      ts_col: str = "ts", num_partitions: int = 32,
                      spill_dir: str | None = None) -> pa.Table:
    """Cohort retention: cohort = each user's first active day, then
    for every (cohort_day, day_offset) the count of distinct users
    active ``offset`` days after their cohort day — the standard
    product-analytics retention triangle.

    Scale shape: ONE uniform hash-partition by user (every user's rows
    co-locate, so cohort assignment needs no second pass or join),
    per-partition vectorized dedupe + run kernel, partial counts merge
    on the driver (output is cohorts × offsets, independent of input
    size).  Reference analog: countGroupByKey over a derived key
    (vfs-index has no windowed analytics; this extends A2 counting to
    the cohort key)."""
    def add_part(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False)
        day = ts.astype("datetime64[us]").astype(np.int64) // 86_400_000_000
        uid = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            user_col: t[user_col],
            "day": pa.array(day, pa.int64()),
            "kpart": pa.array(uid % num_partitions, pa.int64())})

    def per_part(g: pa.Table) -> pa.Table:
        return _retention_kernel(g, user_col, "day")

    out = _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                              spill_dir=spill_dir)
    merged = collect_arrow(out)
    if merged is None:
        return _retention_kernel(pa.table(
            {user_col: pa.array([], pa.int64()),
             "day": pa.array([], pa.int64())}), user_col, "day")
    agg = merged.group_by(["cohort_day", "day_offset"]).aggregate(
        [("n_users", "sum")])
    t = pa.table({"cohort_day": agg["cohort_day"],
                  "day_offset": agg["day_offset"],
                  "n_users": agg["n_users_sum"].cast(pa.int64())})
    import pyarrow.compute as _pc
    return t.take(_pc.sort_indices(t, sort_keys=[
        ("cohort_day", "ascending"), ("day_offset", "ascending")]))


def hourly_anomalies(events_ds, *, type_col: str = "event_type",
                     ts_col: str = "ts", sigmas: int = 2) -> pa.Table:
    """Integer-exact volume-anomaly detection: hourly event counts per
    type (shuffle-free tumbling partials), flag hours whose count
    exceeds the type's mean by ``sigmas`` population standard
    deviations.  The flag is computed WITHOUT floats — for count n over
    H observed hours with sum S and sum-of-squares SS,

        n > mean + k*sigma  ⇔  n*H - S > 0  and
                               (n*H - S)^2 > k^2 * (H*SS - S^2)

    evaluated in arbitrary-precision Python ints on the tiny hourly
    table (DuckDB reproduces it in HUGEINT), so engine and oracle agree
    bit-for-bit with no epsilon.  Scale shape: the only pass over the
    input is the per-batch partial hash-agg; the stats pass runs on
    types × hours rows."""
    tbl = tumbling_aggregate(events_ds, window_minutes=60,
                             type_col=type_col, ts_col=ts_col)
    types = tbl[type_col].to_pylist()
    hours = [w // 3_600_000_000 for w in tbl["window_us"].to_pylist()]
    ns = tbl["n"].to_pylist()
    stats: dict[str, list[int]] = {}
    for ty, n in zip(types, ns):
        s = stats.setdefault(ty, [0, 0, 0])
        s[0] += 1
        s[1] += n
        s[2] += n * n
    k2 = sigmas * sigmas
    anom = []
    for ty, n in zip(types, ns):
        h, s, ss = stats[ty]
        lhs = n * h - s
        anom.append(1 if (lhs > 0 and lhs * lhs > k2 * (h * ss - s * s))
                    else 0)
    t = pa.table({type_col: pa.array(types, pa.string()),
                  "hour_id": pa.array(hours, pa.int64()),
                  "n": pa.array(ns, pa.int64()),
                  "anom": pa.array(anom, pa.int64())})
    import pyarrow.compute as _pc
    return t.take(_pc.sort_indices(t, sort_keys=[
        (type_col, "ascending"), ("hour_id", "ascending")]))
