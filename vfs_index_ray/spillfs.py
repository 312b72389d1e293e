"""Pluggable spill filesystem and the one keyed spill writer of the
disk-shuffle substrate.

Every wide operation in this engine (postings build waves, the
co-partitioned joins, keyed window kernels, LSH band buckets, span/line
dedup, hash aggregates, global sort, shard writes) shuffles through
:meth:`Spill.write_parts`, a hive-laid-out parquet spill split by an
integer part column, instead of Ray Data's pull-based sort exchange
(measured in-repo to anti-scale at high core counts).  On one node the
spill lives under /tmp; on a multi-node cluster it must live on storage
EVERY node can read — NFS, S3, GCS — which pyarrow exposes behind one
``FileSystem`` interface.

``open_spill`` resolves a caller's spill spec into a run-scoped
:class:`Spill` handle that the substrate sites share.  Keyed one-sided
shuffles go through :func:`partition_apply` (spill by a part column,
then one task per part); the two-sided join shape is
``functions.joins.co_partition_apply``; the index build's resumable
postings scratch is a :class:`Spill` from :func:`resolve_location`.
A spec is any of

- ``None`` — fresh private tmpdir under /tmp (single-node default),
- a local path — a **unique run-scoped subdirectory** is created
  inside it (a reused root can therefore never mix a prior run's
  stale ``part=*`` files into this run's results — a write adds
  files, it does not replace the directory),
- a URI (``file://…``, ``s3://bucket/prefix``, ``gs://…``, ``hdfs://…``)
  — resolved via ``pyarrow.fs.FileSystem.from_uri``, unique subdir
  created on that filesystem,
- a ``(pyarrow.fs.FileSystem, path)`` tuple — e.g. an fsspec
  filesystem wrapped in ``PyFileSystem(FSSpecHandler(...))``.

pyarrow FileSystem objects are picklable, so a ``Spill`` (or its
``fs``) serializes into Ray tasks; the per-partition reader tasks use
``pq.read_table(path, filesystem=fs)`` and work unchanged on any
backend.  Paths are always '/'-joined (object-store keys are not OS
paths).

Reference parity note: vfs-index is a single-process engine whose
"shuffle" is the local VFS directory tree (vfs-index README,
index_file.go); a cluster engine needs the shared-storage equivalent,
which this module supplies in one place.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray.data


def _join(*parts: str) -> str:
    return "/".join(p.strip("/") if i else p.rstrip("/")
                    for i, p in enumerate(parts) if p != "")


class Spill:
    """One run-scoped spill directory on a pyarrow FileSystem.

    ``own`` spills delete their directory in ``cleanup()``; the
    directory is always created by ``open_spill`` and contains only
    this run's files, so cleanup is safe for caller-rooted spills too
    (their unique subdir is ours — the caller's root is untouched).
    """

    def __init__(self, fs: pafs.FileSystem, path: str, *,
                 local: bool = False):
        self.fs = fs
        self.path = path
        self.local = local  # True only for LocalFileSystem roots

    # -- paths ---------------------------------------------------------
    def join(self, *parts: str) -> str:
        return _join(self.path, *parts)

    def sub(self, name: str) -> "Spill":
        p = self.join(name)
        self.fs.create_dir(p, recursive=True)
        return Spill(self.fs, p, local=self.local)

    # -- write ---------------------------------------------------------
    def write_parquet(self, ds, subdir: str | None = None) -> str:
        """``Dataset.write_parquet`` onto this spill, unpartitioned (its
        files keep row-group statistics for a filtered read); returns
        the path."""
        path = self.join(subdir) if subdir else self.path
        ds.write_parquet(path, filesystem=self.fs)
        return path

    def write_parts(self, ds, part_col: str,
                    subdir: str | None = None) -> str:
        """THE keyed spill write: each write task's rows of ``ds`` split
        by the integer ``part_col`` into one Parquet file per non-empty
        part, ``{part_col}={p}/{task_idx:06d}.parquet`` (the hive layout
        ``list_parts`` reads), without ``part_col``. A part's rows keep
        the task's input order; the files have no dictionaries and no
        statistics. Writes nothing for an empty ``ds``; returns the
        path."""
        path = self.join(subdir) if subdir else self.path
        ds.write_datasink(_PartSink(self.fs, path, part_col))
        return path

    # -- list ----------------------------------------------------------
    def _infos(self, path: str):
        sel = pafs.FileSelector(path, allow_not_found=True)
        try:
            return self.fs.get_file_info(sel)
        except FileNotFoundError:
            return []

    def list_parts(self, prefix: str, subdir: str | None = None
                   ) -> dict[str, str]:
        """Hive partition dirs ``prefix=value`` under the spill (or a
        subdir): mapping value -> full path, insertion order by name."""
        base = self.join(subdir) if subdir else self.path
        pre = prefix + "="
        out: dict[str, str] = {}
        for fi in sorted(self._infos(base), key=lambda f: f.base_name):
            if fi.type == pafs.FileType.Directory and \
                    fi.base_name.startswith(pre):
                out[fi.base_name.split("=", 1)[1]] = fi.path
        return out

    def list_files(self, path: str, suffix: str = ".parquet"
                   ) -> list[str]:
        return sorted(fi.path for fi in self._infos(path)
                      if fi.type == pafs.FileType.File
                      and fi.base_name.endswith(suffix))

    def dir_bytes(self, path: str) -> int:
        return sum(fi.size or 0 for fi in self._infos(path)
                   if fi.type == pafs.FileType.File)

    def exists_dir(self, path: str) -> bool:
        fi = self.fs.get_file_info(path)
        return fi.type == pafs.FileType.Directory

    # -- read (also callable inside Ray tasks via self.fs pickling) -----
    def read_table(self, path: str, *, columns=None,
                   filters=None) -> pa.Table:
        return pq.read_table(path, filesystem=self.fs, columns=columns,
                             filters=filters, use_threads=False)

    def schema_of(self, part_dirs: dict[str, str]) -> pa.Schema | None:
        for d in part_dirs.values():
            files = self.list_files(d)
            if files:
                return pq.read_schema(files[0], filesystem=self.fs)
        return None

    # -- lifecycle -------------------------------------------------------
    def cleanup(self) -> None:
        try:
            self.fs.delete_dir(self.path)
        except (FileNotFoundError, OSError):
            pass


class _PartSink(ray.data.Datasink):
    """``Spill.write_parts``' sink. ``write`` gets all of a task's
    blocks in one call: they are unified to one schema (as Ray's own
    Parquet writer does) and split with ONE stable sort of the part
    numbers, so a part's file holds its rows in block order. A file is
    named by its task, so a retried task rewrites its own files. Not
    fsynced (see ``segment.publish``)."""

    def __init__(self, fs: pafs.FileSystem, path: str, part_col: str):
        self.fs, self.path, self.part_col = fs, path, part_col

    def write(self, blocks, ctx) -> None:
        from ray.data.block import BlockAccessor
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return
        schema = pa.unify_schemas([t.schema for t in tables])
        tbl = pa.concat_tables([t if t.schema.equals(schema)
                                else t.cast(schema) for t in tables])
        part = tbl[self.part_col].to_numpy()
        # the narrowest dtype makes the stable sort a radix sort
        part = part.astype(np.result_type(np.min_scalar_type(part.min()),
                                          np.min_scalar_type(part.max())))
        order = np.argsort(part, kind="stable")
        part = part[order]
        tbl = tbl.drop_columns([self.part_col]).take(order)
        starts = np.flatnonzero(np.r_[True, part[1:] != part[:-1]])
        for lo, hi in zip(starts, np.r_[starts[1:], len(part)]):
            pdir = f"{self.path}/{self.part_col}={part[lo]}"
            self.fs.create_dir(pdir, recursive=True)
            pq.write_table(tbl.slice(lo, hi - lo),
                           f"{pdir}/{ctx.task_idx:06d}.parquet",
                           filesystem=self.fs, use_dictionary=False,
                           write_statistics=False)


def resolve_location(spec, *, default_path: str | None = None
                     ) -> tuple[pafs.FileSystem, str]:
    """(filesystem, path) from a spec WITHOUT creating a unique
    subdirectory — for RESUMABLE state (the build's postings scratch,
    whose wave layout must persist across runs so committed waves are
    reused).  Contrast ``open_spill``, which is for single-run scratch
    and always isolates.  ``spec`` is None (local ``default_path``), a
    local path, a URI, or a ``(pyarrow_fs, path)`` tuple."""
    if spec is None:
        if default_path is None:
            raise ValueError("default_path required when spec is None")
        return pafs.LocalFileSystem(), default_path
    if isinstance(spec, tuple):
        fs, root = spec
        return fs, str(root)
    s = str(spec)
    if "://" in s:
        return pafs.FileSystem.from_uri(s)
    return pafs.LocalFileSystem(), s


def open_spill(spill_dir=None, *, prefix: str = "spill_") -> Spill:
    """Resolve a spill spec (None | local path | URI | (fs, path)) into
    a fresh run-scoped :class:`Spill`.  Always creates a new, uniquely
    named directory — see module docstring for why."""
    if isinstance(spill_dir, Spill):
        return spill_dir
    token = f"{prefix}{uuid.uuid4().hex[:12]}"
    if spill_dir is None:
        import tempfile
        return Spill(pafs.LocalFileSystem(),
                     tempfile.mkdtemp(prefix=prefix, dir="/tmp"),
                     local=True)
    if isinstance(spill_dir, tuple):
        fs, root = spill_dir
        path = _join(str(root), token)
        fs.create_dir(path, recursive=True)
        return Spill(fs, path,
                     local=isinstance(fs, pafs.LocalFileSystem))
    s = str(spill_dir)
    if "://" in s:
        fs, root = pafs.FileSystem.from_uri(s)
        path = _join(root, token)
        fs.create_dir(path, recursive=True)
        return Spill(fs, path,
                     local=isinstance(fs, pafs.LocalFileSystem))
    path = os.path.join(s, token)
    os.makedirs(path, exist_ok=True)
    return Spill(pafs.LocalFileSystem(), path, local=True)


def partition_apply(ds, part_col: str, per_part, *, columns=None,
                    spill_dir=None, prefix: str = "part_") -> list:
    """The one-sided keyed disk shuffle: write ``ds`` (which already
    carries ``part_col``, mapped on by the caller) through
    :meth:`Spill.write_parts`, then run ``per_part(table)`` once per
    partition dir, in ``list_parts`` order, as independent
    ``num_cpus=1`` Ray tasks —
    never Ray Data's pull-based sort exchange (measured in-repo to
    anti-scale at high core counts).  The partition column is consumed
    by the spill, so ``per_part`` sees the part's rows (only
    ``columns``, if given) WITHOUT it.

    Returns the per-part result refs, all finished, or ``[]`` when the
    input is empty; results stay in the object store.  Every task is
    waited for before the spill is removed, also when one of them
    raised — its error surfaces from ``ray.get`` on its ref.
    ``spill_dir`` is any :func:`open_spill` spec."""
    import ray

    sp = open_spill(spill_dir, prefix=prefix)
    try:
        sp.write_parts(ds, part_col)

        @ray.remote(num_cpus=1)
        def one_part(pdir: str):
            # Spill.read_table reads with use_threads=False: concurrent
            # part tasks must not each spawn an Arrow thread pool
            return per_part(sp.read_table(pdir, columns=columns))

        refs = [one_part.remote(d)
                for d in sp.list_parts(part_col).values()]
        if refs:
            ray.wait(refs, num_returns=len(refs))  # done before cleanup
        return refs
    finally:
        sp.cleanup()
