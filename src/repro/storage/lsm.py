"""LSM manager: the write path of the storage engine (paper Sec. 2.3).

Ties together the WAL, MemTable, segments, tiered merging, the
manifest (snapshot isolation), and the bufferpool:

* inserts/deletes land in the WAL, then the MemTable / tombstone set —
  and nothing else happens under the writer lock;
* on the size/time threshold the active MemTable is *frozen*: sealed,
  pushed onto an immutable queue, and made reader-visible through the
  manifest, all O(1) under the writer lock ("the MemTable becomes
  immutable and then gets flushed");
* a flusher drains frozen memtables into sealed segments and runs
  tiered compaction — on a dedicated background thread when the
  engine runs in background mode (``REPRO_BG_FLUSH=1`` or
  ``LSMConfig.background=True``), or synchronously right after the
  freeze (still outside the writer lock) in inline mode;
* compaction physically drops deleted rows ("the obsoleted vectors
  are removed during segment merge") and additionally rewrites any
  single resident segment whose tombstoned fraction exceeds
  ``tombstone_purge_ratio`` (true reclamation for delete/upsert);
* segments above a row threshold get vector indexes built;
* every search runs against an acquired snapshot, which pins sealed
  segments *and* frozen memtables (MVCC over both).

Locking
-------
Three locks with strictly separated jobs:

* ``_lock`` (role ``lsm``, reentrant) — the writer lock.  Guards the
  active memtable, pending deletes, and the freeze counter.  Never
  held across filesystem I/O; the longest critical section is a
  memtable append or an O(1) freeze.
* ``_bg_lock`` (role ``lsm-bg``) — the maintenance lock.  Serializes
  flush processing, compaction, manifest persistence, and recovery.
  Filesystem I/O is *expected* under it (it is in reprolint's
  ``allow-blocking`` set); writers never take it.
* ``_frozen_lock`` (role ``lsm-frozen``, leaf) — guards the frozen-
  memtable registry and its lazily built read views.

Lock order: ``lsm -> lsm-bg -> {manifest, wal} -> {bufferpool} ->
{lsm-index-specs, fs, lsm-frozen} -> obs``.  Background crash safety:
a :class:`SimulatedCrash` (or any error) inside background work is
recorded and re-raised from the next write-path call, modelling the
process death the chaos harness expects; queued work drains inertly
so barriers never hang.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import QueryExecutor
from repro.index.base import SearchResult
from repro.metrics import get_metric
from repro.obs import get_obs
from repro.obs import events as obs_events
from repro.obs.profile import profile_count, profile_stage
from repro.storage.bufferpool import BufferPool
from repro.storage.faults import SimulatedCrash
from repro.storage.filesystem import FileSystem, InMemoryObjectStore
from repro.storage.manifest import Manifest, Snapshot
from repro.storage.memtable import MemTable
from repro.storage.merge import TieredMergePolicy
from repro.storage.segment import Segment, VectorSpecs
from repro.storage.wal import WriteAheadLog
from repro.utils import merge_topk_batch
from repro.utils.sanitizer import assert_guarded, maybe_sanitize


def _env_background_default() -> bool:
    return os.environ.get("REPRO_BG_FLUSH", "0").lower() not in ("", "0", "false")


@dataclass
class LSMConfig:
    """Tunables for the LSM write path."""

    memtable_flush_bytes: int = 8 << 20
    flush_interval_seconds: float = 1.0
    index_build_min_rows: int = 4096
    index_type: str = "IVF_FLAT"
    index_params: Dict[str, object] = field(default_factory=dict)
    auto_merge: bool = True
    merge_policy: TieredMergePolicy = field(default_factory=TieredMergePolicy)
    bufferpool_bytes: int = 1 << 30
    enable_wal: bool = True
    #: build indexes on a background thread ("Milvus builds indexes
    #: asynchronously", Sec. 5.1); searches fall back to brute force on
    #: a segment until its index is attached.
    async_index_build: bool = False
    #: run flush/compaction on a background thread; None resolves from
    #: the REPRO_BG_FLUSH environment variable at construction.
    background: Optional[bool] = None
    #: rewrite a resident segment once this fraction of its rows is
    #: tombstoned (0 disables the purge pass).
    tombstone_purge_ratio: float = 0.25


@dataclass
class FrozenMemtable:
    """One sealed memtable awaiting background flush.

    Reader-visible from the moment of the freeze (via manifest
    ``frozen_ids``) until the flush commit swaps it for its segment.
    ``tombstones`` are the deletes pending at freeze time: visible to
    reads immediately, made durable-in-manifest by the flush commit.
    """

    fid: int
    memtable: MemTable
    tombstones: Optional[np.ndarray]
    wal_upto: int       #: highest LSN this freeze covers (-1 = no WAL)
    rows: int
    done: bool = False  #: set once the flush commit lands
    wal_from: int = -1  #: highest LSN of the *previous* freeze: this
                        #: entry owns WAL records (wal_from, wal_upto]
    queued: bool = True  #: currently on the work queue (False after a
                         #: failed attempt, until a barrier re-queues it)
    seg_id: Optional[int] = None  #: allocated once; a retried flush
                                  #: rewrites the same path (no orphans)
    committed: bool = False  #: in-memory manifest commit landed — a
                             #: retry must not apply it a second time


class LSMManager:
    """Dynamic data management for one collection's worth of rows.

    See the module docstring for the threading model.  reprolint's
    lock-discipline rule enforces the ``_GUARDED_BY`` map below.
    """

    #: lock-discipline declaration consumed by tools/reprolint.
    _GUARDED_BY = {
        "_memtable": "_lock",
        "_pending_deletes": "_lock",
        "_next_frozen_id": "_lock",
        "_last_flush_time": "_lock",
        "_bg_crash": "_lock",
        "_bg_error": "_lock",
        "_next_segment_id": "_bg_lock",
        "_flushed_lsn": "_bg_lock",
        "_manifest_seq": "_bg_lock",
        "_planner_state": "_bg_lock",
        "flush_count": "_bg_lock",
        "merge_count": "_bg_lock",
        "purge_count": "_bg_lock",
        "_frozen": "_frozen_lock",
        "_frozen_views": "_frozen_lock",
        "_frozen_wal_high": "_frozen_lock",
        "_flush_results": "_frozen_lock",
        "_awaited": "_frozen_lock",
        "_index_specs": "_index_lock",
    }

    _SHUTDOWN = object()

    def __init__(
        self,
        vector_specs: VectorSpecs,
        attribute_names: Sequence[str] = (),
        config: Optional[LSMConfig] = None,
        fs: Optional[FileSystem] = None,
        categorical_names: Sequence[str] = (),
        categorical_kinds: Optional[Dict[str, str]] = None,
    ):
        self.vector_specs = dict(vector_specs)
        self.attribute_names = tuple(attribute_names)
        self.categorical_names = tuple(categorical_names)
        self.categorical_kinds = dict(categorical_kinds or {})
        self.config = config or LSMConfig()
        self.background = (
            _env_background_default()
            if self.config.background is None
            else bool(self.config.background)
        )
        self.fs = fs if fs is not None else InMemoryObjectStore()
        self.wal = WriteAheadLog(self.fs) if self.config.enable_wal else None
        self.manifest = Manifest(
            on_segment_dead=self._segment_dead,
            on_frozen_dead=self._frozen_dead,
        )
        self.bufferpool = BufferPool(self.config.bufferpool_bytes, self._load_segment)
        # Reentrant: tick -> freeze and insert -> freeze nest.
        self._lock = maybe_sanitize(threading.RLock(), "lsm")
        self._bg_lock = maybe_sanitize(threading.Lock(), "lsm-bg")
        self._frozen_lock = maybe_sanitize(threading.Lock(), "lsm-frozen")
        self._index_lock = maybe_sanitize(threading.Lock(), "lsm-index-specs")
        self._memtable = self._new_memtable()
        self._pending_deletes: List[np.ndarray] = []
        self._next_frozen_id = 0
        self._last_flush_time = 0.0
        self._bg_crash: Optional[BaseException] = None
        self._bg_error: Optional[Exception] = None
        self._next_segment_id = 0
        self._flushed_lsn = -1
        self._manifest_seq = 0
        #: query-planner calibration (JSON-safe dict), carried in every
        #: manifest version so calibration survives restarts.
        self._planner_state: Optional[dict] = None
        self.flush_count = 0
        self.merge_count = 0
        self.purge_count = 0
        #: fid -> FrozenMemtable, alive while any snapshot can see it
        self._frozen: Dict[int, FrozenMemtable] = {}
        #: highest WAL LSN any freeze has ever covered
        self._frozen_wal_high = -1
        #: fid -> lazily built read view (a Segment sharing no files)
        self._frozen_views: Dict[int, Segment] = {}
        #: fid -> resulting segment id, recorded only for awaited fids
        self._flush_results: Dict[int, Optional[int]] = {}
        self._awaited: set = set()
        #: dead segments whose files await a durable manifest persist
        #: before physical deletion (see _segment_dead).
        self._dead_segment_files: "queue.SimpleQueue" = queue.SimpleQueue()
        #: FIFO hand-off queue; in inline mode the writer drains it
        #: itself right after releasing the writer lock.
        self._work: "queue.Queue" = queue.Queue()
        self._flusher: Optional[threading.Thread] = None
        if self.background:
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="lsm-flusher", daemon=True
            )
            self._flusher.start()
        #: segment id -> {field: (index_type, params)} for segments
        #: whose indexes must be rebuilt after bufferpool eviction
        #: (indexes are not serialized; Milvus also rebuilds them
        #: asynchronously).
        self._index_specs: Dict[int, Dict[str, tuple]] = {}
        self._index_queue: Optional["queue.Queue"] = None
        if self.config.async_index_build:
            self._index_queue = queue.Queue()
            worker = threading.Thread(
                target=self._index_builder_loop, name="index-builder", daemon=True
            )
            worker.start()

    def _new_memtable(self) -> MemTable:
        return MemTable(
            self.vector_specs, self.attribute_names, self.categorical_names,
            self.categorical_kinds,
        )

    # -- write path ------------------------------------------------------

    def insert(
        self,
        row_ids: np.ndarray,
        vectors: Dict[str, np.ndarray],
        attributes: Optional[Dict[str, np.ndarray]] = None,
        categoricals: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        """Log and buffer an insert batch; may trigger a freeze.

        The writer lock covers only the WAL append, the memtable
        append, and (at the threshold) the O(1) freeze — a writer is
        never stuck behind segment I/O, even in inline mode, where the
        drain happens after the lock is released.
        """
        obs = get_obs()
        with obs.tracer.span("lsm.insert", rows=len(row_ids)):
            started = time.perf_counter()
            with self._lock:
                self._raise_bg_crash_locked()
                if self.wal is not None:
                    self.wal.append_insert(
                        row_ids, vectors, attributes, categoricals
                    )
                self._memtable.insert(row_ids, vectors, attributes, categoricals)
                froze = (
                    self._memtable.approx_bytes >= self.config.memtable_flush_bytes
                )
                if froze:
                    self._freeze_locked()
            if froze and not self.background:
                self._drain_work()
            elapsed = time.perf_counter() - started
        obs.registry.counter("lsm_insert_rows_total").inc(len(row_ids))
        obs.registry.histogram("lsm_insert_seconds").observe(elapsed)

    def delete(self, row_ids: np.ndarray) -> None:
        """Log and buffer deletes (out-of-place: tombstones only)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0:
            return
        with self._lock:
            self._raise_bg_crash_locked()
            if self.wal is not None:
                self.wal.append_delete(row_ids)
            self._pending_deletes.append(row_ids)

    def tick(self, now_seconds: float) -> bool:
        """Time-based flush driver ("once every second"); returns True on freeze.

        In background mode the freeze is handed to the flusher thread
        and tick returns immediately; in inline mode the drain runs
        before returning (preserving the historical synchronous
        semantics for single-threaded callers).
        """
        with self._lock:
            self._raise_bg_crash_locked()
            due = (
                now_seconds - self._last_flush_time >= self.config.flush_interval_seconds
                and (len(self._memtable) or self._pending_deletes)
            )
            if due:
                self._freeze_locked(now_seconds=now_seconds)
        if due and not self.background:
            self._drain_work()
        return due

    def flush(self, now_seconds: Optional[float] = None) -> Optional[int]:
        """Freeze the MemTable and wait for its flush to commit.

        Returns the new segment id, or None when only deletes (or
        nothing) were pending.  Acts as a barrier: all previously
        frozen memtables are flushed when it returns, and any crash
        recorded by background work is re-raised here.
        """
        with self._lock:
            self._raise_bg_crash_locked()
            fid = self._freeze_locked(now_seconds=now_seconds)
            if fid is not None:
                with self._frozen_lock:
                    self._awaited.add(fid)
        self.wait_for_background()
        if fid is None:
            return None
        with self._frozen_lock:
            self._awaited.discard(fid)
            return self._flush_results.pop(fid, None)

    def _freeze_locked(self, now_seconds: Optional[float] = None) -> Optional[int]:
        """Seal the active memtable onto the frozen queue — O(1).

        Commits a manifest version carrying the frozen id, so the rows
        (and the deletes batched with them) become reader-visible at
        the freeze, not at the eventual flush.  Returns the frozen id,
        or None when there is nothing to freeze.
        """
        assert_guarded(self._lock, "LSMManager", "_memtable")
        if not len(self._memtable) and not self._pending_deletes:
            return None
        tombstones = (
            np.unique(np.concatenate(self._pending_deletes))
            if self._pending_deletes
            else None
        )
        self._pending_deletes = []
        memtable = self._memtable
        memtable.seal()
        self._memtable = self._new_memtable()
        fid = self._next_frozen_id
        self._next_frozen_id += 1
        wal_upto = self.wal.next_lsn - 1 if self.wal is not None else -1
        with self._frozen_lock:
            entry = FrozenMemtable(
                fid, memtable, tombstones, wal_upto, len(memtable),
                wal_from=self._frozen_wal_high,
            )
            self._frozen_wal_high = max(self._frozen_wal_high, wal_upto)
            self._frozen[fid] = entry
            backlog = sum(1 for e in self._frozen.values() if not e.done)
        self.manifest.commit(add_frozen=[fid])
        if now_seconds is not None:
            self._last_flush_time = now_seconds
        self._work.put(fid)
        obs = get_obs()
        obs.registry.gauge("lsm_frozen_memtables").set(backlog)
        obs.jobs.set_queue_depth("flush", backlog)
        obs.events.emit(obs_events.MEMTABLE_FREEZE,
                        fid=fid, rows=len(memtable), backlog=backlog)
        return fid

    # -- background engine -------------------------------------------------

    def _flusher_loop(self) -> None:
        """Single background worker: FIFO flushes, then compaction.

        One thread by design — frozen memtables must seal into
        segments in freeze order (the flushed-LSN checkpoint advances
        monotonically), and a deterministic op stream is what makes
        seeded chaos schedules replayable.
        """
        while True:
            item = self._work.get()
            try:
                if item is self._SHUTDOWN:
                    return
                if self._bg_crashed():
                    continue  # dead process: drain inertly, keep join() sound
                with self._bg_lock:
                    self._process_flush_locked(item)
            except BaseException as exc:  # noqa: BLE001 — recorded, re-raised on write path
                # A simulated crash (or anything that isn't a plain
                # Exception) is fatal: the "process" is dead, so the
                # record is sticky and every later write re-raises it.
                # An ordinary Exception (e.g. a transient injected
                # IOError) is an *operation* failure: report it once at
                # the next barrier and leave the entry re-queueable, so
                # a caller-level RetryPolicy can succeed.
                fatal = isinstance(exc, SimulatedCrash) or not isinstance(exc, Exception)
                with self._lock:
                    if fatal:
                        if self._bg_crash is None:
                            self._bg_crash = exc
                    elif self._bg_error is None:
                        self._bg_error = exc
                obs = get_obs()
                obs.events.emit(obs_events.BG_ERROR, worker="flusher",
                                error=type(exc).__name__, fatal=fatal)
                obs.health.note_bg_failure(
                    "flusher", f"{type(exc).__name__}: {exc}", fatal=fatal)
            finally:
                self._work.task_done()

    def _drain_work(self) -> None:
        """Inline mode: the writer flushes the queue itself.

        Runs with the writer lock *released*; ``_bg_lock`` serializes
        concurrent drainers so FIFO order is preserved.
        """
        with self._bg_lock:
            while True:
                try:
                    item = self._work.get_nowait()
                except queue.Empty:
                    return
                try:
                    if item is not self._SHUTDOWN:
                        self._process_flush_locked(item)
                finally:
                    self._work.task_done()

    def wait_for_background(self) -> None:
        """Barrier: block until all queued background work committed.

        Re-raises any crash recorded by the background worker, so
        callers observe background failures at a well-defined point.
        Frozen memtables whose flush *failed* (transient error on the
        worker) are re-queued first, so a retry of the barrier retries
        the flush instead of waiting on an empty queue.
        """
        self._requeue_unflushed()
        if self.background:
            self._work.join()
        else:
            self._drain_work()
        with self._lock:
            self._raise_bg_crash_locked()
            if self._bg_error is not None:
                error, self._bg_error = self._bg_error, None
                raise error

    def _requeue_unflushed(self) -> None:
        """Put frozen entries that fell off the queue back on it.

        An entry leaves the queue when the worker picks it up; if that
        flush fails, the entry is still pending (``done`` is False) but
        nothing will process it again.  Re-queueing in fid order keeps
        the FIFO seal order; entries already queued (or mid-flight on
        the worker, which re-checks ``done``) are skipped.
        """
        with self._frozen_lock:
            stranded = sorted(
                fid for fid, e in self._frozen.items()
                if not e.done and not e.queued
            )
            for fid in stranded:
                self._frozen[fid].queued = True
        for fid in stranded:
            self._work.put(fid)

    def quiesce_after_crash(self) -> None:
        """Chaos-harness hook: stop background mutation of the store.

        A real crash kills every thread at once; the simulated one is
        an exception on a single thread.  Before the harness recovers
        a fresh manager from the surviving filesystem, it must ensure
        this manager's flusher can no longer write — any in-flight
        item completes (its ops count as "landed before the crash")
        and everything still queued drains inertly.
        """
        with self._lock:
            if self._bg_crash is None:
                self._bg_crash = RuntimeError("halted by chaos harness")
        if self.background:
            self._work.join()

    def close(self) -> None:
        """Stop the background flusher (pending work is completed first)."""
        if self._flusher is not None:
            self._work.put(self._SHUTDOWN)
            self._flusher.join()
            self._flusher = None

    def _raise_bg_crash_locked(self) -> None:
        assert_guarded(self._lock, "LSMManager", "_bg_crash")
        if self._bg_crash is not None:
            raise self._bg_crash

    def _bg_crashed(self) -> bool:
        with self._lock:
            return self._bg_crash is not None

    def _process_flush_locked(self, fid: int) -> None:
        """Flush one frozen memtable into a sealed segment (``_bg_lock`` held).

        Crash ordering: segment file → manifest commit (carrying the
        new flushed LSN) → WAL truncate.  A crash before the manifest
        lands leaves an orphan segment file (GC'd by recover) and the
        WAL replays the rows; a crash after it leaves a WAL tail that
        recover's checkpoint finishes.  Either way, no acked write is
        lost and none is applied twice.

        Re-entrant after a transient failure: progress is checkpointed
        on the entry (``seg_id``, ``committed``), so a retried flush
        rewrites the same segment path and never re-applies its
        manifest commit.
        """
        assert_guarded(self._bg_lock, "LSMManager", "_flushed_lsn")
        with self._frozen_lock:
            entry = self._frozen.get(fid)
            if entry is not None:
                entry.queued = False
        if entry is None or entry.done:
            return
        obs = get_obs()
        job = obs.jobs.start("flush")
        with obs.tracer.span("lsm.flush", frozen=fid):
            started = time.perf_counter()
            obs.events.emit(obs_events.FLUSH_START, fid=fid, rows=entry.rows)
            try:
                if entry.rows:
                    job.advance(phase="encode", rows_total=entry.rows)
                    view = self._frozen_view(fid)
                    if not entry.committed:
                        if entry.seg_id is None:
                            entry.seg_id = self._next_segment_id
                            self._next_segment_id += 1
                        # Share the view's arrays (and bloom filter): the sealed
                        # segment is bit-identical to what readers saw frozen.
                        segment = Segment(
                            entry.seg_id, view.row_ids, view.vectors,
                            view.attributes, view.vector_specs,
                            categoricals=view.categoricals, bloom=view.bloom,
                        )
                        size = self._persist_segment(segment, job=job)
                        self.bufferpool.put(segment)
                        job.advance(phase="manifest-commit")
                        self.manifest.commit(
                            add=[entry.seg_id], remove_frozen=[fid],
                            new_tombstones=entry.tombstones,
                            sizes={entry.seg_id: size},
                        )
                        entry.committed = True
                elif not entry.committed:
                    self.manifest.commit(
                        remove_frozen=[fid], new_tombstones=entry.tombstones
                    )
                    entry.committed = True
                seg_id = entry.seg_id
                with self._frozen_lock:
                    entry.done = True
                    if fid in self._awaited:
                        self._flush_results[fid] = seg_id
                    pending = [e for e in self._frozen.values() if not e.done]
                    # The checkpoint may only pass LSNs every pending freeze
                    # has outgrown: a failed (or simply later) entry still
                    # owns records from wal_from + 1 on, and truncating them
                    # would lose acked writes if it never seals.
                    safe_lsn = (
                        min(e.wal_from for e in pending)
                        if pending else self._frozen_wal_high
                    )
                    backlog = len(pending)
                if self.wal is not None:
                    self._flushed_lsn = max(self._flushed_lsn, safe_lsn)
                job.advance(phase="checkpoint")
                self._persist_manifest_locked()
                self.flush_count += 1
                if self.wal is not None:
                    self.wal.truncate_through(self._flushed_lsn)
            except BaseException as exc:
                job.finish(error=f"{type(exc).__name__}: {exc}")
                raise
            elapsed = time.perf_counter() - started
        obs.registry.gauge("lsm_frozen_memtables").set(backlog)
        obs.jobs.set_queue_depth("flush", backlog)
        obs.events.emit(obs_events.FLUSH_COMMIT, fid=fid,
                        seg_id=-1 if seg_id is None else seg_id,
                        backlog=backlog)
        job.finish()
        obs.health.note_bg_ok("flusher")
        if seg_id is not None:
            obs.registry.counter("lsm_flushes_total").inc()
            obs.registry.histogram("lsm_flush_seconds").observe(elapsed)
        if self.config.auto_merge:
            self._maybe_merge_locked()
        self._maybe_build_indexes()

    # -- frozen visibility -------------------------------------------------

    def _frozen_view(self, fid: int) -> Segment:
        """Read view of a frozen memtable, built lazily and cached.

        The view is a normal (unpersisted) :class:`Segment` — sorted
        row ids, columnar layout, bloom filter — so every read path
        treats frozen data exactly like sealed data.  Negative segment
        ids keep views distinguishable from real segments.
        """
        with self._frozen_lock:
            view = self._frozen_views.get(fid)
            if view is None:
                view = self._frozen[fid].memtable.to_segment(-(fid + 1))
                self._frozen_views[fid] = view
            return view

    def frozen_view_segments(self, snapshot: Snapshot) -> List[Segment]:
        """Read views for every frozen memtable visible in ``snapshot``."""
        return [self._frozen_view(fid) for fid in snapshot.frozen_ids]

    def visible_tombstones(self, snapshot: Snapshot) -> np.ndarray:
        """All deletes visible in ``snapshot``: committed + frozen.

        Deletes batched into a frozen memtable mask reads from the
        moment of the freeze, atomically with the frozen rows — the
        manifest absorbs them only at the flush commit.
        """
        if not snapshot.frozen_ids:
            return snapshot.tombstones
        parts = [snapshot.tombstones]
        with self._frozen_lock:
            for fid in snapshot.frozen_ids:
                entry = self._frozen.get(fid)
                if entry is not None and entry.tombstones is not None:
                    parts.append(entry.tombstones)
        if len(parts) == 1:
            return snapshot.tombstones
        return np.unique(np.concatenate(parts))

    def unflushed_preview(self):
        """Raw rows of the *active* memtable (read-your-writes support).

        Returns ``(row_ids, vectors, attributes, categoricals)`` —
        categorical code columns included, consistent with sealed
        segments and frozen views.
        """
        with self._lock:
            return self._memtable.raw_rows()

    def _frozen_dead(self, fid: int) -> None:
        """Manifest GC callback: no snapshot can see this frozen id."""
        with self._frozen_lock:
            self._frozen.pop(fid, None)
            self._frozen_views.pop(fid, None)

    # -- merging -----------------------------------------------------------

    def maybe_merge(self) -> int:
        """Run all merge tasks the tiered policy proposes; returns count."""
        with self._bg_lock:
            return self._maybe_merge_locked()

    def _maybe_merge_locked(self) -> int:
        """Compaction pass (``_bg_lock`` held): tiered merges, then purge.

        Plans from the manifest's *persisted* segment sizes — catalog
        state, no buffer-pool faulting, no I/O — so planning is cheap
        enough to run after every flush.
        """
        assert_guarded(self._bg_lock, "LSMManager", "merge_count")
        obs = get_obs()
        merged = 0
        while True:
            sizes = self.manifest.live_segment_sizes()
            tasks = self.config.merge_policy.plan(sorted(sizes.items()))
            obs.registry.gauge("lsm_compaction_backlog").set(len(tasks))
            obs.jobs.set_queue_depth("compaction", len(tasks))
            if not tasks:
                break
            obs.events.emit(obs_events.COMPACTION_PLAN, tasks=len(tasks))
            for task in tasks:
                self._execute_merge_locked(task.segment_ids)
                merged += 1
        merged += self._maybe_purge_locked()
        obs.registry.gauge("lsm_compaction_backlog").set(0)
        obs.jobs.set_queue_depth("compaction", 0)
        return merged

    def _execute_merge_locked(self, segment_ids: Tuple[int, ...]) -> int:
        assert_guarded(self._bg_lock, "LSMManager", "_next_segment_id")
        obs = get_obs()
        job = obs.jobs.start("compaction")
        job.advance(phase="merge")
        with obs.tracer.span("lsm.merge", inputs=len(segment_ids)):
            started = time.perf_counter()
            try:
                merged_id = self._merge_segments_locked(segment_ids, job=job)
            except BaseException as exc:
                job.finish(error=f"{type(exc).__name__}: {exc}")
                raise
            elapsed = time.perf_counter() - started
        obs.registry.counter("lsm_merges_total").inc()
        obs.registry.histogram("lsm_merge_seconds").observe(elapsed)
        obs.registry.histogram("lsm_compaction_seconds").observe(elapsed)
        obs.events.emit(obs_events.COMPACTION_COMMIT, op="merge",
                        inputs=len(segment_ids), seg_id=merged_id)
        job.finish()
        return merged_id

    def _merge_segments_locked(self, segment_ids: Tuple[int, ...], job=None) -> int:
        tombstones = self.manifest.current_tombstones()
        segments = [self.bufferpool.get(s, pin=True) for s in segment_ids]
        try:
            new_id = self._next_segment_id
            self._next_segment_id += 1
            merged = Segment.merge(new_id, segments, drop_ids=tombstones)
            size = self._persist_segment(merged, job=job)
            self.bufferpool.put(merged)
            # Tombstones covered by the merged inputs are now physical.
            covered = np.concatenate([s.row_ids for s in segments])
            cleared = np.intersect1d(tombstones, covered)
            self.manifest.commit(
                add=[new_id], remove=list(segment_ids),
                clear_tombstones=cleared, sizes={new_id: size},
            )
            self._persist_manifest_locked()
            self.merge_count += 1
            return new_id
        finally:
            for seg_id in segment_ids:
                self.bufferpool.unpin(seg_id)

    def _maybe_purge_locked(self) -> int:
        """Rewrite resident segments dominated by tombstones.

        Sec. 2.3's merge is the only reclamation point for deleted
        rows; a segment that never qualifies for a tiered merge would
        otherwise carry its dead rows forever.  Only buffer-resident
        segments are considered (``peek`` — purging is an optimization
        and must not cause load I/O), and the tombstone overlap check
        rides the segment's bloom filter.
        """
        assert_guarded(self._bg_lock, "LSMManager", "purge_count")
        ratio = self.config.tombstone_purge_ratio
        if ratio <= 0:
            return 0
        tombstones = self.manifest.current_tombstones()
        if not len(tombstones):
            return 0
        purged = 0
        for seg_id in self.manifest.live_segment_ids():
            segment = self.bufferpool.peek(seg_id)
            if segment is None or not segment.num_rows:
                continue
            dead = int(segment.contains_mask(tombstones).sum())
            if not dead or dead < segment.num_rows * ratio:
                continue
            self._purge_segment_locked(seg_id, segment, tombstones)
            purged += 1
            tombstones = self.manifest.current_tombstones()
            if not len(tombstones):
                break
        return purged

    def _purge_segment_locked(
        self, seg_id: int, segment: Segment, tombstones: np.ndarray
    ) -> None:
        obs = get_obs()
        job = obs.jobs.start("compaction")
        job.advance(phase="purge", rows_total=segment.num_rows)
        with obs.tracer.span("lsm.purge", segment=seg_id):
            started = time.perf_counter()
            try:
                covered = np.intersect1d(tombstones, segment.row_ids)
                new_id = self._next_segment_id
                self._next_segment_id += 1
                rewritten = Segment.merge(new_id, [segment], drop_ids=tombstones)
                if rewritten.num_rows:
                    size = self._persist_segment(rewritten, job=job)
                    self.bufferpool.put(rewritten)
                    self.manifest.commit(
                        add=[new_id], remove=[seg_id],
                        clear_tombstones=covered, sizes={new_id: size},
                    )
                else:
                    # Every row was dead; the segment simply disappears.
                    self.manifest.commit(remove=[seg_id], clear_tombstones=covered)
                self._persist_manifest_locked()
                self.purge_count += 1
            except BaseException as exc:
                job.finish(error=f"{type(exc).__name__}: {exc}")
                raise
            elapsed = time.perf_counter() - started
        obs.registry.counter("lsm_purged_rows_total").inc(len(covered))
        obs.registry.histogram("lsm_compaction_seconds").observe(elapsed)
        obs.events.emit(obs_events.COMPACTION_COMMIT, op="purge",
                        inputs=1, seg_id=seg_id,
                        dropped_rows=int(len(covered)))
        job.finish()

    # -- index building --------------------------------------------------------

    def _build_segment_index(
        self, segment: Segment, seg_id: int, fieldname: str, itype: str,
        params: dict,
    ) -> None:
        """Build and catalog one segment index, timed and counted."""
        obs = get_obs()
        job = obs.jobs.start("index-build")
        job.advance(phase=itype, rows_total=segment.num_rows)
        with obs.tracer.span(
            "index.build", segment=seg_id, field=fieldname, index_type=itype
        ):
            started = time.perf_counter()
            try:
                segment.build_index(fieldname, itype, **params)
            except BaseException as exc:
                job.finish(error=f"{type(exc).__name__}: {exc}")
                raise
            elapsed = time.perf_counter() - started
        obs.registry.counter("index_builds_total", index_type=itype).inc()
        obs.registry.histogram("index_build_seconds").observe(elapsed)
        job.advance(rows_done=segment.num_rows)
        job.finish()
        self._record_index(seg_id, fieldname, itype, params)

    def _maybe_build_indexes(self) -> None:
        for seg_id in self.manifest.live_segment_ids():
            segment = self.bufferpool.get(seg_id)
            if segment.num_rows < self.config.index_build_min_rows:
                continue
            for fieldname in self.vector_specs:
                if segment.has_index(fieldname):
                    continue
                if self._index_queue is not None:
                    self._index_queue.put((seg_id, fieldname))
                else:
                    self._build_segment_index(
                        segment, seg_id, fieldname, self.config.index_type,
                        dict(self.config.index_params),
                    )

    def _index_builder_loop(self) -> None:
        """Background index builder: attach indexes as they complete.

        Attaching is a single dict assignment on the live segment, so
        in-flight searches either see the index or brute-force — both
        correct (Sec. 5.1's asynchronous index building).
        """
        while True:
            seg_id, fieldname = self._index_queue.get()
            try:
                if seg_id not in self.manifest.live_segment_ids():
                    continue  # segment merged away while queued
                segment = self.bufferpool.get(seg_id)
                if segment.has_index(fieldname):
                    continue
                self._build_segment_index(
                    segment, seg_id, fieldname, self.config.index_type,
                    dict(self.config.index_params),
                )
            except FileNotFoundError:
                # Background compaction merged the segment away (and GC'd
                # its file) between the liveness check and the load; the
                # index is moot, the merged output gets its own build.
                continue
            finally:
                self._index_queue.task_done()

    def wait_for_index_builds(self) -> None:
        """Block until the async builder drains (no-op when sync)."""
        if self._index_queue is not None:
            self._index_queue.join()

    def build_index(self, field: str, index_type: Optional[str] = None, **params) -> int:
        """Manually build indexes on every live segment (any size).

        The paper: "users are allowed to manually build indexes for
        segments of any size if necessary."  Returns segments indexed.
        """
        count = 0
        itype = index_type or self.config.index_type
        # Config defaults only apply to the config's own index type —
        # nlist would be a TypeError for, say, HNSW.
        if itype == self.config.index_type:
            merged_params = dict(self.config.index_params)
            merged_params.update(params)
        else:
            merged_params = dict(params)
        for seg_id in self.manifest.live_segment_ids():
            segment = self.bufferpool.get(seg_id)
            if segment.num_rows == 0:
                continue
            self._build_segment_index(segment, seg_id, field, itype, merged_params)
            count += 1
        return count

    def _record_index(self, seg_id: int, field: str, itype: str, params: dict) -> None:
        # Leaf lock only around the catalog write: touching the
        # bufferpool/fs under _index_lock would invert the
        # bufferpool -> index-specs order taken by _load_segment.
        with self._index_lock:
            self._index_specs.setdefault(seg_id, {})[field] = (itype, dict(params))
        # Persist serializable indexes so a reload skips the rebuild.
        from repro.index import SERIALIZABLE_TYPES, index_to_bytes

        if itype.upper() in SERIALIZABLE_TYPES:
            try:
                segment = self.bufferpool.get(seg_id)
                self.fs.write(
                    self._index_path(seg_id, field),
                    index_to_bytes(segment.indexes[field]),
                )
            except FileNotFoundError:
                pass  # segment merged away concurrently; index is moot

    def _index_path(self, seg_id: int, field: str) -> str:
        return f"indexes/{seg_id:012d}__{field}.idx"

    # -- read path ---------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        return self.manifest.acquire()

    def release(self, snapshot: Snapshot) -> None:
        self.manifest.release(snapshot)
        # Deaths fired by this release belong to commits that were
        # persisted long ago — their files can go now.
        self._drain_dead_segment_files()

    # -- planner calibration ------------------------------------------------

    def planner_state(self) -> Optional[dict]:
        """The persisted query-planner calibration dict, if any.

        Returned as a deep copy (json round-trip — the state is
        JSON-safe by construction, it lives in the manifest) so the
        caller cannot mutate the guarded staging dict.
        """
        with self._bg_lock:
            if self._planner_state is None:
                return None
            return json.loads(json.dumps(self._planner_state))

    def set_planner_state(self, state: dict, persist: bool = False) -> None:
        """Stage planner calibration for the next manifest version.

        Cheap by default (in-memory; every subsequent flush/merge
        manifest write carries it).  ``persist=True`` writes a manifest
        version immediately — used when durability is wanted *now*,
        e.g. at collection flush, without waiting for the next
        compaction.
        """
        with self._bg_lock:
            self._planner_state = state
            if persist:
                self._persist_manifest_locked()

    def search(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        snapshot: Optional[Snapshot] = None,
        row_filter: Optional[np.ndarray] = None,
        brute_force: bool = False,
        **search_params,
    ) -> SearchResult:
        """Top-k over everything visible in ``snapshot``.

        Scans sealed segments *and* frozen memtable views — rows are
        searchable from the moment of the freeze, before the
        background flush lands.  Acquires (and releases) a fresh
        snapshot when none is given.  Segments are scanned in snapshot
        order and merged in that order (see ``repro.exec``).
        """
        obs = get_obs()
        metric = get_metric(self.vector_specs[field][1])
        owned = snapshot is None
        snap = self.snapshot() if owned else snapshot
        try:
            queries = np.asarray(queries, dtype=np.float32)
            if queries.ndim == 1:
                queries = queries[np.newaxis, :]
            exclude = self.visible_tombstones(snap)
            n_scans = len(snap.segment_ids) + len(snap.frozen_ids)
            with obs.tracer.span(
                "lsm.search", field=field, nq=len(queries), k=k,
                segments=n_scans,
            ), profile_stage(
                "lsm.search", field=field, segments=n_scans,
            ) as pstage:
                started = time.perf_counter()

                def scan(seg_id: int, stage) -> SearchResult:
                    # Pin inside the task so the segment stays resident
                    # for exactly the duration of its own scan.
                    segment = self.bufferpool.get(seg_id, pin=True)
                    try:
                        with stage, obs.tracer.span(
                            "segment.search", segment=seg_id
                        ):
                            return segment.search(
                                field, queries, k,
                                exclude=exclude,
                                row_filter=row_filter,
                                brute_force=brute_force,
                                **search_params,
                            )
                    finally:
                        self.bufferpool.unpin(seg_id)

                def scan_frozen(fid: int, stage) -> SearchResult:
                    # No pin: the snapshot's refcount keeps the frozen
                    # entry (and therefore the view) alive.
                    view = self._frozen_view(fid)
                    with stage, obs.tracer.span(
                        "segment.search", segment=view.segment_id
                    ):
                        return view.search(
                            field, queries, k,
                            exclude=exclude,
                            row_filter=row_filter,
                            brute_force=brute_force,
                            **search_params,
                        )

                # Per-segment profile stages are created here, in
                # submission order, and entered inside each task.
                tasks = [
                    lambda seg_id=s, stage=pstage.stage(
                        "segment.search", segment=s
                    ): scan(seg_id, stage)
                    for s in snap.segment_ids
                ]
                tasks.extend(
                    lambda fid=f, stage=pstage.stage(
                        "segment.search", segment=-(f + 1)
                    ): scan_frozen(fid, stage)
                    for f in snap.frozen_ids
                )
                partials = QueryExecutor().map_ordered(tasks)
                ids, scores = merge_topk_batch(
                    [(p.ids, p.scores) for p in partials],
                    k,
                    metric.higher_is_better,
                    nq=len(queries),
                    dtype=np.float64,
                )
                result = SearchResult(ids, scores)
                elapsed = time.perf_counter() - started
            obs.registry.counter("lsm_searches_total").inc()
            obs.registry.histogram("lsm_search_seconds").observe(elapsed)
            return result
        finally:
            if owned:
                self.release(snap)

    # -- introspection ---------------------------------------------------------------

    @property
    def num_live_rows(self) -> int:
        """Rows visible to a fresh snapshot (sealed + frozen − tombstoned)."""
        snap = self.snapshot()
        try:
            exclude = self.visible_tombstones(snap)
            total = 0
            for seg_id in snap.segment_ids:
                # Pin like the search path: an unpinned segment can be
                # evicted (and invalidated) by a concurrent flush/merge
                # mid-read.
                segment = self.bufferpool.get(seg_id, pin=True)
                try:
                    total += segment.num_rows - int(
                        segment.contains_mask(exclude).sum()
                    )
                finally:
                    self.bufferpool.unpin(seg_id)
            for fid in snap.frozen_ids:
                view = self._frozen_view(fid)
                total += view.num_rows - int(view.contains_mask(exclude).sum())
            return total
        finally:
            self.release(snap)

    @property
    def unflushed_rows(self) -> int:
        """Rows not yet sealed into a segment: active + frozen-pending."""
        with self._frozen_lock:
            frozen = sum(e.rows for e in self._frozen.values() if not e.done)
        return len(self._memtable) + frozen

    def live_segments(self) -> List[Segment]:
        return [self.bufferpool.get(s) for s in self.manifest.live_segment_ids()]

    def stats(self) -> Dict[str, object]:
        """Operational snapshot for monitoring."""
        segments = self.live_segments()
        with self._frozen_lock:
            frozen_pending = sum(1 for e in self._frozen.values() if not e.done)
        return {
            "live_segments": len(segments),
            "live_rows": self.num_live_rows,
            "unflushed_rows": self.unflushed_rows,
            "frozen_memtables": frozen_pending,
            "background": self.background,
            "tombstones": int(len(self.manifest.current_tombstones())),
            "flush_count": self.flush_count,
            "merge_count": self.merge_count,
            "purge_count": self.purge_count,
            "manifest_version": self.manifest.current_version,
            "indexed_segments": sum(
                1 for s in segments if any(s.has_index(f) for f in self.vector_specs)
            ),
            "bufferpool": {
                "resident_bytes": self.bufferpool.resident_bytes,
                "resident_segments": self.bufferpool.resident_segments,
                "hit_rate": self.bufferpool.hit_rate(),
                "evictions": self.bufferpool.evictions,
            },
            "gc_count": self.manifest.gc_count,
        }

    # -- persistence helpers -----------------------------------------------------------

    def _segment_path(self, segment_id: int) -> str:
        return f"segments/{segment_id:012d}.seg"

    def _persist_segment(self, segment: Segment, job=None) -> int:
        blob = segment.to_bytes()
        if job is not None:
            # Rows are fully encoded before the write starts, so a job
            # parked on a stalled write still shows real progress.
            job.advance(phase="segment-write", rows_done=segment.num_rows,
                        bytes_total=len(blob))
        self.fs.write(self._segment_path(segment.segment_id), blob)
        if job is not None:
            job.advance(bytes_done=len(blob))
        return len(blob)

    def _load_segment(self, segment_id: int) -> Segment:
        from repro.index import index_from_bytes

        blob = self.fs.read(self._segment_path(segment_id))
        profile_count("bytes_read", len(blob))
        segment = Segment.from_bytes(blob)
        # Restore this segment's indexes: load the persisted blob when
        # one exists (quantization indexes serialize), else rebuild
        # (graph/tree indexes reconstruct, as Milvus does).
        with self._index_lock:
            specs = dict(self._index_specs.get(segment_id, {}))
        for field, (itype, params) in specs.items():
            path = self._index_path(segment_id, field)
            if self.fs.exists(path):
                index_blob = self.fs.read(path)
                profile_count("bytes_read", len(index_blob))
                segment.indexes[field] = index_from_bytes(index_blob)
            else:
                segment.build_index(field, itype, **params)
        return segment

    def _segment_dead(self, segment_id: int) -> None:
        """Manifest GC callback: drop caches now, delete files *later*.

        The in-memory part is immediate: a pinned (still-scanning)
        segment leaves the pool at its final unpin instead of raising.
        The *files* must outlive this call — when the death fires from
        the commit that removed the segment (a merge or purge), the
        manifest version dropping the reference is not durable yet, and
        deleting the inputs first would strand a recovered catalog
        pointing at missing files.  Deletions queue here and drain only
        after a manifest persist (or at snapshot release, by which time
        the removing version has long been durable).
        """
        self.bufferpool.invalidate(segment_id, defer=True)
        self._dead_segment_files.put(segment_id)
        get_obs().events.emit(
            obs_events.COMPACTION_DEFERRED_DELETE, seg_id=segment_id)

    def _drain_dead_segment_files(self) -> None:
        """Physically delete files whose removing commit is now durable."""
        while True:
            try:
                segment_id = self._dead_segment_files.get_nowait()
            except queue.Empty:
                return
            self.fs.delete(self._segment_path(segment_id))
            with self._index_lock:
                dead_fields = list(self._index_specs.pop(segment_id, {}))
            for field in dead_fields:
                self.fs.delete(self._index_path(segment_id, field))

    def _manifest_file(self, seq: int) -> str:
        return f"manifest/{seq:012d}.mf"

    def _manifest_versions(self) -> List[Tuple[int, str]]:
        """(seq, path) for every persisted manifest version, ascending."""
        versions = []
        for path in self.fs.listdir("manifest/"):
            try:
                seq = int(path.rsplit("/", 1)[-1].split(".")[0])
            except ValueError:
                continue
            versions.append((seq, path))
        versions.sort()
        return versions

    def _persist_manifest_locked(self) -> None:
        """Write the durable catalog as a new checksummed version.

        Versions are append-only: the new file lands (checksummed)
        before any older version is deleted, so a crash — even one
        that tears this very write — always leaves a valid manifest to
        recover from.  Frozen memtables are deliberately absent: they
        are volatile, and their rows are covered by the WAL until the
        flush commit writes them here.
        """
        assert_guarded(self._bg_lock, "LSMManager", "_manifest_seq")
        self._manifest_seq += 1
        state = {
            "live_segments": list(self.manifest.live_segment_ids()),
            "tombstones": self.manifest.current_tombstones().tolist(),
            "sizes": {
                str(k): v for k, v in self.manifest.live_segment_sizes().items()
            },
            "next_segment_id": self._next_segment_id,
            "flushed_lsn": self._flushed_lsn,
            "seq": self._manifest_seq,
        }
        if self._planner_state is not None:
            state["planner"] = self._planner_state
        payload = json.dumps(state, sort_keys=True)
        blob = json.dumps(
            {"crc": zlib.crc32(payload.encode()), "state": state}, sort_keys=True
        ).encode()
        self.fs.write(self._manifest_file(self._manifest_seq), blob)
        for seq, path in self._manifest_versions():
            if seq < self._manifest_seq:
                self.fs.delete(path)
        # The new version is durable: files it stopped referencing (and
        # any queued by earlier versions) are now safe to delete.
        self._drain_dead_segment_files()

    def _load_manifest_state_locked(self) -> Optional[dict]:
        """Newest intact manifest state, dropping any torn/corrupt tail.

        Scans versions newest-first; a version whose JSON or CRC is
        broken (a write torn by a crash) is deleted and the previous
        version wins.  Falls back to the legacy un-checksummed
        ``MANIFEST`` object for pre-versioning filesystems.
        """
        assert_guarded(self._bg_lock, "LSMManager", "_manifest_seq")
        versions = self._manifest_versions()
        if versions:
            # Never reuse a seq that has a (possibly torn) file on disk.
            self._manifest_seq = max(seq for seq, __ in versions)
        for seq, path in reversed(versions):
            try:
                doc = json.loads(self.fs.read(path).decode())
                state = doc["state"]
                payload = json.dumps(state, sort_keys=True)
                if zlib.crc32(payload.encode()) != doc["crc"]:
                    raise ValueError("manifest checksum mismatch")
            except (ValueError, KeyError, UnicodeDecodeError):
                # Torn by a crash mid-write: unacknowledged, discard.
                self.fs.delete(path)
                continue
            return state
        if self.fs.exists("MANIFEST"):
            return json.loads(self.fs.read("MANIFEST").decode())
        return None

    def recover(self) -> int:
        """Rebuild state from the filesystem after a crash.

        Re-registers persisted segments, tombstones, and recorded
        segment sizes from the newest intact manifest version,
        garbage-collects orphan segment/index files left by a crash
        mid-flush or mid-merge (including half-written merge outputs
        from the background compactor), re-runs the interrupted WAL
        checkpoint, and replays the WAL tail (records past the durable
        ``flushed_lsn``) into the MemTable.  Returns the number of WAL
        records replayed.  Idempotent: crashing during recovery and
        recovering again reaches the same state.  Only meaningful on a
        freshly constructed manager pointed at an existing filesystem.

        Filesystem phases run under the maintenance lock; only the
        final replay-into-memtable step takes the writer lock — the
        writer lock is never held across I/O, even here.
        """
        with self._lock:
            if len(self._memtable) or self._pending_deletes:
                raise RuntimeError(
                    "recover() must run on a freshly constructed manager"
                )
        with self._bg_lock:
            if self.manifest.current_version != 0:
                raise RuntimeError(
                    "recover() must run on a freshly constructed manager"
                )
            state = self._load_manifest_state_locked()
            if state is not None:
                self._next_segment_id = state["next_segment_id"]
                self._flushed_lsn = state.get("flushed_lsn", -1)
                self._planner_state = state.get("planner")
                tombs = np.array(state["tombstones"], dtype=np.int64)
                sizes = {
                    int(k): int(v) for k, v in state.get("sizes", {}).items()
                }
                self.manifest.commit(
                    add=state["live_segments"],
                    new_tombstones=tombs if len(tombs) else None,
                    sizes=sizes,
                )
            self._gc_orphans_locked()
            flushed_lsn = self._flushed_lsn
            if self.wal is None:
                get_obs().events.emit(
                    obs_events.RECOVERY, replayed=0,
                    segments=len(self.manifest.live_segment_ids()),
                    flushed_lsn=flushed_lsn,
                )
                return 0
            # Finish the checkpoint a crash may have interrupted, then
            # replay only records the manifest does not already cover.
            self.wal.truncate_through(flushed_lsn)
            records = self.wal.replay(from_lsn=flushed_lsn + 1)
        with self._lock:
            for record in records:
                if record.kind == "insert":
                    self._memtable.insert(
                        record.row_ids, record.vectors, record.attributes,
                        record.categoricals,
                    )
                elif record.kind == "delete":
                    self._pending_deletes.append(
                        np.asarray(record.row_ids, dtype=np.int64)
                    )
        get_obs().events.emit(
            obs_events.RECOVERY,
            replayed=len(records),
            segments=len(self.manifest.live_segment_ids()),
            flushed_lsn=flushed_lsn,
        )
        return len(records)

    def _gc_orphans_locked(self) -> None:
        """Delete segment/index files not referenced by the manifest.

        A crash between persisting a segment and committing the
        manifest (background flush, merge, or purge) leaves the file
        orphaned; its rows are still covered by the WAL / the merge
        inputs, so the file is garbage, and its id will be reused.
        """
        live = set(self.manifest.live_segment_ids())
        for path in self.fs.listdir("segments/"):
            try:
                seg_id = int(path.rsplit("/", 1)[-1].split(".")[0])
            except ValueError:
                continue
            if seg_id not in live:
                self.fs.delete(path)
        for path in self.fs.listdir("indexes/"):
            try:
                seg_id = int(path.rsplit("/", 1)[-1].split("__")[0])
            except ValueError:
                continue
            if seg_id not in live:
                self.fs.delete(path)
