"""Operational health layer (INTERNALS §19): journal, jobs, health, usage.

The acceptance claims under test:

* a mixed insert/flush/search workload under ``REPRO_BG_FLUSH=1``
  yields the causal freeze -> flush.start -> wal.checkpoint ->
  flush.commit -> compaction chain with **deterministic sequence ids**
  across two seeded runs;
* ``/jobs`` shows non-zero rows progress for a flush provably parked
  mid-write (StallGate, not sleeps);
* the watchdog degrades on a transient background fault, goes
  unhealthy (sticky) on a SimulatedCrash, and flags stalled heartbeats
  via an injected clock;
* per-collection usage counters equal the summed per-query profile
  counters exactly;
* the REST surface: pagination, error paths (400/404/503), /stats
  enrichment, and the all-null off path.
"""

import numpy as np
import pytest

import repro
from repro import obs
from repro.client.rest import RestRouter
from repro.core import (
    AttributeField,
    CollectionSchema,
    MilvusLite,
    VectorField,
)
from repro.obs import events as obs_events
from repro.obs.health import DEGRADED, HEALTHY, UNHEALTHY, HealthMonitor
from repro.obs.jobs import JobRegistry
from repro.storage import (
    FaultPlan,
    FaultyFileSystem,
    InMemoryObjectStore,
    LSMConfig,
    LSMManager,
    SimulatedCrash,
    TieredMergePolicy,
)
from repro.utils.retry import RetryExhaustedError, RetryPolicy

SPECS = {"emb": (8, "l2")}


@pytest.fixture()
def obs_on():
    handle = obs.enable()
    yield handle
    obs.disable()


@pytest.fixture()
def obs_off(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.disable()
    yield


def make_lsm(fs=None, **overrides):
    defaults = dict(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        merge_policy=TieredMergePolicy(merge_factor=64, min_segment_bytes=1),
        auto_merge=False,
    )
    defaults.update(overrides)
    return LSMManager(
        SPECS, ("price",), LSMConfig(**defaults),
        fs=fs if fs is not None else InMemoryObjectStore(),
    )


def batch(rng, row_ids):
    row_ids = np.asarray(row_ids, dtype=np.int64)
    return row_ids, {
        "emb": rng.normal(size=(len(row_ids), 8)).astype(np.float32)
    }, {"price": rng.uniform(0, 1, len(row_ids))}


def make_server(name="c", dim=8, attributes=()):
    server = MilvusLite()
    server.create_collection(CollectionSchema(
        name=name,
        vector_fields=[VectorField("emb", dim, "l2")],
        attribute_fields=[AttributeField(a) for a in attributes],
    ))
    return server, server.get_collection(name)


# ---------------------------------------------------------------------------
# event chain: causality + cross-run determinism
# ---------------------------------------------------------------------------


class TestEventChain:
    @staticmethod
    def _mixed_workload(seed):
        """One seeded run; returns the journal chain (ts excluded)."""
        handle = obs.enable()
        try:
            server, coll = make_server()
            rng = np.random.default_rng(seed)
            for __ in range(4):
                coll.insert({"emb": rng.normal(size=(50, 8)).astype(np.float32)})
                coll.flush()
                coll.search("emb", rng.normal(size=(2, 8)).astype(np.float32), k=3)
            coll.lsm.close()
            return [
                (e.seq, e.kind, tuple(sorted(e.attrs.items())))
                for e in handle.events.events()
            ]
        finally:
            obs.disable()

    def test_causal_chain_and_deterministic_seq_across_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BG_FLUSH", "1")
        first = self._mixed_workload(seed=42)
        second = self._mixed_workload(seed=42)
        # identical chains, event for event, including sequence ids
        assert first == second
        assert first, "workload emitted no events"

        seqs = [seq for seq, __, ___ in first]
        assert seqs == list(range(1, len(first) + 1))  # gapless from 1

        by_kind = {}
        for seq, kind, __ in first:
            by_kind.setdefault(kind, []).append(seq)
        # the background chain: freeze -> flush.start -> checkpoint ->
        # flush.commit, four times, causally ordered within each cycle
        for kind in (obs_events.MEMTABLE_FREEZE, obs_events.FLUSH_START,
                     obs_events.WAL_CHECKPOINT, obs_events.FLUSH_COMMIT):
            assert len(by_kind[kind]) == 4, kind
        for freeze, start, ckpt, commit in zip(
            by_kind[obs_events.MEMTABLE_FREEZE],
            by_kind[obs_events.FLUSH_START],
            by_kind[obs_events.WAL_CHECKPOINT],
            by_kind[obs_events.FLUSH_COMMIT],
        ):
            assert freeze < start < ckpt < commit
        # compaction (auto-merge of the four segments) planned, then
        # committed after its inputs' deferred deletes
        assert by_kind[obs_events.COMPACTION_PLAN]
        assert by_kind[obs_events.COMPACTION_COMMIT]
        assert by_kind[obs_events.COMPACTION_PLAN][0] < (
            by_kind[obs_events.COMPACTION_COMMIT][0]
        )
        # every kind emitted is part of the documented taxonomy
        assert set(by_kind) <= obs_events.EVENT_KINDS

    def test_flush_commit_attrs_carry_ids(self, obs_on, monkeypatch):
        monkeypatch.setenv("REPRO_BG_FLUSH", "1")
        server, coll = make_server()
        rng = np.random.default_rng(0)
        coll.insert({"emb": rng.normal(size=(10, 8)).astype(np.float32)})
        coll.flush()
        coll.lsm.close()
        commits = [e for e in obs_on.events.events()
                   if e.kind == obs_events.FLUSH_COMMIT]
        assert commits and commits[0].attrs["fid"] >= 0
        assert commits[0].attrs["seg_id"] >= 0

    def test_recovery_event_reports_replayed_rows(self, obs_on):
        fs = InMemoryObjectStore()
        lsm = make_lsm(fs)
        rng = np.random.default_rng(1)
        ids, vecs, attrs = batch(rng, np.arange(30))
        lsm.insert(ids, vecs, attrs)  # WAL'd, never flushed
        lsm2 = make_lsm(fs)
        lsm2.recover()
        recoveries = [e for e in obs_on.events.events()
                      if e.kind == obs_events.RECOVERY]
        assert recoveries and recoveries[-1].attrs["replayed"] >= 1

    def test_retry_exhausted_emits_event(self, obs_on):
        policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)

        def always_fails():
            raise IOError("flaky")

        with pytest.raises(RetryExhaustedError):
            policy.call(always_fails)
        events = [e for e in obs_on.events.events()
                  if e.kind == obs_events.RETRY_EXHAUSTED]
        assert events and events[0].attrs["attempts"] == 2
        assert events[0].attrs["error"] == "OSError"

    def test_journal_ring_is_bounded_but_seq_keeps_counting(self):
        journal = obs_events.EventJournal(capacity=4, clock=lambda: 0.0)
        for i in range(10):
            journal.emit("memtable.freeze", i=i)
        assert len(journal) == 4
        assert journal.last_seq() == 10
        assert [e.seq for e in journal.events()] == [7, 8, 9, 10]
        assert [e.seq for e in journal.events(limit=2, newest_first=True)] == [10, 9]


# ---------------------------------------------------------------------------
# jobs: mid-flush progress under a StallGate
# ---------------------------------------------------------------------------


class TestJobsMidFlush:
    def test_parked_flush_shows_nonzero_progress(self, obs_on):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=31)
        rule = plan.stall("segments/*", op="write", nth=1)
        lsm = make_lsm(
            FaultyFileSystem(inner, plan),
            memtable_flush_bytes=1, background=True,
        )
        rng = np.random.default_rng(0)
        ids, vecs, attrs = batch(rng, np.arange(25))
        lsm.insert(ids, vecs, attrs)

        assert rule.gate.reached.wait(10), "flush never reached its write"
        # The flush job is mid-write: registered, phased, with progress.
        running = [j.to_dict() for j in obs_on.jobs.running()]
        flushes = [j for j in running if j["kind"] == "flush"]
        assert flushes, running
        job = flushes[0]
        assert job["phase"] == "segment-write"
        assert job["rows_done"] == 25 and job["rows_total"] == 25
        assert job["bytes_total"] > 0
        assert obs_on.registry.gauge("bg_jobs_running", kind="flush").value == 1

        rule.gate.release.set()
        lsm.flush()
        finished = [j.to_dict() for j in obs_on.jobs.finished()]
        assert any(
            j["kind"] == "flush" and j["state"] == "done"
            and j["bytes_done"] > 0 for j in finished
        )
        assert obs_on.registry.gauge("bg_jobs_running", kind="flush").value == 0
        lsm.close()

    def test_rest_jobs_snapshot_shape(self, obs_on):
        router = RestRouter()
        resp = router.handle("GET", "/jobs")
        assert resp.ok
        assert set(resp.body) == {"running", "finished", "queues"}


# ---------------------------------------------------------------------------
# health transitions
# ---------------------------------------------------------------------------


class TestHealthTransitions:
    def test_transient_bg_fault_degrades_then_recovers(self, obs_on):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=7)
        plan.fail("segments/*", op="write", nth=1, times=1, exc_type=IOError)
        lsm = make_lsm(
            FaultyFileSystem(inner, plan),
            memtable_flush_bytes=1, background=True,
        )
        rng = np.random.default_rng(2)
        ids, vecs, attrs = batch(rng, np.arange(10))
        lsm.insert(ids, vecs, attrs)
        with pytest.raises(IOError):
            lsm.flush()  # barrier surfaces the one-shot transient error
        report = obs_on.health.report()
        assert report["status"] == DEGRADED
        assert "flusher" in report["components"]["background"]["failures"]

        lsm.flush()  # retry: the re-queued frozen entry flushes clean
        report = obs_on.health.report()
        assert report["status"] == HEALTHY
        assert report["components"]["background"]["failures"] == {}
        lsm.close()

    def test_simulated_crash_is_sticky_unhealthy(self, obs_on):
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=8)
        plan.crash_before("segments/*", op="write", nth=1)
        lsm = make_lsm(
            FaultyFileSystem(inner, plan),
            memtable_flush_bytes=1, background=True,
        )
        rng = np.random.default_rng(3)
        ids, vecs, attrs = batch(rng, np.arange(10))
        lsm.insert(ids, vecs, attrs)
        with pytest.raises(SimulatedCrash):
            lsm.flush()
        assert obs_on.health.report()["status"] == UNHEALTHY
        # sticky: a later note_bg_ok must NOT clear a fatal failure
        obs_on.health.note_bg_ok("flusher")
        assert obs_on.health.report()["status"] == UNHEALTHY
        lsm.close()

    def test_stalled_job_heartbeat_with_injected_clock(self):
        fake = [0.0]
        clock = fake.__getitem__
        jobs = JobRegistry(clock=lambda: clock(0))
        health = HealthMonitor(jobs=jobs, clock=lambda: clock(0),
                               job_stall_seconds=30.0)
        job = jobs.start("flush")
        assert health.report()["components"]["jobs"]["status"] == HEALTHY
        fake[0] = 31.0  # heartbeat is now 31s old
        report = health.report()
        assert report["status"] == DEGRADED
        stalled = report["components"]["jobs"]["stalled"]
        assert [j["kind"] for j in stalled] == ["flush"]
        job.heartbeat()  # phase progress refreshes the heartbeat
        assert health.report()["status"] == HEALTHY
        job.finish()
        assert health.report()["status"] == HEALTHY

    def test_numeric_signal_thresholds(self):
        health = HealthMonitor()
        assert health.report()["status"] == HEALTHY
        health.set_signal("wal_lag_bytes", 5 << 20)
        assert health.report()["status"] == DEGRADED
        health.set_signal("wal_lag_bytes", 65 << 20)
        assert health.report()["status"] == UNHEALTHY
        health.set_signal("wal_lag_bytes", 0)
        health.set_signal("frozen_memtables", 40)
        assert health.report()["components"]["memtable"]["status"] == UNHEALTHY
        health.set_signal("frozen_memtables", 5)
        # a short flush backlog degrades but is not "unhealthy" — it drains
        assert health.report()["status"] == DEGRADED
        assert set(health.report()["components"]) == {
            "wal", "memtable", "background", "jobs"}

    def test_wal_lag_gauge_feeds_health_and_zeroes_on_checkpoint(self, obs_on):
        lsm = make_lsm()
        rng = np.random.default_rng(4)
        ids, vecs, attrs = batch(rng, np.arange(20))
        lsm.insert(ids, vecs, attrs)
        assert obs_on.registry.total("wal_lag_bytes") > 0
        lsm.flush()  # checkpoint truncates the WAL
        assert obs_on.registry.total("wal_lag_bytes") == 0
        checkpoints = [e for e in obs_on.events.events()
                       if e.kind == obs_events.WAL_CHECKPOINT]
        assert checkpoints and checkpoints[-1].attrs["lag_bytes"] == 0


# ---------------------------------------------------------------------------
# usage accounting
# ---------------------------------------------------------------------------


class TestUsageAccounting:
    @staticmethod
    def _run_queries():
        handle = obs.enable()
        try:
            server, coll = make_server()
            rng = np.random.default_rng(5)
            coll.insert({"emb": rng.normal(size=(200, 8)).astype(np.float32)})
            coll.flush()
            expected = {}
            for __ in range(4):
                queries = rng.normal(size=(3, 8)).astype(np.float32)
                result = coll.search(
                    "emb", queries, k=5, explain=True,
                )
                for key, value in result.profile.total_counters().items():
                    expected[key] = expected.get(key, 0) + value
            record = handle.usage.collection("c")
            return expected, record
        finally:
            obs.disable()

    def test_usage_counters_equal_summed_profiles(self):
        expected, record = self._run_queries()
        assert record["queries"] == 4
        assert record["inserts"] == 1 and record["insert_rows"] == 200
        assert record["counters"] == expected
        assert expected["distance_evals"] > 0

    def test_nested_searches_not_double_counted(self, obs_on):
        """Per-segment sub-searches must not inflate the query count:
        one top-level search == one metered query."""
        server, coll = make_server()
        rng = np.random.default_rng(6)
        coll.insert({"emb": rng.normal(size=(100, 8)).astype(np.float32)})
        coll.flush()
        coll.search("emb", rng.normal(size=(2, 8)).astype(np.float32), k=3)
        assert obs_on.usage.collection("c")["queries"] == 1

    def test_meter_is_bounded_with_overflow_bucket(self):
        from repro.obs.usage import OVERFLOW, UsageMeter

        meter = UsageMeter(max_collections=2)
        for name in ("a", "b", "c", "d"):
            meter.record_query(name, 0.01, {"distance_evals": 1})
        snap = meter.snapshot()
        assert set(snap) == {"a", "b", OVERFLOW}
        assert snap[OVERFLOW]["queries"] == 2

    def test_forget_on_drop(self, obs_on):
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "tmp", "vector_fields": [{"name": "v", "dim": 4}],
        })
        router.handle("POST", "/collections/tmp/entities", {
            "data": {"v": np.eye(4).tolist()},
        })
        assert "tmp" in obs_on.usage.snapshot()
        router.handle("DELETE", "/collections/tmp")
        assert "tmp" not in obs_on.usage.snapshot()


# ---------------------------------------------------------------------------
# REST surface
# ---------------------------------------------------------------------------


class TestRestOps:
    def test_events_pagination_newest_first(self, obs_on):
        for i in range(5):
            obs_on.events.emit(obs_events.MEMTABLE_FREEZE, i=i)
        router = RestRouter()
        resp = router.handle("GET", "/events?limit=2")
        assert resp.ok
        assert [e["seq"] for e in resp.body["events"]] == [5, 4]
        assert resp.body["last_seq"] == 5
        assert router.handle("GET", "/events?limit=0").body["events"] == []
        everything = router.handle("GET", "/events").body["events"]
        assert len(everything) == 5

    @pytest.mark.parametrize("bad", ["zebra", "-1", "1.5", "100001", ""])
    def test_garbage_limit_is_400(self, obs_on, bad):
        router = RestRouter()
        for path in ("/events", "/slowlog", "/traces"):
            resp = router.handle("GET", f"{path}?limit={bad}")
            assert resp.status == 400, (path, bad)
            assert "limit" in resp.body["error"]

    def test_slowlog_and_traces_accept_limit(self, obs_on):
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "s", "vector_fields": [{"name": "v", "dim": 4}],
        })
        router.handle("POST", "/collections/s/entities", {
            "data": {"v": np.eye(4).tolist()},
        })
        for __ in range(3):
            router.handle("POST", "/collections/s/search", {
                "field": "v", "queries": np.eye(4)[:1].tolist(), "k": 1,
            })
        all_ids = router.handle("GET", "/traces").body["trace_ids"]
        limited = router.handle("GET", "/traces?limit=2").body["trace_ids"]
        assert len(all_ids) > 2
        # the route returns newest first; the un-limited GET's own trace
        # registered in between, so it is the newest entry here
        assert len(limited) == 2
        assert limited[1] == all_ids[0]
        assert limited[0] not in all_ids
        assert router.handle("GET", "/slowlog?limit=1").ok

    def test_health_route_maps_unhealthy_to_503(self, obs_on):
        router = RestRouter()
        resp = router.handle("GET", "/health")
        assert resp.status == 200 and resp.body["status"] == HEALTHY
        obs_on.health.note_bg_failure("flusher", "SimulatedCrash: boom",
                                      fatal=True)
        resp = router.handle("GET", "/health")
        assert resp.status == 503 and resp.body["status"] == UNHEALTHY

    def test_usage_routes(self, obs_on):
        obs_on.usage.record_query("c", 0.01, {"distance_evals": 7})
        router = RestRouter()
        body = router.handle("GET", "/usage").body
        assert body["collections"]["c"]["counters"]["distance_evals"] == 7
        one = router.handle("GET", "/usage/c")
        assert one.ok and one.body["queries"] == 1
        assert router.handle("GET", "/usage/nope").status == 404

    def test_stats_enrichment_preserves_collections(self, obs_on):
        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "s", "vector_fields": [{"name": "v", "dim": 4}],
        })
        body = router.handle("GET", "/stats").body
        assert "s" in body["collections"]
        assert body["version"] == repro.__version__
        assert body["uptime_seconds"] > 0
        assert body["flags"]["observability"] is True
        assert set(body["flags"]) == {
            "observability", "sanitize", "background_flush"}
        assert obs_on.registry.total("process_uptime_seconds") > 0

    def test_unknown_routes_stay_404(self, obs_on):
        router = RestRouter()
        assert router.handle("GET", "/healthz").status == 404
        assert router.handle("POST", "/health").status == 404

    def test_sdk_accessors_mirror_rest(self, obs_on):
        obs_on.events.emit(obs_events.MEMTABLE_FREEZE, fid=1)
        obs_on.usage.record_query("c", 0.01, {"rows_scanned": 3})
        from repro.client.sdk import MilvusClient

        client = MilvusClient(MilvusLite())
        assert client.health()["status"] == HEALTHY
        assert [e["kind"] for e in client.events(limit=1)] == [
            obs_events.MEMTABLE_FREEZE
        ]
        assert client.jobs() == {"running": [], "finished": [], "queues": {}}
        assert client.usage("c")["counters"]["rows_scanned"] == 3
        assert client.usage("nope") is None


# ---------------------------------------------------------------------------
# disabled path: every signal is a no-op null object
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_null_objects_all_the_way_down(self, obs_off):
        handle = obs.get_obs()
        assert handle.events.emit("memtable.freeze", fid=1) is None
        assert handle.events.events() == []
        assert handle.events.last_seq() == 0
        job = handle.jobs.start("flush")
        job.advance(phase="x", rows_done=5)
        job.finish()
        assert handle.jobs.snapshot() == {
            "running": [], "finished": [], "queues": {},
        }
        handle.health.note_bg_failure("flusher", "boom", fatal=True)
        assert handle.health.report()["status"] == "unknown"
        handle.usage.record_query("c", 0.1, {"distance_evals": 1})
        assert handle.usage.snapshot() == {}
        assert handle.usage.collection("c") is None

    def test_rest_routes_serve_empty_shapes_when_off(self, obs_off):
        router = RestRouter()
        assert router.handle("GET", "/health").body["status"] == "unknown"
        assert router.handle("GET", "/events").body["events"] == []
        assert router.handle("GET", "/jobs").body["running"] == []
        assert router.handle("GET", "/usage").body["collections"] == {}
        # pagination parsing still validates when off
        assert router.handle("GET", "/events?limit=junk").status == 400

    def test_workload_emits_nothing_when_off(self, obs_off, monkeypatch):
        monkeypatch.setenv("REPRO_BG_FLUSH", "1")
        server, coll = make_server()
        rng = np.random.default_rng(9)
        coll.insert({"emb": rng.normal(size=(20, 8)).astype(np.float32)})
        coll.flush()
        coll.search("emb", rng.normal(size=(1, 8)).astype(np.float32), k=1)
        coll.lsm.close()
        handle = obs.get_obs()
        assert handle.events.events() == []
        assert handle.usage.snapshot() == {}
