"""Parallel query execution: pool semantics, batched merge, norm cache.

The load-bearing property is *bit-identical parallel-vs-serial
results*: pooled fan-out returns partials in submission order and both
modes share one merge path, so every equivalence test here asserts
``array_equal`` on ids and scores, not ``allclose``.
"""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.client.rest import RestRouter
from repro.core.collection import Collection
from repro.core.schema import CollectionSchema, VectorField, AttributeField
from repro.datasets import sift_like, random_queries
from repro.distributed import MilvusCluster
from repro.exec import (
    ExecTimeoutError,
    QueryExecutor,
    NormCache,
    WorkerPool,
    get_pool,
    in_worker_thread,
    parallel_enabled,
    shutdown_pool,
)
from repro.index.ivf_flat import IVFFlatIndex
from repro.storage import FaultPlan, FaultyFileSystem, InMemoryObjectStore, LSMConfig
from repro.utils import TopKHeap, merge_topk, merge_topk_batch


@pytest.fixture()
def fresh_pool():
    """Isolate pool state per test."""
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture()
def obs_on():
    handle = obs.enable()
    yield handle
    obs.disable()


# -- worker pool ------------------------------------------------------------


class TestWorkerPool:
    def test_results_in_submission_order(self, fresh_pool):
        pool = get_pool(4)
        # Later tasks finish first; results must still come back in
        # submission order.
        def make(i):
            return lambda: (time.sleep(0.02 * (4 - i)), i)[1]

        settled = pool.map_settled([make(i) for i in range(4)])
        assert [r for r, __ in settled] == [0, 1, 2, 3]
        assert all(e is None for __, e in settled)

    def test_errors_delivered_per_slot(self, fresh_pool):
        pool = get_pool(2)

        def boom():
            raise ValueError("boom")

        settled = pool.map_settled([lambda: 1, boom, lambda: 3])
        assert settled[0] == (1, None)
        assert settled[1][0] is None
        assert isinstance(settled[1][1], ValueError)
        assert settled[2] == (3, None)

    def test_per_task_timeout(self, fresh_pool):
        pool = get_pool(2)
        release = threading.Event()

        def slow():
            release.wait(5.0)
            return "late"

        settled = pool.map_settled([slow, lambda: "fast"], timeout=0.05)
        release.set()
        assert isinstance(settled[0][1], ExecTimeoutError)
        assert settled[1] == ("fast", None)

    def test_pool_grows_never_shrinks(self, fresh_pool):
        pool = get_pool(2)
        assert pool.size == 2
        assert get_pool(4) is pool
        assert pool.size == 4
        get_pool(1)
        assert pool.size == 4

    def test_worker_flag_forces_nested_serial(self, fresh_pool):
        pool = get_pool(2)
        [(flags, __)] = pool.map_settled([
            lambda: (in_worker_thread(),
                     QueryExecutor(parallel=True, pool_size=4).parallel)
        ])
        assert flags == (True, False)  # nested fan-out stays serial
        assert in_worker_thread() is False

    def test_shutdown_and_lazy_recreate(self, fresh_pool):
        pool = get_pool(2)
        shutdown_pool()
        with pytest.raises(RuntimeError):
            pool.map_settled([lambda: 1])
        assert get_pool(2) is not pool

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert parallel_enabled(True) is False  # overrides per-call opt-in
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        assert parallel_enabled(None) is True
        assert parallel_enabled(False) is False  # per-call opt-out still wins
        monkeypatch.delenv("REPRO_PARALLEL")
        assert parallel_enabled(None) is False  # off by default

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestQueryExecutor:
    def test_serial_uncaught_error_stops_immediately(self):
        ran = []

        def boom():
            raise RuntimeError("x")

        ex = QueryExecutor(parallel=False)
        with pytest.raises(RuntimeError):
            ex.map_ordered([lambda: ran.append(1), boom, lambda: ran.append(2)])
        assert ran == [1]  # tasks after the failure never ran

    def test_pooled_uncaught_error_raises_after_settle(self, fresh_pool):
        ran = []

        def boom():
            raise RuntimeError("x")

        ex = QueryExecutor(parallel=True, pool_size=2)
        with pytest.raises(RuntimeError):
            ex.map_settled([boom, lambda: ran.append(1)])
        assert ran == [1]  # all tasks settled before the raise

    def test_catch_captures_in_both_modes(self, fresh_pool):
        def boom():
            raise IOError("store down")

        for parallel in (False, True):
            ex = QueryExecutor(parallel=parallel, pool_size=2)
            settled = ex.map_settled([lambda: "ok", boom], catch=(IOError,))
            assert settled[0] == ("ok", None)
            assert isinstance(settled[1][1], IOError)


# -- merge primitives -------------------------------------------------------


class TestMergeTopkBatch:
    def _random_partials(self, rng, nq, widths, higher=False):
        parts = []
        next_id = 0
        for w in widths:
            ids = np.arange(next_id, next_id + nq * w).reshape(nq, w)
            next_id += nq * w
            scores = rng.random((nq, w))
            # pad a few tail slots like a sparse SearchResult
            ids[:, w - 1] = -1
            scores[:, w - 1] = -np.inf if higher else np.inf
            parts.append((ids, scores))
        return parts

    @pytest.mark.parametrize("higher", [False, True])
    def test_matches_per_query_merge(self, rng, higher):
        nq, k = 6, 4
        parts = self._random_partials(rng, nq, [5, 3, 7], higher)
        bids, bscores = merge_topk_batch(parts, k, higher)
        assert bids.shape == bscores.shape == (nq, k)
        for qi in range(nq):
            pp = [(i[qi][i[qi] >= 0], s[qi][i[qi] >= 0]) for i, s in parts]
            mi, ms = merge_topk(pp, k, higher)
            assert np.array_equal(bids[qi, : len(mi)], mi)
            assert np.array_equal(bscores[qi, : len(ms)], ms)

    def test_empty_partials_needs_nq(self):
        ids, scores = merge_topk_batch([], 3, nq=2)
        assert ids.shape == (2, 3) and (ids == -1).all()
        assert scores.dtype == np.float32 and np.isinf(scores).all()
        with pytest.raises(ValueError):
            merge_topk_batch([], 3)

    def test_k_larger_than_candidates_pads(self):
        ids, scores = merge_topk_batch(
            [(np.array([[5, 7]]), np.array([[0.2, 0.1]]))], 4
        )
        assert ids.tolist() == [[7, 5, -1, -1]]
        assert scores[0, :2].tolist() == [0.1, 0.2]
        assert np.isposinf(scores[0, 2:]).all()

    def test_dtype_preserved_and_overridable(self):
        part = (np.array([[1, 2]]), np.array([[0.5, 0.25]], dtype=np.float32))
        __, scores = merge_topk_batch([part], 2)
        assert scores.dtype == np.float32
        __, scores64 = merge_topk_batch([part], 2, dtype=np.float64)
        assert scores64.dtype == np.float64

    def test_nq_mismatch_rejected(self):
        part = (np.zeros((2, 1), dtype=np.int64), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            merge_topk_batch([part], 1, nq=3)


class TestMergeTopkEmptyDtype:
    def test_empty_defaults_to_float32(self):
        ids, scores = merge_topk([], 5)
        assert ids.dtype == np.int64 and scores.dtype == np.float32

    def test_empty_respects_explicit_dtype(self):
        __, scores = merge_topk([], 5, dtype=np.float64)
        assert scores.dtype == np.float64

    def test_nonempty_keeps_input_dtype(self):
        part = (np.array([1]), np.array([0.5], dtype=np.float32))
        __, scores = merge_topk([part], 1)
        assert scores.dtype == np.float32


class TestPushManyPrefilter:
    @pytest.mark.parametrize("higher", [False, True])
    def test_equivalent_to_per_element_pushes(self, rng, higher):
        scores = rng.random(500)
        ids = rng.permutation(500)
        reference = TopKHeap(10, higher_is_better=higher)
        for i, s in zip(ids, scores):
            reference.push(int(i), float(s))
        batched = TopKHeap(10, higher_is_better=higher)
        batched.push_many(ids, scores)
        assert batched.items() == reference.items()

    def test_small_batches_and_empty(self):
        heap = TopKHeap(5)
        heap.push_many([], [])
        assert len(heap) == 0
        heap.push_many([1, 2], [0.5, 0.25])  # fewer than k
        assert len(heap) == 2
        heap.push_many([3, 4, 5, 6], [0.9, 0.1, 0.8, 0.05])
        assert len(heap) == 5
        assert heap.items()[0] == (6, 0.05)


# -- parallel-vs-serial equivalence ----------------------------------------


def _build_multisegment_collection(n_segments=5, rows_per=200, dim=16):
    schema = CollectionSchema(
        "exec_equiv",
        vector_fields=[VectorField("emb", dim, "l2")],
        attribute_fields=[AttributeField("price")],
    )
    coll = Collection(schema, lsm_config=LSMConfig(auto_merge=False))
    rng = np.random.default_rng(123)
    for __ in range(n_segments):
        data = sift_like(rows_per, dim=dim, seed=int(rng.integers(1 << 30)))
        coll.insert({"emb": data, "price": rng.random(rows_per) * 100})
        coll.flush()  # one sealed segment per batch
    return coll


class TestParallelSerialEquivalence:
    @pytest.fixture(scope="class")
    def collection(self):
        return _build_multisegment_collection()

    @pytest.fixture(scope="class")
    def queries(self, collection):
        rng = np.random.default_rng(7)
        return rng.random((10, 16)).astype(np.float32) * 4

    def test_lsm_search_bit_identical(self, collection, queries, fresh_pool):
        serial = collection.search("emb", queries, 10, parallel=False)
        pooled = collection.search("emb", queries, 10, parallel=True, pool_size=4)
        assert np.array_equal(serial.ids, pooled.ids)
        assert np.array_equal(serial.scores, pooled.scores)
        assert (serial.ids >= 0).all()

    @pytest.mark.parametrize("pool_size", [1, 4])
    def test_filtered_search_bit_identical(
        self, collection, queries, pool_size, fresh_pool
    ):
        serial = collection.search(
            "emb", queries, 5, filter=("price", 20.0, 80.0), parallel=False
        )
        pooled = collection.search(
            "emb", queries, 5, filter=("price", 20.0, 80.0),
            parallel=True, pool_size=pool_size,
        )
        assert np.array_equal(serial.ids, pooled.ids)
        assert np.array_equal(serial.scores, pooled.scores)

    def test_cluster_fanout_bit_identical(self, fresh_pool):
        data = sift_like(400, dim=8, seed=31)
        queries = random_queries(data, 8, seed=32)
        cluster = MilvusCluster(4, dim=8, index_type="FLAT")
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        serial = cluster.search(queries, 5, parallel=False)
        pooled = cluster.search(queries, 5, parallel=True, pool_size=4)
        assert np.array_equal(serial.result.ids, pooled.result.ids)
        assert np.array_equal(serial.result.scores, pooled.result.scores)
        assert pooled.degraded is False
        assert set(pooled.per_node_seconds) == set(serial.per_node_seconds)
        for res in (serial, pooled):
            assert 0 < res.simulated_parallel_seconds <= res.wall_seconds + 1e-9

    @pytest.mark.parametrize("pool_size", [1, 4])
    def test_midfanout_crash_under_faultplan(self, pool_size, fresh_pool):
        """A reader whose shard-log read dies inside the fan-out task
        degrades that shard only — identically in serial and pooled."""
        inner = InMemoryObjectStore()
        plan = FaultPlan(seed=41)
        shared = FaultyFileSystem(inner, plan)
        cluster = MilvusCluster(3, dim=8, index_type="FLAT", shared=shared)
        data = sift_like(300, dim=8, seed=42)
        queries = random_queries(data, 6, seed=43)
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        cluster.insert(np.arange(len(data), len(data) + 30),
                       sift_like(30, dim=8, seed=44))
        # reader-1's next shard-log read fails mid-fan-out.
        plan.fail("shardlog/*-reader-1.log", op="read", nth=1, times=1)
        res = cluster.search(
            queries, 5, auto_refresh=True, parallel=pool_size > 1,
            pool_size=pool_size,
        )
        assert res.degraded is True
        assert res.missing_shards == ["reader-1"]
        assert (res.result.ids >= 0).any()
        # Healthy again on the next query (fault budget spent).
        healthy = cluster.search(queries, 5, auto_refresh=True)
        assert healthy.degraded is False

    def test_crashed_reader_equivalent_degradation(self, fresh_pool):
        data = sift_like(200, dim=8, seed=51)
        queries = random_queries(data, 4, seed=52)
        cluster = MilvusCluster(3, dim=8, index_type="FLAT")
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        cluster.crash_reader("reader-2")
        serial = cluster.search(queries, 5, parallel=False)
        pooled = cluster.search(queries, 5, parallel=True, pool_size=4)
        for res in (serial, pooled):
            assert res.degraded is True
            assert res.missing_shards == ["reader-2"]
        assert np.array_equal(serial.result.ids, pooled.result.ids)
        assert np.array_equal(serial.result.scores, pooled.result.scores)


# -- norm cache -------------------------------------------------------------


class TestNormCache:
    def test_hit_miss_counters_and_metrics_exposure(self, obs_on):
        coll = _build_multisegment_collection(n_segments=3, rows_per=100)
        queries = np.random.default_rng(9).random((4, 16)).astype(np.float32)
        coll.search("emb", queries, 5)  # cold: one miss per segment
        assert obs_on.registry.total("normcache_misses_total") == 3
        assert obs_on.registry.total("normcache_hits_total") == 0
        coll.search("emb", queries, 5)  # warm: pure hits
        assert obs_on.registry.total("normcache_misses_total") == 3
        assert obs_on.registry.total("normcache_hits_total") == 3
        page = RestRouter().handle("GET", "/metrics", {})
        assert "normcache_hits_total" in page.body["text"]
        assert "normcache_misses_total" in page.body["text"]

    def test_warm_cache_scores_bit_identical(self):
        coll = _build_multisegment_collection(n_segments=2, rows_per=150)
        queries = np.random.default_rng(11).random((5, 16)).astype(np.float32)
        cold = coll.search("emb", queries, 8)
        warm = coll.search("emb", queries, 8)
        assert np.array_equal(cold.ids, warm.ids)
        assert np.array_equal(cold.scores, warm.scores)

    def test_cache_api_and_invalidation(self):
        cache = NormCache()
        data = np.random.default_rng(3).random((20, 4)).astype(np.float32)
        first = cache.squared_norms("f", data)
        assert cache.squared_norms("f", data) is first  # cached object
        assert np.allclose(first, (data.astype(np.float32) ** 2).sum(axis=1),
                           atol=1e-5)
        assert len(cache) == 1 and cache.memory_bytes() == first.nbytes
        cache.invalidate()
        assert len(cache) == 0
        assert cache.squared_norms("f", data) is not first

    def test_ivf_add_invalidates_bucket_cache(self):
        rng = np.random.default_rng(5)
        data = rng.random((300, 8)).astype(np.float32)
        index = IVFFlatIndex(8, nlist=4)
        index.train(data)
        index.add(data[:200], ids=np.arange(200))
        queries = rng.random((3, 8)).astype(np.float32)
        index.search(queries, 5, nprobe=4)
        index.add(data[200:], ids=np.arange(200, 300))
        res = index.search(queries, 5, nprobe=4)
        # Post-add search over all rows matches a fresh identical index.
        fresh = IVFFlatIndex(8, nlist=4)
        fresh.train(data)
        fresh.add(data, ids=np.arange(300))
        fres = fresh.search(queries, 5, nprobe=4)
        assert np.array_equal(res.ids, fres.ids)

    def test_filtered_scan_skips_cache_but_matches(self):
        """row_filter masks a bucket's rows and stored norms alike; the
        filtered scan must agree with the full-bucket scan on the overlap."""
        rng = np.random.default_rng(13)
        data = rng.random((400, 8)).astype(np.float32)
        index = IVFFlatIndex(8, nlist=4)
        index.train(data)
        index.add(data, ids=np.arange(400))
        queries = rng.random((2, 8)).astype(np.float32)
        full = index.search(queries, 400, nprobe=4)
        filt = index.search(
            queries, 10, nprobe=4, row_filter=np.arange(0, 400, 2)
        )
        for qi in range(2):
            kept = full.ids[qi][full.ids[qi] % 2 == 0][:10]
            assert np.array_equal(filt.ids[qi][filt.ids[qi] >= 0], kept)
