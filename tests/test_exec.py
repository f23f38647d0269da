"""Query execution: ordered task runs, batched merge, norm cache, and
degraded cluster fan-out.

Fan-out returns partials in submission order through one merge path,
so every equivalence test here asserts ``array_equal`` on ids and
scores, not ``allclose``.
"""

import numpy as np
import pytest

from repro import obs
from repro.client.rest import RestRouter
from repro.core.collection import Collection
from repro.core.schema import CollectionSchema, VectorField, AttributeField
from repro.datasets import sift_like, random_queries
from repro.distributed import MilvusCluster
from repro.exec import NormCache, QueryExecutor
from repro.index.ivf_flat import IVFFlatIndex
from repro.storage import FaultPlan, FaultyFileSystem, InMemoryObjectStore, LSMConfig
from repro.utils import TopKHeap, merge_topk, merge_topk_batch


@pytest.fixture()
def obs_on():
    handle = obs.enable()
    yield handle
    obs.disable()


# -- executor ---------------------------------------------------------------


class TestQueryExecutor:
    def test_serial_uncaught_error_stops_immediately(self):
        ran = []

        def boom():
            raise RuntimeError("x")

        ex = QueryExecutor()
        with pytest.raises(RuntimeError):
            ex.map_ordered([lambda: ran.append(1), boom, lambda: ran.append(2)])
        assert ran == [1]  # tasks after the failure never ran
        with pytest.raises(RuntimeError):
            ex.map_settled([boom, lambda: ran.append(3)], catch=(IOError,))
        assert ran == [1]  # an uncaught type propagates from map_settled too

    def test_catch_captures_per_slot(self):
        def boom():
            raise IOError("store down")

        settled = QueryExecutor().map_settled(
            [lambda: "ok", boom, lambda: "after"], catch=(IOError,)
        )
        assert settled[0] == ("ok", None)
        assert settled[1][0] is None and isinstance(settled[1][1], IOError)
        assert settled[2] == ("after", None)  # later tasks still run


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


# -- degraded cluster fan-out ----------------------------------------------


class TestDegradedFanout:
    def test_midfanout_crash_under_faultplan(self):
        """A reader whose shard-log read dies inside the fan-out task
        degrades that shard only."""
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
        res = cluster.search(queries, 5, auto_refresh=True)
        assert res.degraded is True
        assert res.missing_shards == ["reader-1"]
        assert (res.result.ids >= 0).any()
        # Healthy again on the next query (fault budget spent).
        healthy = cluster.search(queries, 5, auto_refresh=True)
        assert healthy.degraded is False

    def test_crashed_reader_equivalent_degradation(self):
        """A crashed reader's shard is skipped: the degraded answer is
        exactly the merge of the surviving readers' answers."""
        data = sift_like(200, dim=8, seed=51)
        queries = random_queries(data, 4, seed=52)
        cluster = MilvusCluster(3, dim=8, index_type="FLAT")
        cluster.insert(np.arange(len(data)), data)
        cluster.sync()
        cluster.crash_reader("reader-2")
        res = cluster.search(queries, 5)
        assert res.degraded is True
        assert res.missing_shards == ["reader-2"]
        assert set(res.per_node_seconds) == {"reader-0", "reader-1"}
        partials = [
            cluster.readers[node].search(queries, 5)
            for node in ("reader-0", "reader-1")
        ]
        ids, scores = merge_topk_batch(
            [(p.ids, p.scores) for p in partials], 5, False,
            nq=len(queries), dtype=np.float64,
        )
        assert np.array_equal(res.result.ids, ids)
        assert np.array_equal(res.result.scores, scores)


# -- norm cache -------------------------------------------------------------


def _build_multisegment_collection(n_segments=5, rows_per=200, dim=16):
    schema = CollectionSchema(
        "exec_norms",
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
