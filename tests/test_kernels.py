"""Quantized-scan kernel layer: equivalence vs a reference oracle.

Every kernel (blocked flat-LUT PQ, decode-free SQ8, bucket-major
batched execution) must reproduce its naive reference up to float
summation order, with *exactly* the same work counters.  The reference
lives here, not in the library: a query-major loop over the index's
bucket layout that scores each probed bucket by decode-then-score
(SQ8), naive per-sub-quantizer ADC (PQ/OPQ) or a plain metric pairwise
(IVF_FLAT).
"""

import sys
import threading

import numpy as np
import pytest

from repro.filtering.cost import AdaptivePlanner
from repro.index import (
    IVFOPQIndex,
    IVFPQIndex,
    IVFSQ8Index,
    ProductQuantizer,
    available_index_types,
    create_index,
    index_from_bytes,
    index_to_bytes,
)
from repro.index import kernels
from repro.index.base import SearchResult
from repro.index.ivf_flat import IVFFlatIndex
from repro.obs.profile import QueryProfile, current_node, profile_count
from repro.utils import merge_topk, topk_from_scores

METRICS = ("l2", "ip", "cosine")

#: work counters that must match bit-for-bit between the kernel path
#: and the reference oracle.
WORK_COUNTERS = (
    "distance_evals",
    "rows_scanned",
    "buckets_probed",
    "candidates_pruned",
    "bytes_read",
)


def _work(counters):
    return {key: counters.get(key, 0) for key in WORK_COUNTERS}


def _build(factory, data):
    index = factory(data.shape[1])
    index.train(data)
    index.add(data)
    return index


# -- the reference oracle ----------------------------------------------------


def _reference_scores(index, query, codes):
    """Score one query against codes the naive way -> (1, len(codes))."""
    profile_count("distance_evals", len(codes))
    profile_count("bytes_read", codes.nbytes)
    if isinstance(index, IVFSQ8Index):
        return index.metric.pairwise(query, index.sq.decode(codes))
    if isinstance(index, IVFPQIndex):
        tables = index.pq.build_tables(index._codec_space(query), index.metric.name)
        return ProductQuantizer.adc_scan(tables, codes)
    assert isinstance(index, IVFFlatIndex)
    return index.metric.pairwise(query, codes)


def _probes(index, queries, nprobe):
    """Per query, the non-empty probed buckets as (ids, codes) pairs."""
    layout = index._layout
    for qi, buckets in enumerate(index.select_buckets(queries, nprobe)):
        probes = (layout.bucket(int(b))[:2] for b in buckets)
        yield qi, [(ids, codes) for ids, codes in probes if len(ids)]


def _reference_search(index, queries, k, nprobe, row_filter=None):
    """Query-major IVF search with naive scoring and the same counters."""
    queries = np.asarray(queries, dtype=np.float32)
    higher = index.metric.higher_is_better
    result = SearchResult.empty(len(queries), k, index.metric)
    buckets_probed = rows_scanned = pruned = 0
    for qi, probes in _probes(index, queries, nprobe):
        parts = []
        for ids, codes in probes:
            buckets_probed += 1
            rows_scanned += len(ids)
            if row_filter is not None:
                keep = np.isin(ids, row_filter)
                pruned += len(ids) - int(keep.sum())
                if not keep.any():
                    continue
                ids, codes = ids[keep], codes[keep]
            scores = _reference_scores(index, queries[qi : qi + 1], codes)[0]
            parts.append(topk_from_scores(scores, k, higher, ids=ids))
        top_ids, top_scores = merge_topk(parts, k, higher)
        result.ids[qi, : len(top_ids)] = top_ids
        result.scores[qi, : len(top_scores)] = top_scores
    node = current_node()
    if node is not None:
        node.count("buckets_probed", buckets_probed)
        node.count("rows_scanned", rows_scanned)
        if pruned:
            node.count("candidates_pruned", pruned)
    return result


def _reference_range(index, queries, radius, nprobe):
    """Per-query range search with naive scoring, best-first."""
    queries = np.asarray(queries, dtype=np.float32)
    higher = index.metric.higher_is_better
    out = []
    for qi, probes in _probes(index, queries, nprobe):
        hits = []
        for ids, codes in probes:
            scores = _reference_scores(index, queries[qi : qi + 1], codes)[0]
            passing = scores >= radius if higher else scores <= radius
            hits.extend(zip(ids[passing].tolist(), scores[passing].tolist()))
        hits.sort(key=lambda p: p[1], reverse=higher)
        out.append(hits)
    return out


# -- blocked flat-LUT PQ kernel --------------------------------------------


class TestBlockedADC:
    @pytest.fixture(scope="class")
    def pq(self, request):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(600, 16)).astype(np.float32)
        pq = ProductQuantizer(16, m=4, nbits=6, seed=0).train(data)
        return pq, data

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 8])
    def test_matches_naive_all_blocks(self, pq, metric, block):
        pq, data = pq
        rng = np.random.default_rng(4)
        queries = rng.normal(size=(7, 16)).astype(np.float32)
        codes = pq.encode(data[:200])
        tables = pq.build_tables(queries, metric)
        naive = ProductQuantizer.adc_scan(tables, codes)
        blocked = kernels.adc_scan_blocked(
            kernels.flatten_tables(tables), codes, pq.ksub, block=block
        )
        np.testing.assert_allclose(blocked, naive, rtol=1e-5, atol=1e-4)

    def test_edge_shapes(self, pq):
        pq, data = pq
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(1, 16)).astype(np.float32)  # nq=1
        tables_flat = kernels.flatten_tables(pq.build_tables(queries, "l2"))
        empty = pq.encode(data[:0])
        assert kernels.adc_scan_blocked(tables_flat, empty, pq.ksub).shape == (1, 0)
        single = pq.encode(data[:1])  # one row
        out = kernels.adc_scan_blocked(tables_flat, single, pq.ksub)
        naive = ProductQuantizer.adc_scan(pq.build_tables(queries, "l2"), single)
        np.testing.assert_allclose(out, naive, rtol=1e-5, atol=1e-4)

    def test_non_contiguous_inputs(self, pq):
        pq, data = pq
        rng = np.random.default_rng(6)
        wide = rng.normal(size=(10, 16)).astype(np.float32)
        queries = wide[::2]  # stride-2 view
        codes = pq.encode(data[:100])[::3]  # non-contiguous codes too
        tables = pq.build_tables(queries, "ip")
        blocked = kernels.adc_scan_blocked(
            kernels.flatten_tables(tables), codes, pq.ksub
        )
        np.testing.assert_allclose(
            blocked, ProductQuantizer.adc_scan(tables, codes), rtol=1e-5, atol=1e-4
        )

    def test_unpinned_block_follows_input_size(self, pq, monkeypatch):
        pq, data = pq
        rng = np.random.default_rng(7)
        tables_flat = kernels.flatten_tables(
            pq.build_tables(rng.normal(size=(3, 16)).astype(np.float32), "l2")
        )
        codes = pq.encode(data[:50])
        fused = kernels.adc_scan_blocked(tables_flat, codes, pq.ksub, block=pq.m)
        np.testing.assert_array_equal(
            kernels.adc_scan_blocked(tables_flat, codes, pq.ksub), fused
        )
        monkeypatch.setattr(kernels, "FUSED_GATHER_ELEMS", 0)
        np.testing.assert_array_equal(
            kernels.adc_scan_blocked(tables_flat, codes, pq.ksub),
            kernels.adc_scan_blocked(
                tables_flat, codes, pq.ksub, block=kernels.DEFAULT_BLOCK
            ),
        )


# -- decode-free SQ8 kernel ------------------------------------------------


class TestDecodeFreeSQ8:
    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_decoded_reference(self, metric, rng):
        from repro.index import ScalarQuantizer
        from repro.metrics import get_metric

        data = rng.normal(size=(300, 12)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data)
        queries = rng.normal(size=(5, 12)).astype(np.float32)
        ctx = kernels.SQ8ScanContext(sq, queries, metric)
        got = ctx.scan(codes)
        want = get_metric(metric).pairwise(queries, sq.decode(codes))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)

    def test_edge_shapes_and_zero_vector(self, rng):
        from repro.index import ScalarQuantizer
        from repro.metrics import get_metric

        data = rng.normal(size=(50, 8)).astype(np.float32)
        data[0] = 0.0  # cosine zero-row must score 0, not NaN
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data)
        queries = rng.normal(size=(1, 8)).astype(np.float32)
        for metric in METRICS:
            ctx = kernels.SQ8ScanContext(sq, queries, metric)
            assert ctx.scan(codes[:0]).shape == (1, 0)
            got = ctx.scan(codes[:1])
            want = get_metric(metric).pairwise(queries, sq.decode(codes[:1]))
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)
        ctx = kernels.SQ8ScanContext(sq, queries, "cosine")
        decoded0 = sq.decode(codes[:1])
        scores = ctx.scan(codes[:1])
        assert np.isfinite(scores).all()
        if not decoded0.any():
            assert np.isclose(scores[0, 0], 0.0)

    def test_qidx_slices_batch_terms(self, rng):
        from repro.index import ScalarQuantizer

        data = rng.normal(size=(100, 8)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data)
        queries = rng.normal(size=(6, 8)).astype(np.float32)
        ctx = kernels.SQ8ScanContext(sq, queries, "l2")
        qidx = np.array([4, 1])
        np.testing.assert_allclose(ctx.scan(codes, qidx), ctx.scan(codes)[qidx])

    def test_precomputed_norms_match(self, rng):
        from repro.index import ScalarQuantizer

        data = rng.normal(size=(80, 8)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data)
        queries = rng.normal(size=(3, 8)).astype(np.float32)
        norms = kernels.sq8_decoded_sqnorms(sq, codes)
        keep = np.arange(0, 80, 3)
        for metric in ("l2", "cosine"):
            ctx = kernels.SQ8ScanContext(sq, queries, metric)
            np.testing.assert_array_equal(
                ctx.scan(codes, terms=(norms,)), ctx.scan(codes)
            )
            # A row subset scores the same against the sliced norms.
            np.testing.assert_array_equal(
                ctx.scan(codes[keep], terms=(norms[keep],)), ctx.scan(codes[keep])
            )


# -- end-to-end: kernel path vs the reference oracle ------------------------


IVF_FACTORIES = [
    ("IVF_FLAT", lambda d, m: create_index("IVF_FLAT", d, metric=m, nlist=16)),
    ("IVF_SQ8", lambda d, m: IVFSQ8Index(d, metric=m, nlist=16)),
    ("IVF_PQ", lambda d, m: IVFPQIndex(d, metric=m, nlist=16, m=4, nbits=6)),
    ("IVF_OPQ", lambda d, m: IVFOPQIndex(d, metric=m, nlist=16, m=4, nbits=6,
                                         opq_iters=2)),
]


class TestKernelVsReferenceSearch:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("name,factory", IVF_FACTORIES,
                             ids=[n for n, __ in IVF_FACTORIES])
    def test_results_and_counters_match(self, name, factory, metric,
                                        medium_data, medium_queries):
        index = _build(lambda d: factory(d, metric), medium_data)

        with QueryProfile("kernel") as prof_k:
            fast = index.search(medium_queries, 5, nprobe=4)
        with QueryProfile("reference") as prof_r:
            ref = _reference_search(index, medium_queries, 5, nprobe=4)

        np.testing.assert_allclose(
            np.sort(fast.scores, axis=1), np.sort(ref.scores, axis=1),
            rtol=5e-4, atol=1e-3,
        )
        if name in ("IVF_FLAT", "IVF_SQ8"):
            # real float distances: no score collisions, ids must agree
            np.testing.assert_array_equal(fast.ids, ref.ids)
        else:
            # PQ rows sharing codes tie exactly; require heavy overlap
            overlap = np.mean([
                len(set(fast.ids[qi]) & set(ref.ids[qi])) / fast.ids.shape[1]
                for qi in range(fast.nq)
            ])
            assert overlap >= 0.9, overlap
        assert _work(prof_k.total_counters()) == _work(prof_r.total_counters())

    def test_row_filter_counter_parity(self, medium_data, medium_queries):
        index = _build(lambda d: IVFSQ8Index(d, nlist=16), medium_data)
        row_filter = np.arange(0, len(medium_data), 3, dtype=np.int64)

        with QueryProfile("kernel") as prof_k:
            fast = index.search(medium_queries, 5, nprobe=4, row_filter=row_filter)
        with QueryProfile("reference") as prof_r:
            ref = _reference_search(
                index, medium_queries, 5, nprobe=4, row_filter=row_filter
            )

        np.testing.assert_array_equal(fast.ids, ref.ids)
        counters = _work(prof_k.total_counters())
        assert counters == _work(prof_r.total_counters())
        assert counters["candidates_pruned"] > 0
        valid = fast.ids[fast.ids >= 0]
        assert np.isin(valid, row_filter).all()

    def test_range_search_matches(self, medium_data, medium_queries):
        index = _build(lambda d: IVFSQ8Index(d, nlist=16), medium_data)
        # midpoint radius: kernel-vs-reference epsilon must not flip a
        # row's membership, so keep the threshold away from any score
        probe = index.search(medium_queries[:1], 10, nprobe=4)
        radius = float(probe.scores[0, 5] + probe.scores[0, 6]) / 2.0
        fast = index.range_search(medium_queries[:4], radius, nprobe=4)
        ref = _reference_range(index, medium_queries[:4], radius, nprobe=4)
        for got, want in zip(fast, ref):
            assert [i for i, __ in got] == [i for i, __ in want]
            np.testing.assert_allclose(
                [s for __, s in got], [s for __, s in want], rtol=5e-4, atol=1e-3
            )

    def test_single_query_batch(self, medium_data, medium_queries):
        index = _build(lambda d: IVFPQIndex(d, nlist=16, m=4, nbits=6), medium_data)
        full = index.search(medium_queries, 5, nprobe=4)
        solo = index.search(medium_queries[2:3], 5, nprobe=4)
        # Same scores in the same order; ids may permute only within
        # exact ADC ties (duplicate codes), whose merge order depends
        # on the batch's bucket iteration order.
        np.testing.assert_array_equal(solo.scores[0], full.scores[2])
        assert set(solo.ids[0].tolist()) == set(full.ids[2].tolist())


# -- OPQ ---------------------------------------------------------------------


class TestOPQ:
    def _correlated(self, n=900, dim=16, seed=11):
        rng = np.random.default_rng(seed)
        latent = rng.normal(size=(n, dim)).astype(np.float32)
        mix = rng.normal(size=(dim, dim)).astype(np.float32)
        mix += 3.0 * np.eye(dim, dtype=np.float32)  # strong correlation
        return latent @ mix

    def test_two_runs_bit_identical(self):
        data = self._correlated()
        factory = lambda: ProductQuantizer(16, m=4, nbits=6, seed=0)
        rot_a, pq_a = kernels.train_opq_rotation(data, factory, opq_iters=3, seed=0)
        rot_b, pq_b = kernels.train_opq_rotation(data, factory, opq_iters=3, seed=0)
        np.testing.assert_array_equal(rot_a, rot_b)
        np.testing.assert_array_equal(pq_a.codebooks, pq_b.codebooks)

    def test_rotation_is_orthogonal(self):
        data = self._correlated(n=400)
        rotation, __ = kernels.train_opq_rotation(
            data, lambda: ProductQuantizer(16, m=4, nbits=4, seed=0),
            opq_iters=2, seed=0,
        )
        np.testing.assert_allclose(
            rotation @ rotation.T, np.eye(16), atol=1e-4
        )

    def test_opq_reduces_reconstruction_error(self):
        data = self._correlated()
        pq = ProductQuantizer(16, m=4, nbits=6, seed=0).train(data)
        plain_err = float(((pq.decode(pq.encode(data)) - data) ** 2).sum())
        rotation, opq = kernels.train_opq_rotation(
            data, lambda: ProductQuantizer(16, m=4, nbits=6, seed=0),
            opq_iters=4, seed=0,
        )
        rotated = data @ rotation
        opq_err = float(((opq.decode(opq.encode(rotated)) - rotated) ** 2).sum())
        assert opq_err < plain_err

    def test_registry_and_search(self, medium_data, medium_queries):
        assert "IVF_OPQ" in available_index_types()
        index = create_index("IVF_OPQ", medium_data.shape[1], nlist=16,
                             m=4, nbits=6, opq_iters=2)
        index.train(medium_data)
        index.add(medium_data)
        result = index.search(medium_queries, 10, nprobe=8)
        assert result.ids.shape == (len(medium_queries), 10)
        assert (result.ids >= 0).any(axis=1).all()

    def test_untrained_search_raises(self, medium_data):
        index = IVFOPQIndex(medium_data.shape[1], nlist=16, m=4, nbits=6)
        with pytest.raises(RuntimeError):
            index._codec_space(medium_data[:1])

    def test_serialization_roundtrip(self, medium_data, medium_queries):
        index = IVFOPQIndex(medium_data.shape[1], nlist=16, m=4, nbits=6,
                            opq_iters=2)
        index.train(medium_data)
        index.add(medium_data)
        restored = index_from_bytes(index_to_bytes(index))
        assert isinstance(restored, IVFOPQIndex)
        np.testing.assert_array_equal(restored.rotation, index.rotation)
        want = index.search(medium_queries, 5, nprobe=4)
        got = restored.search(medium_queries, 5, nprobe=4)
        np.testing.assert_array_equal(got.ids, want.ids)


# -- decode rank regression --------------------------------------------------


class TestDecodeRank:
    def test_pq_decode_rank_mirrors_input(self, rng):
        data = rng.normal(size=(300, 8)).astype(np.float32)
        pq = ProductQuantizer(8, m=2, nbits=4, seed=0).train(data)
        codes = pq.encode(data[:5])
        assert pq.decode(codes).shape == (5, 8)
        assert pq.decode(codes[0]).shape == (8,)
        np.testing.assert_array_equal(pq.decode(codes[0]), pq.decode(codes)[0])

    def test_sq_decode_rank_mirrors_input(self, rng):
        from repro.index import ScalarQuantizer

        data = rng.normal(size=(50, 6)).astype(np.float32)
        sq = ScalarQuantizer().train(data)
        codes = sq.encode(data[:4])
        assert sq.decode(codes).shape == (4, 6)
        assert sq.decode(codes[0]).shape == (6,)
        np.testing.assert_array_equal(sq.decode(codes[0]), sq.decode(codes)[0])


# -- planner row_bytes -------------------------------------------------------


class TestRowBytesPlanning:
    def test_bytes_read_predicted_for_index_strategies(self):
        planner = AdaptivePlanner()
        plan = planner.plan(
            n=10_000, passing_fraction=0.5, k=10,
            index_type="IVF_SQ8", nlist=64, row_bytes=24,
        )
        assert plan.row_bytes == 24
        for strategy in ("B", "C"):
            raw = planner._raw_counters(plan, strategy)
            assert raw["bytes_read"] == pytest.approx(
                raw["rows_scanned"] * 24
            )
        assert "bytes_read" not in planner._raw_counters(plan, "A")

    def test_no_row_bytes_no_prediction(self):
        planner = AdaptivePlanner()
        plan = planner.plan(n=10_000, passing_fraction=0.5, k=10,
                            index_type="IVF_FLAT", nlist=64)
        assert "bytes_read" not in planner._raw_counters(plan, "B")

    def test_row_code_bytes_per_index(self, medium_data):
        dim = medium_data.shape[1]
        flat = create_index("IVF_FLAT", dim, nlist=16)
        sq8 = IVFSQ8Index(dim, nlist=16)
        pq = IVFPQIndex(dim, nlist=16, m=4, nbits=6)
        assert flat.row_code_bytes() == 4 * dim
        assert sq8.row_code_bytes() == dim
        assert pq.row_code_bytes() == 4


# -- the immutable layout ----------------------------------------------------


class TestLayout:
    @pytest.mark.parametrize("name,factory", IVF_FACTORIES,
                             ids=[n for n, __ in IVF_FACTORIES])
    def test_layout_arrays_reject_writes(self, name, factory, medium_data):
        index = _build(lambda d: factory(d, "l2"), medium_data)
        layout = index._layout
        for arr in (layout.offsets, layout.ids, layout.codes, *layout.terms):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_search_during_add_sees_pre_or_post_layout(self, medium_data,
                                                       medium_queries):
        """Eight readers search while one writer adds: every result is
        exactly the pre-add or the post-add result of a fresh index."""
        half = len(medium_data) // 2

        def fresh(rows):
            index = IVFSQ8Index(medium_data.shape[1], nlist=16)
            index.train(medium_data)
            index.add(medium_data[:rows], ids=np.arange(rows))
            return index

        queries = medium_queries[:8]
        pre = fresh(half).search(queries, 5, nprobe=4)
        post = fresh(len(medium_data)).search(queries, 5, nprobe=4)
        assert not np.array_equal(pre.ids, post.ids)
        index = fresh(half)
        done = threading.Event()
        seen, errors = [], []

        def reader():
            try:
                while True:
                    finished = done.is_set()
                    res = index.search(queries, 5, nprobe=4)
                    matches = [
                        np.array_equal(res.ids, want.ids)
                        and np.array_equal(res.scores, want.scores)
                        for want in (pre, post)
                    ]
                    assert any(matches), "result matches neither layout"
                    seen.append(matches[1])
                    if finished:
                        return
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for __ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            index.add(medium_data[half:], ids=np.arange(half, len(medium_data)))
            done.set()
            for t in threads:
                t.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # Each reader's final search started after add returned.
        assert sum(seen) >= len(threads)
