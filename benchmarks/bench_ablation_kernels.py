"""Ablation: quantized-scan kernels vs their naive reference scans.

Three micro-comparisons behind the Fig. 8 compressed-index curves,
measured at the kernel level (one bucket of codes, one query block):

* PQ ADC: naive per-query table gather (``ProductQuantizer.adc_scan``)
  vs the blocked flat-LUT kernel, swept over block sizes — the
  fast-scan trick of offsetting codes into one flat (nq, m*ksub)
  table and gathering whole blocks of subquantizers at once.
* SQ8: decode-then-pairwise (materialize float32 rows, then a metric
  pairwise) vs the decode-free affine kernel (one GEMM against the
  uint8 codes, norms folded in algebraically).

Both sweeps run over several bucket sizes because the win shifts with
the number of rows amortizing the per-bucket setup.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import emit_bench_json, print_series
from repro.datasets import random_queries, sift_like
from repro.index import kernels
from repro.index.ivf_pq import ProductQuantizer
from repro.index.ivf_sq8 import ScalarQuantizer
from repro.metrics import get_metric

DIM = 64
NQ = 64
BUCKET_ROWS = (256, 1024, 4096)
PQ_BLOCKS = (1, 2, 4, 8)
PQ_M = 8
REPEATS = 3

_cache = {}


def setup():
    if "bundle" not in _cache:
        data = sift_like(8192, dim=DIM, n_clusters=32, seed=0)
        queries = random_queries(data, NQ, seed=1)
        pq = ProductQuantizer(DIM, m=PQ_M, nbits=8, seed=0).train(data)
        sq = ScalarQuantizer().train(data)
        _cache["bundle"] = (data, queries, pq, sq)
    return _cache["bundle"]


def _best(fn) -> float:
    best = float("inf")
    for __ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_pq_sweep():
    data, queries, pq, __ = setup()
    metric = get_metric("l2")
    tables = pq.build_tables(queries, metric.name)
    tables_flat = kernels.flatten_tables(tables)
    rows = []
    for nrows in BUCKET_ROWS:
        codes = pq.encode(data[:nrows])
        naive = _best(lambda: ProductQuantizer.adc_scan(tables, codes))
        entry = {"rows": nrows, "naive_seconds": naive}
        for block in PQ_BLOCKS:
            blocked = _best(
                lambda: kernels.adc_scan_blocked(
                    tables_flat, codes, pq.ksub, block=block))
            entry[f"block{block}_seconds"] = blocked
        rows.append(entry)
    return rows


def run_sq8_sweep():
    data, queries, __, sq = setup()
    metric = get_metric("l2")
    ctx = kernels.SQ8ScanContext(sq, queries, metric.name)
    rows = []
    for nrows in BUCKET_ROWS:
        codes = sq.encode(data[:nrows])
        naive = _best(lambda: metric.pairwise(queries, sq.decode(codes)))
        cold = _best(lambda: ctx.scan(codes))
        # The engine path: the decoded norms are precomputed in the
        # index layout, so a scan pays only the cast, the GEMM and the
        # rank-one corrections.
        terms = (kernels.sq8_decoded_sqnorms(sq, codes),)
        warm = _best(lambda: ctx.scan(codes, terms=terms))
        rows.append({"rows": nrows, "naive_seconds": naive,
                     "cold_seconds": cold, "fused_seconds": warm})
    return rows


@pytest.fixture(scope="module")
def pq_sweep():
    return run_pq_sweep()


@pytest.fixture(scope="module")
def sq8_sweep():
    return run_sq8_sweep()


def test_pq_blocked_matches_naive():
    data, queries, pq, __ = setup()
    metric = get_metric("l2")
    tables = pq.build_tables(queries, metric.name)
    codes = pq.encode(data[:512])
    want = ProductQuantizer.adc_scan(tables, codes)
    got = kernels.adc_scan_blocked(
        kernels.flatten_tables(tables), codes, pq.ksub)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_pq_blocked_beats_naive_at_large_bucket(pq_sweep):
    entry = pq_sweep[-1]
    best_blocked = min(v for k, v in entry.items() if k.startswith("block"))
    assert best_blocked < entry["naive_seconds"]


def test_sq8_fused_beats_decode_at_large_bucket(sq8_sweep):
    entry = sq8_sweep[-1]
    assert entry["fused_seconds"] < entry["naive_seconds"]


def test_benchmark_pq_blocked(benchmark):
    data, queries, pq, __ = setup()
    tables_flat = kernels.flatten_tables(pq.build_tables(queries, "l2"))
    codes = pq.encode(data[:4096])
    benchmark(lambda: kernels.adc_scan_blocked(tables_flat, codes, pq.ksub))


def test_benchmark_sq8_fused(benchmark):
    data, queries, __, sq = setup()
    ctx = kernels.SQ8ScanContext(sq, queries, "l2")
    codes = sq.encode(data[:4096])
    terms = (kernels.sq8_decoded_sqnorms(sq, codes),)
    benchmark(lambda: ctx.scan(codes, terms=terms))


def main():
    pq_rows = run_pq_sweep()
    sq_rows = run_sq8_sweep()
    print("=== Ablation: quantized-scan kernels vs naive scans ===")
    print_series(
        "pq blocked (block=4) speedup over naive",
        [e["rows"] for e in pq_rows],
        [f"{e['naive_seconds'] / e['block4_seconds']:.2f}x" for e in pq_rows],
    )
    print_series(
        "sq8 decode-free (precomputed norms) speedup over decode+pairwise",
        [e["rows"] for e in sq_rows],
        [f"{e['naive_seconds'] / e['fused_seconds']:.2f}x" for e in sq_rows],
    )
    series = []
    for e in pq_rows:
        series.append({"kernel": "pq_adc", "variant": "naive",
                       "rows": e["rows"], "qps": NQ / e["naive_seconds"]})
        for block in PQ_BLOCKS:
            series.append({"kernel": "pq_adc", "variant": f"blocked{block}",
                           "rows": e["rows"],
                           "qps": NQ / e[f"block{block}_seconds"]})
    for e in sq_rows:
        series.append({"kernel": "sq8", "variant": "decode",
                       "rows": e["rows"], "qps": NQ / e["naive_seconds"]})
        series.append({"kernel": "sq8", "variant": "fused_cold",
                       "rows": e["rows"], "qps": NQ / e["cold_seconds"]})
        series.append({"kernel": "sq8", "variant": "fused",
                       "rows": e["rows"], "qps": NQ / e["fused_seconds"]})
    emit_bench_json(
        "ablation_kernels",
        workload={"dim": DIM, "nq": NQ, "pq_m": PQ_M,
                  "bucket_rows": list(BUCKET_ROWS), "metric": "l2"},
        series=series,
    )


if __name__ == "__main__":
    main()
