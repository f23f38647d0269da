"""Which program functions the traced run wraps, and what it reports.

Span names follow the repository's module layers.  Every target is a
public entry point of its layer, except the LSM's inline flush and
merge steps, which no public function brackets on the writer's path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from perfbench.spans import (
    REQUEST_SPAN, Hooks, RequestTable, SpanRecorder, Target, span_durations, span_values,
)


def _index_name(kind: str):
    def namer(index) -> str:
        if getattr(index, "index_type", "") == "HNSW":
            return "index.hnsw.build" if kind != "search" else "index.hnsw.search"
        return f"index.{kind}"
    return namer


def _written_bytes(args, kwargs) -> int:
    data = kwargs.get("data", args[2] if len(args) > 2 else b"")
    return len(data)


def targets() -> List[Target]:
    """Patch list: (owner, attribute, span name, value measure)."""
    from repro.client import rest, sdk
    from repro.core import collection
    from repro.exec import executor
    from repro.index import base, ivf_common, ivf_flat, kernels
    from repro.storage import bufferpool, filesystem, lsm, memtable, segment, wal

    LSM = lsm.LSMManager
    return [
        (rest.RestRouter, "handle", "rest", None),
        (sdk.MilvusClient, "search", "sdk.search", None),
        (sdk.MilvusClient, "insert", "sdk.insert", None),
        (sdk.MilvusClient, "delete", "sdk.delete", None),
        (collection.Collection, "search", "collection.search", None),
        (collection.Collection, "insert", "collection.insert", None),
        (collection.Collection, "flush", "collection.flush", None),
        (LSM, "search", "lsm.search", None),
        (LSM, "insert", "lsm.insert", None),
        (LSM, "delete", "lsm.delete", None),
        (LSM, "snapshot", "lsm.snapshot", None),
        (LSM, "release", "lsm.snapshot", None),
        (LSM, "visible_tombstones", "lsm.snapshot", None),
        (LSM, "frozen_view_segments", "lsm.snapshot", None),
        (LSM, "_process_flush_locked", "lsm.flush", None),
        (LSM, "_execute_merge_locked", "lsm.merge", None),
        (lsm, "merge_topk_batch", "topk.merge", None),
        (executor.QueryExecutor, "map_ordered", "exec.map", None),
        (bufferpool.BufferPool, "get", "bufferpool.get", None),
        (bufferpool.BufferPool, "unpin", "bufferpool.unpin", None),
        (segment.Segment, "search", "segment.search", None),
        (segment.Segment, "attribute_range", "segment.attribute_range", None),
        (segment.Segment, "build_index", "segment.build_index", None),
        (segment.Segment, "to_bytes", "segment.to_bytes", None),
        (segment.Segment, "merge", "segment.merge", None),
        (base.VectorIndex, "search", _index_name("search"), None),
        (base.VectorIndex, "train", _index_name("train"), None),
        (base.VectorIndex, "add", _index_name("add"), None),
        (ivf_common.IVFIndexBase, "select_buckets", "index.select_buckets", None),
        (kernels.SQ8ScanContext, "scan", "kernels.scan", None),
        (kernels.PQScanContext, "scan", "kernels.scan", None),
        (ivf_flat, "l2_squared_pairwise", "kernels.scan", None),
        (ivf_flat, "cosine_pairwise", "kernels.scan", None),
        (wal.WriteAheadLog, "append_insert", "wal.append", None),
        (wal.WriteAheadLog, "append_delete", "wal.append", None),
        (memtable.MemTable, "insert", "memtable.insert", None),
        (filesystem.InMemoryObjectStore, "write", "fs.write", _written_bytes),
    ]


def make_hooks(recorder: SpanRecorder) -> Hooks:
    return Hooks(recorder, targets())


#: per-request self-time metrics over nq=1 IVF searches (the workload's
#: own search traffic): metric -> (span names, which requests).
SEARCH_SELF_US = {
    "rest.self_us": (("rest",), "all"),
    "sdk.search_self_us": (("sdk.search",), "all"),
    "collection.search_self_us": (("collection.search",), "unfiltered"),
    "collection.filter_self_us": (("collection.search",), "filtered"),
    "segment.attribute_range_us": (("segment.attribute_range",), "filtered"),
    "lsm.search_self_us": (("lsm.search",), "all"),
    "lsm.snapshot_us": (("lsm.snapshot",), "all"),
    "exec.map_self_us": (("exec.map",), "all"),
    "bufferpool.get_us": (("bufferpool.get",), "all"),
    "bufferpool.unpin_us": (("bufferpool.unpin",), "all"),
    "segment.search_self_us": (("segment.search",), "all"),
    "index.search_self_us": (("index.search",), "all"),
    "index.select_buckets_us": (("index.select_buckets",), "all"),
    "kernels.scan_us": (("kernels.scan",), "all"),
    "topk.merge_us": (("topk.merge",), "all"),
    # nq=200 IVF_SQ8 batches and nq=1 HNSW searches
    "batch.rest.self_us": (("rest",), "batch"),
    "batch.sdk.search_self_us": (("sdk.search",), "batch"),
    "batch.index.search_self_us": (("index.search",), "batch"),
    "batch.index.select_buckets_us": (("index.select_buckets",), "batch"),
    "batch.kernels.scan_us": (("kernels.scan",), "batch"),
    "batch.topk.merge_us": (("topk.merge",), "batch"),
    "graph.rest.self_us": (("rest",), "graph"),
    "index.hnsw.search_self_us": (("index.hnsw.search",), "graph"),
}

#: per-request self-time metrics over insert requests.
INSERT_SELF_US = {
    "sdk.insert_self_us": ("sdk.insert",),
    "collection.insert_self_us": ("collection.insert",),
    "lsm.insert_self_us": ("lsm.insert",),
    "wal.append_us": ("wal.append",),
    "memtable.insert_us": ("memtable.insert",),
}

#: work counts per query from the explain profile: for the workload's
#: own nq=1 searches, and (prefixed) for batches and HNSW searches.
PROFILE_COUNTS = tuple(
    prefix + name
    for prefix in ("", "batch.", "graph.")
    for name in ("index.distance_evals", "index.rows_scanned", "index.buckets_probed",
                 "index.bytes_read", "lsm.segments_scanned", "index.evals_per_result")
)

#: every per-layer metric name with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "us" for name in SEARCH_SELF_US},
    "kernels.scan_calls": "count",
    "batch.kernels.scan_calls": "count",
    "bufferpool.hit_rate": "ratio",
    **{name: "count" for name in PROFILE_COUNTS},
    **{name: "us" for name in INSERT_SELF_US},
    "wal.bytes_per_row": "B",
    "lsm.flush_s": "s",
    "lsm.flush_count": "count",
    "lsm.merge_s": "s",
    "lsm.merge_count": "count",
    "lsm.stalled_inserts": "ratio",
    "segment.build_index_s": "s",
    "segment.build_index_count": "count",
    "index.train_s": "s",
    "index.hnsw.build_s": "s",
    "segment.to_bytes_s": "s",
    "fs.write_s": "s",
    "fs.bytes_written": "B",
    "fs.puts": "count",
    "setup.insert_s": "s",
    "setup.flush_s": "s",
    "setup.create_index_s": "s",
    "segment.index_mb": "MB",
    "segment.kernel_cache_mb": "MB",
    "trace.request_us": "us",
    "trace.attributed_pct": "%",
    "trace.overhead_pct": "%",
}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    recorder: SpanRecorder, search_kinds: Sequence[str], rows_per_insert: int,
) -> Dict[str, float]:
    """Reduce a traced run to the per-layer metrics.

    ``search_kinds`` are the request kinds of the workload's own nq=1
    searches; requests of kind ``"filtered"`` carry the filter.
    Batches (``"batch"``), HNSW searches (``"graph"``) and inserts
    (``"insert"``) are reduced separately.
    """
    table = RequestTable(recorder)
    searches = table.request_ids(search_kinds)
    filtered = set(table.request_ids(["filtered"]))
    groups = {
        "all": searches,
        "filtered": [r for r in searches if r in filtered],
        "unfiltered": [r for r in searches if r not in filtered],
        "batch": table.request_ids(["batch"]),
        "graph": table.request_ids(["graph"]),
    }
    out: Dict[str, float] = {}
    for metric, (names, group) in SEARCH_SELF_US.items():
        out[metric] = table.mean_self(names, groups[group]) * 1e6
    out["kernels.scan_calls"] = table.mean_calls(("kernels.scan",), searches)
    out["batch.kernels.scan_calls"] = table.mean_calls(("kernels.scan",), groups["batch"])

    inserts = table.request_ids(["insert"])
    for metric, names in INSERT_SELF_US.items():
        out[metric] = table.mean_self(names, inserts) * 1e6
    stalled = table.requests_containing(("lsm.flush", "lsm.merge"), inserts)
    out["lsm.stalled_inserts"] = stalled / len(inserts) if inserts else 0.0
    wal_bytes = span_values(recorder, "fs.write", under="wal.append", requests=inserts)
    out["wal.bytes_per_row"] = wal_bytes / (len(inserts) * rows_per_insert) if inserts else 0.0

    out["lsm.flush_s"] = _mean(span_durations(recorder, "lsm.flush"))
    out["lsm.merge_s"] = _mean(span_durations(recorder, "lsm.merge"))
    builds = span_durations(recorder, "segment.build_index")
    out["segment.build_index_s"] = _mean(builds)
    out["segment.build_index_count"] = float(len(builds))
    out["index.train_s"] = _mean(span_durations(recorder, "index.train"))
    # One HNSW build = its train + add spans under one segment build.
    hnsw = [i for i, n in enumerate(recorder.names) if n == "index.hnsw.build"]
    hnsw_builds = {recorder.parents[i] for i in hnsw}
    out["index.hnsw.build_s"] = (
        sum(recorder.duration(i) for i in hnsw) / len(hnsw_builds) if hnsw else 0.0)
    out["segment.to_bytes_s"] = _mean(span_durations(recorder, "segment.to_bytes"))
    out["fs.write_s"] = _mean(span_durations(recorder, "fs.write"))

    out["trace.request_us"] = table.mean_latency(searches) * 1e6
    timed = sorted(set(searches) | set(inserts) | set(groups["batch"]) | set(groups["graph"]))
    latency = sum(table.latency[r] for r in timed)
    unattributed = sum(table.self_by_request[r].get(REQUEST_SPAN, 0.0) for r in timed)
    out["trace.attributed_pct"] = 100.0 * (1 - unattributed / latency) if latency else 0.0
    out["_attribution_error_s"] = table.attribution_error(timed)
    return out
