"""Tests for the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import gen, layers, spans, workloads  # noqa: E402
from perfbench.run import pin_environment  # noqa: E402


class FakeClock:
    """Returns the next scripted time on each call."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- self-time arithmetic -------------------------------------------------------


def test_self_times_nested_and_back_to_back():
    # root [0,10] > a [1,4] > g [2,3];  root > b [4,6] (back-to-back with a)
    # root > c [6,7] (back-to-back with b)
    starts = [0.0, 1.0, 2.0, 4.0, 6.0]
    ends = [10.0, 4.0, 3.0, 6.0, 7.0]
    parents = [-1, 0, 1, 0, 0]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])
    assert sum(got) == pytest.approx(ends[0] - starts[0])


def test_self_times_overlapping_and_clipped_children():
    # two overlapping children [1,5] and [3,8] cover [1,8] once; a child
    # running past its parent's end is clipped to the parent.
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 8.0, 12.0]
    parents = [-1, 0, 0, 0]
    got = spans.self_times(starts, ends, parents)
    assert got[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_request_table_sums_to_request_time():
    # request span [0,10]; rest [1,9]; collection [2,8]; two scans
    # back-to-back [3,5] and [5,6].  Clock reads in open/close order.
    clock = FakeClock([0, 1, 2, 3, 5, 5, 6, 8, 9, 10])
    rec = spans.SpanRecorder(clock=clock)
    with rec.request("search"):
        rest = rec.open("rest")
        coll = rec.open("collection.search")
        for __ in range(2):
            rec.close(rec.open("kernels.scan"))
        rec.close(coll)
        rec.close(rest)
    table = spans.RequestTable(rec)
    rids = table.request_ids(["search"])
    assert rids == [0]
    assert table.latency[0] == 10
    assert table.mean_self(["rest"], rids) == pytest.approx(2)
    assert table.mean_self(["collection.search"], rids) == pytest.approx(3)
    assert table.mean_self(["kernels.scan"], rids) == pytest.approx(3)
    assert table.mean_calls(["kernels.scan"], rids) == 2
    assert table.attribution_error(rids) == pytest.approx(0.0)


def test_spans_off_the_client_thread_are_not_recorded():
    rec = spans.SpanRecorder()
    worker = threading.Thread(target=lambda: rec.close(rec.open("lsm.flush")))
    with rec.request("search"):
        worker.start()
        worker.join()
    assert rec.names == [spans.REQUEST_SPAN]


# -- hook installation -----------------------------------------------------------


def _patched_state():
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, __, __ in layers.targets()]


def test_hooks_restore_every_patched_attribute_exactly():
    before = _patched_state()
    rec = spans.SpanRecorder()
    hooks = layers.make_hooks(rec)
    with hooks:
        assert not hooks.missing
        for owner, attr, raw in before:
            assert vars(owner)[attr] is not raw
    after = _patched_state()
    for (owner, attr, raw), (__, __, now) in zip(before, after):
        assert now is raw, f"{owner}.{attr} not restored"
    from repro.storage.segment import Segment

    assert isinstance(vars(Segment)["merge"], classmethod)


def test_hooks_record_spans_for_a_real_search():
    from repro import MilvusLite, RestRouter

    ds = gen.make_dataset(3, 600, 4)
    router = RestRouter(MilvusLite())
    bench = workloads.Bench(3, 0.1, trace=False, sizes=workloads.Sizes())
    workloads.load(bench, router, workloads.IVF, ds, 1, "IVF_FLAT", {"nlist": 8}, {})
    assert bench.failed == 0, bench.errors
    rec = spans.SpanRecorder()
    body = workloads.nq1_plan(ds, {"nprobe": 2})[0].body
    path = f"/collections/{workloads.IVF}/search"
    with layers.make_hooks(rec):
        with rec.request("search"):
            response = router.handle("POST", path, body)
    assert response.status == 200
    names = set(rec.names)
    for name in ("rest", "collection.search", "lsm.search", "segment.search",
                 "index.search", "index.select_buckets", "kernels.scan", "topk.merge"):
        assert name in names
    table = spans.RequestTable(rec)
    assert table.attribution_error([0]) < 1e-9
    # nothing is recorded once the hooks are gone
    count = len(rec)
    router.handle("POST", path, body)
    assert len(rec) == count


# -- inputs ------------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    a = gen.make_dataset(5, 300, 20)
    b = gen.make_dataset(5, 300, 20)
    c = gen.make_dataset(6, 300, 20)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.attr, b.attr)
    assert np.array_equal(a.queries, b.queries)
    assert not np.array_equal(a.vectors, c.vectors)


def test_exact_topk_matches_sorting():
    ds = gen.make_dataset(1, 200, 7)
    ids = np.arange(200) * 3
    got = gen.exact_topk(ds.queries, ds.vectors, ids, 5)
    d = ((ds.queries[:, None, :].astype(np.float64) - ds.vectors[None]) ** 2).sum(-1)
    assert np.array_equal(got, ids[np.argsort(d, axis=1)[:, :5]])
    assert gen.recall(got, got) == 1.0


def test_pin_environment_clears_repro_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "1")
    monkeypatch.setenv("REPRO_OBS", "1")
    record = pin_environment()
    assert record["cleared_env"] == ["REPRO_OBS", "REPRO_PARALLEL"]
    assert not [k for k in os.environ if k.startswith("REPRO_")]


# -- tiny smoke runs of every workload ------------------------------------------------


def tiny_sizes() -> workloads.Sizes:
    return workloads.Sizes(
        corpus=1200, nlist=16, nprobe=16, sq8_corpus=900, graph_corpus=150,
        hnsw_ef_construction=16, setup_repeats=2, pool=40, batch_nq=10, warmup=3,
        ingest_inserts=60, ingest_memtable_bytes=16 << 10, ingest_index_min_rows=128,
        side_filtered=20, side_graph=20, side_batches=2, side_inserts=20,
        explain_queries=3,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    bench = workloads.Bench(7, 0.2, trace=False, sizes=tiny_sizes())
    values = workloads.run(workload, bench)
    assert bench.failed == 0, bench.errors
    assert set(values) == set(workloads.END_TO_END_UNITS)
    assert all(math.isfinite(v) and v > 0 for v in values.values()), values


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    # long enough for several traced/untraced blocks
    sizes = tiny_sizes()
    sizes.side_batches = sizes.side_inserts = 12
    bench = workloads.Bench(7, 1.0, trace=True, sizes=sizes)
    values = workloads.run(workload, bench)
    assert bench.failed == 0, bench.errors
    assert set(values) == set(layers.PER_LAYER_UNITS)
    assert values["bufferpool.hit_rate"] == 1.0
    assert values["trace.attributed_pct"] > 50
    assert values["index.hnsw.search_self_us"] > 0 and values["index.hnsw.build_s"] > 0
    if workload == "ingest":
        assert values["lsm.flush_count"] > 0 and values["lsm.merge_count"] > 0
        assert values["wal.append_us"] > 0 and values["lsm.stalled_inserts"] > 0
    else:
        assert values["kernels.scan_calls"] > 0 and values["index.select_buckets_us"] > 0
        assert values["batch.kernels.scan_us"] > 0 and values["segment.attribute_range_us"] > 0


def test_smoke_detects_a_wrong_answer(monkeypatch):
    # A search layer returning a never-inserted id must fail the run.
    from repro.client.sdk import MilvusClient

    original = MilvusClient.search

    def corrupt(self, *args, **kwargs):
        hits = original(self, *args, **kwargs)
        return [[(10 ** 9, score) for __, score in row] for row in hits]

    monkeypatch.setattr(MilvusClient, "search", corrupt)
    bench = workloads.Bench(7, 0.1, trace=False, sizes=tiny_sizes())
    workloads.run("point", bench)
    assert bench.failed > 0


def test_an_extra_thread_fails_the_operation():
    bench = workloads.Bench(7, 0.1, trace=False, sizes=tiny_sizes())
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        ok, __ = bench.call("search", lambda: None)
    finally:
        stop.set()
        worker.join()
    assert not ok and bench.failed == 1
    assert bench.call("search", lambda: None)[0] and bench.failed == 1


# -- the command line ---------------------------------------------------------------


def test_cli_fails_without_program_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_prints_result_line_last(monkeypatch, capsys):
    from perfbench import run

    monkeypatch.setenv("REPRO_PARALLEL", "1")
    for key in run.THREAD_ENV:
        monkeypatch.setenv(key, os.environ.get(key, "1"))
    sizes = tiny_sizes()
    monkeypatch.setattr(workloads, "Sizes", lambda: sizes)
    code = run.main(["--workload", "ingest", "--seed", "2", "--seconds", "0.2",
                     "--trace", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert all(m["unit"] == workloads.END_TO_END_UNITS[name]
               for name, m in result["metrics"].items())
    record = json.loads(lines[0])["run"]
    assert record["cleared_env"] == ["REPRO_PARALLEL"]
    assert record["seed"] == 2 and record["nproc"] == os.cpu_count()
