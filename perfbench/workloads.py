"""The workloads: ``point`` (served reads) and ``ingest`` (writes with reads).

One client thread drives the program in a closed loop: each request is
sent only after the previous reply arrived.  Only the call into the
program is timed; building request bodies, checking responses and
ground truth all happen outside the timed region.

Every run reports every end-to-end metric.  A workload's own traffic
(the *fill* stream) uses the timed phase; the operations it lacks run
as fixed-count *side streams* spread evenly over the same phase, so
each metric is measured over the whole window.

Timings are reported in reference-normalised units: after every
operation the client also times one fixed calibration operation
(:func:`reference_op`), and each latency is scaled by ``REF_NOMINAL_S``
over the median of the ``REF_WINDOW`` calibration times around it.  On
a shared machine whose speed drifts by tens of percent, the program's
latency and the calibration time move together, and their ratio is
steady.  Set-up time is scaled the same way, by the run's median
calibration time.  Raw times are kept in the run record.  See README.md.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from perfbench import gen
from perfbench.spans import SpanRecorder

K = 10
FIELD = "emb"
#: the collections a run serves: IVF_FLAT point/filtered traffic, the
#: IVF_SQ8 batch collection, the HNSW graph collection, and the
#: collection each ingest job writes.
IVF, SQ8, GRAPH, INGEST = "bench", "bench_sq8", "bench_graph", "bench_ingest"
FILTER_SPEC = {"attribute": "attr", "low": gen.FILTER_LOW, "high": gen.FILTER_HIGH}
#: bytes of user data per row: the float32 vector plus one float64 attribute.
USER_BYTES_PER_ROW = gen.DIM * 4 + 8

#: nominal duration of :func:`reference_op`; normalised times read as
#: times on a machine where the calibration operation takes this long.
REF_NOMINAL_S = 50e-6
#: calibration samples per rolling median: about 0.1 s of operations
REF_WINDOW = 101
_REF_MATRIX = np.random.default_rng(0).random((64, 64)).astype(np.float32)


def reference_op() -> int:
    """The calibration operation: interpreter work plus small numpy calls,
    the same mix the program's request path is made of."""
    total = 0
    for i in range(500):
        total += i * i
    _REF_MATRIX @ _REF_MATRIX
    np.sort(_REF_MATRIX, axis=1)
    return total


#: recall below this fails the run (well under the measured values; it
#: catches broken results, not tuning).
RECALL_FLOOR = 0.5

#: end-to-end metric -> unit, in report order.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "search_p50_ms": "ms-ref",
    "search_p95_ms": "ms-ref",
    "filtered_p50_ms": "ms-ref",
    "filtered_p95_ms": "ms-ref",
    "graph_p50_ms": "ms-ref",
    "graph_p95_ms": "ms-ref",
    "batch_qps": "1/s-ref",
    "recall_at_10": "ratio",
    "filtered_recall_at_10": "ratio",
    "graph_recall_at_10": "ratio",
    "insert_p50_ms": "ms-ref",
    "insert_p99_ms": "ms-ref",
    "ingest_rows_s": "rows/s-ref",
    "write_amp": "ratio",
    "mem_mb": "MB",
}


#: sealed segments each IVF collection loads into
SEGMENTS = 3
HNSW_M = 16
HNSW_EF = 64
#: an ingest job's insert size, and its deletes: INGEST_DELETE_ROWS
#: earlier rows after every INGEST_DELETE_EVERY-th insert.
INGEST_ROWS_PER_INSERT = 16
INGEST_DELETE_EVERY = 20
INGEST_DELETE_ROWS = 4
SIDE_ROWS_PER_INSERT = 2
#: the fill stream always sends while it has had less than this share
#: of the elapsed time, so side streams never starve it.
FILL_SHARE = 0.3


@dataclass
class Sizes:
    """Run sizes (tests shrink them; the command line uses the defaults)."""

    corpus: int = 18_000          #: IVF_FLAT rows (point/filtered traffic)
    nlist: int = 256
    nprobe: int = 8
    sq8_corpus: int = 12_000      #: IVF_SQ8 rows (batch traffic)
    graph_corpus: int = 600       #: HNSW rows, one segment
    hnsw_ef_construction: int = 64
    setup_repeats: int = 3
    pool: int = 1000              #: distinct queries per collection
    batch_nq: int = 200
    warmup: int = 30
    # ingest job
    ingest_inserts: int = 600
    ingest_memtable_bytes: int = 256 << 10
    ingest_index_min_rows: int = 2048
    # side streams (fixed counts; every p95 has >= 50 samples beyond it,
    # every p99 >= 20).  Side inserts add 4000 rows (SIDE_ROWS_PER_INSERT
    # each), under the 4096-row automatic index threshold, so their final
    # flush builds no index.
    side_filtered: int = 1000
    side_graph: int = 2000
    side_batches: int = 30
    side_inserts: int = 2000
    explain_queries: int = 30


class Bench:
    """One run's bookkeeping: operation tally, latency samples, spans."""

    def __init__(self, seed: int, seconds: float, trace: bool, sizes: Sizes):
        self.seed = seed
        self.seconds = float(seconds)
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: latencies of traced requests, kept apart from the untraced ones
        self.traced: Dict[str, List[float]] = defaultdict(list)
        self.recorder: Optional[SpanRecorder] = SpanRecorder() if trace else None
        self.hooks = None
        self.tracing = False
        self.notes: Dict[str, object] = {}
        #: the most recent successful untraced operation, or None
        self.last_event: Optional[Tuple[str, float, float]] = None
        #: untraced operations: (kind, end time, seconds)
        self.events: List[Tuple[str, float, float]] = []
        #: calibration samples: (time, seconds), end-to-end runs only
        self.refs: List[Tuple[float, float]] = []
        self._rolling: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- tracing ----------------------------------------------------------

    def trace_on(self) -> None:
        if self.recorder is None or self.tracing:
            return
        from perfbench.layers import make_hooks

        if self.hooks is None:
            self.hooks = make_hooks(self.recorder)
        self.hooks.install()
        self.tracing = True

    def trace_off(self) -> None:
        if self.tracing:
            self.hooks.remove()
            self.tracing = False

    # -- operations -----------------------------------------------------------

    def call(self, kind: str, fn: Callable[[], object]):
        """Run one operation; time only ``fn``.  Returns (ok, result)."""
        self.attempted += 1
        try:
            if self.tracing:
                with self.recorder.request(kind) as idx:
                    result = fn()
                self.traced[kind].append(self.recorder.duration(idx))
                self.last_event = None
            else:
                started = time.perf_counter()
                result = fn()
                ended = time.perf_counter()
                self.events.append((kind, ended, ended - started))
                self.last_event = self.events[-1]
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return False, None
        finally:
            if self.recorder is None:
                started = time.perf_counter()
                reference_op()
                self.refs.append((started, time.perf_counter() - started))
        # The run is one client thread.  Another thread (a pool worker,
        # a background flusher) would slow the calibration operation as
        # much as the request and hide the cost from every -ref metric.
        threads = threading.active_count()
        if threads > 1:
            self.fail(f"{kind}: {threads} threads alive, the run allows one")
            return False, None
        return True, result

    def take(self, kind: str) -> List[float]:
        """Remove and return every latency recorded for ``kind``."""
        taken = [seconds for k, __, seconds in self.events if k == kind]
        self.events = [e for e in self.events if e[0] != kind]
        return taken + self.traced.pop(kind, [])

    def raw(self, kinds: Sequence[str]) -> np.ndarray:
        """Untraced latencies of ``kinds``, as measured."""
        wanted = set(kinds)
        return np.array([seconds for kind, __, seconds in self.events if kind in wanted])

    # -- normalisation ------------------------------------------------------

    def _scale(self, times: np.ndarray) -> np.ndarray:
        """``REF_NOMINAL_S`` / the median of the ``REF_WINDOW`` calibration
        samples nearest each of ``times``.

        Call only once the timed phase is over: the first call fixes the
        table of rolling medians.
        """
        if self._rolling is None:
            at = np.array([t for t, __ in self.refs])
            seconds = np.array([d for __, d in self.refs])
            if len(seconds) > REF_WINDOW:
                padded = np.pad(seconds, REF_WINDOW // 2, mode="reflect")
                medians = np.median(sliding_window_view(padded, REF_WINDOW), axis=1)
            else:
                medians = np.full(len(seconds), np.median(seconds))
            self._rolling = (at, medians)
        at, medians = self._rolling
        idx = np.clip(np.searchsorted(at, times), 0, len(at) - 1)
        return REF_NOMINAL_S / medians[idx]

    def normalised(self, kinds: Sequence[str]) -> np.ndarray:
        """Latencies of ``kinds`` (untraced), scaled to the nominal machine."""
        wanted = set(kinds)
        return self.normalised_events([e for e in self.events if e[0] in wanted])

    def normalised_events(self, events: Sequence[Tuple[str, float, float]]) -> np.ndarray:
        if not events:
            return np.empty(0)
        times = np.array([t for __, t, __ in events])
        return np.array([d for __, __, d in events]) * self._scale(times)

    def reference_us(self) -> float:
        return statistics.median(seconds for __, seconds in self.refs) * 1e6

    def setup_seconds(self, times: Sequence[float]) -> float:
        """The median of ``times``, scaled to the nominal machine by the
        run's median calibration time (set-up calls and timed phase)."""
        return statistics.median(times) * REF_NOMINAL_S * 1e6 / self.reference_us()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# -- response checks ------------------------------------------------------------


def hits_of(bench: Bench, response, nq: int, allowed: Callable[[np.ndarray], np.ndarray]):
    """Validate one search response; returns (nq, K) ids or None.

    Checks: 2xx status, ``nq`` rows of exactly ``K`` hits, no duplicate
    ids, scores sorted best-first, and every id admissible.
    """
    if response is None:
        return None
    if not 200 <= response.status < 300:
        bench.fail(f"search status {response.status}: {response.body}")
        return None
    rows = response.body.get("hits")
    if not isinstance(rows, list) or len(rows) != nq:
        bench.fail("search returned the wrong number of result rows")
        return None
    if any(len(row) != K for row in rows):
        bench.fail("search returned fewer than k hits")
        return None
    ids = np.array([[h["id"] for h in row] for row in rows], dtype=np.int64)
    scores = np.array([[h["score"] for h in row] for row in rows], dtype=np.float64)
    ordered = np.sort(ids, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        bench.fail("search returned duplicate ids")
        return None
    if (np.diff(scores, axis=1) < 0).any():
        bench.fail("search scores are not sorted best-first")
        return None
    if not allowed(ids).all():
        bench.fail("search returned a deleted, filtered-out or never-inserted id")
        return None
    return ids


def percentile_ms(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3 if len(values) else float("nan")


# -- data scopes, requests and recall -------------------------------------------------


@dataclass(eq=False)
class Scope:
    """The rows one search could see: its collection's data and live ids."""

    name: str
    ds: gen.Dataset
    live: np.ndarray

    def allowed(self, filtered: bool) -> Callable[[np.ndarray], np.ndarray]:
        live, attr = self.live, self.ds.attr

        def check(ids: np.ndarray) -> np.ndarray:
            pos = np.clip(np.searchsorted(live, ids), 0, max(len(live) - 1, 0))
            ok = live[pos] == ids if len(live) else np.zeros(ids.shape, dtype=bool)
            if filtered:
                vals = attr[np.clip(ids, 0, len(attr) - 1)]
                ok &= (vals >= gen.FILTER_LOW) & (vals <= gen.FILTER_HIGH)
            return ok

        return check

    def admissible(self, filtered: bool) -> np.ndarray:
        if not filtered:
            return self.live
        vals = self.ds.attr[self.live]
        return self.live[(vals >= gen.FILTER_LOW) & (vals <= gen.FILTER_HIGH)]


@dataclass
class Request:
    kind: str
    body: dict
    qidx: np.ndarray          #: rows of the query pool this request asks
    filtered: bool = False

    @property
    def nq(self) -> int:
        return len(self.qidx)


def nq1_plan(ds: gen.Dataset, params: dict, kind: str = "search",
             filtered_every: int = 0) -> List[Request]:
    """One request per pool query; every ``filtered_every``-th carries the filter."""
    plan = []
    for i, q in enumerate(ds.queries):
        filtered = bool(filtered_every) and i % filtered_every == filtered_every - 1
        body = {"field": FIELD, "queries": [q.tolist()], "k": K, "params": dict(params)}
        if filtered:
            body["filter"] = dict(FILTER_SPEC)
        plan.append(Request("filtered" if filtered else kind, body, np.array([i]), filtered))
    return plan


def batch_plan(ds: gen.Dataset, params: dict, nq: int) -> List[Request]:
    """Consecutive nq-query blocks of the pool."""
    plan = []
    for lo in range(0, len(ds.queries) - nq + 1, nq):
        rows = np.arange(lo, lo + nq)
        body = {"field": FIELD, "queries": ds.queries[rows].tolist(), "k": K,
                "params": dict(params)}
        plan.append(Request("batch", body, rows))
    return plan


class Recall:
    """Search results kept for recall, resolved after the timed phase."""

    def __init__(self):
        self.pending: List[Tuple[Request, np.ndarray, Scope]] = []
        self.found: Dict[str, List[np.ndarray]] = defaultdict(list)
        self.truth: Dict[str, List[np.ndarray]] = defaultdict(list)

    def record(self, req: Request, ids: np.ndarray, scope: Scope) -> None:
        self.pending.append((req, ids, scope))

    def resolve(self) -> None:
        """Exact ground truth, one brute-force pass per (scope, filtered)."""
        groups: Dict[Tuple[int, bool], List[int]] = defaultdict(list)
        for i, (req, __, scope) in enumerate(self.pending):
            groups[(id(scope), req.filtered)].append(i)
        for (__, filtered), members in groups.items():
            scope = self.pending[members[0]][2]
            rows = scope.admissible(filtered)
            qidx = np.concatenate([self.pending[i][0].qidx for i in members])
            truth = gen.exact_topk(scope.ds.queries[qidx], scope.ds.vectors[rows], rows, K)
            at = 0
            for i in members:
                req, ids, __ = self.pending[i]
                self.found[req.kind].append(ids)
                self.truth[req.kind].append(truth[at:at + req.nq])
                at += req.nq
        self.pending = []

    def value(self, kind: str) -> float:
        if not self.found.get(kind):
            return float("nan")
        return gen.recall(np.concatenate(self.found[kind]), np.concatenate(self.truth[kind]))


def search_once(bench: Bench, router, scope: Scope, req: Request,
                recall: Optional[Recall]) -> None:
    """One REST search against ``scope``'s collection, checked."""
    path = f"/collections/{scope.name}/search"
    ok, response = bench.call(req.kind, lambda: router.handle("POST", path, req.body))
    ids = hits_of(bench, response if ok else None, req.nq, scope.allowed(req.filtered))
    if ids is not None and recall is not None:
        recall.record(req, ids, scope)


def warm_up(bench: Bench, router, scope: Scope, plan: Sequence[Request], count: int) -> None:
    """``count`` checked requests whose latencies are dropped."""
    for req in plan[:count]:
        search_once(bench, router, scope, req, None)
        bench.take(req.kind)


# -- collection building ----------------------------------------------------------


def create_collection(bench: Bench, router, name: str) -> None:
    ok, response = bench.call("create", lambda: router.handle("POST", "/collections", {
        "name": name,
        "vector_fields": [{"name": FIELD, "dim": gen.DIM, "metric": "l2"}],
        "attribute_fields": ["attr"],
    }))
    bench.take("create")
    if ok and response.status != 201:
        bench.fail(f"create collection {name} status {response.status}")


def load(bench: Bench, router, name: str, ds: gen.Dataset, segments: int,
         index_type: str, index_params: dict, phases: Dict[str, float]) -> None:
    """Create ``name``; insert ``ds`` in ``segments`` flushed parts; index it.

    Adds the seconds of each phase (insert, flush, create_index) to ``phases``.
    """
    client = router.client
    create_collection(bench, router, name)
    rows = len(ds.vectors)
    bounds = np.linspace(0, rows, segments + 1).astype(int)
    for s in range(segments):
        for lo in range(bounds[s], bounds[s + 1], 2000):
            hi = min(lo + 2000, bounds[s + 1])
            ok, ids = bench.call("setup.insert", lambda: client.insert(
                name, {FIELD: ds.vectors[lo:hi], "attr": ds.attr[lo:hi]}))
            if ok and not np.array_equal(ids, np.arange(lo, hi)):
                bench.fail("insert returned unexpected row ids")
        bench.call("setup.flush", lambda: client.flush(name))
    bench.call("setup.create_index", lambda: client.create_index(
        name, FIELD, index_type, **index_params))
    for phase in ("insert", "flush", "create_index"):
        phases[phase] = phases.get(phase, 0.0) + sum(bench.take(f"setup.{phase}"))
    described = client.describe_collection(name)
    if described["num_segments"] != segments or described["num_entities"] != rows:
        bench.fail(f"{name}: built {described['num_segments']} segments / "
                   f"{described['num_entities']} rows, wanted {segments} / {rows}")


def timed_setups(bench: Bench, build: Callable[[Dict[str, float]], object], repeats: int):
    """Build ``repeats`` times; returns (last build, its phases, seconds list).

    In a traced run the build runs once, traced.
    """
    built, phases, times = None, {}, []
    if bench.recorder is not None:
        repeats = 1
        bench.trace_on()
    for __ in range(repeats):
        built, phases = None, {}  # let the previous server go first
        started = time.perf_counter()
        built = build(phases)
        times.append(time.perf_counter() - started)
    bench.trace_off()
    return built, phases, times


def live_memory(collection) -> Tuple[float, float, float]:
    """(segment MB, index MB, segment kernel-cache MB) over live segments."""
    total = index = cache = 0
    for segment in collection.lsm.live_segments():
        total += segment.memory_bytes()
        index += sum(ix.memory_bytes() for ix in segment.indexes.values())
        cache += segment.kernel_cache.memory_bytes()
    mb = float(1 << 20)
    return total / mb, index / mb, cache / mb


def graph_fixture(bench: Bench):
    """Scope, request plan and builder for the HNSW collection."""
    z = bench.sizes
    ds = gen.make_dataset(bench.seed + 2, z.graph_corpus, z.pool)
    index_params = {"M": HNSW_M, "ef_construction": z.hnsw_ef_construction}

    def build(router, phases):
        load(bench, router, GRAPH, ds, 1, "HNSW", index_params, phases)

    scope = Scope(GRAPH, ds, np.arange(z.graph_corpus))
    return scope, nq1_plan(ds, {"ef": HNSW_EF}, kind="graph"), build


# -- the mixed closed loop --------------------------------------------------------------


@dataclass
class Stream:
    """A source of operations: ``step()`` sends one, timed and checked."""

    step: Callable[[], None]
    count: int = 0                                  #: side streams: ops per phase
    ready: Callable[[], bool] = field(default=lambda: True)


class Cycle:
    """``step()`` applies ``fn`` to the next item, cycling through ``items``."""

    def __init__(self, fn: Callable[[object], None], items: Sequence[object]):
        self.fn, self.items, self.sent = fn, items, 0

    def __call__(self) -> None:
        self.fn(self.items[self.sent % len(self.items)])
        self.sent += 1


def mixed_loop(fill: Stream, sides: Sequence[Stream], seconds: float,
               fill_done: Callable[[], bool] = lambda: True,
               on_tick: Optional[Callable[[], None]] = None) -> None:
    """One closed loop for ``seconds``.

    Each side stream's ``count`` operations are spread evenly over the
    phase (operation ``i`` becomes due at ``i / count`` of it); the fill
    stream sends whenever no side operation is due, and always while it
    has had less than ``FILL_SHARE`` of the elapsed time.  After the
    deadline the remaining side operations run back to back, and the
    fill stream keeps going only until ``fill_done()`` (a job in
    progress finishes).
    """
    start = time.perf_counter()
    sent = [0] * len(sides)
    fill_s = 0.0
    while True:
        if on_tick is not None:
            on_tick()
        now = time.perf_counter()
        elapsed = now - start
        frac = elapsed / seconds
        due = None
        if frac >= 1 or fill_s >= FILL_SHARE * elapsed:
            due = next((j for j, side in enumerate(sides)
                        if sent[j] < min(side.count, frac * side.count) and side.ready()),
                       None)
        if due is not None:
            sides[due].step()
            sent[due] += 1
            continue
        if frac >= 1 and fill_done() and all(n >= side.count for n, side in zip(sent, sides)):
            return
        fill.step()
        fill_s += time.perf_counter() - now


def traced_alternation(bench: Bench) -> Optional[Callable[[], None]]:
    """In a traced run, switch tracing on/off every 0.25 s (at least 8
    blocks per phase), so traced and untraced requests interleave."""
    if bench.recorder is None:
        return None
    block_seconds = min(0.25, bench.seconds / 8)
    state = {"next": time.perf_counter() + block_seconds, "on": False}

    def on_tick() -> None:
        now = time.perf_counter()
        if now < state["next"]:
            return
        state["next"] = now + block_seconds
        state["on"] = not state["on"]
        (bench.trace_on if state["on"] else bench.trace_off)()

    return on_tick


class Inserter:
    """Side stream of small inserts of fresh rows into a loaded collection.

    Rows come from a separate seeded draw; their ids continue after the
    collection's rows.  They stay in the memtable (invisible to
    searches) until :meth:`finish` flushes them.
    """

    def __init__(self, bench: Bench, router, name: str, first_row: int, count: int):
        self.bench, self.client, self.name = bench, router.client, name
        self.first_row, self.rows_per = first_row, SIDE_ROWS_PER_INSERT
        self.extra = gen.make_dataset(bench.seed + 7_919, count * self.rows_per, 0)
        self.sent = 0
        #: untraced insert/flush events, for rows per second
        self.writes: List[Tuple[str, float, float]] = []
        self.fs = self.client.server.get_collection(name).lsm.fs
        self.written_before = self.fs.bytes_written

    def step(self) -> None:
        lo = self.sent * self.rows_per
        rows = {FIELD: self.extra.vectors[lo:lo + self.rows_per],
                "attr": self.extra.attr[lo:lo + self.rows_per]}
        self.sent += 1
        ok, ids = self.bench.call("insert", lambda: self.client.insert(self.name, rows))
        if not ok:
            return
        if self.bench.last_event is not None:
            self.writes.append(self.bench.last_event)
        first = self.first_row + lo
        if not np.array_equal(ids, np.arange(first, first + self.rows_per)):
            self.bench.fail("insert returned unexpected row ids")

    def finish(self) -> float:
        """Flush and check the entity count; returns write amplification."""
        ok, __ = self.bench.call("flush", lambda: self.client.flush(self.name))
        if ok and self.bench.last_event is not None:
            self.writes.append(self.bench.last_event)
        self.rows = self.sent * self.rows_per
        entities = self.client.count(self.name)
        if entities != self.first_row + self.rows:
            self.bench.fail(f"entity count {entities} != {self.first_row + self.rows}")
        return (self.fs.bytes_written - self.written_before) / max(self.rows * USER_BYTES_PER_ROW, 1)


# -- work counts ------------------------------------------------------------------------


def explain_counts(router, name: str, requests: Sequence[Request],
                   prefix: str = "") -> Dict[str, float]:
    """Work counts from the program's explain profile: index counters
    per query, segments scanned per request.

    Runs after the timed phase, with tracing off.
    """
    totals: Dict[str, float] = defaultdict(float)
    queries = 0
    for req in requests:
        body = req.body
        spec = body.get("filter")
        flt = (spec["attribute"], spec["low"], spec["high"]) if spec else None
        out = router.client.search(
            name, FIELD, np.asarray(body["queries"], dtype=np.float32), K,
            filter=flt, explain=True, **body.get("params", {}))
        profile = out["profile"]
        counters = profile["total_counters"]
        for key in ("distance_evals", "rows_scanned", "buckets_probed", "bytes_read"):
            totals[f"{prefix}index.{key}"] += counters.get(key, 0)
        totals[f"{prefix}lsm.segments_scanned"] += _count_nodes(profile["root"], "segment.search")
        queries += req.nq
    out = {key: value / max(queries, 1) for key, value in totals.items()}
    out[f"{prefix}lsm.segments_scanned"] = totals[f"{prefix}lsm.segments_scanned"] / max(
        len(requests), 1)
    out[f"{prefix}index.evals_per_result"] = out.get(f"{prefix}index.distance_evals", 0.0) / K
    return out


def _count_nodes(node: dict, name: str) -> int:
    return (node.get("name") == name) + sum(_count_nodes(c, name) for c in node.get("children", []))


# -- result assembly ----------------------------------------------------------------------


def _finish_e2e(bench: Bench, recall: Recall, metrics: Dict[str, float],
                writers: Sequence[Tuple[int, Sequence[Tuple[str, float, float]]]],
                ) -> Dict[str, float]:
    """Add the latency, throughput and recall metrics; check every metric.

    ``writers`` are (rows written, their insert/delete/flush events) per
    ingest job or insert stream; ``ingest_rows_s`` is their median rate.
    """
    def pct(kind: str, q: float) -> float:
        return percentile_ms(bench.normalised([kind]), q)

    batch = bench.normalised(["batch"])
    metrics.update({
        "search_p50_ms": pct("search", 50),
        "search_p95_ms": pct("search", 95),
        "filtered_p50_ms": pct("filtered", 50),
        "filtered_p95_ms": pct("filtered", 95),
        "graph_p50_ms": pct("graph", 50),
        "graph_p95_ms": pct("graph", 95),
        "insert_p50_ms": pct("insert", 50),
        "insert_p99_ms": pct("insert", 99),
        "batch_qps": bench.sizes.batch_nq / np.median(batch) if len(batch) else float("nan"),
        "ingest_rows_s": statistics.median(
            rows / bench.normalised_events(events).sum() for rows, events in writers),
        "recall_at_10": recall.value("search"),
        "filtered_recall_at_10": recall.value("filtered"),
        "graph_recall_at_10": recall.value("graph"),
    })
    bench.notes["samples"] = dict(sorted(Counter(kind for kind, __, __ in bench.events).items()))
    bench.notes["reference_us"] = bench.reference_us()
    bench.notes["raw_ms"] = {
        f"{kind}_p{q}": percentile_ms(bench.raw([kind]), q)
        for kind in ("search", "filtered", "graph", "insert", "batch") for q in (50, 95, 99)
    }
    bench.notes["batch_recall_at_10"] = recall.value("batch")
    for key in ("recall_at_10", "filtered_recall_at_10", "graph_recall_at_10",
                "batch_recall_at_10"):
        value = metrics.get(key, bench.notes.get(key))
        if value is None or not value >= RECALL_FLOOR:
            bench.fail(f"{key}={value} below floor {RECALL_FLOOR}")
    for name in END_TO_END_UNITS:
        value = metrics.get(name)
        if value is None or not np.isfinite(value) or value <= 0:
            bench.fail(f"metric {name} was not measured ({value})")
    return {name: metrics.get(name, float("nan")) for name in END_TO_END_UNITS}


def _overhead_pct(bench: Bench, kinds: Sequence[str]) -> float:
    traced = [v for k in kinds for v in bench.traced.get(k, [])]
    plain = bench.raw(kinds)
    if not traced or not len(plain):
        return 0.0
    return 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)


def _trace_report(bench: Bench, collection, search_kinds: Sequence[str],
                  counts: Dict[str, float], phases: Dict[str, float],
                  memory: Tuple[float, float, float], rows_per_insert: int) -> Dict[str, float]:
    from perfbench.layers import PER_LAYER_UNITS, layer_metrics

    out = layer_metrics(bench.recorder, search_kinds, rows_per_insert)
    error = out.pop("_attribution_error_s")
    # Self times of a request sum to its root span by construction; a
    # gap means the span tree is malformed (e.g. a span left open).
    if error > 1e-6:
        bench.fail(f"per-request self times miss the request time by {error:.3g}s")
    out.update(counts)
    lsm = collection.lsm
    stats = lsm.stats()
    out["bufferpool.hit_rate"] = lsm.bufferpool.hit_rate()
    out["lsm.flush_count"] = float(stats["flush_count"])
    out["lsm.merge_count"] = float(stats["merge_count"])
    out["fs.bytes_written"] = float(lsm.fs.bytes_written)
    out["fs.puts"] = float(lsm.fs.put_count)
    out["setup.insert_s"] = phases.get("insert", 0.0)
    out["setup.flush_s"] = phases.get("flush", 0.0)
    out["setup.create_index_s"] = phases.get("create_index", 0.0)
    out["segment.index_mb"], out["segment.kernel_cache_mb"] = memory[1], memory[2]
    out["trace.overhead_pct"] = _overhead_pct(bench, search_kinds)
    if bench.hooks is not None and bench.hooks.missing:
        bench.notes["hooks_missing"] = bench.hooks.missing
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER_UNITS}


# -- point ---------------------------------------------------------------------------------


def run_point(bench: Bench) -> Dict[str, float]:
    """``point``: a server of three indexed collections, served.

    Fill: nq=1 searches on the IVF_FLAT collection, 1 in 3 filtered.
    Side streams: nq=200 batches on the IVF_SQ8 collection, nq=1
    searches on the HNSW collection, and small inserts into the
    IVF_FLAT collection (flushed after the phase).
    """
    from repro import MilvusLite, RestRouter

    z = bench.sizes
    ivf = Scope(IVF, gen.make_dataset(bench.seed, z.corpus, z.pool), np.arange(z.corpus))
    sq8 = Scope(SQ8, gen.make_dataset(bench.seed + 1, z.sq8_corpus, z.pool),
                np.arange(z.sq8_corpus))
    graph, graph_plan, build_graph = graph_fixture(bench)
    ivf_params = {"nprobe": z.nprobe}

    def build(phases):
        router = RestRouter(MilvusLite())
        load(bench, router, IVF, ivf.ds, SEGMENTS, "IVF_FLAT", {"nlist": z.nlist}, phases)
        load(bench, router, SQ8, sq8.ds, SEGMENTS, "IVF_SQ8", {"nlist": z.nlist}, phases)
        build_graph(router, phases)
        return router

    router, phases, setup_times = timed_setups(bench, build, z.setup_repeats)
    coll = router.client.server.get_collection(IVF)

    plan = nq1_plan(ivf.ds, ivf_params, filtered_every=3)
    batches = batch_plan(sq8.ds, ivf_params, z.batch_nq)
    recall = Recall()

    def serving(scope: Scope, requests: Sequence[Request]) -> Cycle:
        return Cycle(lambda req: search_once(bench, router, scope, req, recall), requests)

    inserter = Inserter(bench, router, IVF, z.corpus, z.side_inserts)
    sides = [
        Stream(inserter.step, z.side_inserts),
        Stream(serving(sq8, batches), z.side_batches),
        Stream(serving(graph, graph_plan), z.side_graph),
    ]
    warm_up(bench, router, ivf, plan, z.warmup)
    warm_up(bench, router, sq8, batches, 1)
    warm_up(bench, router, graph, graph_plan, z.warmup)
    mixed_loop(Stream(serving(ivf, plan)), sides, bench.seconds,
               on_tick=traced_alternation(bench))
    bench.trace_off()
    memory = live_memory(coll)
    counts = {}
    if bench.recorder is not None:
        counts = explain_counts(router, IVF, plan[:z.explain_queries])
        counts.update(explain_counts(router, SQ8, batches[:1], prefix="batch."))
        counts.update(explain_counts(router, GRAPH, graph_plan[:z.explain_queries],
                                     prefix="graph."))
    write_amp = inserter.finish()
    recall.resolve()
    if bench.recorder is not None:
        return _trace_report(bench, coll, ("search", "filtered"), counts, phases, memory,
                             SIDE_ROWS_PER_INSERT)
    bench.notes["setup_times_s"] = setup_times
    return _finish_e2e(bench, recall, {
        "setup_s": bench.setup_seconds(setup_times),
        "write_amp": write_amp,
        "mem_mb": memory[0],
    }, [(inserter.rows, inserter.writes)])


# -- ingest --------------------------------------------------------------------------------


class IngestJob:
    """One fixed ingest job into a fresh, empty collection.

    Each :meth:`step` sends one small insert through the SDK (numpy
    payload); every ``INGEST_DELETE_EVERY``-th step also deletes a few
    earlier rows, and once ``K`` live rows are visible each step also
    sends one nq=1 REST search.  The last step flushes.  Side streams
    may search the job's collection through :meth:`search` at any time.

    Visibility follows the engine's contract: rows and deletes become
    visible at a memtable freeze, which (inline flush mode) happens
    inside the insert call that crosses the memtable threshold, so
    ``lsm.unflushed_rows`` read after each insert tells which rows are
    readable.
    """

    def __init__(self, bench: Bench, ds: gen.Dataset, plan: Sequence[Request], recall: Recall):
        from repro import LSMConfig, MilvusLite, RestRouter, ServerConfig

        z = self.sizes = bench.sizes
        self.bench, self.ds, self.plan, self.recall = bench, ds, plan, recall
        self.router = RestRouter(MilvusLite(ServerConfig(lsm=LSMConfig(
            memtable_flush_bytes=z.ingest_memtable_bytes,
            index_build_min_rows=z.ingest_index_min_rows,
        ))))
        create_collection(bench, self.router, INGEST)
        self.client = self.router.client
        self.lsm = self.client.server.get_collection(INGEST).lsm
        self.written_before = self.lsm.fs.bytes_written
        rows_total = len(ds.vectors)
        self.rng = np.random.default_rng(bench.seed + 104_729)
        self.deleted = np.zeros(rows_total, dtype=bool)   # delete issued
        self.applied = np.zeros(rows_total, dtype=bool)   # delete visible
        self.pending: List[int] = []
        self.inserted = self.unflushed = self.steps = 0
        #: what reads can see, replaced at every freeze
        self.scope: Optional[Scope] = None
        #: untraced insert/delete/flush events, for rows per second
        self.writes: List[Tuple[str, float, float]] = []
        self.done = False
        self.write_amp = float("nan")

    def ready(self, filtered: bool = False) -> bool:
        return self.scope is not None and len(self.scope.admissible(filtered)) >= K

    def search(self, req: Request) -> None:
        # Ids may come from any live row, visible or not yet: the check
        # admits inserted rows whose delete has not been applied.
        live = np.flatnonzero(~self.applied[:self.inserted])
        check = Scope(INGEST, self.ds, live).allowed(req.filtered)
        path = f"/collections/{INGEST}/search"
        ok, response = self.bench.call(
            req.kind, lambda: self.router.handle("POST", path, req.body))
        ids = hits_of(self.bench, response if ok else None, req.nq, check)
        if ids is not None:
            self.recall.record(req, ids, self.scope)

    def _write(self, kind: str, fn):
        ok, result = self.bench.call(kind, fn)
        if ok and self.bench.last_event is not None:
            self.writes.append(self.bench.last_event)
        return ok, result

    def step(self) -> None:
        z, bench, client = self.sizes, self.bench, self.client
        lo, hi = self.inserted, self.inserted + INGEST_ROWS_PER_INSERT
        ok, ids = self._write("insert", lambda: client.insert(
            INGEST, {FIELD: self.ds.vectors[lo:hi], "attr": self.ds.attr[lo:hi]}))
        if ok and not np.array_equal(ids, np.arange(lo, hi)):
            bench.fail("insert returned unexpected row ids")
        self.inserted = hi
        unflushed = self.lsm.unflushed_rows
        if unflushed < self.unflushed + (hi - lo):
            # This insert froze the memtable: its rows and every delete
            # issued before it are now visible.
            self._publish(self.inserted - unflushed)
        self.unflushed = unflushed
        self.steps += 1
        if self.steps % INGEST_DELETE_EVERY == 0:
            victims = self.rng.choice(np.flatnonzero(~self.deleted[:self.inserted]),
                                      size=INGEST_DELETE_ROWS, replace=False)
            ok, __ = self._write("delete", lambda: client.delete(INGEST, victims.tolist()))
            if ok:
                self.deleted[victims] = True
                self.pending.extend(victims.tolist())
        if self.ready():
            self.search(self.plan[self.steps % len(self.plan)])
        if self.steps == z.ingest_inserts:
            self._finish()

    def _publish(self, visible: int) -> None:
        self.applied[self.pending] = True
        self.pending = []
        self.scope = Scope(INGEST, self.ds, np.flatnonzero(~self.applied[:visible]))

    def _finish(self) -> None:
        self._write("flush", lambda: self.client.flush(INGEST))
        self._publish(self.inserted)
        expected = self.inserted - int(self.deleted.sum())
        entities = self.client.count(INGEST)
        if entities != expected:
            self.bench.fail(f"entity count {entities} != inserts - deletes = {expected}")
        self.write_amp = (self.lsm.fs.bytes_written - self.written_before) / (
            self.inserted * USER_BYTES_PER_ROW)
        self.done = True


def run_ingest(bench: Bench) -> Dict[str, float]:
    """``ingest``: fixed ingest jobs back to back, with reads alongside.

    Set-up builds the HNSW collection (the server's standing data).
    Fill: ingest jobs, each on a fresh collection.  Side streams:
    filtered nq=1 and nq=200 searches on the job's collection, and nq=1
    searches on the HNSW collection.
    """
    from repro import MilvusLite, RestRouter

    z = bench.sizes
    ds = gen.make_dataset(bench.seed, z.ingest_inserts * INGEST_ROWS_PER_INSERT, z.pool)
    graph, graph_plan, build_graph = graph_fixture(bench)

    def build(phases):
        router = RestRouter(MilvusLite())
        build_graph(router, phases)
        return router

    graph_router, phases, setup_times = timed_setups(bench, build, z.setup_repeats)
    params = {"nprobe": z.nprobe}
    plan = nq1_plan(ds, params)
    batches = batch_plan(ds, params, z.batch_nq)
    recall = Recall()
    jobs = [IngestJob(bench, ds, plan, recall)]

    def fill_step() -> None:
        if jobs[-1].done:
            jobs[-1].router = jobs[-1].client = None  # release the finished job
            jobs.append(IngestJob(bench, ds, plan, recall))
        jobs[-1].step()

    def on_job(requests: Sequence[Request], count: int, ready: Callable[[], bool]) -> Stream:
        return Stream(Cycle(lambda req: jobs[-1].search(req), requests), count, ready=ready)

    sides = [
        on_job(nq1_plan(ds, params, filtered_every=1), z.side_filtered,
               lambda: jobs[-1].ready(filtered=True)),
        # Batches read a finished job's collection: every job ends in the
        # same state, so every batch sees the same data.
        on_job(batches, z.side_batches, lambda: jobs[-1].done),
        Stream(Cycle(lambda req: search_once(bench, graph_router, graph, req, recall),
                     graph_plan), z.side_graph),
    ]
    warm_up(bench, graph_router, graph, graph_plan, z.warmup)
    mixed_loop(Stream(fill_step), sides, bench.seconds,
               fill_done=lambda: jobs[-1].done, on_tick=traced_alternation(bench))
    bench.trace_off()
    last = jobs[-1]
    coll = last.client.server.get_collection(INGEST)
    memory = live_memory(coll)
    recall.resolve()
    if bench.recorder is not None:
        counts = explain_counts(last.router, INGEST, plan[:z.explain_queries])
        counts.update(explain_counts(last.router, INGEST, batches[:1], prefix="batch."))
        counts.update(explain_counts(graph_router, GRAPH, graph_plan[:z.explain_queries],
                                     prefix="graph."))
        return _trace_report(bench, coll, ("search",), counts, phases, memory,
                             INGEST_ROWS_PER_INSERT)
    bench.notes["jobs"] = len(jobs)
    bench.notes["setup_times_s"] = setup_times
    return _finish_e2e(bench, recall, {
        "setup_s": bench.setup_seconds(setup_times),
        "write_amp": statistics.median(j.write_amp for j in jobs),
        "mem_mb": memory[0],
    }, [(j.inserted, j.writes) for j in jobs])


WORKLOADS = ("point", "ingest")


def run(workload: str, bench: Bench) -> Dict[str, float]:
    return run_ingest(bench) if workload == "ingest" else run_point(bench)
