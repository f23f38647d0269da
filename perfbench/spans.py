"""Benchmark-side tracing: spans recorded around calls into each layer.

The program under test is not modified.  :class:`Hooks` wraps the
public entry points of each layer (patched at class or module level)
so every call records a span: name, start, end, parent span and
request id.  Spans stay in memory (:class:`SpanRecorder`) and are
reduced after the run: a span's *self time* is its duration minus the
part of that interval covered by its child spans (:func:`self_times`).
:meth:`Hooks.remove` puts back the exact original attribute objects.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: root span opened by the benchmark around every timed request.
REQUEST_SPAN = "bench.request"

#: a span name, or a function of the wrapped call's first argument
#: (``self``) returning one.
Namer = Union[str, Callable[[object], str]]


class SpanRecorder:
    """Columnar in-memory span store.

    A span parents to the innermost open span and carries the current
    request id.  Spans are recorded on the client thread only: a call
    made on any other thread is not recorded (a run fails anyway if
    another thread exists while it measures).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        #: span index -> measured value (e.g. bytes for ``fs.write``)
        self.values: Dict[int, float] = {}
        #: request id -> request kind (``"search"``, ``"insert"``, ...)
        self.request_kinds: Dict[int, str] = {}
        self._client = threading.get_ident()
        self._stack: List[int] = []
        self._request = -1

    def open(self, name: str) -> int:
        """Open a span; returns its index, or -1 off the client thread."""
        if threading.get_ident() != self._client:
            return -1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        if idx < 0:
            return
        self.ends[idx] = self.clock()
        if idx in self._stack:  # drop it and any inner span left open
            del self._stack[self._stack.index(idx):]

    @contextmanager
    def request(self, kind: str) -> Iterator[int]:
        """Open a new request: a root ``bench.request`` span + fresh id."""
        rid = len(self.request_kinds)
        self.request_kinds[rid] = kind
        previous, self._request = self._request, rid
        idx = self.open(REQUEST_SPAN)
        try:
            yield idx
        finally:
            self.close(idx)
            self._request = previous

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def __len__(self) -> int:
        return len(self.names)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so back-to-back, nested and concurrent
    children are all handled.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out: List[float] = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            s, e = max(starts[c], lo), min(ends[c], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


class RequestTable:
    """Per-request reduction of a recorder: self time and calls per name."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.self_s = self_times(recorder.starts, recorder.ends, recorder.parents)
        #: request id -> {span name: summed self seconds}
        self.self_by_request: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: request id -> {span name: call count}
        self.calls_by_request: Dict[int, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        #: request id -> duration of its root span
        self.latency: Dict[int, float] = {}
        for idx, rid in enumerate(recorder.requests):
            if rid < 0:
                continue
            name = recorder.names[idx]
            self.self_by_request[rid][name] += self.self_s[idx]
            self.calls_by_request[rid][name] += 1
            if name == REQUEST_SPAN and recorder.parents[idx] < 0:
                self.latency[rid] = recorder.duration(idx)

    def request_ids(self, kinds: Sequence[str]) -> List[int]:
        wanted = set(kinds)
        return [rid for rid, kind in sorted(self.recorder.request_kinds.items())
                if kind in wanted and rid in self.latency]

    def mean_self(self, names: Sequence[str], rids: Sequence[int]) -> float:
        """Mean over ``rids`` of the per-request self seconds of ``names``."""
        if not rids:
            return 0.0
        total = sum(self.self_by_request[rid].get(n, 0.0) for rid in rids for n in names)
        return total / len(rids)

    def mean_calls(self, names: Sequence[str], rids: Sequence[int]) -> float:
        if not rids:
            return 0.0
        total = sum(self.calls_by_request[rid].get(n, 0) for rid in rids for n in names)
        return total / len(rids)

    def mean_latency(self, rids: Sequence[int]) -> float:
        return sum(self.latency[r] for r in rids) / len(rids) if rids else 0.0

    def attribution_error(self, rids: Sequence[int]) -> float:
        """Largest |sum of self times - root duration| over ``rids`` (s)."""
        worst = 0.0
        for rid in rids:
            total = sum(self.self_by_request[rid].values())
            worst = max(worst, abs(total - self.latency[rid]))
        return worst

    def requests_containing(self, names: Sequence[str], rids: Sequence[int]) -> int:
        """How many of ``rids`` made at least one call to any of ``names``."""
        return sum(
            1 for rid in rids
            if any(self.calls_by_request[rid].get(n, 0) for n in names)
        )


def span_durations(recorder: SpanRecorder, name: str) -> List[float]:
    """Durations of every span called ``name``, in open order."""
    return [recorder.duration(i) for i, n in enumerate(recorder.names) if n == name]


def span_values(recorder: SpanRecorder, name: str, under: Optional[str] = None,
                requests: Optional[Sequence[int]] = None) -> float:
    """Sum of recorded values of ``name`` spans, optionally only those
    whose direct parent is a span called ``under`` and only those inside
    the given request ids."""
    wanted = None if requests is None else set(requests)
    total = 0.0
    for idx, value in recorder.values.items():
        if recorder.names[idx] != name:
            continue
        if wanted is not None and recorder.requests[idx] not in wanted:
            continue
        parent = recorder.parents[idx]
        if under is not None and (parent < 0 or recorder.names[parent] != under):
            continue
        total += value
    return total


#: one patch target: owner (class or module), attribute name, span
#: name, and an optional ``measure(args, kwargs) -> number`` stored as
#: the span's value.
Target = Tuple[object, str, Namer, Optional[Callable]]


class Hooks:
    """Install span-recording wrappers over ``targets``; restore exactly.

    Only attributes defined directly on the owner (``vars(owner)``) are
    patched, so a subclass inheriting the method is covered by the one
    patch on its base.  Targets the program no longer defines are
    skipped and listed in :attr:`missing`.
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target]):
        self.recorder = recorder
        self.targets = list(targets)
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> "Hooks":
        if self._saved:
            raise RuntimeError("hooks already installed")
        self.missing = []
        for owner, attr, namer, measure in self.targets:
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, namer, measure))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Hooks":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, raw, namer: Namer, measure):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_fn(raw.__func__, namer, measure))
        return self._wrap_fn(raw, namer, measure)

    def _wrap_fn(self, fn, namer: Namer, measure):
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args[0])
            idx = recorder.open(name)
            if measure is not None and idx >= 0:
                recorder.values[idx] = measure(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(idx)

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper
