"""RESTful-style JSON API (paper Sec. 2.1).

A transport-agnostic router: ``handle(method, path, body)`` takes and
returns JSON-compatible dicts, so any HTTP framework can mount it with
a three-line adapter.  Routes follow the Milvus REST conventions:

=======  ==================================  =============================
Method   Path                                Action
=======  ==================================  =============================
POST     /collections                        create collection
GET      /collections                        list collections
GET      /collections/{name}                 describe collection
DELETE   /collections/{name}                 drop collection
POST     /collections/{name}/entities        insert entities
DELETE   /collections/{name}/entities        delete by ids
POST     /collections/{name}/search          vector / filtered search
POST     /collections/{name}/multi_search    multi-vector search
POST     /collections/{name}/index           build index
POST     /explain                            EXPLAIN/ANALYZE one search
POST     /flush                              flush one or all collections
GET      /metrics                            Prometheus text exposition
GET      /traces                             known trace ids
GET      /traces/{trace_id}                  one query's span tree
GET      /profiles                           retained profile trace ids
GET      /profiles/{trace_id}                one query's work profile
GET      /slowlog                            slow-query ring buffer
GET      /events                             operational event journal
GET      /jobs                               background-job registry
GET      /health                             watchdog health rollup
GET      /usage                              per-collection usage accounting
GET      /usage/{name}                       one collection's usage record
=======  ==================================  =============================

The observability routes read the process-global handle from
:mod:`repro.obs`; with observability disabled ``/metrics`` returns the
placeholder comment, ``/traces`` is empty, and ``/health`` reports
``"unknown"``.

List-shaped routes (``/slowlog``, ``/traces``, ``/events``) accept a
``?limit=N`` query parameter and return the **newest** ``N`` items,
newest first; a non-integer or out-of-range limit is a ``400``.
"""

from __future__ import annotations

import os
import re
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.client.sdk import MilvusClient
from repro.core import MilvusLite, MilvusError
from repro.obs import enabled as obs_enabled, get_obs
from repro.utils.retry import RetryExhaustedError, RetryPolicy

#: anchor for ``uptime_seconds`` in ``GET /stats`` — monotonic, module
#: import time (never ``time.time()``; wall clocks step).
_PROCESS_START = time.perf_counter()

#: upper bound for ``?limit=`` — keeps a hostile query from asking the
#: router to materialise unbounded history (the stores are bounded
#: anyway; this just makes the contract explicit).
_MAX_LIMIT = 100_000


@dataclass
class RestResponse:
    """Status code + JSON-compatible body."""

    status: int
    body: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class RestRouter:
    """Route table + handlers over one embedded server.

    A :class:`RetryPolicy` (optional) rides on the underlying SDK
    client: transient storage faults cost retries, and only an
    exhausted budget surfaces — as ``503 Service Unavailable``, the
    REST contract for "try again later".
    """

    def __init__(
        self,
        server: Optional[MilvusLite] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.client = MilvusClient(server or MilvusLite(), retry=retry)
        self._routes: List[Tuple[str, re.Pattern, object]] = [
            ("POST", re.compile(r"^/collections$"), self._create_collection),
            ("GET", re.compile(r"^/collections$"), self._list_collections),
            ("GET", re.compile(r"^/collections/(?P<name>\w+)$"), self._describe),
            ("DELETE", re.compile(r"^/collections/(?P<name>\w+)$"), self._drop),
            ("POST", re.compile(r"^/collections/(?P<name>\w+)/entities$"), self._insert),
            ("DELETE", re.compile(r"^/collections/(?P<name>\w+)/entities$"), self._delete),
            ("POST", re.compile(r"^/collections/(?P<name>\w+)/search$"), self._search),
            ("POST", re.compile(r"^/collections/(?P<name>\w+)/multi_search$"), self._multi_search),
            ("POST", re.compile(r"^/collections/(?P<name>\w+)/index$"), self._index),
            ("POST", re.compile(r"^/explain$"), self._explain),
            ("POST", re.compile(r"^/flush$"), self._flush),
            ("GET", re.compile(r"^/stats$"), self._server_stats),
            ("GET", re.compile(r"^/collections/(?P<name>\w+)/stats$"), self._collection_stats),
            ("GET", re.compile(r"^/metrics$"), self._metrics),
            ("GET", re.compile(r"^/traces$"), self._traces),
            ("GET", re.compile(r"^/traces/(?P<trace_id>\w+)$"), self._trace),
            ("GET", re.compile(r"^/profiles$"), self._profiles),
            ("GET", re.compile(r"^/profiles/(?P<trace_id>\w+)$"), self._profile),
            ("GET", re.compile(r"^/slowlog$"), self._slowlog),
            ("GET", re.compile(r"^/events$"), self._events),
            ("GET", re.compile(r"^/jobs$"), self._jobs),
            ("GET", re.compile(r"^/health$"), self._health),
            ("GET", re.compile(r"^/usage$"), self._usage),
            ("GET", re.compile(r"^/usage/(?P<name>\w+)$"), self._usage_one),
        ]

    def handle(self, method: str, path: str, body: Optional[dict] = None) -> RestResponse:
        """Dispatch one request; errors map to 4xx with a message body.

        ``path`` may carry a query string (``/events?limit=10``); it is
        split off and parsed here so every handler sees a plain path
        plus a flat ``{key: last value}`` dict.  Every request runs
        inside a ``rest.request`` span and lands in
        ``rest_requests_total{method,status}`` / ``rest_request_seconds``.
        """
        path, _, raw_query = path.partition("?")
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(
                raw_query, keep_blank_values=True
            ).items()
        }
        obs = get_obs()
        with obs.tracer.span("rest.request", method=method.upper(), path=path):
            started = time.perf_counter()
            response = self._dispatch(method, path, body or {}, query)
            elapsed = time.perf_counter() - started
        obs.registry.counter(
            "rest_requests_total", method=method.upper(), status=response.status
        ).inc()
        obs.registry.histogram("rest_request_seconds").observe(elapsed)
        return response

    def _dispatch(
        self, method: str, path: str, body: dict, query: Dict[str, str]
    ) -> RestResponse:
        for route_method, pattern, handler in self._routes:
            if route_method != method.upper():
                continue
            match = pattern.match(path)
            if match:
                try:
                    return handler(body, query, **match.groupdict())
                except RetryExhaustedError as exc:
                    return RestResponse(
                        503,
                        {"error": str(exc), "attempts": exc.attempts,
                         "retryable": True},
                    )
                except MilvusError as exc:
                    return RestResponse(400, {"error": str(exc)})
                except KeyError as exc:
                    return RestResponse(400, {"error": f"missing field: {exc}"})
                except (ValueError, TypeError) as exc:
                    return RestResponse(400, {"error": str(exc)})
        return RestResponse(404, {"error": f"no route for {method} {path}"})

    # -- handlers -----------------------------------------------------------

    def _create_collection(self, body: dict, query: Dict[str, str]) -> RestResponse:
        name = body["name"]
        vector_fields = {
            f["name"]: (int(f["dim"]), f.get("metric", "l2"))
            for f in body["vector_fields"]
        }
        categoricals = []
        for entry in body.get("categorical_fields", ()):
            if isinstance(entry, str):
                categoricals.append(entry)
            else:
                categoricals.append((entry["name"], entry.get("index_kind", "auto")))
        self.client.create_collection(
            name, vector_fields, body.get("attribute_fields", ()),
            categorical_fields=categoricals,
        )
        return RestResponse(201, {"name": name})

    def _list_collections(self, body: dict, query: Dict[str, str]) -> RestResponse:
        return RestResponse(200, {"collections": self.client.list_collections()})

    def _describe(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        if not self.client.has_collection(name):
            return RestResponse(404, {"error": f"collection {name!r} not found"})
        return RestResponse(200, self.client.describe_collection(name))

    def _drop(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        self.client.drop_collection(name)
        return RestResponse(200, {"dropped": name})

    def _insert(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        data = {key: np.asarray(value) for key, value in body["data"].items()}
        ids = self.client.insert(name, data)
        return RestResponse(201, {"ids": ids.tolist()})

    def _delete(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        self.client.delete(name, body["ids"])
        return RestResponse(200, {"deleted": len(body["ids"])})

    @staticmethod
    def _parse_filter(filter_spec):
        if filter_spec is None:
            return None
        if "op" in filter_spec:
            # categorical: {"attribute": "color", "op": "in"|"==",
            #               "values": [...]} (single value for "==")
            op = filter_spec["op"]
            values = filter_spec["values"]
            if op == "==" and isinstance(values, list):
                values = values[0]
            return (filter_spec["attribute"], op, values)
        return (
            filter_spec["attribute"],
            float(filter_spec["low"]),
            float(filter_spec["high"]),
        )

    def _search(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        queries = np.asarray(body["queries"], dtype=np.float32)
        filter_spec = self._parse_filter(body.get("filter"))
        hits = self.client.search(
            name, body["field"], queries, int(body.get("k", 10)),
            filter=filter_spec, **body.get("params", {}),
        )
        return RestResponse(200, {
            "hits": [
                [{"id": int(i), "score": float(s)} for i, s in row] for row in hits
            ]
        })

    def _explain(self, body: dict, query: Dict[str, str]) -> RestResponse:
        """EXPLAIN/ANALYZE: run the search, return plan + work profile."""
        name = body["collection"]
        if not self.client.has_collection(name):
            return RestResponse(404, {"error": f"collection {name!r} not found"})
        queries = np.asarray(body["queries"], dtype=np.float32)
        filter_spec = self._parse_filter(body.get("filter"))
        explained = self.client.search(
            name, body["field"], queries, int(body.get("k", 10)),
            filter=filter_spec, explain=True, **body.get("params", {}),
        )
        return RestResponse(200, {
            "hits": [
                [{"id": int(i), "score": float(s)} for i, s in row]
                for row in explained["hits"]
            ],
            "plan": explained["plan"],
            "profile": explained["profile"],
        })

    def _multi_search(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        queries = {
            f: np.asarray(v, dtype=np.float32) for f, v in body["queries"].items()
        }
        hits = self.client.multi_vector_search(
            name, queries, int(body.get("k", 10)),
            weights=body.get("weights"), method=body.get("method", "auto"),
        )
        return RestResponse(200, {
            "hits": [
                [{"id": int(i), "score": float(s)} for i, s in row] for row in hits
            ]
        })

    def _index(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        count = self.client.create_index(
            name, body["field"], body.get("index_type", "IVF_FLAT"),
            **body.get("params", {}),
        )
        return RestResponse(200, {"segments_indexed": count})

    def _flush(self, body: dict, query: Dict[str, str]) -> RestResponse:
        self.client.flush(body.get("collection"))
        return RestResponse(200, {"flushed": body.get("collection", "all")})

    def _server_stats(self, body: dict, query: Dict[str, str]) -> RestResponse:
        stats = self.client.server.stats()
        obs = get_obs()
        uptime = time.perf_counter() - _PROCESS_START
        obs.registry.gauge("process_uptime_seconds").set(uptime)
        stats["uptime_seconds"] = uptime
        stats["version"] = repro.__version__
        stats["flags"] = {
            "observability": obs_enabled(),
            "sanitize": os.environ.get("REPRO_SANITIZE") == "1",
            "background_flush": os.environ.get("REPRO_BG_FLUSH") == "1",
        }
        return RestResponse(200, stats)

    def _collection_stats(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        if not self.client.has_collection(name):
            return RestResponse(404, {"error": f"collection {name!r} not found"})
        collection = self.client.server.get_collection(name)
        return RestResponse(200, collection.lsm.stats())

    # -- observability ------------------------------------------------------

    @staticmethod
    def _parse_limit(query: Dict[str, str]) -> Optional[int]:
        """Shared bounded-int parser for ``?limit=``.

        Returns ``None`` when absent (meaning "everything").  Raises
        :class:`ValueError` — which ``_dispatch`` maps to ``400`` — on
        a non-integer, negative, or absurdly large value.
        """
        raw = query.get("limit")
        if raw is None:
            return None
        try:
            limit = int(raw)
        except ValueError:
            raise ValueError(f"limit must be an integer, got {raw!r}") from None
        if not 0 <= limit <= _MAX_LIMIT:
            raise ValueError(f"limit must be in [0, {_MAX_LIMIT}], got {limit}")
        return limit

    def _metrics(self, body: dict, query: Dict[str, str]) -> RestResponse:
        """Prometheus text exposition; the body carries the rendered text."""
        return RestResponse(200, {
            "content_type": "text/plain; version=0.0.4",
            "text": get_obs().registry.render_prometheus(),
        })

    def _traces(self, body: dict, query: Dict[str, str]) -> RestResponse:
        limit = self._parse_limit(query)
        trace_ids = list(reversed(get_obs().tracer.trace_ids()))
        if limit is not None:
            trace_ids = trace_ids[:limit]
        return RestResponse(200, {"trace_ids": trace_ids})

    def _trace(self, body: dict, query: Dict[str, str], trace_id: str) -> RestResponse:
        tree = get_obs().tracer.trace_tree(trace_id)
        if tree is None:
            return RestResponse(404, {"error": f"trace {trace_id!r} not found"})
        return RestResponse(200, tree)

    def _profiles(self, body: dict, query: Dict[str, str]) -> RestResponse:
        return RestResponse(200, {"profile_ids": get_obs().profiler.profile_ids()})

    def _profile(self, body: dict, query: Dict[str, str], trace_id: str) -> RestResponse:
        profile = get_obs().profiler.get(trace_id)
        if profile is None:
            return RestResponse(404, {"error": f"profile {trace_id!r} not found"})
        return RestResponse(200, profile.to_dict())

    def _slowlog(self, body: dict, query: Dict[str, str]) -> RestResponse:
        limit = self._parse_limit(query)
        log = get_obs().slow_query_log
        entries = [entry.to_dict() for entry in reversed(log.entries())]
        if limit is not None:
            entries = entries[:limit]
        return RestResponse(200, {
            "threshold_seconds": log.threshold_seconds,
            "observed": log.observed,
            "recorded": log.recorded,
            "entries": entries,
        })

    # -- operational health (INTERNALS §19) ---------------------------------

    def _events(self, body: dict, query: Dict[str, str]) -> RestResponse:
        limit = self._parse_limit(query)
        journal = get_obs().events
        return RestResponse(200, {
            "last_seq": journal.last_seq(),
            "events": [
                e.to_dict() for e in journal.events(limit=limit, newest_first=True)
            ],
        })

    def _jobs(self, body: dict, query: Dict[str, str]) -> RestResponse:
        return RestResponse(200, get_obs().jobs.snapshot())

    def _health(self, body: dict, query: Dict[str, str]) -> RestResponse:
        """Watchdog rollup; ``unhealthy`` maps to 503 so an external
        load-balancer probe can act on the status code alone."""
        report = get_obs().health.report()
        status = 503 if report.get("status") == "unhealthy" else 200
        return RestResponse(status, report)

    def _usage(self, body: dict, query: Dict[str, str]) -> RestResponse:
        return RestResponse(200, {"collections": get_obs().usage.snapshot()})

    def _usage_one(self, body: dict, query: Dict[str, str], name: str) -> RestResponse:
        record = get_obs().usage.collection(name)
        if record is None:
            return RestResponse(404, {"error": f"no usage recorded for {name!r}"})
        return RestResponse(200, record)
