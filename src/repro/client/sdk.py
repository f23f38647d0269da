"""Python SDK, mirroring the pymilvus verb set over an embedded server.

Client-side observability: each query verb opens a root span
(``sdk.search``, ``client.search``) so a single SDK call yields a
retrievable trace tree spanning client -> server/cluster -> readers ->
index search -> storage reads (see docs/INTERNALS.md §12).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    AttributeField,
    CategoricalField,
    CollectionSchema,
    MilvusLite,
    ServerConfig,
    VectorField,
)
from repro.obs import get_obs
from repro.utils.retry import RetryPolicy


def connect(
    config: Optional[ServerConfig] = None, retry: Optional[RetryPolicy] = None
) -> "MilvusClient":
    """Open a client against a fresh embedded server instance."""
    return MilvusClient(MilvusLite(config), retry=retry)


class MilvusClient:
    """Thin, name-based convenience wrapper around :class:`MilvusLite`.

    An optional :class:`RetryPolicy` shields every data-plane verb
    (insert/delete/flush/search/...) from transient storage faults:
    retryable errors cost backed-off re-attempts instead of surfacing,
    up to the policy's attempt/deadline budget.  Control-plane verbs
    (create/drop collection) stay un-retried — they are not idempotent.
    """

    def __init__(self, server: MilvusLite, retry: Optional[RetryPolicy] = None):
        self.server = server
        self.retry = retry

    def _call(self, fn, *args, **kwargs):
        if self.retry is not None:
            return self.retry.call(fn, *args, **kwargs)
        return fn(*args, **kwargs)

    # -- collection management -----------------------------------------

    def create_collection(
        self,
        name: str,
        vector_fields: Dict[str, Tuple[int, str]],
        attribute_fields: Sequence[str] = (),
        categorical_fields: Sequence = (),
        **kwargs,
    ):
        """Create a collection from plain dicts.

        ``vector_fields`` maps field name -> (dim, metric).
        ``categorical_fields`` entries are names or (name, index_kind)
        pairs.
        """
        cats = []
        for entry in categorical_fields:
            if isinstance(entry, str):
                cats.append(CategoricalField(entry))
            else:
                cats.append(CategoricalField(*entry))
        schema = CollectionSchema(
            name=name,
            vector_fields=[
                VectorField(fname, dim, metric)
                for fname, (dim, metric) in vector_fields.items()
            ],
            attribute_fields=[AttributeField(a) for a in attribute_fields],
            categorical_fields=cats,
        )
        return self.server.create_collection(schema, **kwargs)

    def drop_collection(self, name: str) -> None:
        self.server.drop_collection(name)

    def list_collections(self) -> List[str]:
        return self.server.list_collections()

    def has_collection(self, name: str) -> bool:
        return self.server.has_collection(name)

    def describe_collection(self, name: str) -> Dict[str, object]:
        return self.server.get_collection(name).describe()

    # -- data plane -------------------------------------------------------

    def insert(self, collection: str, data: Dict[str, np.ndarray]) -> np.ndarray:
        # Safe to retry: the engine acknowledges only after the WAL
        # append lands, and a transient fault fires before any state
        # changes, so a retried attempt never double-applies.
        return self._call(self.server.get_collection(collection).insert, data)

    def delete(self, collection: str, ids: Sequence[int]) -> None:
        self._call(self.server.get_collection(collection).delete, ids)

    def flush(self, collection: Optional[str] = None) -> None:
        if collection is None:
            self._call(self.server.flush_all)
        else:
            self._call(self.server.get_collection(collection).flush)

    def create_index(
        self, collection: str, field: str, index_type: str = "IVF_FLAT", **params
    ) -> int:
        return self._call(
            self.server.get_collection(collection).create_index,
            field, index_type, **params,
        )

    # -- queries -------------------------------------------------------------

    def search(
        self,
        collection: str,
        field: str,
        queries: np.ndarray,
        k: int,
        filter: Optional[Tuple[str, float, float]] = None,
        explain: bool = False,
        **params,
    ):
        """Vector query (optionally filtered); returns per-query hit lists.

        ``params`` ride through to :meth:`Collection.search` as index
        knobs (``nprobe``, ``ef``, ...); an unknown knob raises
        :class:`~repro.core.errors.InvalidQueryError`.

        With ``explain=True`` the return value is instead a dict with
        ``"hits"`` (the same per-query lists), ``"plan"`` (the planner
        dump from :func:`repro.obs.explain.explain_search`), and
        ``"profile"`` (the executed query's work-counter tree).
        """
        with get_obs().tracer.span(
            "sdk.search", collection=collection, field=field, k=k
        ):
            result = self._call(
                self.server.get_collection(collection).search,
                field, queries, k, filter=filter, explain=explain, **params,
            )
        if explain:
            hits = [result.result.row(i) for i in range(result.result.nq)]
            return {
                "hits": hits,
                "plan": result.plan,
                "profile": result.profile.to_dict(),
            }
        return [result.row(i) for i in range(result.nq)]

    def multi_vector_search(
        self,
        collection: str,
        queries: Dict[str, np.ndarray],
        k: int,
        weights: Optional[Dict[str, float]] = None,
        method: str = "auto",
        **params,
    ) -> List[List[Tuple[int, float]]]:
        return self._call(
            self.server.get_collection(collection).multi_vector_search,
            queries, k, weights=weights, method=method, **params,
        )

    def get_vectors(self, collection: str, field: str, ids: Sequence[int]) -> np.ndarray:
        return self._call(
            self.server.get_collection(collection).fetch_vectors, field, ids
        )

    def count(self, collection: str) -> int:
        return self.server.get_collection(collection).num_entities

    # -- operational health (INTERNALS §19) -----------------------------
    #
    # Thin accessors over the process-global observability handle, so
    # scripts and dashboards read the same data as the REST routes
    # without building a router.  With observability off they return
    # the null objects' empty shapes.

    def health(self) -> Dict[str, object]:
        """Watchdog rollup: status + per-component detail."""
        return get_obs().health.report()

    def events(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Newest ``limit`` journal events (all when ``None``), newest first."""
        return [
            e.to_dict()
            for e in get_obs().events.events(limit=limit, newest_first=True)
        ]

    def jobs(self) -> Dict[str, object]:
        """Background-job registry snapshot: running, finished, queues."""
        return get_obs().jobs.snapshot()

    def usage(self, collection: Optional[str] = None):
        """Per-collection usage accounting; one record or the full map."""
        meter = get_obs().usage
        if collection is not None:
            return meter.collection(collection)
        return meter.snapshot()


class ClusterClient:
    """SDK facade over a :class:`~repro.distributed.cluster.MilvusCluster`.

    The distributed twin of :class:`MilvusClient`: same retry
    semantics, and every query opens a ``client.search`` root span so
    one SDK call produces a full trace tree — client -> cluster fan-out
    -> every reader -> index search.
    """

    def __init__(self, cluster, retry: Optional[RetryPolicy] = None):
        self.cluster = cluster
        self.retry = retry

    def _call(self, fn, *args, **kwargs):
        if self.retry is not None:
            return self.retry.call(fn, *args, **kwargs)
        return fn(*args, **kwargs)

    def insert(self, row_ids: np.ndarray, vectors: np.ndarray) -> None:
        with get_obs().tracer.span("client.insert", rows=len(row_ids)):
            self._call(self.cluster.insert, row_ids, vectors)

    def sync(self, build_indexes: bool = True) -> None:
        self._call(self.cluster.sync, build_indexes=build_indexes)

    def search(self, queries: np.ndarray, k: int, **params):
        """Fan-out query; returns the cluster's ClusterSearchResult
        (including ``trace_id`` when tracing is on).

        ``params`` ride through to :meth:`MilvusCluster.search`
        (``auto_refresh``, ``explain`` and index knobs).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        with get_obs().tracer.span("client.search", nq=len(queries), k=k):
            return self._call(self.cluster.search, queries, k, **params)
