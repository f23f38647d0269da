"""Collections: entity tables over the LSM storage engine.

Implements the paper's three primitive query types (Sec. 2.1):

* vector query — :meth:`Collection.search`;
* attribute filtering — :meth:`Collection.search` with ``filter=``;
* multi-vector query — :meth:`Collection.multi_vector_search`.

Writes: an insert or delete is acknowledged once it is in the WAL and
the memtable, and becomes visible to searches after a flush — "users
may not immediately see the inserted data" until they flush (Sec. 5.1).
Flushing and compaction in the background are the LSM engine's job
(``REPRO_BG_FLUSH``).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import InvalidQueryError, SchemaError
from repro.core.schema import CollectionSchema
from repro.filtering.cost import AdaptivePlanner
from repro.index.base import SearchResult
from repro.index.registry import search_param_names
from repro.metrics import get_metric
from repro.obs import get_obs
from repro.obs.explain import ExplainedResult, explain_search
from repro.obs.profile import (
    QueryProfile,
    current_node,
    measurement_stage,
    profile_attr,
    profile_stage,
)
from repro.storage import LSMConfig, LSMManager
from repro.storage.filesystem import FileSystem
from repro.storage.manifest import Snapshot
from repro.utils import sorted_membership
from repro.utils.sanitizer import maybe_sanitize

#: an attribute range filter: (attribute_name, low, high), inclusive.
AttributeFilter = Tuple[str, float, float]


class Collection:
    """One entity table: named vectors + numeric attributes per row."""

    def __init__(
        self,
        schema: CollectionSchema,
        lsm_config: Optional[LSMConfig] = None,
        fs: Optional[FileSystem] = None,
        adaptive: Optional[bool] = None,
    ):
        from repro.storage.categorical import CategoryDictionary

        self.schema = schema
        self._lsm = LSMManager(
            schema.vector_specs(),
            schema.attribute_names(),
            config=lsm_config,
            fs=fs,
            categorical_names=schema.categorical_names(),
            categorical_kinds={
                f.name: f.index_kind for f in schema.categorical_fields
            },
        )
        self._dictionaries = {
            name: CategoryDictionary() for name in schema.categorical_names()
        }
        # _next_row_id is guarded by _id_lock; declared in
        # [tool.reprolint.guarded-fields] rather than in-code, so both
        # declaration styles stay exercised.
        self._next_row_id = 0
        self._id_lock = maybe_sanitize(threading.Lock(), "collection-ids")
        # Feedback-calibrated filtered-search planning (paper Sec. 4.1
        # strategy D + online calibration); ``None`` defers to the
        # REPRO_ADAPTIVE env knob.  The planner itself is built lazily
        # so a recover() run after construction still seeds it from the
        # persisted manifest state.
        self._adaptive = (
            os.environ.get("REPRO_ADAPTIVE") == "1" if adaptive is None
            else bool(adaptive)
        )
        self._planner: Optional[AdaptivePlanner] = None

    # -- write path -----------------------------------------------------

    def insert(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        """Insert a batch of entities; returns the assigned row ids.

        ``data`` maps every vector field and every attribute field of
        the schema to an array with one entry per entity.  Returns once
        the rows are in the WAL and the memtable; they become visible
        to searches after a flush.
        """
        vectors, attributes, categoricals, n = self._split_payload(data)
        with self._id_lock:
            row_ids = np.arange(self._next_row_id, self._next_row_id + n, dtype=np.int64)
            self._next_row_id += n
        self._lsm.insert(row_ids, vectors, attributes, categoricals)
        get_obs().usage.record_insert(self.schema.name, n)
        return row_ids

    def delete(self, row_ids: Sequence[int]) -> None:
        """Delete entities by row id (out-of-place; visible after flush)."""
        self._lsm.delete(np.asarray(row_ids, dtype=np.int64))

    def update(self, row_ids: Sequence[int], data: Dict[str, np.ndarray]) -> np.ndarray:
        """Update = delete + insert (paper Sec. 2.3); returns new row ids."""
        new_ids = self.insert(data)
        self.delete(row_ids)
        return new_ids

    def flush(self) -> None:
        """Seal every acknowledged write, making it searchable (Sec. 5.1)."""
        self._lsm.flush()
        # Calibration learned since the last flush rides the durable
        # manifest, so a restart + recover() resumes a warm planner.
        if self._planner is not None:
            self._lsm.set_planner_state(self._planner.to_dict(), persist=True)

    def _split_payload(self, data: Dict[str, np.ndarray]):
        specs = self.schema.vector_specs()
        attr_names = self.schema.attribute_names()
        cat_names = self.schema.categorical_names()
        expected = set(specs) | set(attr_names) | set(cat_names)
        if set(data) != expected:
            raise SchemaError(
                f"insert payload fields {sorted(data)} != schema fields {sorted(expected)}"
            )
        vectors = {}
        n = None
        for name, (dim, __) in specs.items():
            mat = np.asarray(data[name], dtype=np.float32)
            if mat.ndim == 1:
                mat = mat[np.newaxis, :]
            if mat.shape[1] != dim:
                raise SchemaError(
                    f"field {name!r}: dimension {mat.shape[1]} != schema dim {dim}"
                )
            if n is None:
                n = len(mat)
            elif len(mat) != n:
                raise SchemaError("all fields must have the same number of rows")
            vectors[name] = mat
        attributes = {}
        for name in attr_names:
            vals = np.asarray(data[name], dtype=np.float64).ravel()
            if len(vals) != n:
                raise SchemaError(
                    f"attribute {name!r}: {len(vals)} values for {n} entities"
                )
            attributes[name] = vals
        categoricals = {}
        for name in cat_names:
            raw = data[name]
            values = list(raw.tolist() if isinstance(raw, np.ndarray) else raw)
            if len(values) != n:
                raise SchemaError(
                    f"categorical {name!r}: {len(values)} values for {n} entities"
                )
            categoricals[name] = self._dictionaries[name].encode(values)
        return vectors, attributes, categoricals, int(n)

    # -- read path ----------------------------------------------------------

    def search(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        filter: Optional[AttributeFilter] = None,
        snapshot: Optional[Snapshot] = None,
        explain: bool = False,
        **search_params,
    ) -> SearchResult:
        """Vector query, optionally with an attribute range filter.

        ``search_params`` are index knobs (``nprobe``, ``ef``, ...).  A
        key that no registered index type declares in its
        ``SEARCH_PARAMS`` raises :class:`InvalidQueryError` before any
        segment is scanned, whichever segments the query would reach.

        ``explain=True`` returns an :class:`ExplainedResult` instead:
        the same results plus the planner dump
        (:func:`~repro.obs.explain.explain_search`) and the executed
        :class:`~repro.obs.profile.QueryProfile` with exact work
        counters.  Works with observability off; with it on, every
        search is profiled and retained by trace id
        (``GET /profiles/{trace_id}``).

        With a filter the collection runs the attribute-first bitmap
        strategy per segment (strategy B of Sec. 4.1): the attribute
        column yields admissible row ids, which are pushed down into
        the per-segment vector search.  The standalone strategy
        benchmarks live in :mod:`repro.filtering`.

        Filter forms:

        * numeric range — ``("price", low, high)`` (inclusive);
        * categorical — ``("color", "==", "red")`` or
          ``("color", "in", ["red", "blue"])``, served from the
          inverted-list / bitmap categorical indexes.
        """
        unknown = set(search_params) - search_param_names()
        if unknown:
            raise InvalidQueryError(
                f"unknown search params {sorted(unknown)}; "
                f"known: {sorted(search_param_names())}"
            )
        obs = get_obs()
        # explain always gets its own profile; otherwise profile every
        # top-level search when observability is on (nested searches —
        # e.g. from the multi-vector searcher — land in the ambient
        # profile as stages instead of spawning their own).
        top_level = current_node() is None
        profile = None
        if explain or (obs.profiler.enabled and top_level):
            profile = QueryProfile(
                "collection.search",
                collection=self.schema.name, field=field, k=int(k),
            )
        with obs.tracer.span(
            "collection.search", collection=self.schema.name, field=field, k=k,
            filtered=filter is not None,
        ) as span:
            started = time.perf_counter()
            stage = profile if profile is not None else profile_stage(
                "collection.search", collection=self.schema.name, field=field,
            )
            with stage:
                result = self._search_impl(
                    field, queries, k, filter, snapshot, **search_params
                )
            elapsed = time.perf_counter() - started
        if profile is not None:
            obs.profiler.record(span.trace_id, profile)
            # Exact usage accounting: the profile's integer counters are
            # deterministic, so per-collection usage equals the sum of
            # the recorded query profiles.
            obs.usage.record_query(
                self.schema.name, elapsed, profile.total_counters())
        elif top_level:
            obs.usage.record_query(self.schema.name, elapsed, None)
        obs.registry.histogram("collection_search_seconds").observe(elapsed)
        obs.slow_query_log.observe(
            "collection.search", elapsed, trace_id=span.trace_id,
            profile=profile,
            collection=self.schema.name, field=field, k=k,
        )
        if explain:
            plan = explain_search(
                self, field, queries=queries, k=k, filter=filter, **search_params
            )
            return ExplainedResult(result=result, plan=plan, profile=profile)
        return result

    def _search_impl(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        filter: Optional[AttributeFilter],
        snapshot: Optional[Snapshot],
        **search_params,
    ) -> SearchResult:
        self.schema.vector_field(field)
        if filter is None:
            return self._lsm.search(
                field, queries, k, snapshot=snapshot, **search_params
            )
        owned = snapshot is None
        snap = self._lsm.snapshot() if owned else snapshot
        try:
            with profile_stage("collection.filter", spec=str(filter)) as stage:
                admissible = self._filter_rows(filter, snap)
                stage.set_attr("admissible_rows", int(len(admissible)))
            if len(admissible) == 0:
                metric = get_metric(self.schema.vector_field(field).metric)
                queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
                return SearchResult.empty(len(queries), k, metric)
            if self._adaptive:
                return self._adaptive_filtered_search(
                    field, queries, k, admissible, snap, **search_params
                )
            return self._lsm.search(
                field, queries, k, snapshot=snap, row_filter=admissible,
                **search_params
            )
        finally:
            if owned:
                self._lsm.release(snap)

    # -- adaptive filtered search (calibrated strategy D) -----------------

    @property
    def planner(self) -> AdaptivePlanner:
        """The collection's query planner, seeded from persisted state.

        Built on first use so calibration recovered by
        :meth:`LSMManager.recover` (which runs after construction) is
        picked up.  Benign race: two threads may both build one; the
        losing instance carries no observations yet.
        """
        if self._planner is None:
            self._planner = AdaptivePlanner.from_dict(self._lsm.planner_state())
        return self._planner

    def _index_info(self, field: str, snap: Snapshot):
        """(index_type, nlist, bucket_sizes, supports_pushdown, knob_names,
        row_bytes) of the first indexed visible segment, or defaults when
        none is.
        """
        for segment in self._visible_segments(snap):
            index = segment.indexes.get(field)
            if index is not None:
                nlist = getattr(index, "nlist", None)
                sizes = (
                    index.bucket_sizes().tolist()
                    if hasattr(index, "bucket_sizes") else None
                )
                return (
                    index.index_type,
                    nlist,
                    sizes,
                    index.supports_search_param("row_filter"),
                    type(index).SEARCH_PARAMS,
                    index.row_code_bytes(),
                )
        return None, None, None, True, frozenset(), None

    def _adaptive_filtered_search(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        admissible: np.ndarray,
        snap: Snapshot,
        **search_params,
    ) -> SearchResult:
        """Plan (strategy + knobs) from calibrated costs, execute, feed back."""
        planner = self.planner
        n = max(int(self._lsm.num_live_rows), 1)
        index_type, nlist, bucket_sizes, supports, knob_names, row_bytes = (
            self._index_info(field, snap)
        )
        plan = planner.plan(
            n=n,
            passing_fraction=len(admissible) / n,
            k=k,
            index_type=index_type or "",
            nlist=nlist,
            bucket_sizes=bucket_sizes,
            supports_pushdown=supports,
            row_bytes=row_bytes,
        )
        # Planned knobs the field's index understands; explicit caller
        # params always win over the planner's choices.
        knobs = {
            name: value for name, value in plan.knobs().items()
            if name in knob_names
        }
        knobs.update(search_params)
        profile_attr("adaptive_plan", plan.to_dict())
        with measurement_stage("adaptive.exec", strategy=plan.strategy) as stage:
            result = self._execute_plan(
                field, queries, k, admissible, snap, plan, knobs, index_type
            )
        nq = len(np.atleast_2d(np.asarray(queries)))
        planner.observe(plan, stage.total_counters(), nq=nq)
        # Cheap in-memory staging; the next manifest write (flush,
        # merge, or an explicit Collection.flush) makes it durable.
        self._lsm.set_planner_state(planner.to_dict())
        return result

    def _execute_plan(
        self, field, queries, k, admissible, snap, plan, knobs, index_type
    ) -> SearchResult:
        if plan.strategy == "A" or not index_type:
            # Attribute-first exact scan: brute force over admissible
            # rows only (recall 1 within the filter).
            return self._lsm.search(
                field, queries, k, snapshot=snap, row_filter=admissible,
                brute_force=True,
            )
        if plan.strategy == "B":
            return self._lsm.search(
                field, queries, k, snapshot=snap, row_filter=admissible, **knobs
            )
        # Strategy C: one widened unfiltered search, post-filtered
        # against the admissible set; fall back to pushdown if the
        # widening undershoots (estimation error), so results never
        # come back short when k admissible rows exist.
        p = max(len(admissible) / plan.n, 1e-9)
        k_eff = min(max(int(np.ceil(plan.theta * k / p)), k), plan.n)
        raw = self._lsm.search(field, queries, k_eff, snapshot=snap, **knobs)
        metric = get_metric(self.schema.vector_field(field).metric)
        queries_2d = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        out = SearchResult.empty(len(queries_2d), k, metric)
        want = min(k, len(admissible))
        short = False
        pruned = 0
        for qi in range(len(queries_2d)):
            valid = raw.ids[qi] >= 0
            ids_row = raw.ids[qi][valid]
            keep = sorted_membership(ids_row, admissible)
            kept_ids = ids_row[keep]
            kept_scores = raw.scores[qi][valid][keep]
            pruned += int(len(ids_row) - len(kept_ids))
            m = min(k, len(kept_ids))
            out.ids[qi, :m] = kept_ids[:m]
            out.scores[qi, :m] = kept_scores[:m]
            if m < want:
                short = True
        node = current_node()
        if node is not None and pruned:
            node.count("candidates_pruned", pruned)
        if short:
            return self._lsm.search(
                field, queries, k, snapshot=snap, row_filter=admissible, **knobs
            )
        return out

    def _filter_rows(self, filter: AttributeFilter, snap: Snapshot) -> np.ndarray:
        """Resolve any filter form to sorted admissible row ids."""
        name, op_or_low, value_or_high = filter
        if self.schema.has_categorical(name):
            if op_or_low == "==":
                codes = [value_or_high]
            elif op_or_low == "in":
                codes = list(value_or_high)
            else:
                raise InvalidQueryError(
                    f"categorical filter on {name!r} needs '==' or 'in', "
                    f"got {op_or_low!r}"
                )
            encoded = self._dictionaries[name].encode_existing(codes)
            encoded = [int(c) for c in encoded if c >= 0]
            return self._categorical_rows(name, encoded, snap)
        if not self.schema.has_attribute(name):
            raise InvalidQueryError(f"unknown attribute {name!r} in filter")
        return self._admissible_rows(
            name, float(op_or_low), float(value_or_high), snap
        )

    def _visible_segments(self, snap: Snapshot):
        """Everything readable in ``snap``: sealed segments, then the
        read views of frozen memtables awaiting background flush —
        frozen rows answer filters, fetches, and range queries exactly
        like sealed rows."""
        for seg_id in snap.segment_ids:
            yield self._lsm.bufferpool.get(seg_id)
        for view in self._lsm.frozen_view_segments(snap):
            yield view

    def _categorical_rows(self, name: str, codes, snap: Snapshot) -> np.ndarray:
        if not codes:
            return np.empty(0, dtype=np.int64)
        parts = [
            segment.categorical_in(name, codes)
            for segment in self._visible_segments(snap)
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        rows = np.unique(np.concatenate(parts))
        tombs = self._lsm.visible_tombstones(snap)
        if len(tombs):
            rows = np.setdiff1d(rows, tombs, assume_unique=False)
        return rows

    def _admissible_rows(
        self, attr: str, low: float, high: float, snap: Snapshot
    ) -> np.ndarray:
        parts = [
            segment.attribute_range(attr, low, high)
            for segment in self._visible_segments(snap)
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        rows = np.unique(np.concatenate(parts))
        tombs = self._lsm.visible_tombstones(snap)
        if len(tombs):
            rows = np.setdiff1d(rows, tombs, assume_unique=False)
        return rows

    def multi_vector_search(
        self,
        queries: Dict[str, np.ndarray],
        k: int,
        weights: Optional[Dict[str, float]] = None,
        method: str = "auto",
        aggregation: str = "sum",
        **search_params,
    ) -> List[List[Tuple[int, float]]]:
        """Multi-vector query (Sec. 4.2): top-k entities by aggregated score.

        Args:
            queries: one query vector (or batch) per vector field.
            weights: weighted-sum aggregation weights (default 1.0).
            method: ``"fusion"`` (decomposable metrics), ``"iterative"``
                (iterative merging, Algorithm 2), ``"naive"`` (per-field
                top-k union), or ``"auto"``.
            aggregation: monotone aggregation over keyed per-field
                scores — ``"sum"`` (weighted sum), ``"avg"``, ``"min"``
                (rank by worst factor), ``"max"``.  Only ``"sum"`` is
                decomposable, so other aggregations force the iterative
                path.

        Returns:
            per-query lists of (row_id, aggregated_score) pairs.
        """
        from repro.multivector import MultiVectorSearcher

        searcher = MultiVectorSearcher(self, weights=weights)
        return searcher.search(
            queries, k, method=method, aggregation=aggregation, **search_params
        )

    # -- point reads ---------------------------------------------------------

    def fetch_vectors(self, field: str, row_ids: Sequence[int]) -> np.ndarray:
        """Vectors for ``row_ids`` (must be live flushed rows)."""
        self.schema.vector_field(field)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        out = np.empty((len(row_ids), self.schema.vector_field(field).dim), np.float32)
        found = np.zeros(len(row_ids), dtype=bool)
        snap = self._lsm.snapshot()
        try:
            for segment in self._visible_segments(snap):
                mask = segment.contains_mask(row_ids) & ~found
                if mask.any():
                    out[mask] = segment.vectors_for(field, row_ids[mask])
                    found |= mask
        finally:
            self._lsm.release(snap)
        if not found.all():
            missing = row_ids[~found].tolist()
            raise KeyError(f"row ids not found: {missing[:10]}")
        return out

    def fetch_attributes(self, name: str, row_ids: Sequence[int]) -> np.ndarray:
        """Attribute values for ``row_ids``."""
        if not self.schema.has_attribute(name):
            raise InvalidQueryError(f"unknown attribute {name!r}")
        row_ids = np.asarray(row_ids, dtype=np.int64)
        out = np.full(len(row_ids), np.nan)
        snap = self._lsm.snapshot()
        try:
            for segment in self._visible_segments(snap):
                col = segment.attributes[name]
                order = np.argsort(col.row_ids)
                sorted_rows = col.row_ids[order]
                pos = np.searchsorted(sorted_rows, row_ids)
                pos_c = np.minimum(pos, max(len(sorted_rows) - 1, 0))
                hit = (len(sorted_rows) > 0) & (sorted_rows[pos_c] == row_ids)
                out[hit] = col.keys[order][pos_c[hit]]
        finally:
            self._lsm.release(snap)
        if np.isnan(out).any():
            raise KeyError("row ids not found in attribute column")
        return out

    def query(
        self,
        filter: AttributeFilter,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Scalar-only query: row ids matching ``filter`` (no vectors).

        The classic "SELECT id WHERE price < 100" path, served entirely
        from attribute/categorical indexes.
        """
        snap = self._lsm.snapshot()
        try:
            rows = self._filter_rows(filter, snap)
        finally:
            self._lsm.release(snap)
        return rows[:limit] if limit is not None else rows

    def range_search(
        self,
        field: str,
        queries: np.ndarray,
        radius: float,
        **search_params,
    ) -> List[List[Tuple[int, float]]]:
        """All entities scoring within ``radius`` of each query.

        Runs per segment (brute force, or the segment index's
        range_search when available) and merges; tombstoned rows are
        excluded.
        """
        self.schema.vector_field(field)
        metric = get_metric(self.schema.vector_field(field).metric)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        snap = self._lsm.snapshot()
        try:
            out: List[List[Tuple[int, float]]] = [[] for __ in range(len(queries))]
            tombs = set(self._lsm.visible_tombstones(snap).tolist())
            for segment in self._visible_segments(snap):
                index = segment.indexes.get(field)
                if index is not None:
                    try:
                        parts = index.range_search(queries, radius, **search_params)
                    except NotImplementedError:
                        parts = self._brute_range(segment, field, queries, radius, metric)
                else:
                    parts = self._brute_range(segment, field, queries, radius, metric)
                for qi in range(len(queries)):
                    out[qi].extend(
                        (i, s) for i, s in parts[qi] if i not in tombs
                    )
            for qi in range(len(queries)):
                out[qi].sort(key=lambda p: p[1], reverse=metric.higher_is_better)
            return out
        finally:
            self._lsm.release(snap)

    @staticmethod
    def _brute_range(segment, field, queries, radius, metric):
        scores = metric.pairwise(queries, segment.vectors[field])
        parts = []
        for qi in range(len(queries)):
            if metric.higher_is_better:
                hits = np.flatnonzero(scores[qi] >= radius)
            else:
                hits = np.flatnonzero(scores[qi] <= radius)
            parts.append([
                (int(segment.row_ids[h]), float(scores[qi][h])) for h in hits
            ])
        return parts

    def fetch_categoricals(self, name: str, row_ids: Sequence[int]) -> List[str]:
        """Decoded categorical values for ``row_ids``."""
        if not self.schema.has_categorical(name):
            raise InvalidQueryError(f"unknown categorical field {name!r}")
        row_ids = np.asarray(row_ids, dtype=np.int64)
        codes = np.full(len(row_ids), -1, dtype=np.int64)
        snap = self._lsm.snapshot()
        try:
            for segment in self._visible_segments(snap):
                mask = segment.contains_mask(row_ids) & (codes < 0)
                if mask.any():
                    codes[mask] = segment.categoricals[name].values_for(row_ids[mask])
        finally:
            self._lsm.release(snap)
        if (codes < 0).any():
            raise KeyError("row ids not found in categorical column")
        return self._dictionaries[name].decode(codes)

    # -- maintenance ----------------------------------------------------------

    def create_index(self, field: str, index_type: str = "IVF_FLAT", **params) -> int:
        """Build indexes for ``field`` on every live segment."""
        self.schema.vector_field(field)
        return self._lsm.build_index(field, index_type, **params)

    def compact(self) -> int:
        """Force merges now; returns the number performed."""
        return self._lsm.maybe_merge()

    # -- introspection -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_entities(self) -> int:
        """Visible (flushed, non-deleted) entity count."""
        return self._lsm.num_live_rows

    @property
    def lsm(self) -> LSMManager:
        """The underlying storage manager (advanced use / benchmarks)."""
        return self._lsm

    def describe(self) -> Dict[str, object]:
        info = self.schema.describe()
        info["num_entities"] = self.num_entities
        info["num_segments"] = len(self._lsm.manifest.live_segment_ids())
        info["unflushed_rows"] = self._lsm.unflushed_rows
        return info
