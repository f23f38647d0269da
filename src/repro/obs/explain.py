"""EXPLAIN: the planner dump for one collection search.

:func:`explain_search` answers "what *would* this query do" without
(or alongside) running it: which segments are selected vs. skipped and
why, which index (and parameters) serves each segment vs. a
brute-force scan, which filter strategy the cost model of
:mod:`repro.filtering.cost` recommends for the given selectivity, and
— when a :class:`~repro.hetero.scheduler.SegmentScheduler` is passed —
which device the greedy least-finish-time policy would pick per
segment.  The dump is a plain JSON-safe dict, served over REST as
``POST /explain``.

``search(..., explain=True)`` pairs this plan with the executed
:class:`~repro.obs.profile.QueryProfile` (the ANALYZE half) in an
:class:`ExplainedResult`; both halves work with observability off —
the profiler *store* is the only part gated on ``REPRO_OBS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.obs.profile import QueryProfile

__all__ = ["ExplainedResult", "explain_search"]


@dataclass
class ExplainedResult:
    """EXPLAIN ANALYZE output: results + plan + executed profile."""

    result: object            #: the SearchResult the query produced
    plan: Dict[str, object]   #: :func:`explain_search` dump
    profile: QueryProfile     #: work counters / stage timings

    def to_dict(self) -> Dict[str, object]:
        return {"plan": self.plan, "profile": self.profile.to_dict()}

    def estimated_vs_actual(self) -> Dict[str, Dict[str, float]]:
        """Calibrated counter estimates against executed counters.

        Only meaningful for adaptive filtered searches (the plan then
        carries ``filter.estimated_counters``); empty otherwise.  The
        per-counter ``relative_error`` is what the calibration
        acceptance gate tracks toward +/-20%.
        """
        filter_section = self.plan.get("filter") or {}
        estimated = filter_section.get("estimated_counters") or {}
        actual = self.profile.total_counters()
        out: Dict[str, Dict[str, float]] = {}
        for key, value in estimated.items():
            if not isinstance(value, (int, float)):
                continue
            measured = float(actual.get(key, 0))
            out[key] = {
                "estimated": float(value),
                "actual": measured,
                "relative_error": (
                    abs(float(value) - measured) / measured
                    if measured else float("inf")
                ),
            }
        return out


def _segment_plan(segment, field: str, tombstones, admissible) -> Dict[str, object]:
    """Plan entry for one segment: index choice + selected/skipped."""
    rows = int(segment.num_rows)
    dead = int(segment.contains_mask(tombstones).sum()) if len(tombstones) else 0
    live = rows - dead
    entry: Dict[str, object] = {
        "segment_id": int(segment.segment_id),
        "rows": rows,
        "live_rows": live,
    }
    index = segment.indexes.get(field)
    if index is not None:
        stats = index.stats()
        entry["plan"] = f"index:{index.index_type}"
        entry["index"] = {
            key: value for key, value in stats.items()
            if isinstance(value, (int, float, str, bool))
        }
        for param in ("nlist", "nprobe", "m", "ef_construction", "n_trees"):
            value = getattr(index, param, None)
            if isinstance(value, int):
                entry["index"][param] = value
    else:
        entry["plan"] = "brute_force"
    if admissible is not None:
        entry["admissible_rows"] = int(segment.contains_mask(admissible).sum())
    if rows == 0:
        entry["selected"], entry["reason"] = False, "empty segment"
    elif live == 0:
        entry["selected"], entry["reason"] = False, "all rows tombstoned"
    elif admissible is not None and entry["admissible_rows"] == 0:
        entry["selected"], entry["reason"] = False, "no admissible rows under filter"
    else:
        entry["selected"] = True
    return entry


def _filter_plan(collection, filter, snap, k: int, scanned_fraction: float,
                 index_info, nq: int = 1):
    """Filter section: selectivity + what the cost model recommends.

    Without adaptive planning the collection's filtered read path
    always executes strategy B (attribute-first bitmap pushdown); the
    static cost model's pick is reported alongside so plan output shows
    when B was *not* the cheapest choice for this selectivity (paper
    Sec. 4.1).  With ``REPRO_ADAPTIVE`` on, the collection's calibrated
    planner picks strategy *and* knobs, and the section carries both
    the calibrated and analytical costs, the predicted work counters,
    and the per-strategy calibration residuals.
    """
    from repro.filtering.cost import CostModel

    admissible = collection._filter_rows(filter, snap)
    n = int(collection._lsm.num_live_rows)
    passing = len(admissible) / n if n else 0.0
    if getattr(collection, "_adaptive", False) and index_info[0] is not None:
        index_type, nlist, bucket_sizes, supports, __, row_bytes = index_info
        planner = collection.planner
        qplan = planner.plan(
            n=max(n, 1), passing_fraction=passing, k=k,
            index_type=index_type or "", nlist=nlist,
            bucket_sizes=bucket_sizes, supports_pushdown=supports,
            row_bytes=row_bytes,
        )
        return {
            "spec": list(filter),
            "admissible_rows": int(len(admissible)),
            "selectivity": passing,
            "adaptive": True,
            "cost_model": {
                "A": qplan.estimated.a, "B": qplan.estimated.b,
                "C": qplan.estimated.c,
            },
            "analytical_cost": {
                "A": qplan.raw.a, "B": qplan.raw.b, "C": qplan.raw.c,
            },
            "recommended": qplan.strategy,
            "executed": qplan.strategy,
            "knobs": qplan.knobs(),
            # scaled to the batch so they compare 1:1 with the executed
            # profile's counters in estimated_vs_actual().
            "estimated_counters": {
                name: value * nq
                for name, value in planner.estimated_counters(qplan).items()
            },
            "calibration": planner.residuals(),
        }, admissible
    costs = CostModel().estimate(n, passing, k, scanned_fraction)
    return {
        "spec": list(filter),
        "admissible_rows": int(len(admissible)),
        "selectivity": passing,
        "cost_model": {"A": costs.a, "B": costs.b, "C": costs.c},
        "recommended": costs.best(),
        "executed": "B",
    }, admissible


def _hetero_plan(scheduler, segments, field: str, nq: int) -> Dict[str, object]:
    """Simulated greedy least-finish-time dispatch, without side effects.

    Residency is read but never mutated, so planning a query does not
    move the real scheduler's clock or device memory — repeated
    EXPLAINs are idempotent.
    """
    from repro.hetero.scheduler import SearchTask

    devices = scheduler.devices()
    busy = scheduler.device_loads()
    assignments: List[Dict[str, object]] = []
    for segment in segments:
        task = SearchTask(
            segment_id=int(segment.segment_id),
            nbytes=int(segment.memory_bytes()),
            m=nq,
            n=int(segment.num_rows),
            dim=int(next(iter(segment.vectors.values())).shape[1]),
        )
        best = None
        for dev_id, device in devices.items():
            end = busy[dev_id] + scheduler.task_cost(device, task)
            if best is None or end < best[0]:
                best = (end, dev_id)
        end, dev_id = best
        busy[dev_id] = end
        assignments.append({
            "segment_id": task.segment_id,
            "device": f"gpu-{dev_id}",
            "end_seconds": end,
        })
    return {
        "num_devices": len(devices),
        "assignments": assignments,
        "makespan_seconds": max(busy.values(), default=0.0),
    }


def explain_search(
    collection,
    field: str,
    queries: Optional[np.ndarray] = None,
    k: int = 10,
    filter=None,
    scheduler=None,
    **search_params,
) -> Dict[str, object]:
    """The planner dump for one :meth:`Collection.search` call."""
    from repro.filtering.cost import weighted_scanned_fraction

    spec = collection.schema.vector_field(field)
    nq = len(np.atleast_2d(np.asarray(queries))) if queries is not None else 1
    snap = collection._lsm.snapshot()
    try:
        segments = [
            collection._lsm.bufferpool.get(seg_id) for seg_id in snap.segment_ids
        ]
        # scanned fraction for the cost model: IVF probes nprobe of
        # nlist buckets (bucket-size weighted — heavy buckets are
        # probed disproportionately often); everything else scans the
        # full segment.
        index_info = collection._index_info(field, snap)
        __, nlist, sizes = index_info[:3]
        scanned_fraction = 1.0
        if nlist:
            nprobe = int(search_params.get("nprobe", 8))
            scanned_fraction = weighted_scanned_fraction(nprobe, sizes, nlist)
        filter_section, admissible = (None, None)
        if filter is not None:
            filter_section, admissible = _filter_plan(
                collection, filter, snap, k, scanned_fraction, index_info, nq=nq
            )
        segment_entries = [
            _segment_plan(segment, field, snap.tombstones, admissible)
            for segment in segments
        ]
        plan: Dict[str, object] = {
            "collection": collection.schema.name,
            "field": field,
            "metric": spec.metric,
            "k": int(k),
            "nq": nq,
            "params": {key: value for key, value in search_params.items()},
            "segments": segment_entries,
            "segments_selected": sum(e["selected"] for e in segment_entries),
            "segments_skipped": sum(not e["selected"] for e in segment_entries),
            "filter": filter_section,
        }
        if scheduler is not None:
            selected = [
                segment for segment, entry in zip(segments, segment_entries)
                if entry["selected"]
            ]
            plan["hetero"] = _hetero_plan(scheduler, selected, field, nq)
        return plan
    finally:
        collection._lsm.release(snap)
