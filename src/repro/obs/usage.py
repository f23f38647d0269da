"""Per-collection usage accounting — the quota/billing substrate.

The profiling layer (PR 5) gives every query an *exact* integer work
profile (``distance_evals``, ``rows_scanned``, ``bytes_read``,
``buckets_probed`` — deterministic across runs).  The usage
meter aggregates those per collection, together with query/insert
counts and wall seconds, so ``GET /usage`` answers the multi-tenant
question the ROADMAP's front door needs: *which collection is doing
how much work?*  Because the inputs are the exact profile counters,
``usage[name]["counters"]["distance_evals"]`` equals the sum over
that collection's query profiles to the last integer.

Bounded memory: at most ``max_collections`` named records; further
names aggregate into the :data:`OVERFLOW` bucket (dropped collections
are remembered until :meth:`forget`).  One leaf lock, role ``"obs"``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.utils.sanitizer import maybe_sanitize

__all__ = ["UsageMeter", "NullUsageMeter", "NULL_USAGE", "OVERFLOW"]

#: bucket that absorbs collections beyond the bounded name budget.
OVERFLOW = "__other__"


def _new_record() -> Dict[str, object]:
    return {
        "queries": 0,
        "query_seconds": 0.0,
        "inserts": 0,
        "insert_rows": 0,
        "counters": {},
    }


class UsageMeter:
    """Exact per-collection work aggregation."""

    _GUARDED_BY = {"_collections": "_lock"}

    def __init__(self, max_collections: int = 256):
        if max_collections <= 0:
            raise ValueError("max_collections must be positive")
        self.max_collections = max_collections
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        self._collections: Dict[str, Dict[str, object]] = {}

    def _record_locked(self, collection: str) -> Dict[str, object]:
        record = self._collections.get(collection)
        if record is None:
            if (len(self._collections) >= self.max_collections
                    and collection != OVERFLOW):
                return self._record_locked(OVERFLOW)
            record = _new_record()
            self._collections[collection] = record
        return record

    # -- writes -----------------------------------------------------------

    def record_query(
        self,
        collection: str,
        seconds: float,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        """One query against ``collection`` took ``seconds`` and did
        exactly ``counters`` of work (a profile's ``total_counters()``)."""
        with self._lock:
            record = self._record_locked(collection)
            record["queries"] += 1
            record["query_seconds"] += float(seconds)
            if counters:
                totals = record["counters"]
                for name, value in counters.items():
                    totals[name] = totals.get(name, 0) + int(value)

    def record_insert(self, collection: str, rows: int) -> None:
        with self._lock:
            record = self._record_locked(collection)
            record["inserts"] += 1
            record["insert_rows"] += int(rows)

    def forget(self, collection: str) -> None:
        """Drop a collection's record (e.g. after drop_collection)."""
        with self._lock:
            self._collections.pop(collection, None)

    # -- reads ------------------------------------------------------------

    def collection(self, name: str) -> Optional[Dict[str, object]]:
        """Deep-copied record for one collection, or None."""
        with self._lock:
            record = self._collections.get(name)
            if record is None:
                return None
            out = dict(record)
            out["counters"] = dict(record["counters"])
            return out

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-compatible dump of every record (``GET /usage``)."""
        with self._lock:
            return {
                name: {**record, "counters": dict(record["counters"])}
                for name, record in sorted(self._collections.items())
            }


class NullUsageMeter:
    """Disabled-path meter: one no-op call per record."""

    max_collections = 0

    def record_query(self, collection, seconds, counters=None) -> None:
        pass

    def record_insert(self, collection, rows) -> None:
        pass

    def forget(self, collection) -> None:
        pass

    def collection(self, name) -> Optional[Dict[str, object]]:
        return None

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}


NULL_USAGE = NullUsageMeter()
