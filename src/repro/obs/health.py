"""Watchdog: roll component signals up into one health verdict.

``GET /health`` is what an operator (or the roadmap's multi-tenant
admission controller) polls: one of ``healthy`` / ``degraded`` /
``unhealthy``, computed from the signals the engine already exports
plus failure notes pushed by the background machinery:

* **wal** — un-checkpointed WAL bytes (``wal_lag_bytes`` gauge):
  checkpointing is falling behind the write rate;
* **memtable** — frozen-memtable queue depth
  (``lsm_frozen_memtables`` gauge): the flusher is not keeping up;
* **background** — pushed via :meth:`note_bg_failure` from the
  flusher loop: a *transient* error (retries will be attempted)
  degrades until :meth:`note_bg_ok` reports a subsequent success; a
  *fatal* one (``SimulatedCrash``-style sticky crash) is unhealthy
  and stays unhealthy, exactly like the engine's own ``_bg_crash``;
* **jobs** — any running job whose heartbeat age exceeds
  ``job_stall_seconds`` (a flush parked forever on a stalled write).

Rollup = the worst component status.  Numeric signals are read from
the metrics registry at :meth:`report` time (summed across label
sets, so multi-collection engines roll up); tests may override any
signal with :meth:`set_signal`.  The clock is injectable so
fault-plan tests can age a heartbeat deterministically.

Locking: one leaf lock, role ``"obs"``.  :meth:`report` snapshots
state under the lock and *then* reads the registry / job registry —
two ``"obs"``-level locks never nest.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.utils.sanitizer import maybe_sanitize

__all__ = ["HealthMonitor", "NullHealthMonitor", "NULL_HEALTH",
           "HEALTHY", "DEGRADED", "UNHEALTHY"]

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

#: rollup order — max() over these ranks picks the worst status.
_RANK = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}

#: health signal name -> metrics gauge it defaults to.
_SIGNAL_GAUGES = {
    "wal_lag_bytes": "wal_lag_bytes",
    "frozen_memtables": "lsm_frozen_memtables",
}


class HealthMonitor:
    """Compute component statuses and their rollup on demand."""

    _GUARDED_BY = {"_signals": "_lock", "_bg": "_lock"}

    def __init__(
        self,
        registry=None,
        jobs=None,
        clock=None,
        *,
        wal_lag_degraded_bytes: int = 4 << 20,
        wal_lag_unhealthy_bytes: int = 64 << 20,
        frozen_degraded: int = 4,
        frozen_unhealthy: int = 32,
        job_stall_seconds: float = 30.0,
    ):
        self._registry = registry
        self._jobs = jobs
        self._clock = clock if clock is not None else time.perf_counter
        self.wal_lag_degraded_bytes = wal_lag_degraded_bytes
        self.wal_lag_unhealthy_bytes = wal_lag_unhealthy_bytes
        self.frozen_degraded = frozen_degraded
        self.frozen_unhealthy = frozen_unhealthy
        self.job_stall_seconds = job_stall_seconds
        self._lock = maybe_sanitize(threading.Lock(), "obs")
        self._signals: Dict[str, float] = {}
        self._bg: Dict[str, Dict[str, object]] = {}

    # -- pushed state -----------------------------------------------------

    def set_signal(self, name: str, value: float) -> None:
        """Override a numeric signal (tests, or engines with no gauge)."""
        with self._lock:
            self._signals[name] = float(value)

    def note_bg_failure(
        self, component: str, error: str, fatal: bool = False,
    ) -> None:
        """A background worker failed; ``fatal`` failures are sticky."""
        now = self._clock()
        with self._lock:
            note = self._bg.setdefault(
                component, {"failures": 0, "fatal": False, "error": "", "at": 0.0})
            note["failures"] = int(note["failures"]) + 1
            note["fatal"] = bool(note["fatal"]) or fatal
            note["error"] = error
            note["at"] = now

    def note_bg_ok(self, component: str) -> None:
        """A background worker succeeded; clears *transient* failures."""
        with self._lock:
            note = self._bg.get(component)
            if note is not None and not note["fatal"]:
                del self._bg[component]

    # -- report -----------------------------------------------------------

    def _numeric(self, signals: Dict[str, float], name: str) -> float:
        if name in signals:
            return signals[name]
        if self._registry is not None:
            return self._registry.total(_SIGNAL_GAUGES[name])
        return 0.0

    @staticmethod
    def _grade(value: float, degraded_at: float,
               unhealthy_at: Optional[float] = None) -> str:
        if unhealthy_at is not None and value >= unhealthy_at:
            return UNHEALTHY
        if value >= degraded_at:
            return DEGRADED
        return HEALTHY

    def report(self) -> Dict[str, object]:
        """The ``GET /health`` payload: components + worst-of rollup."""
        with self._lock:
            signals = dict(self._signals)
            bg = {name: dict(note) for name, note in self._bg.items()}

        components: Dict[str, Dict[str, object]] = {}

        wal_lag = self._numeric(signals, "wal_lag_bytes")
        components["wal"] = {
            "status": self._grade(wal_lag, self.wal_lag_degraded_bytes,
                                  self.wal_lag_unhealthy_bytes),
            "lag_bytes": int(wal_lag),
        }

        frozen = self._numeric(signals, "frozen_memtables")
        components["memtable"] = {
            "status": self._grade(frozen, self.frozen_degraded,
                                  self.frozen_unhealthy),
            "frozen_memtables": int(frozen),
        }

        if bg:
            fatal = any(note["fatal"] for note in bg.values())
            components["background"] = {
                "status": UNHEALTHY if fatal else DEGRADED,
                "failures": {
                    name: {"error": note["error"], "fatal": note["fatal"],
                           "failures": note["failures"]}
                    for name, note in sorted(bg.items())
                },
            }
        else:
            components["background"] = {"status": HEALTHY, "failures": {}}

        stalled: List[Dict[str, object]] = []
        if self._jobs is not None:
            stalled = [job.to_dict()
                       for job in self._jobs.stalled(self.job_stall_seconds)]
        components["jobs"] = {
            "status": DEGRADED if stalled else HEALTHY,
            "stalled": stalled,
        }

        worst = max(
            (component["status"] for component in components.values()),
            key=_RANK.__getitem__,
        )
        return {"status": worst, "components": components}


class NullHealthMonitor:
    """Disabled-path watchdog: static answer, no allocations per call."""

    _REPORT = {
        "status": "unknown",
        "components": {},
        "detail": "observability disabled (set REPRO_OBS=1 or repro.obs.enable())",
    }

    def set_signal(self, name: str, value: float) -> None:
        pass

    def note_bg_failure(self, component: str, error: str,
                        fatal: bool = False) -> None:
        pass

    def note_bg_ok(self, component: str) -> None:
        pass

    def report(self) -> Dict[str, object]:
        return dict(self._REPORT)


NULL_HEALTH = NullHealthMonitor()
