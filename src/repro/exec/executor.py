"""QueryExecutor: ordered execution of scan tasks.

Both read paths use it the same way:

* LSM search runs one task per visible segment
  (:meth:`~repro.storage.lsm.LSMManager.search`);
* the cluster runs one task per live reader
  (:meth:`~repro.distributed.cluster.MilvusCluster.search`).

Tasks run one after another on the calling thread, and results come
back in submission order, so the merge, the profile stage tree and
the work counters are the same on every run.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Ordered task runner with per-slot error capture."""

    def map_settled(
        self,
        fns: Sequence[Callable[[], object]],
        catch: Tuple[type, ...] = (),
    ) -> List[Tuple[object, Optional[BaseException]]]:
        """Run every task; returns ordered ``(result, error)`` pairs.

        ``catch`` names the exception types captured per slot (the
        cluster's degraded-read semantics); anything else propagates
        at once, and the tasks after it never run.
        """
        settled: List[Tuple[object, Optional[BaseException]]] = []
        for fn in fns:
            try:
                settled.append((fn(), None))
            except catch as exc:
                settled.append((None, exc))
        return settled

    def map_ordered(self, fns: Sequence[Callable[[], object]]) -> List[object]:
        """Run every task; ordered results, first error propagates."""
        return [fn() for fn in fns]
