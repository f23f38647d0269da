"""repro.exec — the shared query-execution layer.

The paper's query engine scans its share of the data into a bounded
per-(query, thread) heap and merges the heaps at the end (Sec. 3.2.1).
This package is that execution substrate for the whole read path, run
on the calling thread:

* :class:`~repro.exec.executor.QueryExecutor` — runs independent scan
  tasks (per-segment in LSM search, per-reader in the cluster fan-out)
  **in submission order**, so the merge that follows sees partials in
  a fixed order and results are deterministic;
* :class:`~repro.exec.normcache.NormCache` — per-owner cache of
  data-side kernel precomputations (``|x|^2`` norms for L2,
  unit-normalized rows for cosine), so repeated brute-force scans
  cost one GEMM plus cached adds.
"""

from repro.exec.executor import QueryExecutor
from repro.exec.normcache import NormCache

__all__ = ["QueryExecutor", "NormCache"]
