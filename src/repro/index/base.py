"""The extensible index interface (paper Sec. 2.2).

A new index plugs into Milvus by implementing:

* :meth:`VectorIndex.train` — learn quantizers / auxiliary structure,
* :meth:`VectorIndex.add` — ingest vectors with explicit row ids,
* :meth:`VectorIndex.search` — batched top-k with per-call parameters,
* :meth:`VectorIndex.memory_bytes` — for bufferpool accounting.

Search results are fixed-shape ``(m, k)`` arrays padded with id ``-1``
and the metric's worst value, so downstream merging never branches on
ragged output.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.metrics import Metric, get_metric
from repro.utils import ensure_matrix, ensure_positive, ensure_vector_dim

PAD_ID = -1


class UnsupportedSearchParamError(TypeError):
    """A search parameter the target index cannot honor.

    Raised instead of silently ignoring the parameter: dropping
    ``row_filter`` on the floor would return *unfiltered* results for
    a filtered query, which is a correctness bug, not a degradation.
    Subclasses :class:`TypeError` so callers with a generic
    "index rejected these params -> fall back to brute force" handler
    (:meth:`repro.storage.segment.Segment.search`) keep working.
    """

    def __init__(self, index_type: str, param: str):
        super().__init__(
            f"index {index_type!r} does not support search param {param!r}"
        )
        self.index_type = index_type
        self.param = param


@dataclass
class SearchResult:
    """Top-k results for a batch of queries.

    Attributes:
        ids: ``(m, k)`` int64 row ids, padded with ``-1``.
        scores: ``(m, k)`` scores, padded with the metric's worst value.
    """

    ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.scores = np.asarray(self.scores)
        if self.ids.shape != self.scores.shape:
            raise ValueError(
                f"ids shape {self.ids.shape} != scores shape {self.scores.shape}"
            )

    @property
    def nq(self) -> int:
        return self.ids.shape[0]

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def row(self, i: int):
        """Valid (id, score) pairs for query ``i``, best-first."""
        mask = self.ids[i] != PAD_ID
        return list(zip(self.ids[i][mask].tolist(), self.scores[i][mask].tolist()))

    @classmethod
    def empty(cls, nq: int, k: int, metric: Metric) -> "SearchResult":
        ids = np.full((nq, k), PAD_ID, dtype=np.int64)
        scores = np.full((nq, k), metric.worst_value(), dtype=np.float64)
        return cls(ids, scores)

    @classmethod
    def from_rows(cls, rows, k: int, metric: Metric) -> "SearchResult":
        """Build a padded result from per-query lists of (id, score)."""
        rows = list(rows)
        out = cls.empty(len(rows), k, metric)
        for i, row in enumerate(rows):
            for j, (item_id, score) in enumerate(row[:k]):
                out.ids[i, j] = item_id
                out.scores[i, j] = score
        return out


class VectorIndex(abc.ABC):
    """Base class for every vector index in the framework."""

    #: registry name, e.g. ``"IVF_FLAT"``; set by subclasses.
    index_type: str = ""
    #: whether :meth:`train` must run before :meth:`add`.
    requires_training: bool = False
    #: the per-call search parameters this index honors.  The adaptive
    #: planner routes its chosen knobs (``nprobe``, ``ef``, ...) only
    #: to indexes that declare them, and the filter engines use
    #: ``"row_filter" in SEARCH_PARAMS`` to decide between pushdown and
    #: explicit rejection.  Declaring a param here is a contract: the
    #: index must *honor* it, never swallow it.
    SEARCH_PARAMS: frozenset = frozenset()

    @classmethod
    def supports_search_param(cls, name: str) -> bool:
        return name in cls.SEARCH_PARAMS

    def __init__(self, dim: int, metric: Union[str, Metric] = "l2"):
        self.dim = ensure_positive(dim, "dim")
        self.metric = get_metric(metric)
        self._trained = not self.requires_training

    # -- lifecycle -----------------------------------------------------

    def train(self, vectors: np.ndarray) -> None:
        """Learn quantizers or other data-dependent structure."""
        vectors = self._check_vectors(vectors)
        self._train(vectors)
        self._trained = True

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Ingest vectors; returns the row ids assigned (or echoed)."""
        if not self._trained:
            raise RuntimeError(
                f"{self.index_type or type(self).__name__} must be trained before add()"
            )
        vectors = self._check_vectors(vectors)
        if ids is None:
            ids = np.arange(self.ntotal, self.ntotal + len(vectors), dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (len(vectors),):
                raise ValueError(
                    f"ids shape {ids.shape} does not match {len(vectors)} vectors"
                )
        self._add(vectors, ids)
        return ids

    def search(self, queries: np.ndarray, k: int, **params) -> SearchResult:
        """Batched top-k search; unknown params raise ``TypeError``."""
        queries = self._check_vectors(queries)
        k = ensure_positive(k, "k")
        if self.ntotal == 0:
            return SearchResult.empty(len(queries), k, self.metric)
        return self._search(queries, k, **params)

    def range_search(self, queries: np.ndarray, radius: float, **params):
        """All rows scoring at least as well as ``radius``.

        For distance metrics: score <= radius; for similarity metrics:
        score >= radius.  Returns per-query lists of (id, score),
        best-first.  Not every index family supports this.
        """
        queries = self._check_vectors(queries)
        if self.ntotal == 0:
            return [[] for __ in range(len(queries))]
        return self._range_search(queries, float(radius), **params)

    def _range_search(self, queries: np.ndarray, radius: float, **params):
        raise NotImplementedError(
            f"{self.index_type or type(self).__name__} does not support range_search"
        )

    # -- subclass hooks ------------------------------------------------

    def _train(self, vectors: np.ndarray) -> None:
        """Default: training is a no-op."""

    @abc.abstractmethod
    def _add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        ...

    @abc.abstractmethod
    def _search(self, queries: np.ndarray, k: int, **params) -> SearchResult:
        ...

    # -- introspection ---------------------------------------------------

    @property
    @abc.abstractmethod
    def ntotal(self) -> int:
        """Number of indexed vectors."""

    @property
    def is_trained(self) -> bool:
        return self._trained

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate resident size, used by the bufferpool."""

    def row_code_bytes(self) -> int:
        """Bytes of stored code scanned per row during search.

        The calibrated cost model uses this to predict ``bytes_read``
        per strategy, distinguishing quantized scans (1 byte/dim for
        SQ8, ``m`` bytes/row for PQ) from full-width float scans.
        Default: uncompressed float32 rows.
        """
        return 4 * self.dim

    def stats(self) -> Dict[str, object]:
        """Human-readable summary for monitoring."""
        return {
            "index_type": self.index_type,
            "dim": self.dim,
            "metric": self.metric.name,
            "ntotal": self.ntotal,
            "memory_bytes": self.memory_bytes(),
        }

    # -- helpers ---------------------------------------------------------

    def _check_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = ensure_matrix(vectors, "vectors")
        return ensure_vector_dim(vectors, self.dim, "vectors")
