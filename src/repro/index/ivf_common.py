"""Shared machinery for quantization-based (IVF) indexes.

Paper Sec. 3.1: "The coarse quantizer applies the K-means algorithm
... to cluster vectors into K buckets. And the fine quantizer encodes
the vectors within each bucket."  Query processing takes two steps:
(1) find the closest ``nprobe`` buckets by centroid distance; (2) scan
each relevant bucket with the fine quantizer.

:class:`IVFIndexBase` implements the coarse step, bucket storage,
bucket selection, and the two-step search loop; fine quantizers only
implement ``_encode``, ``_scan_terms`` and ``_scan_list``.

Storage is one read-only :class:`IVFLayout` per index, shaped like
Faiss's array-backed inverted lists: ``offsets`` delimit each bucket's rows
in bucket-sorted ``ids`` and ``codes`` arrays, next to the per-row
scan terms the fine quantizer needs (``|x|^2`` or unit rows, SQ8 code
casts and decoded norms, PQ flat LUT indices), computed once when the
layout is built.  ``add`` builds a new layout and publishes it with a
single attribute assignment, so a search reads one consistent layout
without taking a lock.

Search is bucket-major: a per-query-batch scan context from
``_begin_scan`` (PQ ADC tables / SQ8 affine terms built exactly once
per batch) is threaded through the scans, every bucket is scanned
once for *all* the queries probing it, and per-query results are
assembled with one :func:`merge_topk_batch` call over the per-bucket
partials (paper Sec. 3.2.1, cache-aware design).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.kmeans import KMeans, assign_to_centroids
from repro.metrics.base import MetricKind
from repro.metrics.dense import l2_squared_pairwise
from repro.obs.profile import current_node
from repro.utils import ensure_positive, merge_topk_batch

DEFAULT_NLIST = 128
DEFAULT_NPROBE = 8

#: row-aligned per-row scan terms of a fine quantizer (may be empty).
Terms = Tuple[np.ndarray, ...]


class IVFLayout:
    """Read-only bucket-sorted storage of one IVF index.

    Bucket ``b`` owns rows ``offsets[b]:offsets[b + 1]`` of ``ids``,
    ``codes`` and every array in ``terms``.  Every array is frozen
    (``writeable=False``): an ``add`` publishes a new layout rather
    than mutating this one, so readers never need a lock.
    """

    __slots__ = ("offsets", "ids", "codes", "terms")

    def __init__(
        self, offsets: np.ndarray, ids: np.ndarray, codes: np.ndarray, terms: Terms
    ):
        for arr in (offsets, ids, codes, *terms):
            arr.flags.writeable = False
        self.offsets = offsets
        self.ids = ids
        self.codes = codes
        self.terms = terms

    def bucket(self, list_no: int) -> Tuple[np.ndarray, np.ndarray, Terms]:
        """``(ids, codes, terms)`` views of one bucket's rows."""
        lo, hi = int(self.offsets[list_no]), int(self.offsets[list_no + 1])
        return self.ids[lo:hi], self.codes[lo:hi], tuple(t[lo:hi] for t in self.terms)

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def memory_bytes(self) -> int:
        return sum(a.nbytes for a in (self.offsets, self.ids, self.codes, *self.terms))


class IVFIndexBase(VectorIndex):
    """Coarse-quantized inverted-file index base class."""

    requires_training = True
    SEARCH_PARAMS = frozenset({"nprobe", "row_filter"})

    def __init__(
        self,
        dim: int,
        metric="l2",
        nlist: int = DEFAULT_NLIST,
        kmeans_iters: int = 20,
        seed: Optional[int] = 0,
    ):
        super().__init__(dim, metric)
        if self.metric.kind is not MetricKind.DENSE:
            raise ValueError("IVF indexes support dense metrics only")
        self.nlist = ensure_positive(nlist, "nlist")
        self.kmeans_iters = kmeans_iters
        self.seed = seed
        self.centroids: Optional[np.ndarray] = None
        #: the published storage; ``None`` until the first ``add``.
        self._layout: Optional[IVFLayout] = None

    # -- training --------------------------------------------------------

    def _train(self, vectors: np.ndarray) -> None:
        if len(vectors) < self.nlist:
            raise ValueError(
                f"training needs at least nlist={self.nlist} vectors, got {len(vectors)}"
            )
        km = KMeans(self.nlist, max_iter=self.kmeans_iters, seed=self.seed)
        km.fit(vectors)
        self.centroids = km.centroids
        self._train_fine(vectors)

    def _train_fine(self, vectors: np.ndarray) -> None:
        """Hook: fine quantizers learn their codebooks here."""

    # -- ingest ------------------------------------------------------------

    def _add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Merge the new rows behind the old ones and publish a new layout.

        A *stable* sort by bucket keeps every bucket in insertion order,
        so a layout grown by several adds equals one built by a single
        add of the same rows.  Single writer: concurrent ``add`` calls
        must be serialized by the caller.
        """
        labels, __ = assign_to_centroids(vectors, self.centroids)
        codes = self._encode(vectors)
        old = self._layout
        if old is not None:
            labels = np.concatenate(
                [np.repeat(np.arange(self.nlist), old.sizes()), labels]
            )
            ids = np.concatenate([old.ids, ids])
            codes = np.concatenate([old.codes, codes])
        order = np.argsort(labels, kind="stable")
        offsets = np.zeros(self.nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(labels, minlength=self.nlist), out=offsets[1:])
        self._publish(offsets, ids[order], codes[order])

    def _publish(self, offsets: np.ndarray, ids: np.ndarray, codes: np.ndarray) -> None:
        """Compute the scan terms of bucket-sorted rows and swap the layout in."""
        self._layout = IVFLayout(offsets, ids, codes, self._scan_terms(codes))

    # -- search --------------------------------------------------------------

    def select_buckets(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """Step 1: the ``nprobe`` closest buckets per query, best-first."""
        nprobe = min(ensure_positive(nprobe, "nprobe"), self.nlist)
        node = current_node()
        if node is not None:
            # Coarse step: every query is scored against every centroid.
            node.count("distance_evals", len(queries) * len(self.centroids))
        coarse = l2_squared_pairwise(queries, self.centroids)
        part = np.argpartition(coarse, nprobe - 1, axis=1)[:, :nprobe]
        row_scores = np.take_along_axis(coarse, part, axis=1)
        order = np.argsort(row_scores, axis=1, kind="stable")
        return np.take_along_axis(part, order, axis=1)

    def _search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = DEFAULT_NPROBE,
        row_filter: Optional[np.ndarray] = None,
        **params,
    ) -> SearchResult:
        """Two-step IVF search, bucket-major over the whole query block.

        Args:
            nprobe: number of buckets to probe (accuracy/speed knob).
            row_filter: optional sorted int64 array of admissible row
                ids (used by attribute-filtering strategy B).

        Each bucket is scanned once for the group of queries probing it
        (one kernel call / GEMM per bucket), per-bucket top-k is
        extracted with one vectorized ``argpartition`` over the group,
        and the partials merge with one :func:`merge_topk_batch` call.
        Every (query, bucket) probe still accounts its rows, evals and
        pruning individually in the work counters.
        """
        if params:
            raise TypeError(f"unknown search params: {sorted(params)}")
        layout = self._layout
        bucket_ids = self.select_buckets(queries, nprobe)
        ctx = self._begin_scan(queries)
        nq = len(queries)
        higher = self.metric.higher_is_better
        node = current_node()
        buckets_probed = rows_scanned = pruned = 0

        by_bucket: Dict[int, List[int]] = {}
        for qi in range(nq):
            for b in bucket_ids[qi]:
                by_bucket.setdefault(int(b), []).append(qi)

        # One sparse candidate buffer for the whole block: each query
        # probes at most nprobe buckets contributing <= k rows each, so
        # (nq, nprobe * k) bounds every per-query candidate list.  Each
        # bucket's top rows scatter behind a per-query cursor — no
        # (nq, k)-wide padding per bucket, which would dwarf the real
        # work at small nprobe.
        worst = -np.inf if higher else np.inf
        width = bucket_ids.shape[1] * k
        cand_ids = np.full((nq, width), -1, dtype=np.int64)
        cand_scores = np.full((nq, width), worst, dtype=np.float32)
        cursor = np.zeros(nq, dtype=np.int64)
        for list_no, qlist in by_bucket.items():
            ids, codes, terms = layout.bucket(list_no)
            if len(ids) == 0:
                continue
            group = len(qlist)
            buckets_probed += group
            rows_scanned += group * len(ids)
            if row_filter is not None:
                keep = _sorted_membership(ids, row_filter)
                pruned += group * (len(ids) - int(keep.sum()))
                if not keep.any():
                    continue
                ids, codes = ids[keep], codes[keep]
                terms = tuple(t[keep] for t in terms)
            qidx = np.asarray(qlist, dtype=np.int64)
            scores = self._scan_list(queries[qidx], codes, terms, ctx, qidx)
            top_idx, top_scores = _topk_rows(scores, k, higher)
            k_eff = top_idx.shape[1]
            cols = cursor[qidx, np.newaxis] + np.arange(k_eff)
            cand_ids[qidx[:, np.newaxis], cols] = ids[top_idx]
            cand_scores[qidx[:, np.newaxis], cols] = top_scores
            cursor[qidx] += k_eff

        result = SearchResult.empty(nq, k, self.metric)
        if cursor.any():
            out_ids, out_scores = merge_topk_batch(
                [(cand_ids, cand_scores)], k, higher, nq=nq
            )
            result.ids[:] = out_ids
            result.scores[:] = out_scores
        if node is not None:
            node.count("buckets_probed", buckets_probed)
            node.count("rows_scanned", rows_scanned)
            if pruned:
                node.count("candidates_pruned", pruned)
        return result

    def _range_search(
        self, queries: np.ndarray, radius: float, nprobe: int = DEFAULT_NPROBE,
        **params,
    ):
        """Approximate range search: scan the ``nprobe`` nearest buckets
        and keep every row passing the radius (recall bounded by bucket
        coverage, like top-k IVF search)."""
        if params:
            raise TypeError(f"unknown range params: {sorted(params)}")
        layout = self._layout
        bucket_ids = self.select_buckets(queries, nprobe)
        ctx = self._begin_scan(queries)
        out = [[] for __ in range(len(queries))]
        for qi in range(len(queries)):
            qidx = np.array([qi], dtype=np.int64)
            for list_no in bucket_ids[qi]:
                ids, codes, terms = layout.bucket(int(list_no))
                if len(ids) == 0:
                    continue
                scores = self._scan_list(
                    queries[qi : qi + 1], codes, terms, ctx, qidx
                )[0]
                if self.metric.higher_is_better:
                    hits = np.flatnonzero(scores >= radius)
                else:
                    hits = np.flatnonzero(scores <= radius)
                out[qi].extend((int(ids[h]), float(scores[h])) for h in hits)
            out[qi].sort(key=lambda p: p[1], reverse=self.metric.higher_is_better)
        return out

    # -- fine quantizer hooks ---------------------------------------------

    def _begin_scan(self, queries: np.ndarray):
        """Hook: build a per-query-batch scan context (or ``None``).

        Called once per search batch before any bucket is scanned; the
        returned context is threaded into every ``_scan_list`` call of
        the batch so per-query precomputations (PQ ADC tables, SQ8
        affine terms) are never rebuilt per probed bucket.
        """
        return None

    @abc.abstractmethod
    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        """Encode raw vectors into this index's code format."""

    @abc.abstractmethod
    def _scan_terms(self, codes: np.ndarray) -> Terms:
        """Query-independent per-row scan terms of ``codes`` (row-aligned)."""

    @abc.abstractmethod
    def _scan_list(
        self,
        queries: np.ndarray,
        codes: np.ndarray,
        terms: Terms,
        ctx,
        qidx: np.ndarray,
    ) -> np.ndarray:
        """Score queries against one bucket's codes -> (m, len(codes)).

        ``terms`` are the matching rows of :meth:`_scan_terms`, ``ctx``
        is the batch context from :meth:`_begin_scan` and ``qidx`` the
        row indices of ``queries`` within that batch context.
        """

    # -- introspection -------------------------------------------------------

    @property
    def ntotal(self) -> int:
        layout = self._layout
        return 0 if layout is None else len(layout.ids)

    def memory_bytes(self) -> int:
        total = 0 if self._layout is None else self._layout.memory_bytes()
        if self.centroids is not None:
            total += self.centroids.nbytes
        return total

    def bucket_sizes(self) -> np.ndarray:
        """Occupancy per bucket (diagnostics / scheduler input)."""
        if self._layout is None:
            return np.zeros(self.nlist, dtype=np.int64)
        return self._layout.sizes()

    def stats(self) -> Dict[str, object]:
        base = super().stats()
        base["nlist"] = self.nlist
        if self.ntotal:
            sizes = self.bucket_sizes()
            base["bucket_min"] = int(sizes.min())
            base["bucket_max"] = int(sizes.max())
        return base


def _topk_rows(
    scores: np.ndarray, k: int, higher_is_better: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k over a 2-D score block, best-first.

    The vectorized form of :func:`topk_from_scores` applied to every
    row at once: one ``argpartition`` + stable argsort for the whole
    query group instead of a python call per (query, bucket) pair.
    Returns ``(indices, scores)`` of shape ``(rows, min(k, n))``.
    """
    rows, n = scores.shape
    k_eff = min(k, n)
    keyed = -scores if higher_is_better else scores
    row_idx = np.arange(rows)[:, np.newaxis]
    if k_eff < n:
        sel = np.argpartition(keyed, k_eff - 1, axis=1)[:, :k_eff]
        part = keyed[row_idx, sel]
    else:
        sel = np.broadcast_to(np.arange(n), (rows, n))
        part = keyed
    order = np.argsort(part, axis=1, kind="stable")
    idx = sel[row_idx, order]
    return idx, scores[row_idx, idx]


def _sorted_membership(ids: np.ndarray, sorted_filter: np.ndarray) -> np.ndarray:
    """Boolean mask of ``ids`` present in the sorted ``sorted_filter``."""
    pos = np.searchsorted(sorted_filter, ids)
    pos = np.minimum(pos, len(sorted_filter) - 1)
    if len(sorted_filter) == 0:
        return np.zeros(len(ids), dtype=bool)
    return sorted_filter[pos] == ids
