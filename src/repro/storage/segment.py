"""Immutable columnar segments (paper Sec. 2.3/2.4).

"Both index and data are stored in the same segment.  Thus, the
segment is the basic unit of searching, scheduling, and buffering."

A segment stores, for ``n`` entities:

* ``row_ids`` — sorted int64 global row ids;
* one columnar vector matrix per vector field, in row-id order (the
  paper: "all the vectors are sorted by row IDs ... Milvus can
  directly access the corresponding vector");
* one :class:`AttributeColumn` per numeric attribute;
* optionally one :class:`VectorIndex` per vector field, built lazily
  for large segments.

Segments serialize to a single object (npz + JSON header) on any
:class:`FileSystem`; indexes are rebuilt on load rather than
serialized, mirroring Milvus's asynchronous index building.
"""

from __future__ import annotations

import io
import json
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exec.normcache import NormCache
from repro.index import create_index
from repro.index.base import SearchResult, VectorIndex
from repro.metrics import get_metric
from repro.metrics.dense import cosine_pairwise, l2_squared_pairwise
from repro.obs import get_obs
from repro.obs.profile import current_node
from repro.storage.attributes import AttributeColumn, merge_columns
from repro.storage.bloom import BloomFilter
from repro.storage.categorical import CategoricalColumn
from repro.utils import topk_from_scores

#: vector fields spec: name -> (dim, metric_name)
VectorSpecs = Dict[str, Tuple[int, str]]


class Segment:
    """One immutable sealed segment."""

    def __init__(
        self,
        segment_id: int,
        row_ids: np.ndarray,
        vectors: Dict[str, np.ndarray],
        attributes: Dict[str, AttributeColumn],
        vector_specs: VectorSpecs,
        version: int = 0,
        categoricals: Optional[Dict[str, "CategoricalColumn"]] = None,
        bloom: Optional[BloomFilter] = None,
    ):
        self.segment_id = int(segment_id)
        self.version = int(version)
        self.row_ids = np.asarray(row_ids, dtype=np.int64)
        if not np.all(np.diff(self.row_ids) > 0):
            raise ValueError("segment row_ids must be strictly increasing")
        self.vectors = {name: np.asarray(v, dtype=np.float32) for name, v in vectors.items()}
        for name, mat in self.vectors.items():
            if len(mat) != len(self.row_ids):
                raise ValueError(f"vector field {name!r} row count mismatch")
        self.attributes = dict(attributes)
        self.categoricals = dict(categoricals or {})
        self.vector_specs = dict(vector_specs)
        self.indexes: Dict[str, VectorIndex] = {}
        # Row-id membership filter: built at seal time (deterministic
        # from row_ids, so rebuild == deserialize), consulted by
        # contains_mask before the exact searchsorted probe.
        self.bloom = bloom if bloom is not None else BloomFilter.build(self.row_ids)
        # Data-side kernel precomputations (|x|^2 norms, unit rows).
        # Segments are immutable after sealing, so the cache is never
        # invalidated — it lives and dies with the segment object.
        self.kernel_cache = NormCache()

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.row_ids)

    @property
    def num_rows(self) -> int:
        return len(self.row_ids)

    def memory_bytes(self) -> int:
        total = self.row_ids.nbytes
        total += sum(v.nbytes for v in self.vectors.values())
        total += sum(c.memory_bytes() for c in self.attributes.values())
        total += sum(c.memory_bytes() for c in self.categoricals.values())
        total += sum(ix.memory_bytes() for ix in self.indexes.values())
        total += self.kernel_cache.memory_bytes()
        total += self.bloom.memory_bytes()
        return total

    # -- row access -----------------------------------------------------------

    def positions_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Positions of ``row_ids`` within this segment; -1 when absent."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        pos = np.searchsorted(self.row_ids, row_ids)
        pos_clipped = np.minimum(pos, len(self.row_ids) - 1)
        hit = (len(self.row_ids) > 0) & (self.row_ids[pos_clipped] == row_ids)
        return np.where(hit, pos_clipped, -1)

    def vectors_for(self, field: str, row_ids: np.ndarray) -> np.ndarray:
        """Random access to vectors by global row id (rows must exist)."""
        pos = self.positions_of(row_ids)
        if np.any(pos < 0):
            raise KeyError("row id not present in segment")
        return self.vectors[field][pos]

    def contains_mask(self, row_ids: np.ndarray) -> np.ndarray:
        """Membership mask, bloom-accelerated.

        The filter has no false negatives, so a bloom "no" is final and
        skips the binary search entirely; only the "maybe" rows fall
        through to :meth:`positions_of`.  Delete-dedup scans and
        tombstone checks probe every sealed segment for ids that live
        in at most one of them, so most probes resolve in the filter.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) == 0:
            return np.zeros(0, dtype=bool)
        maybe = self.bloom.might_contain(row_ids)
        registry = get_obs().registry
        n_maybe = int(maybe.sum())
        if n_maybe < len(row_ids):
            registry.counter("bloom_negatives_total").inc(len(row_ids) - n_maybe)
        if n_maybe:
            registry.counter("bloom_hits_total").inc(n_maybe)
        mask = np.zeros(len(row_ids), dtype=bool)
        if n_maybe:
            mask[maybe] = self.positions_of(row_ids[maybe]) >= 0
        return mask

    # -- indexing ----------------------------------------------------------------

    def build_index(self, field: str, index_type: str = "IVF_FLAT", **params) -> None:
        """Build (or rebuild) the per-field vector index.

        By default Milvus indexes only large segments; the LSM manager
        decides when to call this (Sec. 2.3).
        """
        dim, metric = self.vector_specs[field]
        data = self.vectors[field]
        index = create_index(index_type, dim, metric=metric, **params)
        if index.requires_training:
            index.train(data)
        index.add(data, ids=self.row_ids)
        self.indexes[field] = index

    def has_index(self, field: str) -> bool:
        return field in self.indexes

    # -- search ----------------------------------------------------------------

    def search(
        self,
        field: str,
        queries: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
        row_filter: Optional[np.ndarray] = None,
        brute_force: bool = False,
        **search_params,
    ) -> SearchResult:
        """Top-k within this segment.

        Args:
            exclude: sorted row ids to hide (delete tombstones).
            row_filter: sorted row ids that are admissible (attribute
                filtering); ``None`` admits everything.
            brute_force: bypass the index and scan exactly — strategy A
                of Sec. 4.1, chosen by the planner at high selectivity.
            search_params: forwarded to the index (``nprobe``, ``ef``...).
        """
        metric = get_metric(self.vector_specs[field][1])
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]

        index = None if brute_force else self.indexes.get(field)
        node = current_node()
        if node is not None:
            node.set_attr(
                "plan",
                f"index:{index.index_type}" if index is not None else "brute_force",
            )
        if index is not None:
            return self._search_with_index(
                index, queries, k, exclude, row_filter, **search_params
            )
        return self._brute_force(metric, field, queries, k, exclude, row_filter)

    def _admissible_mask(self, exclude, row_filter) -> Optional[np.ndarray]:
        mask = None
        if exclude is not None and len(exclude):
            mask = ~_sorted_isin(self.row_ids, exclude)
        if row_filter is not None:
            allow = _sorted_isin(self.row_ids, row_filter)
            mask = allow if mask is None else (mask & allow)
        return mask

    def _pairwise_scores(self, metric, field, queries, data, mask) -> np.ndarray:
        """``metric.pairwise`` with the data-side term from the cache.

        Norms/unit rows are cached for the *full* field matrix and
        sliced by ``mask`` — both are row-wise, so slicing the cached
        result is bit-identical to computing it on the sliced rows.
        """
        if metric.name == "l2":
            norms = self.kernel_cache.squared_norms(field, self.vectors[field])
            if mask is not None:
                norms = norms[mask]
            return l2_squared_pairwise(queries, data, data_sq_norms=norms)
        if metric.name == "cosine":
            unit = self.kernel_cache.unit_rows(field, self.vectors[field])
            if mask is not None:
                unit = unit[mask]
            return cosine_pairwise(queries, data, data_unit=unit)
        return metric.pairwise(queries, data)

    def _brute_force(self, metric, field, queries, k, exclude, row_filter) -> SearchResult:
        mask = self._admissible_mask(exclude, row_filter)
        data = self.vectors[field]
        ids = self.row_ids
        if mask is not None:
            data = data[mask]
            ids = ids[mask]
        result = SearchResult.empty(len(queries), k, metric)
        node = current_node()
        if node is not None:
            node.count("rows_scanned", len(data))
            node.count("distance_evals", len(queries) * len(data))
            if mask is not None:
                node.count("candidates_pruned", len(self.row_ids) - len(data))
        if len(data) == 0:
            return result
        scores = self._pairwise_scores(metric, field, queries, data, mask)
        for qi in range(len(queries)):
            top_ids, top_scores = topk_from_scores(
                scores[qi], k, metric.higher_is_better, ids=ids
            )
            result.ids[qi, : len(top_ids)] = top_ids
            result.scores[qi, : len(top_scores)] = top_scores
        return result

    def _search_with_index(
        self, index, queries, k, exclude, row_filter, **search_params
    ) -> SearchResult:
        metric = index.metric
        n_excluded = 0 if exclude is None else len(exclude)
        # Oversearch so post-filtering tombstones still yields k rows.
        k_eff = min(k + n_excluded, index.ntotal) if n_excluded else k
        if row_filter is not None:
            # IVF indexes support pushdown; others fall back to brute force.
            try:
                raw = index.search(queries, k_eff, row_filter=row_filter, **search_params)
            except TypeError:
                return self._brute_force(metric, _field_of(self, index), queries, k, exclude, row_filter)
        else:
            raw = index.search(queries, k_eff, **search_params)
        if not n_excluded:
            if raw.k == k:
                return raw
            return SearchResult(raw.ids[:, :k], raw.scores[:, :k])
        out = SearchResult.empty(len(queries), k, metric)
        tombstoned = 0
        for qi in range(len(queries)):
            kept = 0
            for item_id, score in zip(raw.ids[qi], raw.scores[qi]):
                if item_id < 0 or kept >= k:
                    break
                if _sorted_contains(exclude, item_id):
                    tombstoned += 1
                    continue
                out.ids[qi, kept] = item_id
                out.scores[qi, kept] = score
                kept += 1
        node = current_node()
        if node is not None and tombstoned:
            node.count("candidates_pruned", tombstoned)
        return out

    # -- attribute access ---------------------------------------------------------

    def attribute_range(self, name: str, low: float, high: float) -> np.ndarray:
        """Row ids in this segment whose attribute falls in [low, high]."""
        return self.attributes[name].range_query(low, high)

    def categorical_in(self, name: str, codes) -> np.ndarray:
        """Row ids whose categorical field matches any of ``codes``."""
        return self.categoricals[name].rows_in(codes)

    # -- merge ------------------------------------------------------------------------

    @classmethod
    def merge(
        cls,
        segment_id: int,
        segments: Sequence["Segment"],
        drop_ids: Optional[np.ndarray] = None,
        version: int = 0,
    ) -> "Segment":
        """Merge segments, dropping tombstoned rows (out-of-place deletes).

        Paper Sec. 2.3: "the obsoleted vectors are removed during
        segment merge."
        """
        if not segments:
            raise ValueError("cannot merge zero segments")
        specs = segments[0].vector_specs
        all_ids = np.concatenate([s.row_ids for s in segments])
        order = np.argsort(all_ids, kind="stable")
        merged_ids = all_ids[order]
        keep = np.ones(len(merged_ids), dtype=bool)
        if drop_ids is not None and len(drop_ids):
            keep &= ~_sorted_isin(merged_ids, np.asarray(drop_ids, dtype=np.int64))
        merged_ids = merged_ids[keep]

        vectors = {}
        for field in specs:
            stacked = np.concatenate([s.vectors[field] for s in segments])
            vectors[field] = stacked[order][keep]

        attributes = {}
        attr_names = segments[0].attributes.keys()
        if drop_ids is not None and len(drop_ids):
            dropset = np.asarray(drop_ids, dtype=np.int64)
        else:
            dropset = None
        for name in attr_names:
            merged_col = merge_columns([s.attributes[name] for s in segments])
            if dropset is not None and len(merged_col):
                keep_attr = ~_sorted_isin_unsorted(merged_col.row_ids, dropset)
                merged_col = AttributeColumn.from_sorted(
                    merged_col.keys[keep_attr], merged_col.row_ids[keep_attr]
                )
            attributes[name] = merged_col

        categoricals = {}
        for name in segments[0].categoricals:
            all_codes = np.concatenate([s.categoricals[name].codes for s in segments])
            categoricals[name] = CategoricalColumn(
                all_codes[order][keep], merged_ids
            )
        return cls(
            segment_id, merged_ids, vectors, attributes, specs,
            version=version, categoricals=categoricals,
        )

    # -- serialization ---------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to one npz blob with a JSON meta entry."""
        meta = {
            "segment_id": self.segment_id,
            "version": self.version,
            "vector_specs": {k: list(v) for k, v in self.vector_specs.items()},
            "attributes": sorted(self.attributes),
            "categoricals": sorted(self.categoricals),
            "bloom": {"k": self.bloom.k, "m": self.bloom.m},
        }
        arrays = {"row_ids": self.row_ids, "bloom_bits": self.bloom.bits}
        for name, mat in self.vectors.items():
            arrays[f"vec__{name}"] = mat
        for name, col in self.attributes.items():
            arrays[f"attr_keys__{name}"] = col.keys
            arrays[f"attr_rows__{name}"] = col.row_ids
        for name, col in self.categoricals.items():
            arrays[f"cat__{name}"] = col.codes
        buf = io.BytesIO()
        np.savez_compressed(buf, meta=np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ), **arrays)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Segment":
        with np.load(io.BytesIO(blob)) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            row_ids = archive["row_ids"]
            specs = {k: (int(v[0]), str(v[1])) for k, v in meta["vector_specs"].items()}
            vectors = {name: archive[f"vec__{name}"] for name in specs}
            attributes = {
                name: AttributeColumn.from_sorted(
                    archive[f"attr_keys__{name}"], archive[f"attr_rows__{name}"]
                )
                for name in meta["attributes"]
            }
            categoricals = {
                name: CategoricalColumn(archive[f"cat__{name}"], row_ids)
                for name in meta.get("categoricals", [])
            }
            bloom = None
            if "bloom" in meta and "bloom_bits" in archive:
                bloom = BloomFilter(
                    archive["bloom_bits"], meta["bloom"]["k"], meta["bloom"]["m"]
                )
        return cls(
            meta["segment_id"], row_ids, vectors, attributes, specs,
            version=meta["version"], categoricals=categoricals, bloom=bloom,
        )


def _field_of(segment: Segment, index: VectorIndex) -> str:
    for name, ix in segment.indexes.items():
        if ix is index:
            return name
    raise KeyError("index not attached to segment")


def _sorted_isin(values: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Membership of sorted ``values`` in sorted ``sorted_ref``."""
    if len(sorted_ref) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_ref, values)
    pos = np.minimum(pos, len(sorted_ref) - 1)
    return sorted_ref[pos] == values


def _sorted_isin_unsorted(values: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Membership of arbitrary-order ``values`` in sorted ``sorted_ref``."""
    return _sorted_isin(values, sorted_ref)


def _sorted_contains(sorted_arr: np.ndarray, value: int) -> bool:
    pos = int(np.searchsorted(sorted_arr, value))
    return pos < len(sorted_arr) and sorted_arr[pos] == value
