"""Our system behind the benchmark interface.

Plain batched index search (bucket-major for the IVF family, the
cache-aware design) plus strategy-D attribute filtering — i.e. the
engine as a user of this library would actually run it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.base import BaselineEngine
from repro.filtering import AttributeFilterEngine
from repro.index import create_index
from repro.index.base import SearchResult
from repro.metrics import get_metric


class MilvusEngine(BaselineEngine):
    """The reproduction's engine: batched, filtered, full-featured."""

    name = "milvus"

    def __init__(
        self,
        index_type: str = "IVF_FLAT",
        metric: str = "l2",
        filter_strategy: str = "D",
        **index_params,
    ):
        self.index_type = index_type
        self.metric = get_metric(metric)
        self.filter_strategy = filter_strategy
        self.index_params = index_params
        self._index = None
        self._filter_engine: Optional[AttributeFilterEngine] = None

    def fit(self, data: np.ndarray, attributes: Optional[np.ndarray] = None) -> None:
        data = np.asarray(data, dtype=np.float32)
        self._index = create_index(
            self.index_type, data.shape[1], metric=self.metric.name, **self.index_params
        )
        if self._index.requires_training:
            self._index.train(data)
        self._index.add(data)
        if attributes is not None:
            self._filter_engine = AttributeFilterEngine(
                data, attributes, metric=self.metric.name, index=self._index
            )

    def search(self, queries: np.ndarray, k: int, **params) -> SearchResult:
        if self._index is None:
            raise RuntimeError("fit() first")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        return self._index.search(queries, k, **params)

    def filtered_search(
        self, queries: np.ndarray, k: int, low: float, high: float, **params
    ) -> SearchResult:
        if self._filter_engine is None:
            raise RuntimeError("fit() with attributes first")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        out = SearchResult.empty(len(queries), k, self.metric)
        for qi in range(len(queries)):
            result = self._filter_engine.search(
                queries[qi], low, high, k, strategy=self.filter_strategy, **params
            )
            out.ids[qi, : len(result.ids)] = result.ids[:k]
            out.scores[qi, : len(result.scores)] = result.scores[:k]
        return out

    def capabilities(self) -> Dict[str, bool]:
        return {
            "billion_scale": True,
            "dynamic_data": True,
            "gpu": True,
            "attribute_filtering": True,
            "multi_vector_query": True,
            "distributed": True,
        }

    def memory_bytes(self) -> int:
        return 0 if self._index is None else self._index.memory_bytes()
