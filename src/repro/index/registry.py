"""Index registry: index-type name -> constructor.

This is the "high-level abstraction" of Sec. 2.2 that lets Milvus
"easily incorporate new indexes": registering a class makes it
constructible by name everywhere (collections, benchmarks, config).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Type

from repro.index.annoy import AnnoyIndex
from repro.index.base import VectorIndex
from repro.index.binary_flat import BinaryFlatIndex
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.index.ivf_flat import IVFFlatIndex
from repro.index.ivf_pq import IVFOPQIndex, IVFPQIndex
from repro.index.ivf_sq8 import IVFSQ8Index
from repro.index.nsg import NSGIndex

_REGISTRY: Dict[str, Type[VectorIndex]] = {}


def register_index(cls: Type[VectorIndex], overwrite: bool = False) -> Type[VectorIndex]:
    """Register an index class under ``cls.index_type``.

    Usable as a decorator for third-party indexes::

        @register_index
        class MyIndex(VectorIndex):
            index_type = "MY_INDEX"
            ...
    """
    name = cls.index_type
    if not name:
        raise ValueError("index class must define index_type")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"index type {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def create_index(index_type: str, dim: int, metric="l2", **params) -> VectorIndex:
    """Instantiate an index by registry name."""
    key = index_type.upper()
    try:
        cls = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown index type {index_type!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(dim, metric=metric, **params)


def available_index_types() -> List[str]:
    """Names of every registered index type."""
    return sorted(_REGISTRY)


def search_param_names() -> FrozenSet[str]:
    """Every search param some registered index type declares."""
    return frozenset().union(*(cls.SEARCH_PARAMS for cls in _REGISTRY.values()))


for _cls in (
    FlatIndex,
    BinaryFlatIndex,
    IVFFlatIndex,
    IVFSQ8Index,
    IVFPQIndex,
    IVFOPQIndex,
    HNSWIndex,
    NSGIndex,
    AnnoyIndex,
):
    register_index(_cls)
