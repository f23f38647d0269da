"""Seeded inputs and numpy ground truth.

Every array the program sees comes from :func:`make_dataset`: a
Gaussian mixture (clustered, so IVF recall is meaningful) plus one
numeric attribute drawn independently of the vectors.  Ground truth is
exact numpy brute force, always computed outside timed regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 64
#: attribute values are integers in [0, ATTR_RANGE); the filter
#: [0, FILTER_HIGH] then admits ~30% of rows.
ATTR_RANGE = 100
FILTER_LOW = 0.0
FILTER_HIGH = 29.0
#: mixture centres, drawn N(0, SPREAD) with unit noise around each;
#: SPREAD sets how much clusters overlap, and so how far IVF recall
#: falls below 1.
CLUSTERS = 128
SPREAD = 0.85


@dataclass
class Dataset:
    """Corpus rows, query pool, and the per-row attribute."""

    vectors: np.ndarray     #: (n, DIM) float32 corpus, in insert order
    attr: np.ndarray        #: (n,) float64 attribute, in insert order
    queries: np.ndarray     #: (nq, DIM) float32 query pool


def make_dataset(seed: int, n: int, n_queries: int) -> Dataset:
    """Gaussian mixture of ``CLUSTERS`` centres.

    The same ``seed`` always yields bit-identical arrays.  Queries are
    fresh draws from the same mixture, not corpus members.
    """
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, SPREAD, size=(CLUSTERS, DIM)).astype(np.float32)

    def draw(count: int) -> np.ndarray:
        labels = rng.integers(0, CLUSTERS, size=count)
        noise = rng.normal(0.0, 1.0, size=(count, DIM)).astype(np.float32)
        return (centres[labels] + noise).astype(np.float32)

    vectors = draw(n)
    attr = rng.integers(0, ATTR_RANGE, size=n).astype(np.float64)
    queries = draw(n_queries)
    return Dataset(vectors=vectors, attr=attr, queries=queries)


def exact_topk(queries: np.ndarray, data: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Exact L2 top-``k`` row ids per query, nearest first (float64).

    Rows fewer than ``k`` pad with ``-1``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    out = np.full((len(queries), k), -1, dtype=np.int64)
    if len(data) == 0:
        return out
    data = np.asarray(data, dtype=np.float64)
    data_sq = np.einsum("ij,ij->i", data, data)
    kk = min(k, len(data))
    for lo in range(0, len(queries), 128):
        q = queries[lo:lo + 128]
        d2 = np.einsum("ij,ij->i", q, q)[:, None] - 2.0 * q @ data.T + data_sq[None, :]
        part = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
        order = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1, kind="stable")
        out[lo:lo + 128, :kk] = ids[np.take_along_axis(part, order, axis=1)]
    return out


def recall(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of each truth row's valid ids present in ``found``."""
    found = np.atleast_2d(found)
    truth = np.atleast_2d(truth)
    hits = total = 0
    for f, t in zip(found, truth):
        t = t[t >= 0]
        total += len(t)
        hits += len(np.intersect1d(f, t))
    return hits / total if total else 1.0
