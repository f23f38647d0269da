"""IVF_FLAT: coarse quantizer + raw vectors as the "fine quantizer"."""

from __future__ import annotations

import numpy as np

from repro.index.ivf_common import IVFIndexBase, Terms
from repro.metrics.dense import (
    cosine_pairwise,
    l2_squared_pairwise,
    squared_norms,
    unit_rows,
)
from repro.obs.profile import profile_count


class IVFFlatIndex(IVFIndexBase):
    """IVF with uncompressed residents — best recall of the IVF family.

    The layout stores the data-side kernel terms next to the rows
    (``|x|^2`` for L2, unit rows for cosine), so a bucket scan is one
    GEMM plus precomputed adds, filtered or not.
    """

    index_type = "IVF_FLAT"

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors, dtype=np.float32)

    def _scan_terms(self, codes: np.ndarray) -> Terms:
        if self.metric.name == "l2":
            return (squared_norms(codes),)
        if self.metric.name == "cosine":
            return (unit_rows(codes),)
        return ()

    def _scan_list(self, queries, codes, terms, ctx, qidx) -> np.ndarray:
        profile_count("distance_evals", len(queries) * len(codes))
        profile_count("bytes_read", len(queries) * codes.nbytes)
        if self.metric.name == "l2":
            return l2_squared_pairwise(queries, codes, data_sq_norms=terms[0])
        if self.metric.name == "cosine":
            return cosine_pairwise(queries, codes, data_unit=terms[0])
        return self.metric.pairwise(queries, codes)
