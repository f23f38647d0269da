"""Quantized-scan kernels: blocked fast-scan PQ, decode-free SQ8, OPQ.

The paper's Sec. 3.2 performance story is kernel-level: quantized
bucket scans dominate IVF query time, and the engine wins by making
them cache- and SIMD-friendly.  The Faiss library paper describes the
shapes this module reproduces in numpy:

* **Blocked flat-LUT PQ scanning** — the per-query ADC tables
  ``(m, ksub)`` are flattened to one row of ``m * ksub`` floats and
  bucket codes are offset *once* to flat indices
  (``code[:, sub] + sub * ksub``), so scoring a bucket is one fancy
  gather + sum per *block* of sub-quantizers instead of one python-level
  gather per sub-quantizer.  This is the numpy analogue of Faiss's
  register-resident "fast scan" tables: fewer, bigger gathers that stay
  in cache.  The block size trades gather-temp size against python
  overhead and is chosen from the input size;
  ``benchmarks/bench_ablation_kernels.py`` sweeps it.

* **Per-query-batch table reuse** — :class:`PQScanContext` /
  :class:`SQ8ScanContext` are built once per search batch by
  ``IVFIndexBase._begin_scan`` and threaded through every bucket scan,
  so ADC tables (PQ) and affine query terms (SQ8) are never rebuilt
  per probed bucket (previously ``nprobe`` x redundant work).

* **Decode-free SQ8 scoring** — SQ8 decode is affine,
  ``v = a * c + b`` with ``a = vdiff / 255`` and ``b = vmin``, so every
  dense metric factors through the code matrix without materializing a
  float32 reconstruction:

  - ``q . v  = (q * a) . c + q . b``  (one GEMM against the cast codes)
  - ``|v|^2  = (a^2) . c^2 + 2 (a*b) . c + |b|^2``  (query-independent)
  - ``L2     = |q|^2 - 2 q.v + |v|^2``,  ``cosine = q.v / (|q| |v|)``

  The decoded squared norms (:func:`sq8_decoded_sqnorms`) depend only
  on the stored codes; IVF_SQ8 computes them once into its
  bucket-sorted layout, so a bucket scan costs one uint8 -> float32
  cast plus one GEMM.  The cast itself is not stored: at 4x the code
  bytes it would undo SQ8's memory saving over IVF_FLAT.

* **OPQ** — :func:`train_opq_rotation` learns an orthogonal rotation
  ``R`` minimizing PQ reconstruction error by alternating codebook
  training with the orthogonal-Procrustes solve
  ``R = U V^T,  U S V^T = svd(X^T decode(encode(X R)))``.  Rotation
  preserves L2/IP/cosine, so rotated-space ADC scores are raw-space
  scores.  Training is seeded and deterministic.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.metrics.dense import l2_from_expansion, unit_rows

__all__ = [
    "DEFAULT_BLOCK",
    "flatten_tables",
    "flat_code_indices",
    "adc_scan_blocked",
    "PQScanContext",
    "SQ8ScanContext",
    "sq8_decoded_sqnorms",
    "train_opq_rotation",
]

#: sub-quantizers scored per gather in the blocked LUT kernel.  Chosen
#: by the bench_ablation_kernels sweep: big enough to amortize python
#: dispatch, small enough that the (nq, n, block) gather temp stays
#: cache-resident for typical bucket sizes.
DEFAULT_BLOCK = 4

#: when the caller does not pin a block size, scans whose full-width
#: gather temp ``nq * n * m`` stays under this many float32 elements
#: (16 MiB) skip blocking entirely: one gather + sum for all ``m``
#: sub-quantizers beats two python-level dispatch rounds whenever the
#: temp fits comfortably in cache.  The bench_ablation_kernels sweep
#: shows the crossover.
FUSED_GATHER_ELEMS = 1 << 22


# -- blocked flat-LUT PQ scanning ------------------------------------------


def flatten_tables(tables: np.ndarray) -> np.ndarray:
    """ADC tables ``(nq, m, ksub)`` -> contiguous flat LUTs ``(nq, m*ksub)``."""
    nq, m, ksub = tables.shape
    return np.ascontiguousarray(tables.reshape(nq, m * ksub))


def flat_code_indices(codes: np.ndarray, ksub: int) -> np.ndarray:
    """Offset a bucket's ``(n, m)`` codes to flat LUT indices, once.

    Code ``c`` of sub-quantizer ``s`` indexes flat slot ``s * ksub + c``
    of every query's LUT row.  Query-independent, so IVF_PQ stores it
    in its layout, in the narrowest unsigned dtype that holds
    ``m * ksub - 1`` (gathers cost the same as with int64 indices).
    """
    __, m = codes.shape
    dtype = np.min_scalar_type(m * ksub - 1)
    flat = codes.astype(dtype)
    flat += (np.arange(m) * ksub).astype(dtype)
    return flat


def adc_scan_blocked(
    tables_flat: np.ndarray,
    codes: np.ndarray,
    ksub: int,
    block: Optional[int] = None,
    flat_codes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Blocked fast-scan ADC: ``(nq, m*ksub)`` x ``(n, m)`` -> ``(nq, n)``.

    Codes are offset once to flat LUT indices (precomputed
    ``flat_codes`` skips that pass), then each block of sub-quantizers
    is scored with a single gather + sum.  When ``block`` is left
    unpinned it follows the input size: all ``m`` sub-quantizers in one
    gather while the full-width gather temp stays under
    :data:`FUSED_GATHER_ELEMS`, :data:`DEFAULT_BLOCK` beyond that.
    Equivalent to :meth:`ProductQuantizer.adc_scan` up to float
    summation order.
    """
    n, m = codes.shape
    nq = tables_flat.shape[0]
    if block is None:
        block = m if nq * n * m <= FUSED_GATHER_ELEMS else DEFAULT_BLOCK
    if flat_codes is None:
        flat_codes = flat_code_indices(codes, ksub)
    if block >= m:
        return tables_flat[:, flat_codes].sum(axis=2, dtype=np.float32)
    out = np.zeros((nq, n), dtype=np.float32)
    for lo in range(0, m, block):
        gathered = tables_flat[:, flat_codes[:, lo : lo + block]]
        out += gathered.sum(axis=2, dtype=np.float32)
    return out


class PQScanContext:
    """Per-query-batch PQ scan state: flat ADC LUTs built exactly once.

    Built by ``IVFPQIndex._begin_scan`` and threaded through every
    bucket scan of the batch; ``qidx`` selects the LUT rows of the
    queries probing a particular bucket.
    """

    __slots__ = ("tables_flat", "ksub")

    def __init__(self, tables_flat: np.ndarray, ksub: int):
        self.tables_flat = tables_flat
        self.ksub = ksub

    @classmethod
    def build(cls, pq, queries: np.ndarray, metric_name: str) -> "PQScanContext":
        tables = pq.build_tables(queries, metric_name)
        return cls(flatten_tables(tables), pq.ksub)

    def scan(
        self,
        codes: np.ndarray,
        qidx: Optional[np.ndarray] = None,
        terms: Tuple[np.ndarray, ...] = (),
    ) -> np.ndarray:
        """Score the batch rows ``qidx`` against ``(n, m)`` codes.

        ``terms`` may carry the codes' precomputed
        :func:`flat_code_indices`, which skips the offset pass.
        """
        flat = terms[0] if terms else None
        tables = self.tables_flat if qidx is None else self.tables_flat[qidx]
        return adc_scan_blocked(tables, codes, self.ksub, flat_codes=flat)


# -- decode-free SQ8 scanning ----------------------------------------------


def sq8_decoded_sqnorms(sq, codes: np.ndarray) -> np.ndarray:
    """``t_j = |a*C_j + b|^2`` per code row, without decoding.

    Per dimension the expansion ``a^2 c^2 + 2abc + b^2 = (ac + b)^2``
    cancels catastrophically in float32 when ``|ac + b| << |b|``, so it
    accumulates in float64; the finished norm fits float32 and is
    stored narrow, keeping the per-scan broadcasting against the
    (nq, n) score matrix in float32.
    """
    cf = np.asarray(codes, dtype=np.float32)
    a = (sq.vdiff / 255.0).astype(np.float32)
    b = sq.vmin.astype(np.float32)
    t = (
        np.einsum("ij,ij,j->i", cf, cf, a * a, dtype=np.float64)
        + cf @ (2.0 * a * b).astype(np.float64)
        + float(b.astype(np.float64) @ b.astype(np.float64))
    )
    return t.astype(np.float32)


class SQ8ScanContext:
    """Per-query-batch affine terms for decode-free SQ8 scoring.

    With decode ``v = a * c + b`` (``a = vdiff/255``, ``b = vmin``) and
    code matrix ``C`` (uint8, cast to float32 once):

    * query-side, built once per batch: ``qa = q * a`` (``q`` unit-
      normalized first for cosine), ``qb = q . b``, ``|q|^2`` (L2);
    * row-side: ``Cf = float32(C)``, cast per scan, and the decoded
      squared norms from :func:`sq8_decoded_sqnorms`.

    Every metric then reduces to one GEMM ``qa @ Cf.T`` plus rank-one
    corrections — no float32 decode of the bucket, ever.
    """

    __slots__ = ("sq", "metric_name", "qa", "qb", "q_sqnorms")

    def __init__(self, sq, queries: np.ndarray, metric_name: str):
        if metric_name not in ("l2", "ip", "cosine"):
            raise ValueError(f"SQ8 kernel does not support metric {metric_name!r}")
        self.sq = sq
        self.metric_name = metric_name
        a = (sq.vdiff / 255.0).astype(np.float32)
        b = sq.vmin.astype(np.float32)
        q = np.asarray(queries, dtype=np.float32)
        if metric_name == "cosine":
            q = unit_rows(q)
        self.qa = q * a[np.newaxis, :]
        self.qb = q @ b
        if metric_name == "l2":
            self.q_sqnorms = np.einsum("ij,ij->i", q, q)
        else:
            self.q_sqnorms = None

    def scan(
        self,
        codes: np.ndarray,
        qidx: Optional[np.ndarray] = None,
        terms: Tuple[np.ndarray, ...] = (),
    ) -> np.ndarray:
        """Score the batch rows ``qidx`` against ``(n, dim)`` codes.

        ``terms`` may carry the codes' precomputed
        :func:`sq8_decoded_sqnorms` (unused for ip); without it the
        norms are computed here.
        """
        cf = codes.astype(np.float32)
        qa = self.qa if qidx is None else self.qa[qidx]
        qb = self.qb if qidx is None else self.qb[qidx]
        dots = qa @ cf.T + qb[:, np.newaxis]  # q . decode(c), decode-free
        if self.metric_name == "ip":
            return dots
        t = terms[0] if terms else sq8_decoded_sqnorms(self.sq, cf)
        if self.metric_name == "l2":
            q_sq = self.q_sqnorms if qidx is None else self.q_sqnorms[qidx]
            return l2_from_expansion(q_sq[:, np.newaxis], dots, t[np.newaxis, :])
        # cosine: queries are unit rows already; normalize the data side
        # by the decoded norms, zero rows scoring 0 (never NaN).
        vnorm = np.sqrt(t)[np.newaxis, :]
        return np.divide(
            dots, vnorm, out=np.zeros(dots.shape, dtype=np.float32),
            where=vnorm > 0,
        )


# -- OPQ: optimized product quantization rotation --------------------------


def random_rotation(dim: int, seed: Optional[int]) -> np.ndarray:
    """Seeded Haar-ish orthogonal matrix (QR of a gaussian)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    # Fix signs so the factorization (and thus training) is unique.
    q *= np.sign(np.diag(r))[np.newaxis, :]
    return q.astype(np.float32)


def train_opq_rotation(
    vectors: np.ndarray,
    pq_factory: Callable[[], "object"],
    opq_iters: int = 8,
    inner_kmeans_iters: int = 4,
    seed: Optional[int] = 0,
):
    """Alternating OPQ optimization (Ge et al., CVPR 2013, non-parametric).

    Repeats: train PQ codebooks on the rotated data (few k-means
    iterations — they only steer the rotation), reconstruct, and solve
    the orthogonal Procrustes problem
    ``min_R ||X R - decode(encode(X R))||_F`` via one SVD.  Returns
    ``(rotation, pq)`` where ``pq`` is fully trained (default k-means
    budget) on the final rotated data.  Deterministic for a fixed seed:
    the initial rotation is a seeded QR and every inner k-means is
    seeded by the factory.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    rotation = random_rotation(vectors.shape[1], seed)
    for __ in range(max(0, int(opq_iters))):
        rotated = vectors @ rotation
        pq = pq_factory()
        pq.train(rotated, max_iter=inner_kmeans_iters)
        reconstructed = pq.decode(pq.encode(rotated))
        # Procrustes: R = U V^T for U S V^T = svd(X^T X_hat).
        u, __s, vt = np.linalg.svd(
            vectors.T.astype(np.float64) @ reconstructed.astype(np.float64)
        )
        rotation = (u @ vt).astype(np.float32)
    pq = pq_factory()
    pq.train(vectors @ rotation)
    return rotation, pq
