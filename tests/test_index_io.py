"""Index serialization roundtrips."""

import numpy as np
import pytest

from repro.index import (
    SERIALIZABLE_TYPES,
    AnnoyIndex,
    BinaryFlatIndex,
    FlatIndex,
    HNSWIndex,
    IVFFlatIndex,
    IVFPQIndex,
    IVFSQ8Index,
    index_from_bytes,
    index_to_bytes,
)
from repro.datasets import chemical_fingerprints, sift_like


@pytest.fixture(scope="module")
def data():
    return sift_like(500, dim=16, seed=0)


def _roundtrip(index):
    return index_from_bytes(index_to_bytes(index))


class TestRoundtrips:
    def test_flat(self, data):
        index = FlatIndex(16)
        index.add(data, ids=np.arange(100, 600))
        restored = _roundtrip(index)
        r1 = index.search(data[:5], 5)
        r2 = restored.search(data[:5], 5)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        np.testing.assert_allclose(r1.scores, r2.scores)

    def test_bin_flat(self):
        codes, __ = chemical_fingerprints(200, n_bits=128, seed=0)
        index = BinaryFlatIndex(128, metric="jaccard")
        index.add(codes)
        restored = _roundtrip(index)
        np.testing.assert_array_equal(
            index.search(codes[:3], 5).ids, restored.search(codes[:3], 5).ids
        )

    @pytest.mark.parametrize("cls,kwargs", [
        (IVFFlatIndex, {}),
        (IVFSQ8Index, {}),
        (IVFPQIndex, {"m": 4}),
    ])
    def test_ivf_family(self, data, cls, kwargs):
        index = cls(16, nlist=8, seed=0, **kwargs)
        index.train(data)
        index.add(data)
        restored = _roundtrip(index)
        assert restored.ntotal == index.ntotal
        assert restored.is_trained
        r1 = index.search(data[:5], 5, nprobe=8)
        r2 = restored.search(data[:5], 5, nprobe=8)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        np.testing.assert_allclose(r1.scores, r2.scores, rtol=1e-5)

    @pytest.mark.parametrize("cls,kwargs", [
        (IVFFlatIndex, {}),
        (IVFSQ8Index, {}),
        (IVFPQIndex, {"m": 4}),
    ])
    def test_ivf_layout_with_empty_buckets(self, data, cls, kwargs):
        index = cls(16, nlist=8, seed=0, **kwargs)
        index.train(data)
        # Rows from only a few buckets, added in two batches.
        rows = np.flatnonzero(index.select_buckets(data, 1)[:, 0] < 3)
        index.add(data[rows[:20]], ids=rows[:20])
        index.add(data[rows[20:]], ids=rows[20:])
        sizes = index.bucket_sizes()
        assert (sizes == 0).any() and sizes.sum() == len(rows)
        restored = _roundtrip(index)
        np.testing.assert_array_equal(restored.bucket_sizes(), sizes)
        r1 = index.search(data[:5], 5, nprobe=8)
        r2 = restored.search(data[:5], 5, nprobe=8)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        np.testing.assert_array_equal(r1.scores, r2.scores)

    def test_empty_flat(self):
        index = FlatIndex(8)
        restored = _roundtrip(index)
        assert restored.ntotal == 0

    def test_metric_preserved(self, data):
        index = FlatIndex(16, metric="ip")
        index.add(data)
        restored = _roundtrip(index)
        assert restored.metric.name == "ip"


class TestUnsupported:
    @pytest.mark.parametrize("index_factory", [
        lambda: HNSWIndex(8, M=4, seed=0),
        lambda: AnnoyIndex(8, n_trees=2, seed=0),
    ])
    def test_graph_tree_raise(self, index_factory):
        with pytest.raises(TypeError):
            index_to_bytes(index_factory())

    def test_supported_list_sane(self):
        assert "IVF_FLAT" in SERIALIZABLE_TYPES
        assert "HNSW" not in SERIALIZABLE_TYPES
