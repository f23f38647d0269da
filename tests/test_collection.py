"""Collection integration: the entity-level API over the LSM engine."""

import numpy as np
import pytest

from repro.core import (
    AttributeField,
    CollectionSchema,
    Collection,
    InvalidQueryError,
    MilvusLite,
    SchemaError,
    VectorField,
)
from repro.storage import LSMConfig, TieredMergePolicy
from repro.datasets import sift_like


def make_collection():
    schema = CollectionSchema(
        "items",
        vector_fields=[VectorField("emb", 16)],
        attribute_fields=[AttributeField("price")],
    )
    cfg = LSMConfig(
        memtable_flush_bytes=1 << 30,
        index_build_min_rows=1 << 30,
        merge_policy=TieredMergePolicy(merge_factor=2, min_segment_bytes=1),
    )
    return Collection(schema, lsm_config=cfg)


@pytest.fixture()
def coll():
    return make_collection()


@pytest.fixture(scope="module")
def data():
    return sift_like(400, dim=16, seed=0)


@pytest.fixture(scope="module")
def prices():
    return np.linspace(0, 100, 400)


class TestInsertSearch:
    def test_insert_returns_monotone_ids(self, coll, data, prices):
        ids1 = coll.insert({"emb": data[:100], "price": prices[:100]})
        ids2 = coll.insert({"emb": data[100:200], "price": prices[100:200]})
        assert ids1.tolist() == list(range(100))
        assert ids2.tolist() == list(range(100, 200))

    def test_flush_makes_visible(self, coll, data, prices):
        coll.insert({"emb": data[:100], "price": prices[:100]})
        assert coll.num_entities == 0
        coll.flush()
        assert coll.num_entities == 100

    def test_search_exact(self, coll, data, prices):
        coll.insert({"emb": data, "price": prices})
        coll.flush()
        result = coll.search("emb", data[33], 1)
        assert result.ids[0, 0] == 33

    def test_payload_validation(self, coll, data, prices):
        with pytest.raises(SchemaError):
            coll.insert({"emb": data[:5]})  # missing attribute
        with pytest.raises(SchemaError):
            coll.insert({"emb": data[:5], "price": prices[:5], "extra": prices[:5]})
        with pytest.raises(SchemaError):
            coll.insert({"emb": np.zeros((5, 17), np.float32), "price": prices[:5]})
        with pytest.raises(SchemaError):
            coll.insert({"emb": data[:5], "price": prices[:3]})

    def test_unknown_field_search(self, coll, data, prices):
        coll.insert({"emb": data[:10], "price": prices[:10]})
        coll.flush()
        with pytest.raises(SchemaError):
            coll.search("missing", data[0], 1)


class TestDeleteUpdate:
    def test_delete(self, coll, data, prices):
        coll.insert({"emb": data, "price": prices})
        coll.flush()
        coll.delete([33])
        coll.flush()
        assert coll.num_entities == 399
        assert coll.search("emb", data[33], 1).ids[0, 0] != 33

    def test_update_assigns_new_id(self, coll, data, prices):
        ids = coll.insert({"emb": data[:10], "price": prices[:10]})
        coll.flush()
        new_ids = coll.update([int(ids[0])], {"emb": data[10:11], "price": prices[10:11]})
        coll.flush()
        assert new_ids[0] == 10
        assert coll.num_entities == 10
        result = coll.search("emb", data[10], 1)
        assert result.ids[0, 0] == 10


class TestAttributeFiltering:
    def test_filter_restricts_results(self, coll, data, prices):
        coll.insert({"emb": data, "price": prices})
        coll.flush()
        result = coll.search("emb", data[0], 10, filter=("price", 0.0, 25.0))
        hit_ids = result.ids[0][result.ids[0] >= 0]
        assert (prices[hit_ids] <= 25.0).all()

    def test_filter_empty_range(self, coll, data, prices):
        coll.insert({"emb": data, "price": prices})
        coll.flush()
        result = coll.search("emb", data[0], 5, filter=("price", 1000.0, 2000.0))
        assert (result.ids == -1).all()

    def test_unknown_attribute(self, coll, data, prices):
        coll.insert({"emb": data[:10], "price": prices[:10]})
        coll.flush()
        with pytest.raises(InvalidQueryError):
            coll.search("emb", data[0], 5, filter=("bogus", 0, 1))


class TestPointReads:
    def test_fetch_vectors(self, coll, data, prices):
        coll.insert({"emb": data, "price": prices})
        coll.flush()
        got = coll.fetch_vectors("emb", [7, 300])
        np.testing.assert_array_equal(got, data[[7, 300]])

    def test_fetch_vectors_missing(self, coll, data, prices):
        coll.insert({"emb": data[:10], "price": prices[:10]})
        coll.flush()
        with pytest.raises(KeyError):
            coll.fetch_vectors("emb", [999])

    def test_fetch_attributes(self, coll, data, prices):
        coll.insert({"emb": data, "price": prices})
        coll.flush()
        got = coll.fetch_attributes("price", [5, 50])
        np.testing.assert_allclose(got, prices[[5, 50]])


class TestAsyncWrites:
    def test_ids_assigned_synchronously(self, data, prices):
        coll = make_collection()
        ids = coll.insert({"emb": data[:10], "price": prices[:10]})
        assert ids.tolist() == list(range(10))
        coll.flush()


class TestSearchParamValidation:
    """A search param no index type declares is rejected on every
    segment kind, before any scan."""

    @pytest.fixture()
    def loaded(self, coll, data, prices):
        coll.insert({"emb": data[:200], "price": prices[:200]})
        coll.flush()
        coll.insert({"emb": data[200:], "price": prices[200:]})
        coll.flush()
        return coll

    @pytest.mark.parametrize("params", [
        {"bogus": 1}, {"nprobee": 4}, {"parallel": True}, {"pool_size": 2},
    ])
    def test_unknown_param_rejected_unindexed(self, loaded, data, params):
        with pytest.raises(InvalidQueryError, match="unknown search params"):
            loaded.search("emb", data[:2], 5, **params)
        with pytest.raises(InvalidQueryError):
            loaded.search("emb", data[:2], 5, filter=("price", 0, 50), **params)

    def test_unknown_param_rejected_indexed(self, loaded, data):
        loaded.create_index("emb", "IVF_FLAT", nlist=4)
        with pytest.raises(InvalidQueryError):
            loaded.search("emb", data[:2], 5, nprobee=4)
        # A declared knob still works.
        assert (loaded.search("emb", data[:2], 5, nprobe=4).ids >= 0).all()

    def test_rest_maps_unknown_param_to_400(self, data):
        from repro.client import RestRouter

        router = RestRouter()
        router.handle("POST", "/collections", {
            "name": "web", "vector_fields": [{"name": "v", "dim": 16}],
            "attribute_fields": ["price"],
        })
        router.handle("POST", "/collections/web/entities", {
            "data": {"v": data[:50].tolist(), "price": list(range(50))},
        })
        router.handle("POST", "/flush", {"collection": "web"})
        body = {"field": "v", "queries": [data[0].tolist()], "k": 3}
        assert router.handle("POST", "/collections/web/search", body).ok
        resp = router.handle("POST", "/collections/web/search",
                             {**body, "params": {"pool_size": 2}})
        assert resp.status == 400
        assert "pool_size" in resp.body["error"]


class TestMaintenance:
    def test_create_index_and_search(self, coll, data, prices):
        coll.insert({"emb": data, "price": prices})
        coll.flush()
        indexed = coll.create_index("emb", "IVF_FLAT", nlist=8)
        assert indexed == 1
        result = coll.search("emb", data[5], 1, nprobe=8)
        assert result.ids[0, 0] == 5

    def test_compact(self, coll, data, prices):
        for i in range(2):
            coll.insert({"emb": data[i * 100:(i + 1) * 100], "price": prices[i * 100:(i + 1) * 100]})
            coll.flush()
        assert coll.compact() >= 0  # auto-merge may have run already

    def test_describe(self, coll, data, prices):
        coll.insert({"emb": data[:10], "price": prices[:10]})
        info = coll.describe()
        assert info["unflushed_rows"] == 10
        assert info["num_entities"] == 0
