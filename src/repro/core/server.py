"""MilvusLite: the embedded server facade managing collections."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.collection import Collection
from repro.core.errors import CollectionExistsError, CollectionNotFoundError
from repro.core.schema import CollectionSchema
from repro.obs import get_obs
from repro.storage import LSMConfig
from repro.storage.filesystem import FileSystem, InMemoryObjectStore, LocalFileSystem


@dataclass
class ServerConfig:
    """Server-wide defaults.

    Attributes:
        storage: ``"memory"`` (simulated S3), or a path for the local
            filesystem backend.
        lsm: default LSM tunables applied to new collections.
    """

    storage: str = "memory"
    lsm: LSMConfig = field(default_factory=LSMConfig)


class MilvusLite:
    """An embedded, single-process instance of the system.

    Mirrors the SDK surface of the paper's Sec. 2.1: create/drop
    collections, insert, flush, and the three query types (exposed on
    :class:`Collection`).
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self._collections: Dict[str, Collection] = {}

    def _make_fs(self, collection_name: str) -> FileSystem:
        if self.config.storage == "memory":
            return InMemoryObjectStore()
        return LocalFileSystem(f"{self.config.storage}/{collection_name}")

    # -- collection lifecycle --------------------------------------------

    def create_collection(
        self,
        schema: CollectionSchema,
        lsm_config: Optional[LSMConfig] = None,
    ) -> Collection:
        if schema.name in self._collections:
            raise CollectionExistsError(schema.name)
        collection = Collection(
            schema,
            lsm_config=lsm_config or self.config.lsm,
            fs=self._make_fs(schema.name),
        )
        self._collections[schema.name] = collection
        return collection

    def get_collection(self, name: str) -> Collection:
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionNotFoundError(name) from None

    def drop_collection(self, name: str) -> None:
        if name not in self._collections:
            raise CollectionNotFoundError(name)
        del self._collections[name]
        # release the dropped name's usage record (bounded-name budget)
        get_obs().usage.forget(name)

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def list_collections(self) -> List[str]:
        return sorted(self._collections)

    def flush_all(self) -> None:
        for collection in self._collections.values():
            collection.flush()

    def stats(self) -> Dict[str, object]:
        return {
            "collections": {
                name: coll.describe() for name, coll in self._collections.items()
            }
        }
