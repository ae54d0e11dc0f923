"""Deployment of a BlobSeer instance on a simulated cluster.

A deployment creates the nodes and services of one BlobSeer instance:

* one version manager node,
* one provider manager node,
* ``num_metadata_providers`` metadata provider nodes (hash-partitioned),
* ``num_providers`` data provider nodes (each with a disk).

Clients (MPI ranks) live on *separate* compute nodes and are created as
``BlobClient(deployment, node, name)``.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.blobseer.metadata.provider import SimMetadataProvider
from repro.blobseer.metadata.sharedcache import NodeCacheService
from repro.blobseer.metadata.store import MetadataStore, PartitionedMetadataStore
from repro.blobseer.provider import DataProviderStore, SimDataProvider
from repro.blobseer.provider_manager import SimProviderManager
from repro.blobseer.version_manager import SimVersionManager, VersionManager
from repro.errors import ProviderUnavailable, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node


class BlobSeerDeployment:
    """All services of one BlobSeer instance, placed on cluster nodes."""

    def __init__(self, cluster: "Cluster", num_providers: int = 4,
                 num_metadata_providers: int = 1, chunk_size: int = 64 * 1024,
                 publish_cost: float = 0.0,
                 node_prefix: str = "bs"):
        if num_providers <= 0:
            raise ProviderUnavailable("a deployment needs at least one data provider")
        if num_metadata_providers <= 0:
            raise ProviderUnavailable("a deployment needs at least one metadata provider")

        self.cluster = cluster
        self.chunk_size = chunk_size

        # version manager
        vm_node = cluster.add_node(f"{node_prefix}-vmgr", role="version-manager")
        self.version_manager = SimVersionManager(
            vm_node, VersionManager(), publish_cost=publish_cost)

        # provider manager
        pm_node = cluster.add_node(f"{node_prefix}-pmgr", role="provider-manager")
        self.provider_manager = SimProviderManager(pm_node)

        # metadata providers (hash partitioned shards)
        self.metadata_providers: List[SimMetadataProvider] = []
        for index in range(num_metadata_providers):
            node = cluster.add_node(f"{node_prefix}-meta{index}", role="metadata")
            self.metadata_providers.append(
                SimMetadataProvider(node, MetadataStore(store_id=node.name)))
        self.metadata_store = PartitionedMetadataStore(
            [provider.store for provider in self.metadata_providers])

        #: node-local shared metadata caches, one per compute node name,
        #: created on first attachment (see :meth:`node_cache`)
        self.node_caches: Dict[str, "NodeCacheService"] = {}

        # data providers
        self.data_providers: Dict[str, SimDataProvider] = {}
        for index in range(num_providers):
            node = cluster.add_node(f"{node_prefix}-data{index}", role="data-provider",
                                    with_disk=True)
            service = SimDataProvider(node, DataProviderStore(node.name))
            self.data_providers[service.provider_id] = service
            self.provider_manager.manager.register(service.provider_id)

    # ------------------------------------------------------------------
    def node_cache(self, node: "Node") -> "NodeCacheService":
        """The shared metadata cache service of one compute node.

        Created on first use with the cluster config's capacity; every
        client placed on ``node`` that enables ``shared_metadata_cache``
        attaches to the same instance, which is what lets co-located ranks
        amortize metadata fetches.
        """
        if node.name not in self.node_caches:
            self.node_caches[node.name] = NodeCacheService(
                node.name, capacity=self.cluster.config.shared_cache_capacity)
        return self.node_caches[node.name]

    def shared_cache_stats(self) -> dict:
        """Aggregate shared-tier counters over every node's service."""
        totals = {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0,
                  "unpublished_rejections": 0}
        for service in self.node_caches.values():
            attached = service.attached
            if len(set(attached)) != len(attached):
                raise StorageError(
                    f"shared cache on {service.node_name} holds duplicate "
                    f"attachments {attached} — attach() is idempotent, so a "
                    "duplicate means bookkeeping corrupted")
            snapshot = service.stats.snapshot()
            for key in totals:
                totals[key] += snapshot[key]
        totals["services"] = len(self.node_caches)
        totals["entries"] = sum(len(service)
                                for service in self.node_caches.values())
        totals["attached_clients"] = sum(len(service.attached)
                                         for service in self.node_caches.values())
        return totals

    def data_provider(self, provider_id: str) -> SimDataProvider:
        """Look up a data provider service by id."""
        try:
            return self.data_providers[provider_id]
        except KeyError:
            raise ProviderUnavailable(f"unknown data provider {provider_id!r}") from None

    # ------------------------------------------------------------------
    def fail_provider(self, provider_id: str) -> None:
        """Failure injection: crash a data provider and deregister it."""
        self.data_provider(provider_id).store.fail()
        self.provider_manager.manager.mark_failed(provider_id)

    def recover_provider(self, provider_id: str) -> None:
        """Failure injection: bring a crashed data provider back."""
        self.data_provider(provider_id).store.recover()
        self.provider_manager.manager.mark_recovered(provider_id)

    def stats(self) -> dict:
        """Aggregate storage-side statistics for benchmark reports.

        The ``metadata_read_rpcs`` / ``metadata_put_rpcs`` keys count
        **server-side** handler invocations, although clients expose
        same-named fields counting client-side issue events;
        :func:`repro.obs.views.collect_deployment` files them in a metrics
        registry under unambiguous ``metadata.server.*`` names.
        """
        stores = [service.store for service in self.data_providers.values()]
        get_nodes_rpcs = sum(provider.calls.get("get_nodes", 0)
                             for provider in self.metadata_providers)
        put_nodes_rpcs = sum(provider.calls.get("put_nodes", 0)
                             for provider in self.metadata_providers)
        return {
            "providers": len(stores),
            "chunks": sum(store.chunk_count() for store in stores),
            "stored_bytes": sum(store.stored_bytes() for store in stores),
            "metadata_nodes": self.metadata_store.node_count(),
            "metadata_read_rpcs": get_nodes_rpcs,
            "metadata_put_rpcs": put_nodes_rpcs,
            "snapshots_published": self.version_manager.manager.snapshots_published,
            "tickets_assigned": self.version_manager.manager.tickets_assigned,
            "load_imbalance": self.provider_manager.manager.load_imbalance(),
            "shared_cache": self.shared_cache_stats(),
        }
