"""Unit tests for the version manager (tickets and in-order publication)."""

import pytest

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.version_manager import SimVersionManager, VersionManager
from repro.cluster import Cluster, ClusterConfig
from repro.errors import BlobNotFound, StorageError, VersionNotFound


def make_manager():
    manager = VersionManager()
    manager.create_blob(BlobDescriptor.create("b", 1024, 64))
    return manager


class TestNamespace:
    def test_create_and_get(self):
        manager = make_manager()
        assert manager.get_blob("b").blob_id == "b"
        assert manager.blob_exists("b")
        assert not manager.blob_exists("other")

    def test_duplicate_create_rejected(self):
        manager = make_manager()
        with pytest.raises(StorageError):
            manager.create_blob(BlobDescriptor.create("b", 10, 64))

    def test_unknown_blob_rejected(self):
        with pytest.raises(BlobNotFound):
            VersionManager().get_blob("nope")


class TestTickets:
    def test_tickets_are_sequential(self):
        manager = make_manager()
        assert manager.assign_ticket("b") == (1, 0)
        assert manager.assign_ticket("b") == (2, 1)
        assert manager.assign_ticket("b") == (3, 2)
        assert manager.tickets_assigned == 3

    def test_initial_published_version_is_zero(self):
        manager = make_manager()
        assert manager.latest_published("b") == 0
        assert manager.is_published("b", 0)
        assert not manager.is_published("b", 1)


class TestPublication:
    def test_in_order_completion_publishes_immediately(self):
        manager = make_manager()
        manager.assign_ticket("b")
        latest, newly = manager.complete("b", 1)
        assert latest == 1
        assert newly == [1]

    def test_out_of_order_completion_waits_for_predecessor(self):
        manager = make_manager()
        manager.assign_ticket("b")
        manager.assign_ticket("b")
        manager.assign_ticket("b")

        latest, newly = manager.complete("b", 3)
        assert latest == 0 and newly == []
        latest, newly = manager.complete("b", 2)
        assert latest == 0 and newly == []
        latest, newly = manager.complete("b", 1)
        assert latest == 3 and newly == [1, 2, 3]
        assert manager.snapshots_published == 3

    def test_unassigned_version_rejected(self):
        manager = make_manager()
        with pytest.raises(VersionNotFound):
            manager.complete("b", 5)

    def test_double_completion_rejected(self):
        manager = make_manager()
        manager.assign_ticket("b")
        manager.complete("b", 1)
        with pytest.raises(StorageError):
            manager.complete("b", 1)

    def test_completion_after_publication_names_the_real_problem(self):
        """Completing an already-*published* version is not 'completed twice'."""
        manager = make_manager()
        manager.assign_ticket("b")
        manager.complete("b", 1)  # publishes immediately (in ticket order)
        with pytest.raises(StorageError, match="already published"):
            manager.complete("b", 1)

    def test_double_completion_before_publication_says_twice(self):
        manager = make_manager()
        manager.assign_ticket("b")
        manager.assign_ticket("b")
        manager.complete("b", 2)  # waits for version 1: completed, unpublished
        with pytest.raises(StorageError, match="complete twice"):
            manager.complete("b", 2)

    def test_pending_versions(self):
        manager = make_manager()
        manager.assign_ticket("b")
        manager.assign_ticket("b")
        manager.complete("b", 2)
        assert manager.pending_versions("b") == [1, 2]
        manager.complete("b", 1)
        assert manager.pending_versions("b") == []


class TestPublishCost:
    """The deployed service charges ``publish_cost`` per snapshot it
    publishes, inside the call that publishes it."""

    def make_service(self, publish_cost):
        cluster = Cluster(config=ClusterConfig())
        service = SimVersionManager(cluster.add_node("vm"),
                                    publish_cost=publish_cost)
        service.manager.create_blob(BlobDescriptor.create("b", 1024, 64))
        for _ in range(3):
            service.manager.assign_ticket("b")
        return cluster, service

    def timed(self, cluster, call):
        """``(value, simulated seconds)`` of one handler call."""
        started = cluster.sim.now
        value = cluster.sim.run(stop_event=cluster.sim.process(call))
        return value, cluster.sim.now - started

    def test_complete_waits_the_cost_of_every_snapshot_it_publishes(self):
        cluster, service = self.make_service(publish_cost=0.25)
        # version 2 waits for version 1: nothing published, nothing charged
        assert self.timed(cluster, service.complete("b", 2)) == (0, 0.0)
        # version 1 publishes itself and version 2
        latest, elapsed = self.timed(cluster, service.complete("b", 1))
        assert latest == 2
        assert elapsed == pytest.approx(2 * 0.25)

    def test_abort_waits_the_cost_of_every_snapshot_it_publishes(self):
        cluster, service = self.make_service(publish_cost=0.25)
        assert self.timed(cluster, service.complete("b", 3)) == (0, 0.0)
        assert self.timed(cluster, service.complete("b", 2)) == (0, 0.0)
        # releasing version 1 publishes versions 1 to 3
        latest, elapsed = self.timed(cluster, service.abort("b", 1))
        assert latest == 3
        assert elapsed == pytest.approx(3 * 0.25)
        assert service.manager.snapshots_published == 2

    def test_a_zero_cost_publishes_at_once(self):
        cluster, service = self.make_service(publish_cost=0.0)
        assert self.timed(cluster, service.complete("b", 1)) == (1, 0.0)
        assert self.timed(cluster, service.abort("b", 2)) == (2, 0.0)
