"""The version manager: snapshot tickets and in-order publication.

The version manager is the serialization point of BlobSeer — but a very
cheap one: writers contact it only twice per write (once to obtain a version
*ticket*, once to report completion), exchanging tiny control messages, while
the heavy data transfers proceed with no coordination at all.  Snapshots are
*published* strictly in ticket order: snapshot ``v`` becomes visible to
readers only once every snapshot ``<= v`` has reported completion, which is
exactly what makes each published snapshot equivalent to a serial application
of whole vectored writes — i.e. MPI atomicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.blobseer.blob import BlobDescriptor
from repro.cluster.rpc import Service
from repro.errors import BlobNotFound, StorageError, VersionNotFound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.simengine import Event


@dataclass
class _BlobVersionState:
    """Per-BLOB publication bookkeeping."""

    descriptor: BlobDescriptor
    next_version: int = 1
    latest_published: int = 0
    completed: Set[int] = field(default_factory=set)
    assigned: Set[int] = field(default_factory=set)
    aborted: Set[int] = field(default_factory=set)


class VersionManager:
    """Pure (simulation-independent) ticketing and publication logic."""

    def __init__(self) -> None:
        self._blobs: Dict[str, _BlobVersionState] = {}
        #: total tickets handed out (benchmark metric)
        self.tickets_assigned: int = 0
        #: total snapshots published (benchmark metric)
        self.snapshots_published: int = 0
        #: tickets released by failed writers (their versions publish empty)
        self.tickets_aborted: int = 0

    # ------------------------------------------------------------------
    def create_blob(self, descriptor: BlobDescriptor,
                    exist_ok: bool = False) -> BlobDescriptor:
        """Register a new BLOB; version 0 (all zeros) is immediately published.

        With ``exist_ok`` an existing BLOB's descriptor is returned instead of
        raising — the behaviour collective MPI-I/O opens rely on.
        """
        if descriptor.blob_id in self._blobs:
            if exist_ok:
                return self._blobs[descriptor.blob_id].descriptor
            raise StorageError(f"blob {descriptor.blob_id!r} already exists")
        self._blobs[descriptor.blob_id] = _BlobVersionState(descriptor=descriptor)
        return descriptor

    def get_blob(self, blob_id: str) -> BlobDescriptor:
        """Descriptor lookup."""
        return self._state(blob_id).descriptor

    def blob_exists(self, blob_id: str) -> bool:
        """True if the BLOB has been created."""
        return blob_id in self._blobs

    def _state(self, blob_id: str) -> _BlobVersionState:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise BlobNotFound(f"unknown blob {blob_id!r}") from None

    # ------------------------------------------------------------------
    def assign_ticket(self, blob_id: str) -> Tuple[int, int]:
        """Hand out the next snapshot version; returns ``(version, base_version)``.

        The base version is the ticket's predecessor: the snapshot against
        which untouched data is shadowed, and the snapshot right before this
        write in the serialization order.
        """
        state = self._state(blob_id)
        version = state.next_version
        state.next_version += 1
        state.assigned.add(version)
        self.tickets_assigned += 1
        return version, version - 1

    def complete(self, blob_id: str, version: int) -> Tuple[int, List[int]]:
        """Report that the write holding ``version`` finished its metadata.

        Returns ``(latest_published, newly_published)``: publication advances
        over every consecutive completed version.
        """
        state = self._state(blob_id)
        if version not in state.assigned:
            raise VersionNotFound(
                f"version {version} of {blob_id!r} was never assigned")
        if version <= state.latest_published:
            # published snapshots drop out of ``completed``, so this duplicate
            # report is recognized by the publication watermark instead
            raise StorageError(
                f"version {version} of {blob_id!r} is already published; "
                f"completion was reported again after publication")
        if version in state.completed:
            raise StorageError(
                f"version {version} of {blob_id!r} reported complete twice "
                f"(still awaiting publication)")
        state.completed.add(version)
        newly_published = self._advance(state)
        return state.latest_published, newly_published

    def abort(self, blob_id: str, version: int) -> Tuple[int, List[int]]:
        """Release a ticket whose write failed before completing.

        The version still occupies its slot in the publication order, so it
        is marked publishable *empty* (no metadata was reachable under it —
        readers of the aborted version see its predecessor's contents) and
        the watermark may advance past it.  Without this, one crashed-or-
        failed writer would stall publication for every later ticket.
        """
        state = self._state(blob_id)
        if version not in state.assigned:
            raise VersionNotFound(
                f"version {version} of {blob_id!r} was never assigned")
        if version <= state.latest_published:
            raise StorageError(
                f"version {version} of {blob_id!r} is already published "
                f"and cannot be aborted")
        if version in state.completed:
            raise StorageError(
                f"version {version} of {blob_id!r} already reported "
                f"completion and cannot be aborted")
        state.completed.add(version)
        state.aborted.add(version)
        self.tickets_aborted += 1
        newly_published = self._advance(state)
        return state.latest_published, newly_published

    def _advance(self, state: _BlobVersionState) -> List[int]:
        """Publish every consecutive completed version; return the new ones."""
        newly_published: List[int] = []
        while (state.latest_published + 1) in state.completed:
            state.latest_published += 1
            state.completed.discard(state.latest_published)
            newly_published.append(state.latest_published)
            if state.latest_published in state.aborted:
                state.aborted.discard(state.latest_published)
            else:
                self.snapshots_published += 1
        return newly_published

    # ------------------------------------------------------------------
    def latest_published(self, blob_id: str) -> int:
        """Newest readable snapshot version."""
        return self._state(blob_id).latest_published

    def is_published(self, blob_id: str, version: int) -> bool:
        """True if ``version`` is readable (<= latest published)."""
        return version <= self._state(blob_id).latest_published

    def pending_versions(self, blob_id: str) -> List[int]:
        """Assigned-but-unpublished versions (diagnostics / failure tests)."""
        state = self._state(blob_id)
        return sorted(v for v in state.assigned
                      if v > state.latest_published)


class SimVersionManager(Service):
    """The version manager deployed as a cluster service.

    ``publish_cost`` charges a fixed amount of simulated time per published
    snapshot inside the (serialized) publication step; the metadata-overhead
    ablation (ABL3) sweeps it to show how cheap this serialization point has
    to be for the versioning approach to keep its advantage.
    """

    def __init__(self, node: "Node", manager: Optional[VersionManager] = None,
                 publish_cost: float = 0.0):
        super().__init__(node, name="version-manager")
        self.manager = manager or VersionManager()
        self.publish_cost = publish_cost
        # blob_id -> list of (version, event) waiting for publication
        self._waiters: Dict[str, List[Tuple[int, "Event"]]] = {}

    # ------------------------------------------------------------------
    # RPC handlers (generator methods)
    # ------------------------------------------------------------------
    def create_blob(self, descriptor: BlobDescriptor, exist_ok: bool = False):
        """Register a BLOB."""
        return self.manager.create_blob(descriptor, exist_ok)
        yield  # pragma: no cover - makes this a generator function

    def get_blob(self, blob_id: str):
        """Descriptor lookup."""
        return self.manager.get_blob(blob_id)
        yield  # pragma: no cover - makes this a generator function

    def assign_ticket(self, blob_id: str):
        """Hand out the next version ticket."""
        return self.manager.assign_ticket(blob_id)
        yield  # pragma: no cover - makes this a generator function

    def complete(self, blob_id: str, version: int):
        """Record completion; publish in order; wake waiting readers."""
        latest, newly_published = self.manager.complete(blob_id, version)
        if self.publish_cost and newly_published:
            yield self.node.sim.sleep(self.publish_cost * len(newly_published))
        self._wake_waiters(blob_id, latest)
        return latest

    def abort(self, blob_id: str, version: int):
        """Release a failed writer's ticket; publication may advance past it."""
        latest, newly_published = self.manager.abort(blob_id, version)
        if self.publish_cost and newly_published:
            yield self.node.sim.sleep(self.publish_cost * len(newly_published))
        self._wake_waiters(blob_id, latest)
        return latest

    def latest(self, blob_id: str):
        """Newest readable snapshot."""
        return self.manager.latest_published(blob_id)
        yield  # pragma: no cover - makes this a generator function

    def wait_published(self, blob_id: str, version: int):
        """Block the caller until ``version`` becomes readable."""
        if self.manager.is_published(blob_id, version):
            return self.manager.latest_published(blob_id)
        event = self.node.sim.event()
        self._waiters.setdefault(blob_id, []).append((version, event))
        yield event
        return self.manager.latest_published(blob_id)

    # ------------------------------------------------------------------
    def _wake_waiters(self, blob_id: str, latest: int) -> None:
        waiters = self._waiters.get(blob_id, [])
        remaining: List[Tuple[int, "Event"]] = []
        for version, event in waiters:
            if version <= latest:
                event.succeed(latest)
            else:
                remaining.append((version, event))
        self._waiters[blob_id] = remaining
