"""The traditional locking ADIO driver over the POSIX parallel file system.

This reproduces the baseline the paper evaluates against: MPI atomicity is
built on top of POSIX atomicity by locking, at the MPI-I/O layer, the
*smallest contiguous extent covering all regions* of a non-contiguous access
before issuing the POSIX reads/writes.  As the paper points out,
that covering extent also spans unaccessed bytes, so concurrent accesses that
would not actually conflict still serialize — the cost the versioning
approach removes.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.listio import IOVector
from repro.core.regions import RegionList
from repro.mpiio.adio.base import ADIODriver
from repro.posixfs.client import PosixClient
from repro.posixfs.lock_manager import LockMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.mpi.simcomm import Communicator
    from repro.posixfs.deployment import PosixFsDeployment


class PosixLockingDriver(ADIODriver):
    """Covering-extent locking (the default ROMIO-over-POSIX strategy)."""

    name = "posix-locking"
    native_atomicity = False

    def __init__(self, deployment: "PosixFsDeployment", node: "Node",
                 rank_name: Optional[str] = None,
                 stripe_size: Optional[int] = None,
                 stripe_count: Optional[int] = None):
        self.deployment = deployment
        self.client = PosixClient(deployment, node,
                                  name=rank_name or f"adio:{node.name}")
        self.stripe_size = stripe_size
        self.stripe_count = stripe_count
        #: simulated time spent waiting for MPI-I/O layer (fcntl) locks
        self.lock_wait_time: float = 0.0

    # ------------------------------------------------------------------
    @property
    def observability(self):
        """The cluster's observability handle (latency digests)."""
        return self.client.cluster.obs

    # ------------------------------------------------------------------
    def _lock_regions(self, path: str, vector: IOVector, mode: LockMode):
        """What to lock for an atomic access: the covering extent."""
        extent = vector.covering_extent()
        return RegionList([extent]) if not extent.empty else RegionList()

    # ------------------------------------------------------------------
    def open(self, path: str, size_hint: int, create: bool, rank: int = 0,
             comm: Optional["Communicator"] = None):
        """Collective open: rank 0 creates the file, everyone then opens it."""
        if create and rank == 0:
            attributes = yield from self.client.create(
                path, stripe_size=self.stripe_size,
                stripe_count=self.stripe_count, exist_ok=True)
        if comm is not None:
            yield from comm.barrier(rank)
        attributes = yield from self.client.open(path)
        return attributes

    def _lock(self, path: str, vector: IOVector, mode: LockMode, atomic: bool):
        """In atomic mode, take the MPI-I/O layer (fcntl) lock of the access
        and account the wait; ``None`` otherwise."""
        if not atomic:
            return None
        handle = yield from self.client.lock_regions(
            path, self._lock_regions(path, vector, mode), mode,
            namespace="fcntl")
        self.lock_wait_time += handle.wait_time
        return handle

    # while the MPI-I/O layer lock is held the per-request POSIX extent locks
    # are redundant (nobody else can conflict), so the client skips them —
    # otherwise the baseline would be charged twice for the same mutual
    # exclusion — and moves the whole access with one bulk RPC per OST
    def write_vector(self, path: str, vector: IOVector, atomic: bool,
                     rank: int = 0, comm: Optional["Communicator"] = None):
        """Lock (covering extent), write the regions, unlock."""
        handle = yield from self._lock(path, vector, LockMode.EXCLUSIVE, atomic)
        written = yield from self.client.write_vector(path, vector,
                                                      _locked=handle is not None)
        if handle is not None:
            yield from self.client.unlock(handle)
        return written

    def read_vector(self, path: str, vector: IOVector, atomic: bool,
                    rank: int = 0, comm: Optional["Communicator"] = None):
        """Lock (shared covering extent) in atomic mode, read, unlock."""
        handle = yield from self._lock(path, vector, LockMode.SHARED, atomic)
        data = yield from self.client.read_vector(
            path, vector, _locked=handle is not None)
        if handle is not None:
            yield from self.client.unlock(handle)
        return data

    def file_size(self, path: str):
        """Size recorded by the MDS."""
        attributes = yield from self.client.stat(path)
        return attributes.size


class _ListLockMixin:
    """Shared helper turning the lock target into the exact accessed ranges."""

    def _lock_regions(self, path: str, vector: IOVector, mode: LockMode):
        return vector.region_list().normalized()
