"""POSIX client of the Lustre-like baseline file system.

The client implements the semantics the paper attributes to POSIX parallel
file systems:

* a single contiguous :meth:`PosixClient.write` or :meth:`PosixClient.read`
  is atomic — internally it takes exclusive (resp. shared) extent locks on
  the OSTs owning the touched stripes before moving data;
* nothing stronger is guaranteed across *sets* of writes, so upper layers
  (the locking ADIO drivers) must build MPI atomicity themselves out of the
  fcntl-style advisory locks exposed by :meth:`PosixClient.lock_regions` /
  :meth:`PosixClient.unlock`.

Per-server budget: an access reaches each OST it touches as one lock request
(every extent it needs there, granted all-or-nothing), one bulk data RPC
served by one disk I/O, and one release.  A client therefore never holds one
range of a lock server while waiting for another range of the same server,
and it visits the servers in ascending OST order: together the two rule out
deadlocks between clients locking several ranges.  (Acquiring range by range
in (OST, offset) order does not: a holder of its first range can queue, no
barging, behind a waiter that its own lock blocks.)
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.listio import IOVector
from repro.core.regions import Extents
from repro.errors import FileSystemError, LockNotHeld
from repro.posixfs.lock_manager import LockMode
from repro.posixfs.mds import FileAttributes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.posixfs.deployment import PosixFsDeployment


class LockHandle:
    """Token set returned by :meth:`PosixClient.lock_regions`."""

    __slots__ = ("entries", "acquired_at", "wait_time")

    def __init__(self, entries: List[Tuple[int, int]], acquired_at: float,
                 wait_time: float):
        #: list of (ost_index, token)
        self.entries = entries
        self.acquired_at = acquired_at
        self.wait_time = wait_time


class PosixClient:
    """Client-side access to a :class:`~repro.posixfs.deployment.PosixFsDeployment`."""

    def __init__(self, deployment: "PosixFsDeployment", node: "Node",
                 name: Optional[str] = None):
        self.deployment = deployment
        self.cluster = deployment.cluster
        self.node = node
        self.name = name or f"posix:{node.name}"
        self._attributes: Dict[str, FileAttributes] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _rpc(self, service, method, request_bytes, response_bytes, *args):
        result = yield from self.cluster.rpc.call(
            self.node, service, method, request_bytes, response_bytes, *args)
        return result

    def _control(self, service, method, *args):
        size = self.cluster.config.control_message_size
        result = yield from self._rpc(service, method, size, size, *args)
        return result

    def _attrs(self, path: str):
        if path not in self._attributes:
            attributes = yield from self._control(self.deployment.mds, "lookup", path)
            self._attributes[path] = attributes
        return self._attributes[path]

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(self, path: str, stripe_size: Optional[int] = None,
               stripe_count: Optional[int] = None, exist_ok: bool = False):
        """Create a file (choosing its striping) and cache its attributes."""
        attributes = yield from self._control(
            self.deployment.mds, "create", path, stripe_size, stripe_count, exist_ok)
        self._attributes[path] = attributes
        return attributes

    def open(self, path: str):
        """Fetch (and cache) the attributes of an existing file."""
        attributes = yield from self._attrs(path)
        return attributes

    def stat(self, path: str):
        """Fresh attributes from the MDS (size included)."""
        attributes = yield from self._control(self.deployment.mds, "lookup", path)
        self._attributes[path] = attributes
        return attributes

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def lock_regions(self, path: str, extents: Extents, mode: LockMode,
                     namespace: str = "fcntl"):
        """Acquire byte-range locks covering the ``(offset, size)`` file
        ``extents`` on every involved OST.

        The extents are mapped into each OST's object-offset space and every
        OST gets one request carrying all of its runs, in ascending OST
        order; the returned :class:`LockHandle` releases them all.
        ``namespace`` separates the advisory (``fcntl``) space used by the
        MPI-I/O drivers from the file system's internal ``data`` space.
        """
        attributes = yield from self._attrs(path)
        started = self.cluster.sim.now
        file_id = f"{namespace}:{path}"
        entries: List[Tuple[int, int]] = []
        for ost_index, runs in sorted(
                attributes.layout.object_extents(extents).items()):
            token = yield from self._control(
                self.deployment.osts[ost_index].locks, "acquire", file_id,
                runs, mode, self.name)
            entries.append((ost_index, token))

        handle = LockHandle(entries, self.cluster.sim.now,
                            self.cluster.sim.now - started)
        return handle

    def unlock(self, handle: LockHandle):
        """Release every lock of a handle (one release per OST)."""
        if handle is None:
            raise LockNotHeld("unlock() of a missing handle")
        for ost_index, token in reversed(handle.entries):
            ost = self.deployment.osts[ost_index]
            yield from self._control(ost.locks, "release", token)
        handle.entries = []
        return None

    # ------------------------------------------------------------------
    # POSIX data path
    # ------------------------------------------------------------------
    def _transfer(self, attributes: FileAttributes, vector: IOVector,
                  writing: bool):
        """Move the bytes of every request of ``vector``: the stripe pieces
        are grouped by OST and each OST serves its group as one bulk RPC and
        one disk I/O, all OSTs concurrently.  No locking and no size update
        — the caller owns both.  Returns, per read request, the OSTs'
        answers for its pieces in file order (each a snapshot of the object
        range: objects are mutable); the caller joins them.  A written piece
        is a view of its request's payload.
        """
        control = self.cluster.config.control_message_size
        map_extent = attributes.layout.map_extent
        #: ost -> (the ``(object offset, data | size)`` ranges it serves,
        #:         where each sits: ``(request index, start in the request)``)
        per_ost: Dict[int, Tuple[list, list]] = {}
        for index, ((offset, size), data) in enumerate(
                zip(vector.extents(), vector.payloads())):
            pieces = map_extent(offset, size)
            if writing and len(pieces) > 1:
                data = memoryview(data)
            for piece in pieces:
                start = piece.file_offset - offset
                ranges, places = per_ost.setdefault(piece.ost_index, ([], []))
                ranges.append((piece.object_offset,
                               (data if piece.length == size
                                else data[start:start + piece.length])
                               if writing else piece.length))
                places.append((index, start))

        #: per read request, its ``(start in the request, bytes)`` pieces
        parts: List[list] = [] if writing else [[] for _ in range(len(vector))]

        def serve(ost_index, ranges, places):
            ost = self.deployment.osts[ost_index]
            object_id = attributes.object_id(ost_index)
            if writing:
                yield from self._rpc(
                    ost, "write_ranges", sum(len(data) for _, data in ranges),
                    control, object_id, ranges)
                return
            pieces = yield from self._rpc(
                ost, "read_ranges", control, sum(size for _, size in ranges),
                object_id, ranges)
            for (index, start), data in zip(places, pieces):
                parts[index].append((start, data))

        if per_ost:
            yield self.cluster.sim.fanout(
                [serve(ost_index, ranges, places)
                 for ost_index, (ranges, places) in sorted(per_ost.items())])
        return [[data for _start, data in sorted(request_parts,
                                                 key=itemgetter(0))]
                for request_parts in parts]

    def _access(self, path: str, vector: IOVector, locked: bool = False):
        """One POSIX-atomic access: lock what ``vector`` touches in the
        ``data`` space, transfer, record the new size after a write, unlock.

        ``locked=True`` skips the implicit lock when an upper layer already
        serialized the access (the locking ADIO drivers do, holding their
        ``fcntl`` lock, to avoid paying for the same mutual exclusion twice).
        """
        attributes = yield from self._attrs(path)
        writing = vector.is_write
        handle = None
        if not locked:
            handle = yield from self.lock_regions(
                path, vector.extents(),
                LockMode.EXCLUSIVE if writing else LockMode.SHARED,
                namespace="data")
        pieces = yield from self._transfer(attributes, vector, writing)
        if writing:
            yield from self._control(self.deployment.mds, "update_size",
                                     path, sum(vector.covering_extent()))
        if handle is not None:
            yield from self.unlock(handle)
        return pieces

    def write(self, path: str, offset: int, data: bytes):
        """POSIX-atomic contiguous write.

        The implicit exclusive extent lock (``data`` namespace) makes the
        write atomic with respect to other contiguous reads/writes — the
        POSIX guarantee the paper says is *not* sufficient for MPI atomicity.
        """
        if not data:
            return 0
        yield from self._access(path, IOVector.contiguous_write(offset, data))
        return len(data)

    def read(self, path: str, offset: int, size: int):
        """POSIX-atomic contiguous read."""
        if size == 0:
            return b""
        pieces = yield from self._access(
            path, IOVector.contiguous_read(offset, size))
        return b"".join(pieces[0])

    # ------------------------------------------------------------------
    # vectored helpers used by the ADIO drivers
    # ------------------------------------------------------------------
    def write_vector(self, path: str, vector: IOVector, _locked: bool = False):
        """Write the vector's requests.

        Without a lock held by the caller they go out one contiguous POSIX
        write at a time and no atomicity is guaranteed across them — exactly
        the gap the locking ADIO drivers must close with advisory locks.
        Under the caller's lock (``_locked=True``) nothing can interleave, so
        the whole vector moves as one access: one bulk RPC per OST.
        """
        if not all(request.is_write for request in vector):
            raise FileSystemError("write_vector() needs a write vector")
        if _locked:
            yield from self._access(path, vector, locked=True)
            return vector.total_bytes()
        total = 0
        for request in vector:
            total += yield from self.write(path, request.offset, request.data)
        return total

    def read_vector(self, path: str, vector: IOVector, _locked: bool = False):
        """Read the vector's requests: one contiguous POSIX read at a time,
        or as one access under the caller's lock (``_locked=True``).

        Returns the requests' bytes back to back as one ``bytes``.  Under
        the lock that is one join of the OSTs' answers; without it, one join
        of the POSIX reads' answers (a read spanning several stripes has
        joined its own answer already).
        """
        if not _locked:
            results: List[bytes] = []
            for request in vector:
                data = yield from self.read(path, request.offset, request.size)
                results.append(data)
            return b"".join(results)
        pieces = yield from self._access(path, vector, locked=True)
        return b"".join([data for request_pieces in pieces
                         for data in request_pieces])
