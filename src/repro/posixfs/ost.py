"""Object storage targets (OSTs): the striped data servers of the baseline."""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.cluster.rpc import Service
from repro.errors import FileSystemError
from repro.posixfs.lock_manager import LockManager, SimLockService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class ObjectStore:
    """Pure per-OST object storage: object id -> growable byte array."""

    def __init__(self, ost_id: str):
        self.ost_id = ost_id
        self._objects: Dict[str, bytearray] = {}
        self.bytes_written: int = 0
        self.bytes_read: int = 0

    # ------------------------------------------------------------------
    def write_range(self, object_id: str, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset`` of the object (growing it with zeros)."""
        if offset < 0:
            raise FileSystemError(f"negative object offset {offset}")
        obj = self._objects.setdefault(object_id, bytearray())
        end = offset + len(data)
        if end > len(obj):
            obj.extend(b"\x00" * (end - len(obj)))
        obj[offset:end] = data
        self.bytes_written += len(data)
        return len(data)

    def read_range(self, object_id: str, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` (zero-filled past the object end)."""
        if offset < 0 or size < 0:
            raise FileSystemError(f"invalid object read ({offset}, {size})")
        obj = self._objects.get(object_id, bytearray())
        with memoryview(obj) as view:  # one copy, out of the live object
            piece = bytes(view[offset:offset + size])
        if len(piece) < size:
            piece += b"\x00" * (size - len(piece))
        self.bytes_read += size
        return piece

    def object_size(self, object_id: str) -> int:
        """Current length of the stored object (0 if never written)."""
        return len(self._objects.get(object_id, b""))

    def object_count(self) -> int:
        """Number of distinct objects stored on this OST."""
        return len(self._objects)

    def stored_bytes(self) -> int:
        """Total bytes held by this OST."""
        return sum(len(obj) for obj in self._objects.values())


class SimOST(Service):
    """One object storage target: disk-backed object store + its lock service.

    The lock service for the stripes this OST owns is co-located on the same
    node (Lustre's design); it is a separate :class:`Service` so that its
    traffic is accounted independently, but shares the node and its NIC.
    """

    def __init__(self, node: "Node", store: Optional[ObjectStore] = None):
        super().__init__(node, name=f"ost:{node.name}")
        self.store = store or ObjectStore(ost_id=node.name)
        self.locks = SimLockService(node, LockManager(manager_id=f"ldlm:{node.name}"))

    # ------------------------------------------------------------------
    # RPC handlers (generator methods)
    # ------------------------------------------------------------------
    def write_ranges(self, object_id: str, ranges):
        """Write every ``(offset, data)`` of one client access to this OST's
        object, as one disk operation."""
        yield from self.node.disk_io(sum(len(data) for _offset, data in ranges))
        return sum(self.store.write_range(object_id, offset, data)
                   for offset, data in ranges)

    def read_ranges(self, object_id: str, ranges):
        """Read every ``(offset, size)`` of one client access from this OST's
        object, as one disk operation; one ``bytes`` per range."""
        yield from self.node.disk_io(sum(size for _offset, size in ranges))
        return [self.store.read_range(object_id, offset, size)
                for offset, size in ranges]
