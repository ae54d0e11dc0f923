"""Data providers: the chunk stores of BlobSeer.

:class:`DataProviderStore` is the pure (simulation-independent) chunk store;
:class:`SimDataProvider` wraps one store as a cluster service, charging disk
and network time for every chunk transferred.

A stored chunk is the payload object its writer uploaded — ``bytes``, or a
read-only view of the writer's ``bytes`` — never a copy: a chunk is never
rewritten, so a written byte exists once however many snapshots share it.
A range read hands out the stored object when it covers the whole chunk
and a view of it otherwise; the client copies each byte once, into the
``bytes`` its caller receives.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.blobseer.chunk import ChunkKey
from repro.cluster.rpc import Service
from repro.core.listio import Payload
from repro.errors import ChunkNotFound, ProviderUnavailable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class DataProviderStore:
    """In-memory map of chunk key -> immutable payload, with usage counters."""

    def __init__(self, provider_id: str):
        self.provider_id = provider_id
        self._chunks: Dict[ChunkKey, Payload] = {}
        #: cumulative number of bytes ever stored (for load-balancing stats)
        self.bytes_written: int = 0
        self.bytes_read: int = 0
        #: set True by failure-injection tests to simulate a crashed provider
        self.failed: bool = False

    # ------------------------------------------------------------------
    def put_chunk(self, key: ChunkKey, data: Payload) -> None:
        """Store an immutable chunk: ``data`` itself, not a copy of it.
        Re-putting the same key is idempotent."""
        self.ensure_alive()
        existing = self._chunks.get(key)
        if existing is not None and existing != data:
            raise ProviderUnavailable(
                f"chunk {key} re-uploaded with different content on "
                f"{self.provider_id}; chunks are immutable")
        self._chunks[key] = data
        self.bytes_written += len(data)

    def get_chunk(self, key: ChunkKey) -> Payload:
        """Fetch a chunk payload (the stored object)."""
        self.ensure_alive()
        try:
            data = self._chunks[key]
        except KeyError:
            raise ChunkNotFound(f"{key} not stored on {self.provider_id}") from None
        self.bytes_read += len(data)
        return data

    def has_chunk(self, key: ChunkKey) -> bool:
        """True if the chunk is stored here."""
        return key in self._chunks

    def chunk_count(self) -> int:
        """Number of chunks held."""
        return len(self._chunks)

    def stored_bytes(self) -> int:
        """Total payload bytes currently held."""
        return sum(len(data) for data in self._chunks.values())

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the provider as crashed (every further access raises)."""
        self.failed = True

    def recover(self) -> None:
        """Clear the crashed flag (chunks survive, as on a restarted node)."""
        self.failed = False

    def ensure_alive(self) -> None:
        """Raise :class:`ProviderUnavailable` if the provider is down."""
        if self.failed:
            raise ProviderUnavailable(f"provider {self.provider_id} is down")


class SimDataProvider(Service):
    """A data provider deployed on a cluster node.

    The handlers charge disk time for the bytes they store or serve; the
    RPC transport separately charges network time proportional to the
    chunk size.
    """

    def __init__(self, node: "Node", store: Optional[DataProviderStore] = None):
        super().__init__(node, name=f"provider:{node.name}")
        self.store = store or DataProviderStore(provider_id=node.name)

    @property
    def provider_id(self) -> str:
        """Identifier used by the provider manager's allocation tables."""
        return self.store.provider_id

    # ------------------------------------------------------------------
    # RPC handlers (generator methods)
    # ------------------------------------------------------------------
    def put_chunks(self, items):
        """Store a batch of ``(key, data)`` pairs in one request.

        Clients group the chunks of one write by destination provider and
        ship each group as a single RPC (as the BlobSeer client library
        does), so many small pieces do not pay one disk/network round trip
        each.

        Chunks are immutable and no file offset pins them, so the provider
        is an append-only log: the batch is one ``Disk.append``, which an
        idle disk serves as one I/O and a busy one streams down in the same
        sequential run as whatever else is queued (``cluster/disk.py``).  A
        provider that is down refuses on arrival and reserves nothing; one
        that dies while the batch waits fails it — ``put_chunk`` checks
        again — so exactly the batches not yet acknowledged are lost.
        """
        self.store.ensure_alive()
        items = list(items)
        total = sum(len(data) for _key, data in items)
        if total:
            yield from self.node.disk_append(total)
        for key, data in items:
            self.store.put_chunk(key, data)
        return total

    def get_chunk_ranges(self, requests):
        """Serve a batch of ``(key, offset, length)`` range reads in one request.

        A range is the stored object when it is the whole chunk, else a
        read-only view of it: the reader copies its bytes once.  Liveness
        is checked like ``put_chunks``: on arrival (``get_chunk``), before
        any disk time is reserved, and again after the wait.
        """
        requests = list(requests)
        pieces = []
        total = 0
        for key, offset, length in requests:
            data = self.store.get_chunk(key)
            size = len(data)
            if offset < 0 or offset + length > size:
                raise ChunkNotFound(
                    f"range [{offset}, {offset + length}) outside chunk {key} "
                    f"of size {size}")
            pieces.append(data if length == size
                          else memoryview(data)[offset:offset + length])
            total += length
        if total:
            yield from self.node.disk_io(total)
            self.store.ensure_alive()
        return pieces
