"""Synchronous facade over the versioning storage backend.

:class:`VersioningBackend` hides the discrete-event machinery: it owns a
private :class:`~repro.cluster.cluster.Cluster`, deploys BlobSeer services on
it, and exposes ``create_blob`` / ``vwrite`` / ``vread`` / ``read`` / ``write``
as ordinary blocking methods.  Each call spawns a client process on the
facade's compute node and runs the simulation until the operation completes,
so single-client applications (the quickstart, the producer/consumer example)
never have to write generator code.

Benchmarks and multi-writer experiments do *not* use this facade — they place
many :class:`~repro.blobseer.client.BlobClient` instances on distinct
compute nodes of a shared cluster so that their operations genuinely overlap
in simulated time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.client import BlobClient, WriteReceipt
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector


class VersioningBackend:
    """Single-client, synchronous entry point to the paper's storage backend."""

    def __init__(self, num_providers: int = 4, num_metadata_providers: int = 1,
                 chunk_size: int = 64 * 1024,
                 config: Optional[ClusterConfig] = None, seed: int = 0,
                 publish_cost: float = 0.0):
        self.cluster = Cluster(config=config, seed=seed)
        self.deployment = BlobSeerDeployment(
            self.cluster,
            num_providers=num_providers,
            num_metadata_providers=num_metadata_providers,
            chunk_size=chunk_size,
            publish_cost=publish_cost,
        )
        self._client_node = self.cluster.add_node("facade-client", role="compute")
        self.client = BlobClient(self.deployment, self._client_node,
                                 name="facade")

    # ------------------------------------------------------------------
    def _run(self, generator):
        """Drive one client operation to completion and return its result."""
        process = self.cluster.sim.process(generator, name="facade-op")
        return self.cluster.sim.run(stop_event=process)

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create_blob(self, blob_id: str = "blob", size: int = 0,
                    chunk_size: Optional[int] = None) -> str:
        """Create a BLOB and return its id (snapshot 0 = all zeros)."""
        descriptor: BlobDescriptor = self._run(
            self.client.create_blob(blob_id, size, chunk_size))
        return descriptor.blob_id

    def describe(self, blob_id: str) -> BlobDescriptor:
        """Return the BLOB's descriptor (chunk size, capacity, ...)."""
        return self._run(self.client.open_blob(blob_id))

    def latest_version(self, blob_id: str) -> int:
        """Newest published snapshot version of the BLOB."""
        return self._run(self.client.latest_version(blob_id))

    # ------------------------------------------------------------------
    # vectored (non-contiguous) interface — the paper's contribution
    # ------------------------------------------------------------------
    def vwrite(self, blob_id: str,
               access: Union[IOVector, Sequence[Tuple[int, bytes]]]) -> WriteReceipt:
        """Atomic non-contiguous write; returns the receipt (with ``version``)."""
        return self._run(self.client.vwrite_and_wait(blob_id, access))

    def vread(self, blob_id: str,
              access: Union[IOVector, Sequence[Tuple[int, int]]],
              version: Optional[int] = None) -> List[bytes]:
        """Non-contiguous read of one consistent snapshot (default: latest)."""
        return self._run(self.client.vread(blob_id, access, version))

    # ------------------------------------------------------------------
    # classic contiguous interface (stock BlobSeer semantics)
    # ------------------------------------------------------------------
    def write(self, blob_id: str, offset: int, data: bytes) -> WriteReceipt:
        """Contiguous write (a one-element vector)."""
        return self.vwrite(blob_id, [(offset, bytes(data))])

    def read(self, blob_id: str, offset: int, size: int,
             version: Optional[int] = None) -> bytes:
        """Contiguous read from one snapshot."""
        return self.vread(blob_id, [(offset, size)], version)[0]
