"""The vectored (List-I/O) client under its historical name.

The paper's non-contiguous, MPI-atomic ``vwrite``/``vread`` primitives and
the coalescer's queued interface are methods of
:class:`~repro.blobseer.client.BlobClient`; ``VectoredClient`` is that
class, kept importable from here.
"""

from repro.blobseer.client import BlobClient

VectoredClient = BlobClient

__all__ = ["VectoredClient"]
