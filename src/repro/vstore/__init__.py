"""The paper's core contribution: a versioning storage backend with native
non-contiguous, MPI-atomic vectored I/O.

The stock BlobSeer interface supports atomic reads and writes of
*contiguous* regions only.  The paper extends it — exactly as Section V
describes — with List-I/O style primitives ``vwrite`` / ``vread`` that carry
a whole non-contiguous access in a single call and publish it as a single
snapshot, so concurrent overlapping accesses never interleave (MPI
atomicity).  They are methods of :class:`~repro.blobseer.client.BlobClient`
(also importable as ``repro.vstore.client.VectoredClient``); this package
adds :class:`~repro.vstore.backend.VersioningBackend`, a synchronous facade
that deploys a private simulated cluster and exposes the same operations as
plain method calls — the entry point used by the quickstart example and by
applications that do not need to drive the simulation themselves.
"""

from repro.vstore.backend import VersioningBackend

__all__ = ["VersioningBackend"]
