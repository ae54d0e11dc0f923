"""A from-scratch re-implementation of the BlobSeer data-sharing service.

BlobSeer (Nicolae et al., JPDC 2011) is the versioning-oriented distributed
storage service the paper builds its back-end on.  Its architecture — which
this package reproduces component by component — consists of:

* **data providers** (:mod:`repro.blobseer.provider`): store fixed-size,
  immutable chunks;
* **a provider manager** (:mod:`repro.blobseer.provider_manager`): tells
  writers which providers to place new chunks on (round-robin allocation —
  the paper's *data striping* principle);
* **metadata providers** (:mod:`repro.blobseer.metadata`): a distributed
  store of the versioned segment-tree nodes that describe each snapshot
  (shadowing / copy-on-write — the paper's *versioning* principle);
* **a version manager** (:mod:`repro.blobseer.version_manager`): assigns
  snapshot version numbers to writes and publishes them in order, which is
  the only point of (brief) serialization in the system;
* **the client library** (:mod:`repro.blobseer.client`): orchestrates the
  write protocol (upload chunks → obtain ticket → weave metadata → publish)
  and the versioned read protocol;
* **the write pipeline** (:mod:`repro.blobseer.writepath`): the commit
  engine behind the client — coalesced snapshot batches, control RPCs
  overlapped with the data transfers, and write-through population of the
  client's metadata cache.

The stock BlobSeer interface only supports *contiguous* reads and writes; the
paper's contribution — the non-contiguous, MPI-atomic extension — is the
client's ``vwrite``/``vread`` pair, and :mod:`repro.vstore` wraps it in a
blocking facade.
"""

from repro.blobseer.blob import BlobDescriptor, BlobId
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.client import BlobClient
from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.provider import DataProviderStore, SimDataProvider
from repro.blobseer.provider_manager import ProviderManager, SimProviderManager
from repro.blobseer.version_manager import SimVersionManager, VersionManager
from repro.blobseer.writepath import (
    PipelinedCommitEngine,
    WriteCoalescer,
    WriteReceipt,
)

__all__ = [
    "PipelinedCommitEngine",
    "WriteCoalescer",
    "WriteReceipt",
    "BlobDescriptor",
    "BlobId",
    "ChunkKey",
    "BlobClient",
    "BlobSeerDeployment",
    "DataProviderStore",
    "SimDataProvider",
    "ProviderManager",
    "SimProviderManager",
    "VersionManager",
    "SimVersionManager",
]
