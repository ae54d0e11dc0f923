"""The locking-based baseline: a Lustre-like striped parallel file system.

This is the storage back-end the paper compares against: a POSIX-compliant
parallel file system where

* file data is striped round-robin over several **object storage targets**
  (:mod:`repro.posixfs.ost`), each with its own disk;
* a **metadata server** (:mod:`repro.posixfs.mds`) owns the namespace and the
  striping layout of each file;
* POSIX atomicity of individual contiguous reads/writes is enforced with
  **distributed byte-range locks** managed by the storage servers that own
  the affected stripes (:mod:`repro.posixfs.lock_manager`), exactly as the
  paper describes for Lustre/GPFS;
* an **fcntl-style advisory lock space** is exposed to upper layers; the
  locking ADIO drivers of :mod:`repro.mpiio` use it to extend POSIX atomicity
  to non-contiguous MPI accesses by locking the covering extent (or each
  range) of an access — the very serialization the paper's versioning
  approach eliminates.
"""

from repro.posixfs.layout import StripeLayout, StripePiece
from repro.posixfs.lock_manager import LockManager, LockMode, LockRequest
from repro.posixfs.mds import FileAttributes, MetadataServer, SimMetadataServer
from repro.posixfs.ost import ObjectStore, SimOST
from repro.posixfs.client import PosixClient
from repro.posixfs.deployment import PosixFsDeployment

__all__ = [
    "StripeLayout",
    "StripePiece",
    "LockManager",
    "LockMode",
    "LockRequest",
    "FileAttributes",
    "MetadataServer",
    "SimMetadataServer",
    "ObjectStore",
    "SimOST",
    "PosixClient",
    "PosixFsDeployment",
]
