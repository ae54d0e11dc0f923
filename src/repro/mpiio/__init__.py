"""MPI-I/O layer: file views, atomic mode, and pluggable ADIO drivers.

This package plays the role ROMIO plays in the paper: it exposes the MPI-I/O
``File`` interface (open / set_view / write_at[_all] / read_at[_all] /
set_atomicity) to the application, flattens derived-datatype file views into
``(offset, size)`` lists, and delegates the actual data movement to an *ADIO
driver*.  Four drivers reproduce the approaches discussed in the paper:

=====================  =======================================================
``versioning``          the paper's approach: native non-contiguous atomic
                        writes on the versioning backend — no locking at all
``posix-locking``       the traditional approach: lock the smallest contiguous
                        extent covering the whole access on the Lustre-like
                        file system, then issue POSIX writes
``posix-listlock``      lock each accessed range individually instead of the
                        covering extent (finer-grain locking)
``conflict-detect``     Sehrish et al. [9]: ranks of a collective exchange
                        their access patterns and skip locking when no
                        overlap exists
``nolock``              failure injection: no locking at all on the POSIX
                        backend — violates MPI atomicity under concurrency
                        (used to validate the atomicity checker)
=====================  =======================================================
"""

from repro.mpiio.file import File, AccessMode
from repro.mpiio.flatten import flatten_view_access, FileView
from repro.mpiio.adio.base import ADIODriver
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.mpiio.adio.posix_listlock import PosixListLockDriver
from repro.mpiio.adio.conflict_detect import ConflictDetectDriver
from repro.mpiio.adio.nolock import NoLockDriver

__all__ = [
    "File",
    "AccessMode",
    "FileView",
    "flatten_view_access",
    "ADIODriver",
    "VersioningDriver",
    "PosixLockingDriver",
    "PosixListLockDriver",
    "ConflictDetectDriver",
    "NoLockDriver",
]
