"""List-locking ADIO driver: lock each accessed range instead of the extent.

A finer-grain variant of the locking baseline: instead of the covering
extent, only the byte ranges actually touched by the access are locked.  The
number of lock RPCs is the same — each OST still gets one request, carrying
all of the access's ranges on it and granted all-or-nothing, which is also
what keeps writers from deadlocking — so the variant only removes the false
conflicts on unaccessed gap bytes; the lock-granularity ablation (ABL2)
quantifies how much that buys.
"""

from __future__ import annotations

from repro.mpiio.adio.posix_locking import PosixLockingDriver, _ListLockMixin


class PosixListLockDriver(_ListLockMixin, PosixLockingDriver):
    """Per-range locking over the POSIX parallel file system."""

    name = "posix-listlock"
    native_atomicity = False
