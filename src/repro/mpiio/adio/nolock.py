"""Failure-injection driver: POSIX writes with no MPI-I/O-layer locking.

This driver deliberately ignores atomic mode.  Under concurrent overlapping
non-contiguous writes it produces interleaved, non-serializable file states —
exactly the inconsistency the paper's introduction warns about.  The test
suite uses it to prove that the atomicity checker (and thus the property
tests guarding the real drivers) actually detects violations.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.listio import IOVector
from repro.core.regions import RegionList
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.posixfs.lock_manager import LockMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.simcomm import Communicator


class NoLockDriver(PosixLockingDriver):
    """No locking at the MPI-I/O layer — atomic mode is silently ignored."""

    name = "nolock"
    native_atomicity = False

    def write_vector(self, path: str, vector: IOVector, atomic: bool,
                     rank: int = 0, comm: Optional["Communicator"] = None):
        written = yield from self.client.write_vector(path, vector)
        return written

    def read_vector(self, path: str, vector: IOVector, atomic: bool,
                    rank: int = 0, comm: Optional["Communicator"] = None):
        data = yield from self.client.read_vector(path, vector)
        return data
