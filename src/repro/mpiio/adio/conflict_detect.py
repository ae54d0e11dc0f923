"""Conflict-detection ADIO driver (Sehrish, Wang and Thakur, Euro PVM/MPI'09).

The related-work optimization the paper discusses: before a *collective*
atomic write, the ranks exchange their flattened access patterns; ranks whose
regions overlap nobody else's skip locking entirely, while conflicting ranks
fall back to covering-extent locks.  The exchange itself (an allgather of the
ranks' canonical runs) is the "unnecessary overhead … introduced for
non-overlapping concurrent I/O" acknowledged by its authors — visible in the
EXP1b benchmark.

For independent (non-collective) writes there is nothing to compare against,
so the driver behaves exactly like the covering-extent driver.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.listio import IOVector
from repro.core.regions import canonical_runs, runs_overlap
from repro.mpiio.adio.posix_locking import PosixLockingDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.simcomm import Communicator


class ConflictDetectDriver(PosixLockingDriver):
    """Skip locking for collective accesses proven conflict-free."""

    name = "conflict-detect"
    native_atomicity = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: how many collective writes skipped locking
        self.locks_skipped: int = 0
        #: how many collective writes still had to lock
        self.locks_taken: int = 0

    def write_vector(self, path: str, vector: IOVector, atomic: bool,
                     rank: int = 0, comm: Optional["Communicator"] = None):
        if not atomic or comm is None:
            written = yield from super().write_vector(path, vector, atomic,
                                                      rank, comm)
            return written

        # exchange access patterns (the detection overhead)
        my_runs = canonical_runs(vector.extents())
        all_runs = yield from comm.allgather(rank, my_runs)

        conflict = any(index != rank and runs_overlap(my_runs, other)
                       for index, other in enumerate(all_runs))

        if not conflict:
            self.locks_skipped += 1
            written = yield from self.client.write_vector(path, vector)
            return written

        self.locks_taken += 1
        written = yield from super().write_vector(path, vector, True, rank, comm)
        return written
