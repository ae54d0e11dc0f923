"""Core abstractions shared by every storage backend.

* :mod:`repro.core.regions` — byte ranges as integer pairs: ``(offset,
  size)`` extents and canonical ``(start, end)`` runs, with the few set
  operations the stack runs on them;
* :mod:`repro.core.listio` — List-I/O style vectored access descriptors,
  closely following the interface proposal of Ching et al. (CLUSTER'02) that
  the paper's storage API mirrors;
* :mod:`repro.core.atomicity` — an executable definition of MPI atomicity:
  a checker that decides whether a final file state could have been produced
  by *some* serialization of a set of concurrent vectored writes.
"""

from repro.core.regions import Region
from repro.core.listio import IORequest, IOVector
from repro.core.atomicity import (
    VectoredWrite,
    apply_writes,
    check_mpi_atomicity,
    find_serialization,
)

__all__ = [
    "Region",
    "IORequest",
    "IOVector",
    "VectoredWrite",
    "apply_writes",
    "check_mpi_atomicity",
    "find_serialization",
]
