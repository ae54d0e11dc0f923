"""Simulated MPI: ranks, communicators and derived datatypes.

mpi4py / a real MPI runtime is not available in this environment, so the MPI
processes of the paper's experiments are reproduced as discrete-event
processes: each rank is a generator running on its own compute node of the
simulated cluster, and the communicator provides the collective operations
(barrier, allgather, and a sparse personalized all-to-all) the MPI-I/O layer
and the workloads need.  Derived datatypes (vector, subarray, indexed) describe the
non-contiguous file views exactly as MPI datatypes do, and flatten to the
byte-region lists consumed by the storage back-ends.
"""

from repro.mpi.datatypes import (
    BYTE,
    DOUBLE,
    FLOAT,
    INT,
    Contiguous,
    Datatype,
    Indexed,
    Subarray,
    Vector,
)
from repro.mpi.simcomm import Communicator
from repro.mpi.launcher import MPIContext, run_mpi_job

__all__ = [
    "Datatype",
    "BYTE",
    "INT",
    "FLOAT",
    "DOUBLE",
    "Contiguous",
    "Vector",
    "Indexed",
    "Subarray",
    "Communicator",
    "MPIContext",
    "run_mpi_job",
]
