"""Experiment environments: one cluster + one storage backend + ADIO drivers.

The experiments always compare *storage back-ends behind the same MPI-I/O
layer*, exactly as the paper plugs both its prototype and Lustre into ROMIO
through their ADIO modules.  ``build_environment`` hides the differences:

* ``versioning`` — a BlobSeer deployment plus the paper's vectored extension,
  accessed through :class:`~repro.mpiio.adio.versioning.VersioningDriver`;
* ``posix-locking`` / ``posix-listlock`` / ``conflict-detect`` / ``nolock`` —
  the Lustre-like deployment accessed through the corresponding locking (or
  deliberately non-atomic) driver.

Both backends get the same number of storage nodes, the same striping unit
and the same cluster hardware parameters, so throughput differences come
from the concurrency-control design, not from the resources handed to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import BenchmarkError
from repro.mpi.launcher import MPIContext
from repro.mpiio.adio.base import ADIODriver
from repro.mpiio.adio.conflict_detect import ConflictDetectDriver
from repro.mpiio.adio.nolock import NoLockDriver
from repro.mpiio.adio.posix_listlock import PosixListLockDriver
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.mpiio.adio.versioning import VersioningDriver
from repro.posixfs.deployment import PosixFsDeployment

#: driver names that run on the Lustre-like POSIX backend
POSIX_BACKENDS = {
    "posix-locking": PosixLockingDriver,
    "posix-listlock": PosixListLockDriver,
    "conflict-detect": ConflictDetectDriver,
    "nolock": NoLockDriver,
}

#: all backend names accepted by :func:`build_environment`
BACKENDS = ("versioning",) + tuple(POSIX_BACKENDS)


@dataclass
class ExperimentEnvironment:
    """Everything a benchmark run needs to start MPI ranks against a backend."""

    backend: str
    cluster: Cluster
    deployment: object
    driver_factory: Callable[[MPIContext], ADIODriver]
    stripe_unit: int
    num_storage_nodes: int

    def storage_stats(self) -> dict:
        """Backend statistics (chunks/objects, locks, publication counters)."""
        return self.deployment.stats()


def build_environment(backend: str,
                      num_storage_nodes: int = 8,
                      stripe_unit: int = 64 * 1024,
                      num_metadata_providers: int = 2,
                      publish_cost: float = 0.0,
                      config: Optional[ClusterConfig] = None,
                      seed: int = 0) -> ExperimentEnvironment:
    """Create the cluster, deploy the chosen backend, return driver factory."""
    if backend not in BACKENDS:
        raise BenchmarkError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")

    cluster = Cluster(config=config, seed=seed)

    if backend == "versioning":
        deployment = BlobSeerDeployment(
            cluster,
            num_providers=num_storage_nodes,
            num_metadata_providers=num_metadata_providers,
            chunk_size=stripe_unit,
            publish_cost=publish_cost,
        )

        def driver_factory(ctx: MPIContext) -> ADIODriver:
            return VersioningDriver(deployment, ctx.node,
                                    rank_name=f"rank{ctx.rank}")
    else:
        deployment = PosixFsDeployment(
            cluster,
            num_osts=num_storage_nodes,
            default_stripe_size=stripe_unit,
            default_stripe_count=num_storage_nodes,
        )
        driver_class = POSIX_BACKENDS[backend]

        def driver_factory(ctx: MPIContext) -> ADIODriver:
            return driver_class(deployment, ctx.node,
                                rank_name=f"rank{ctx.rank}")

    return ExperimentEnvironment(
        backend=backend,
        cluster=cluster,
        deployment=deployment,
        driver_factory=driver_factory,
        stripe_unit=stripe_unit,
        num_storage_nodes=num_storage_nodes,
    )
