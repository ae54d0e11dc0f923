"""Exception hierarchy shared by every repro subsystem.

Keeping all exception types in a single module lets callers catch the broad
:class:`ReproError` without importing the subsystem that raised it, while
still being able to discriminate on the specific subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the repro package."""


class SimulationError(ReproError):
    """Generic error inside the discrete-event simulation engine."""


class ProcessInterrupted(SimulationError):
    """Raised inside a simulated process that was interrupted by another."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class StorageError(ReproError):
    """Base class of storage-backend errors (BlobSeer, vstore, posixfs)."""


class BlobNotFound(StorageError):
    """The requested BLOB id does not exist."""


class VersionNotFound(StorageError):
    """The requested snapshot version has not been published (or never will)."""


class ChunkNotFound(StorageError):
    """A data provider was asked for a chunk id it does not hold."""


class ProviderUnavailable(StorageError):
    """The addressed data provider is marked failed / unreachable."""


class InvalidRegion(StorageError):
    """A byte region is malformed (negative offset, non-positive size, ...)."""


class OutOfBounds(StorageError):
    """An access falls outside the addressable space of the target object."""


class LockError(StorageError):
    """Base class for distributed-lock-manager errors."""


class LockNotHeld(LockError):
    """Attempted to release a lock that the caller does not hold."""


class FileSystemError(StorageError):
    """Base class for POSIX-like file-system errors."""


class FileNotFound(FileSystemError):
    """The path does not name an existing file."""


class FileExists(FileSystemError):
    """Exclusive creation requested but the path already exists."""


class MPIError(ReproError):
    """Base class for simulated-MPI errors."""


class MPIIOError(MPIError):
    """Base class for MPI-I/O layer errors."""


class DatatypeError(MPIError):
    """A derived datatype definition is inconsistent."""


class AtomicityViolation(ReproError):
    """The atomicity checker proved that a final state is not MPI-atomic."""


class BenchmarkError(ReproError):
    """An experiment definition or run is inconsistent."""
