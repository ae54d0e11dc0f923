"""repro — reproduction of Tran (IPDPSW 2011).

"Towards a Storage Backend Optimized for Atomic MPI-I/O for Parallel
Scientific Applications".

The package provides:

* :mod:`repro.simengine` — a deterministic discrete-event simulation engine
  (generator-based processes, events, simulated time);
* :mod:`repro.cluster` — a simulated cluster: nodes, disks, network links and
  an RPC transport with a message cost model;
* :mod:`repro.core` — byte-region algebra and the MPI-atomicity checker;
* :mod:`repro.blobseer` — a from-scratch re-implementation of the BlobSeer
  versioning data-sharing service (chunk providers, provider manager,
  versioned segment-tree metadata with shadowing, version manager);
* :mod:`repro.vstore` — the paper's contribution: a versioning storage
  backend with native non-contiguous, MPI-atomic vectored writes and reads;
* :mod:`repro.posixfs` — the Lustre-like baseline: a striped object-store
  file system with a distributed byte-range lock manager and POSIX atomicity;
* :mod:`repro.mpi` — simulated MPI ranks, communicators and derived
  datatypes;
* :mod:`repro.mpiio` — an MPI-I/O ``File`` layer (set_view / write_at_all /
  atomic mode) with pluggable ADIO drivers for both backends;
* :mod:`repro.workloads` — the paper's workloads (overlapped non-contiguous
  stress test, MPI-tile-IO, ghost-cell domain decomposition);
* :mod:`repro.bench` — the experiment harness regenerating every figure and
  table of the evaluation.

Quickstart
----------

>>> from repro import VersioningBackend
>>> backend = VersioningBackend(num_providers=4, chunk_size=64)
>>> blob = backend.create_blob(size=1024)
>>> snap = backend.vwrite(blob, [(0, b"abcd"), (512, b"wxyz")])
>>> backend.vread(blob, [(0, 4), (512, 4)], version=snap.version)
[b'abcd', b'wxyz']
"""

from repro._version import __version__

__all__ = [
    "__version__",
    "VersioningBackend",
    "Region",
    "RegionList",
]

_LAZY_EXPORTS = {
    "VersioningBackend": ("repro.vstore.backend", "VersioningBackend"),
    "Region": ("repro.core.regions", "Region"),
    "RegionList": ("repro.core.regions", "RegionList"),
}


def __getattr__(name: str):
    """Lazily resolve the public facade classes.

    Keeping these imports lazy lets light-weight consumers (and the test
    suites of the low-level substrates) import ``repro`` without paying for
    the whole storage stack.
    """
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attribute = _LAZY_EXPORTS[name]
        module = importlib.import_module(module_name)
        value = getattr(module, attribute)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
