#!/usr/bin/env python3
"""Quickstart: the versioning storage backend in five minutes.

This example uses the synchronous :class:`repro.VersioningBackend` facade —
no simulation plumbing, no MPI — to show the three ideas of the paper:

1. a *vectored* (List-I/O style) write carries a whole non-contiguous access
   in one call and is applied atomically as one snapshot;
2. every write produces a *new version*; old snapshots stay readable;
3. data is *striped* over several data providers without the caller doing
   anything.

Run it with::

    python examples/quickstart.py
"""

from repro import VersioningBackend
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all


def main() -> None:
    # A backend with 4 data providers and 64-byte chunks (tiny, so the
    # striping is visible in the stats below).
    backend = VersioningBackend(num_providers=4, chunk_size=64)

    # ------------------------------------------------------------------
    # 1. create a BLOB and write two non-contiguous regions atomically
    # ------------------------------------------------------------------
    blob = backend.create_blob("dataset", size=4096)
    receipt = backend.vwrite(blob, [(0, b"header: simulation t=0\n"),
                                    (1024, b"temperature block"),
                                    (2048, b"pressure block")])
    print(f"first write  -> snapshot v{receipt.version}, "
          f"{receipt.bytes_written} bytes in {receipt.chunks} chunks")

    # ------------------------------------------------------------------
    # 2. overwrite part of it -- a new snapshot appears, the old one stays
    # ------------------------------------------------------------------
    receipt2 = backend.vwrite(blob, [(1024, b"TEMPERATURE BLOCK"),
                                     (3072, b"new diagnostics block")])
    print(f"second write -> snapshot v{receipt2.version}")

    latest = backend.latest_version(blob)
    print(f"latest published version: v{latest}")

    # non-contiguous read from the latest snapshot
    temperature, pressure = backend.vread(blob, [(1024, 17), (2048, 14)])
    print(f"latest  : temperature={temperature!r} pressure={pressure!r}")

    # the same ranges as they were in snapshot v1 (time travel)
    old_temperature, _ = backend.vread(blob, [(1024, 17), (2048, 14)],
                                       version=receipt.version)
    print(f"v{receipt.version} view : temperature={old_temperature!r}")

    # bytes nobody ever wrote read back as zeros
    hole = backend.read(blob, 512, 8)
    print(f"unwritten bytes read as zeros: {hole!r}")

    # ------------------------------------------------------------------
    # 3. striping and versioning statistics
    # ------------------------------------------------------------------
    # every counter is read through a metrics registry, under dotted names
    metrics = collect_all(MetricsRegistry(), cluster=backend.cluster,
                          deployment=backend.deployment,
                          clients=[backend.client])
    print("\nbackend statistics")
    for name in ("storage.providers", "storage.chunks", "storage.stored_bytes",
                 "metadata.server.nodes", "version.snapshots_published",
                 "storage.load_imbalance", "net.bytes"):
        print(f"  {name:28s} {metrics.get(name)}")
    print(f"  {'simulated time':28s} {backend.cluster.now * 1000:.3f} ms")


if __name__ == "__main__":
    main()
