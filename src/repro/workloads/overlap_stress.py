"""Experiment 1 workload: concurrent, overlapping, non-contiguous writes.

The paper's first experiment considers "the extreme case where each of the
clients writes a large set of non-contiguous regions that are intentionally
selected in such way as to generate a large number of overlapping[s] that
need to obey MPI atomicity".  This generator reproduces that pattern:

* the shared file is divided into ``regions_per_client`` slots per client;
* client ``r`` writes one region in every slot, starting at a per-client
  phase shift smaller than the region size, so each of its regions overlaps
  the corresponding region of clients ``r-1`` and ``r+1``;
* with ``overlap_fraction=0`` the phase shift is at least one region size and
  the accesses become disjoint (the control used by EXP1b and by the
  conflict-detection driver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.regions import RegionList
from repro.errors import BenchmarkError


@dataclass(frozen=True)
class OverlapStressWorkload:
    """Parameters of the overlapped non-contiguous write stress test."""

    num_clients: int
    regions_per_client: int = 16
    region_size: int = 64 * 1024
    overlap_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise BenchmarkError("num_clients must be positive")
        if self.regions_per_client <= 0:
            raise BenchmarkError("regions_per_client must be positive")
        if self.region_size <= 0:
            raise BenchmarkError("region_size must be positive")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise BenchmarkError("overlap_fraction must be in [0, 1)")

    # ------------------------------------------------------------------
    @property
    def client_shift(self) -> int:
        """File-offset shift between consecutive clients' regions."""
        if self.overlap_fraction == 0.0:
            return self.region_size  # disjoint
        return max(1, int(round(self.region_size * (1.0 - self.overlap_fraction))))

    @property
    def slot_stride(self) -> int:
        """Distance between two consecutive slots of the same client."""
        return self.region_size + self.client_shift * self.num_clients

    @property
    def file_size(self) -> int:
        """Bytes of the shared file the workload needs."""
        last_offset = ((self.regions_per_client - 1) * self.slot_stride
                       + (self.num_clients - 1) * self.client_shift
                       + self.region_size)
        return last_offset

    @property
    def bytes_per_client(self) -> int:
        """Bytes written by each client."""
        return self.regions_per_client * self.region_size

    # ------------------------------------------------------------------
    def client_regions(self, client: int) -> RegionList:
        """Byte regions written by ``client``."""
        if not (0 <= client < self.num_clients):
            raise BenchmarkError(f"client {client} outside 0..{self.num_clients - 1}")
        regions: List[Tuple[int, int]] = []
        for slot in range(self.regions_per_client):
            offset = slot * self.slot_stride + client * self.client_shift
            regions.append((offset, self.region_size))
        return RegionList.from_tuples(regions)

    def client_pairs(self, client: int) -> List[Tuple[int, bytes]]:
        """``(offset, payload)`` pairs; the payload byte identifies the writer."""
        value = (client + 1) % 256
        return [(region.offset, bytes([value]) * region.size)
                for region in self.client_regions(client)]
