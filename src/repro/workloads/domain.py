"""N-dimensional domain decomposition with overlapping subdomains.

A spatial domain of ``sizes`` cells (each ``element_size`` bytes) is split
over a process grid.  Each rank owns a core block plus ``ghost`` cells of
overlap on every side (clipped at the domain boundary) — so neighbouring
subdomains overlap by up to ``2 * ghost`` cells, exactly the pattern that
forces MPI atomic mode when every rank dumps its subdomain (ghosts included)
into the shared file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.regions import Region, RegionList
from repro.errors import BenchmarkError
from repro.mpi.datatypes import BasicType, Datatype, Subarray


def process_grid(num_processes: int, ndims: int) -> Tuple[int, ...]:
    """Factor ``num_processes`` into a balanced ``ndims``-dimensional grid.

    Mirrors ``MPI_Dims_create``: dimensions are as close to each other as
    possible, larger dimensions first.
    """
    if num_processes <= 0 or ndims <= 0:
        raise BenchmarkError("num_processes and ndims must be positive")
    dims = [1] * ndims
    remaining = num_processes
    # repeatedly peel off the largest prime factor onto the smallest dimension
    factors: List[int] = []
    n = remaining
    divisor = 2
    while divisor * divisor <= n:
        while n % divisor == 0:
            factors.append(divisor)
            n //= divisor
        divisor += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    return tuple(sorted(dims, reverse=True))


@dataclass(frozen=True)
class Subdomain:
    """One rank's (ghost-extended) block of the global domain."""

    rank: int
    starts: Tuple[int, ...]
    sizes: Tuple[int, ...]

    @property
    def cells(self) -> int:
        """Number of cells in the block."""
        total = 1
        for size in self.sizes:
            total *= size
        return total


class DomainDecomposition:
    """Decompose an n-dimensional cell domain over a process grid with ghosts."""

    def __init__(self, sizes: Sequence[int], num_processes: int,
                 ghost: int = 1, element_size: int = 8):
        if any(size <= 0 for size in sizes):
            raise BenchmarkError(f"invalid domain sizes {sizes}")
        if ghost < 0:
            raise BenchmarkError(f"negative ghost width {ghost}")
        if element_size <= 0:
            raise BenchmarkError(f"invalid element size {element_size}")
        self.sizes = tuple(int(size) for size in sizes)
        self.ndims = len(self.sizes)
        self.num_processes = num_processes
        self.ghost = ghost
        self.element_size = element_size
        self.grid = process_grid(num_processes, self.ndims)
        for dimension, (size, procs) in enumerate(zip(self.sizes, self.grid)):
            if procs > size:
                raise BenchmarkError(
                    f"more processes ({procs}) than cells ({size}) along "
                    f"dimension {dimension}")

    # ------------------------------------------------------------------
    @property
    def total_cells(self) -> int:
        """Cells in the whole domain."""
        total = 1
        for size in self.sizes:
            total *= size
        return total

    @property
    def file_size(self) -> int:
        """Bytes of the shared dump file (one element per cell)."""
        return self.total_cells * self.element_size

    def grid_coords(self, rank: int) -> Tuple[int, ...]:
        """Position of ``rank`` in the process grid (row-major)."""
        if not (0 <= rank < self.num_processes):
            raise BenchmarkError(f"rank {rank} outside 0..{self.num_processes - 1}")
        coords = []
        remainder = rank
        for extent in reversed(self.grid):
            coords.append(remainder % extent)
            remainder //= extent
        return tuple(reversed(coords))

    def subdomain(self, rank: int, with_ghosts: bool = True) -> Subdomain:
        """The block owned by ``rank`` (ghost-extended unless disabled)."""
        coords = self.grid_coords(rank)
        starts: List[int] = []
        sizes: List[int] = []
        for dimension, (coord, procs, size) in enumerate(
                zip(coords, self.grid, self.sizes)):
            base = (size * coord) // procs
            end = (size * (coord + 1)) // procs
            if with_ghosts:
                base = max(0, base - self.ghost)
                end = min(size, end + self.ghost)
            starts.append(base)
            sizes.append(end - base)
        return Subdomain(rank=rank, starts=tuple(starts), sizes=tuple(sizes))

    # ------------------------------------------------------------------
    def rank_datatype(self, rank: int, with_ghosts: bool = True) -> Datatype:
        """The subarray datatype describing ``rank``'s block in the file."""
        block = self.subdomain(rank, with_ghosts)
        element = BasicType("element", self.element_size)
        return Subarray(sizes=self.sizes, subsizes=block.sizes,
                        starts=block.starts, base=element)

    def rank_regions(self, rank: int, with_ghosts: bool = True) -> RegionList:
        """The byte regions of ``rank``'s block in the shared file."""
        return self.rank_datatype(rank, with_ghosts).flatten()

    def rank_write_pairs(self, rank: int, fill: int = None,
                         with_ghosts: bool = True) -> List[Tuple[int, bytes]]:
        """``(offset, payload)`` pairs for ``rank``'s dump.

        The payload of every region is filled with a per-rank byte value so
        that atomicity violations (mixed writers inside one overlap region)
        are visible in the file content.
        """
        value = (rank + 1) % 256 if fill is None else fill
        pairs: List[Tuple[int, bytes]] = []
        for region in self.rank_regions(rank, with_ghosts):
            pairs.append((region.offset, bytes([value]) * region.size))
        return pairs

    def overlap_pairs(self) -> List[Tuple[int, int]]:
        """Pairs of ranks whose (ghost-extended) blocks overlap in the file."""
        regions = [self.rank_regions(rank) for rank in range(self.num_processes)]
        overlapping: List[Tuple[int, int]] = []
        for a in range(self.num_processes):
            for b in range(a + 1, self.num_processes):
                if regions[a].overlaps(regions[b]):
                    overlapping.append((a, b))
        return overlapping

    def total_written_bytes(self) -> int:
        """Sum of all ranks' dump sizes (overlaps counted per writer)."""
        return sum(self.rank_regions(rank).total_bytes()
                   for rank in range(self.num_processes))
