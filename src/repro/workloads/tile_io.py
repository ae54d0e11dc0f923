"""MPI-tile-IO: the standard benchmark used in the paper's second experiment.

MPI-tile-IO models the I/O of applications (visualization, tiled displays,
cellular-automata simulations) that divide a dense 2-D dataset into a grid of
tiles, one MPI process per tile.  Its parameters follow the original
benchmark: number of tiles in x/y, elements per tile in x/y, bytes per
element, and an *overlap* in elements between adjacent tiles — the overlapped
tile borders are what requires MPI atomic mode when all processes write the
shared file concurrently.

Each process's access is a 2-D subarray of the global array, i.e. one
non-contiguous region per row of its tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.regions import RegionList
from repro.errors import BenchmarkError
from repro.mpi.datatypes import BasicType, Datatype, Subarray


def tile_grid(num_processes: int) -> Tuple[int, int]:
    """``(tiles_x, tiles_y)``: ``num_processes`` tiles in a grid as square
    as possible (like ``MPI_Dims_create``), the larger count along y."""
    if num_processes <= 0:
        raise BenchmarkError("num_processes must be positive")
    best = (1, num_processes)
    for tiles_x in range(1, num_processes + 1):
        if num_processes % tiles_x == 0:
            tiles_y = num_processes // tiles_x
            if abs(tiles_x - tiles_y) < abs(best[0] - best[1]):
                best = (tiles_x, tiles_y)
    return best


@dataclass(frozen=True)
class TileIOWorkload:
    """Parameters of one MPI-tile-IO run (defaults follow the benchmark)."""

    nr_tiles_x: int = 4
    nr_tiles_y: int = 4
    sz_tile_x: int = 256
    sz_tile_y: int = 256
    sz_element: int = 32
    overlap_x: int = 16
    overlap_y: int = 16

    def __post_init__(self) -> None:
        if self.nr_tiles_x <= 0 or self.nr_tiles_y <= 0:
            raise BenchmarkError("tile grid dimensions must be positive")
        if self.sz_tile_x <= 0 or self.sz_tile_y <= 0:
            raise BenchmarkError("tile sizes must be positive")
        if self.sz_element <= 0:
            raise BenchmarkError("element size must be positive")
        if self.overlap_x < 0 or self.overlap_y < 0:
            raise BenchmarkError("overlaps must be non-negative")
        if self.overlap_x >= self.sz_tile_x or self.overlap_y >= self.sz_tile_y:
            raise BenchmarkError("overlap must be smaller than the tile size")

    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """One process per tile."""
        return self.nr_tiles_x * self.nr_tiles_y

    @property
    def array_size_x(self) -> int:
        """Elements of the global array along x (tiles overlap, so not a plain product)."""
        return self.nr_tiles_x * (self.sz_tile_x - self.overlap_x) + self.overlap_x

    @property
    def array_size_y(self) -> int:
        """Elements of the global array along y."""
        return self.nr_tiles_y * (self.sz_tile_y - self.overlap_y) + self.overlap_y

    @property
    def file_size(self) -> int:
        """Bytes of the shared dataset file."""
        return self.array_size_x * self.array_size_y * self.sz_element

    # ------------------------------------------------------------------
    def tile_coords(self, rank: int) -> Tuple[int, int]:
        """(tile_y, tile_x) position of ``rank`` (row-major tile numbering)."""
        if not (0 <= rank < self.num_processes):
            raise BenchmarkError(f"rank {rank} outside 0..{self.num_processes - 1}")
        return divmod(rank, self.nr_tiles_x)

    def tile_start(self, rank: int) -> Tuple[int, int]:
        """(row, column) of the tile's first element in the global array."""
        tile_y, tile_x = self.tile_coords(rank)
        return (tile_y * (self.sz_tile_y - self.overlap_y),
                tile_x * (self.sz_tile_x - self.overlap_x))

    def rank_datatype(self, rank: int) -> Datatype:
        """The 2-D subarray datatype of ``rank``'s tile in the global array."""
        start_y, start_x = self.tile_start(rank)
        element = BasicType("element", self.sz_element)
        return Subarray(sizes=[self.array_size_y, self.array_size_x],
                        subsizes=[self.sz_tile_y, self.sz_tile_x],
                        starts=[start_y, start_x],
                        base=element)

    def rank_regions(self, rank: int) -> RegionList:
        """Byte regions of ``rank``'s tile in the shared file."""
        return self.rank_datatype(rank).flatten()

    def rank_pairs(self, rank: int) -> List[Tuple[int, bytes]]:
        """``(offset, payload)`` pairs of one tile dump (writer-tagged payload)."""
        value = (rank + 1) % 256
        return [(region.offset, bytes([value]) * region.size)
                for region in self.rank_regions(rank)]

    def scaled_to(self, num_processes: int) -> "TileIOWorkload":
        """A copy with the tile grid resized to roughly ``num_processes`` tiles.

        Used by the client-count sweeps: the grid is :func:`tile_grid`'s,
        every other parameter unchanged.
        """
        best = tile_grid(num_processes)
        return TileIOWorkload(
            nr_tiles_x=best[0], nr_tiles_y=best[1],
            sz_tile_x=self.sz_tile_x, sz_tile_y=self.sz_tile_y,
            sz_element=self.sz_element,
            overlap_x=self.overlap_x, overlap_y=self.overlap_y)
