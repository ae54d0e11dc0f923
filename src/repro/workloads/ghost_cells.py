"""A small iterative stencil simulation with ghost-cell subdomain dumps.

This is the application the paper's introduction describes: an iterative
simulation over a 2-D spatial domain (here: explicit heat diffusion) where

* the domain is split into per-rank subdomains that overlap at their borders
  (ghost cells), so ranks do not have to exchange borders every iteration —
  laid out as an MPI-tile-IO tile grid
  (:class:`~repro.workloads.tile_io.TileIOWorkload`) whose neighbouring
  tiles overlap by twice the ghost width;
* at the end of each iteration every rank dumps its whole ghost-extended
  subdomain into a globally shared snapshot file, which requires MPI atomic
  mode because the overlapped borders are written by several ranks.

The numerical part is intentionally simple (NumPy vectorized 5-point
stencil); the point of the class is to produce realistic, correct dump
vectors and to let examples and tests verify the file contents against the
in-memory state.

The :mod:`repro.workloads` package does not import this module, so NumPy
stays off the import path of a simulation run; import it by its full name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import BenchmarkError
from repro.workloads.tile_io import TileIOWorkload, tile_grid


@dataclass
class GhostCellSimulation:
    """2-D heat diffusion over a decomposed domain with ghost-cell dumps.

    Each rank owns a core block of an even split of the domain plus
    ``ghost`` cells on every side, clipped at the domain's edge; those
    blocks are the tiles of ``tiles``.  The tile layout holds while every
    block touches the edge — at most two ranks along a dimension that has
    ghosts — and the cores split evenly; any other shape is rejected.
    """

    domain_x: int = 64
    domain_y: int = 64
    num_ranks: int = 4
    ghost: int = 2
    alpha: float = 0.1
    element_dtype: np.dtype = np.dtype("float64")

    def __post_init__(self) -> None:
        if self.domain_x <= 0 or self.domain_y <= 0:
            raise BenchmarkError("domain dimensions must be positive")
        if not (0.0 < self.alpha <= 0.25):
            raise BenchmarkError("alpha must be in (0, 0.25] for stability")
        if self.ghost < 0:
            raise BenchmarkError(f"negative ghost width {self.ghost}")
        overlap = 2 * self.ghost
        grid = tile_grid(self.num_ranks)
        sizes = []
        for cells, count in zip((self.domain_x, self.domain_y), grid):
            core, rest = divmod(cells - overlap, count)
            if core <= 0 or rest or (count > 2 and overlap):
                raise BenchmarkError(
                    f"{cells} cells with ghost width {self.ghost} do not lay "
                    f"out as {count} ghost-extended tiles")
            sizes.append(core + overlap)
        self.tiles = TileIOWorkload(
            nr_tiles_x=grid[0], nr_tiles_y=grid[1],
            sz_tile_x=sizes[0], sz_tile_y=sizes[1],
            sz_element=self.element_dtype.itemsize,
            overlap_x=overlap, overlap_y=overlap)
        # global field initialized with a hot square in the centre
        self.field = np.zeros((self.domain_y, self.domain_x),
                              dtype=self.element_dtype)
        cy, cx = self.domain_y // 2, self.domain_x // 2
        half = max(1, min(self.domain_y, self.domain_x) // 8)
        self.field[cy - half:cy + half, cx - half:cx + half] = 100.0
        self.iteration = 0

    # ------------------------------------------------------------------
    @property
    def file_size(self) -> int:
        """Bytes of one shared snapshot file."""
        return self.tiles.file_size

    def rank_block(self, rank: int) -> Tuple[slice, slice]:
        """NumPy slices of the rank's ghost-extended block in the global field."""
        start_y, start_x = self.tiles.tile_start(rank)
        return (slice(start_y, start_y + self.tiles.sz_tile_y),
                slice(start_x, start_x + self.tiles.sz_tile_x))

    def step(self) -> None:
        """Advance the global field by one explicit diffusion step."""
        field = self.field
        interior = field[1:-1, 1:-1]
        laplacian = (field[:-2, 1:-1] + field[2:, 1:-1]
                     + field[1:-1, :-2] + field[1:-1, 2:]
                     - 4.0 * interior)
        updated = field.copy()
        updated[1:-1, 1:-1] = interior + self.alpha * laplacian
        self.field = updated
        self.iteration += 1

    # ------------------------------------------------------------------
    def rank_dump_pairs(self, rank: int) -> List[Tuple[int, bytes]]:
        """``(offset, payload)`` pairs for the rank's subdomain dump."""
        rows, cols = self.rank_block(rank)
        block = np.ascontiguousarray(self.field[rows, cols])
        regions = self.tiles.rank_regions(rank)
        row_bytes = block.shape[1] * self.element_dtype.itemsize
        pairs: List[Tuple[int, bytes]] = []
        raw = block.tobytes()
        for index, region in enumerate(regions):
            if region.size != row_bytes:
                raise BenchmarkError(
                    "region/row mismatch: the dump regions must be one row each")
            pairs.append((region.offset, raw[index * row_bytes:(index + 1) * row_bytes]))
        return pairs

    def decode_file(self, content: bytes) -> np.ndarray:
        """Interpret a snapshot file as the 2-D field array."""
        expected = self.domain_y * self.domain_x * self.element_dtype.itemsize
        if len(content) < expected:
            content = content + b"\x00" * (expected - len(content))
        array = np.frombuffer(content[:expected], dtype=self.element_dtype)
        return array.reshape(self.domain_y, self.domain_x)
