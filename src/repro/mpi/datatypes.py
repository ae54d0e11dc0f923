"""MPI-like derived datatypes and their flattening to byte regions.

MPI applications describe non-contiguous file accesses with derived
datatypes; the MPI-I/O layer flattens them into ``(offset, length)`` lists
before talking to the storage back-end.  This module reproduces the datatype
constructors the paper's workloads need:

* :class:`BasicType` — the predefined types (BYTE, INT, FLOAT, DOUBLE);
* :class:`Contiguous` — ``count`` repetitions of a base type;
* :class:`Vector` — ``count`` blocks of ``blocklength`` base elements spaced
  ``stride`` base elements apart (the classic strided access);
* :class:`Indexed` — explicit per-block lengths and displacements;
* :class:`Subarray` — an n-dimensional subarray of an n-dimensional array
  (the datatype MPI-tile-IO and ghost-cell dumps build their file views
  from).

``flatten()`` returns the byte regions of *one* instance of the datatype
relative to its own origin, with adjacent regions coalesced.  ``size`` is the
number of actual data bytes; ``extent`` is the span the next instance starts
after (lower bound 0, as produced by these constructors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.regions import Region, RegionList
from repro.errors import DatatypeError


class Datatype:
    """Base class of every datatype."""

    @property
    def size(self) -> int:
        """Number of data bytes in one instance."""
        raise NotImplementedError

    @property
    def extent(self) -> int:
        """Span of one instance (where the next tiled instance begins)."""
        raise NotImplementedError

    def flatten(self) -> RegionList:
        """Byte regions of one instance, relative to its origin, coalesced.

        The result is memoized on the instance: datatypes are immutable, and
        file views flatten the same filetype on every access, so recomputing
        the type map per access would dominate collective planning.
        """
        cached = self.__dict__.get("_flat")
        if cached is None:
            cached = self._flatten()
            object.__setattr__(self, "_flat", cached)
        return cached

    def _flatten(self) -> RegionList:
        """Compute the type map (subclass hook behind the memoized API)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def tiled(self, count: int, origin: int = 0) -> RegionList:
        """Regions of ``count`` instances tiled back to back from ``origin``."""
        if count < 0:
            raise DatatypeError(f"negative count {count}")
        if count == 0:
            return RegionList()
        base = self.flatten()
        # fast path: a fully dense datatype (size == extent, one region) tiles
        # to one big contiguous region — this keeps flattening large
        # contiguous accesses O(1) instead of O(bytes)
        if (len(base) == 1 and base[0].offset == 0
                and base[0].size == self.extent == self.size):
            return RegionList([Region(origin, count * self.extent)])
        regions: List[Region] = []
        for index in range(count):
            shift = origin + index * self.extent
            regions.extend(region.shift(shift) for region in base)
        return RegionList(regions).normalized()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} size={self.size} "
                f"extent={self.extent}>")


@dataclass(frozen=True)
class BasicType(Datatype):
    """A predefined MPI type of fixed byte width."""

    name: str
    width: int

    @property
    def size(self) -> int:
        return self.width

    @property
    def extent(self) -> int:
        return self.width

    def _flatten(self) -> RegionList:
        return RegionList([(0, self.width)])


BYTE = BasicType("MPI_BYTE", 1)
INT = BasicType("MPI_INT", 4)
FLOAT = BasicType("MPI_FLOAT", 4)
DOUBLE = BasicType("MPI_DOUBLE", 8)


@dataclass(frozen=True)
class Contiguous(Datatype):
    """``count`` contiguous repetitions of ``base``."""

    count: int
    base: Datatype = BYTE

    def __post_init__(self) -> None:
        if self.count < 0:
            raise DatatypeError(f"negative count {self.count}")

    @property
    def size(self) -> int:
        return self.count * self.base.size

    @property
    def extent(self) -> int:
        return self.count * self.base.extent

    def _flatten(self) -> RegionList:
        return self.base.tiled(self.count)


@dataclass(frozen=True)
class Vector(Datatype):
    """``count`` blocks of ``blocklength`` base elements, stride in elements."""

    count: int
    blocklength: int
    stride: int
    base: Datatype = BYTE

    def __post_init__(self) -> None:
        if self.count < 0 or self.blocklength < 0:
            raise DatatypeError("count and blocklength must be non-negative")
        if self.stride < self.blocklength:
            raise DatatypeError(
                f"stride ({self.stride}) smaller than blocklength "
                f"({self.blocklength}) would overlap blocks")

    @property
    def size(self) -> int:
        return self.count * self.blocklength * self.base.size

    @property
    def extent(self) -> int:
        if self.count == 0:
            return 0
        return ((self.count - 1) * self.stride + self.blocklength) * self.base.extent

    def _flatten(self) -> RegionList:
        unit = self.base.extent
        block = self.base.tiled(self.blocklength)
        regions: List[Region] = []
        for index in range(self.count):
            shift = index * self.stride * unit
            regions.extend(region.shift(shift) for region in block)
        return RegionList(regions).normalized()


@dataclass(frozen=True)
class Indexed(Datatype):
    """Blocks with explicit lengths and displacements (in base elements)."""

    blocklengths: Tuple[int, ...]
    displacements: Tuple[int, ...]
    base: Datatype = BYTE

    def __init__(self, blocklengths: Sequence[int], displacements: Sequence[int],
                 base: Datatype = BYTE):
        object.__setattr__(self, "blocklengths", tuple(int(b) for b in blocklengths))
        object.__setattr__(self, "displacements", tuple(int(d) for d in displacements))
        object.__setattr__(self, "base", base)
        if len(self.blocklengths) != len(self.displacements):
            raise DatatypeError("blocklengths and displacements must have equal length")
        if any(length < 0 for length in self.blocklengths):
            raise DatatypeError("negative block length")
        if any(disp < 0 for disp in self.displacements):
            raise DatatypeError("negative displacement")

    @classmethod
    def of_extents(cls, extents: Iterable[Tuple[int, int]]) -> "Indexed":
        """The byte filetype selecting ``(offset, length)`` extents, in the
        order given — what a rank's list of file regions becomes as a view."""
        extents = list(extents)
        return cls([length for _offset, length in extents],
                   [offset for offset, _length in extents], base=BYTE)

    @property
    def size(self) -> int:
        return sum(self.blocklengths) * self.base.size

    @property
    def extent(self) -> int:
        if not self.blocklengths:
            return 0
        end = max(disp + length for disp, length
                  in zip(self.displacements, self.blocklengths))
        return end * self.base.extent

    def _flatten(self) -> RegionList:
        unit = self.base.extent
        block_cache = {}
        regions: List[Region] = []
        for length, disp in zip(self.blocklengths, self.displacements):
            if length not in block_cache:
                block_cache[length] = self.base.tiled(length)
            regions.extend(region.shift(disp * unit)
                           for region in block_cache[length])
        return RegionList(regions).normalized()


@dataclass(frozen=True)
class Subarray(Datatype):
    """An n-dimensional subarray of an n-dimensional array (row-major order).

    ``sizes`` are the full array dimensions, ``subsizes`` the subarray
    dimensions and ``starts`` its corner, all in elements of ``base`` — the
    same triple ``MPI_Type_create_subarray`` takes.  The extent of the type is
    the whole array, so tiling instances is rarely meaningful; the MPI-I/O
    layer uses a single instance as the file view of one rank.
    """

    sizes: Tuple[int, ...]
    subsizes: Tuple[int, ...]
    starts: Tuple[int, ...]
    base: Datatype = BYTE

    def __init__(self, sizes: Sequence[int], subsizes: Sequence[int],
                 starts: Sequence[int], base: Datatype = BYTE):
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))
        object.__setattr__(self, "subsizes", tuple(int(s) for s in subsizes))
        object.__setattr__(self, "starts", tuple(int(s) for s in starts))
        object.__setattr__(self, "base", base)
        ndims = len(self.sizes)
        if not ndims:
            raise DatatypeError("subarray needs at least one dimension")
        if len(self.subsizes) != ndims or len(self.starts) != ndims:
            raise DatatypeError("sizes, subsizes and starts must have equal length")
        for size, subsize, start in zip(self.sizes, self.subsizes, self.starts):
            if size <= 0 or subsize < 0 or start < 0:
                raise DatatypeError("invalid subarray dimensions")
            if start + subsize > size:
                raise DatatypeError(
                    f"subarray [{start}, {start + subsize}) exceeds dimension {size}")

    @property
    def size(self) -> int:
        total = self.base.size
        for subsize in self.subsizes:
            total *= subsize
        return total

    @property
    def extent(self) -> int:
        total = self.base.extent
        for size in self.sizes:
            total *= size
        return total

    def _flatten(self) -> RegionList:
        unit = self.base.extent
        ndims = len(self.sizes)

        # the last dimension is contiguous: one region per "row" of the subarray
        row_elements = self.subsizes[-1]
        if row_elements == 0 or any(s == 0 for s in self.subsizes):
            return RegionList()

        # strides (in elements) of each dimension in the full array
        strides = [1] * ndims
        for dim in range(ndims - 2, -1, -1):
            strides[dim] = strides[dim + 1] * self.sizes[dim + 1]

        regions: List[Region] = []
        # iterate over every index combination of all but the last dimension
        counters = [0] * (ndims - 1)
        while True:
            element_offset = self.starts[-1]
            for dim in range(ndims - 1):
                element_offset += (self.starts[dim] + counters[dim]) * strides[dim]
            regions.append(Region(element_offset * unit, row_elements * unit))
            # odometer increment
            dim = ndims - 2
            while dim >= 0:
                counters[dim] += 1
                if counters[dim] < self.subsizes[dim]:
                    break
                counters[dim] = 0
                dim -= 1
            else:
                break
            if ndims == 1:
                break
        return RegionList(regions).normalized()
