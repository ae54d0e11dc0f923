"""List-I/O style vectored access descriptors.

The paper extends the storage back-end's access interface so that a *single
call* can describe a complex non-contiguous access, "closely matched [to] the
List I/O interface proposal" of Ching et al. (CLUSTER'02).  These descriptor
types are that interface: an :class:`IOVector` carries an ordered list of
``(file offset, length)`` pairs plus, for writes, the corresponding payload
buffers.  Both storage backends and every ADIO driver consume them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.regions import Region, RegionList
from repro.errors import InvalidRegion


#: an immutable payload: ``bytes``, or a read-only byte view of ``bytes``
Payload = Union[bytes, memoryview]

#: one piece of a read's answer: ``(offset, length, data)``, ``data`` the
#: payload, or ``None`` for a never-written range (a hole carries no bytes)
FetchedExtent = Tuple[int, int, Optional[Payload]]

#: wire size of one serialized ``(offset, size)`` extent description: a run
#: a reader ships with a leaf lookup, or an entry of a collective access
#: description (a strided run ``(offset, size, stride, count)`` costs two)
EXTENT_DESCRIPTION_BYTES = 16


def frozen(data) -> Payload:
    """``data`` as a payload nobody can change under its holder.

    ``bytes`` and contiguous byte views of ``bytes`` pass as they are, so a
    payload's slices share its memory; any other buffer (a ``bytearray``, a
    view of one) is copied once with ``bytes()``.
    """
    if type(data) is bytes or (
            type(data) is memoryview and isinstance(data.obj, bytes)
            and data.format == "B" and data.contiguous):
        return data
    return bytes(data)


@dataclass(slots=True, unsafe_hash=True)
class IORequest:
    """A single element of a vectored access: one byte range, one buffer.

    ``data`` is ``None`` for read requests (the buffer is produced by the
    backend) and, for writes, a bytes-like payload of exactly ``size``
    bytes, kept as :func:`frozen` makes it: ``bytes`` or a read-only view
    of ``bytes`` is the request's buffer itself, a mutable buffer is copied
    once, so a stored chunk never aliases memory its writer may change.
    Immutable by convention; slotted rather than frozen, like
    :class:`~repro.core.regions.Region`, because frozen construction
    measured about 2.5x slower on the per-piece paths.
    """

    offset: int
    size: int
    data: Optional[Payload] = None

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise InvalidRegion(f"negative offset: {self.offset}")
        if self.size < 0:
            raise InvalidRegion(f"negative size: {self.size}")
        data = self.data
        if data is not None:
            if type(data) is not bytes:
                data = self.data = frozen(data)
            if len(data) != self.size:
                raise InvalidRegion(
                    f"payload length {len(data)} does not match size {self.size}")

    @property
    def region(self) -> Region:
        """The byte range touched by this request."""
        return Region(self.offset, self.size)

    @property
    def is_write(self) -> bool:
        """True when a payload is attached."""
        return self.data is not None


class IOVector:
    """An ordered vectored access: the unit of MPI atomicity.

    One :class:`IOVector` corresponds to one MPI-I/O call made by one rank.
    Its requests may be non-contiguous and may (between *different* vectors)
    overlap; MPI atomic mode requires that the whole vector is applied
    indivisibly with respect to other vectors.

    Within a single vector, later requests overwrite earlier ones on any
    overlapping bytes (matching the "monotonically nondecreasing file offset"
    convention of MPI datatypes is *not* required).
    """

    __slots__ = ("_requests",)

    def __init__(self, requests: Iterable[IORequest] = ()):
        self._requests: Tuple[IORequest, ...] = tuple(requests)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_write(cls, pairs: Sequence[Tuple[int, bytes]]) -> "IOVector":
        """Build a write vector from ``[(offset, payload), ...]``.

        A payload may be any bytes-like object: ``bytes`` and read-only
        views of ``bytes`` become the requests' buffers as they are, a
        mutable one is frozen with one ``bytes()`` copy (:func:`frozen`).
        """
        return cls(IORequest(offset, len(data), data) for offset, data in pairs)

    @classmethod
    def for_read(cls, pairs: Sequence[Tuple[int, int]]) -> "IOVector":
        """Build a read vector from ``[(offset, size), ...]``."""
        return cls(IORequest(offset, size) for offset, size in pairs)

    @classmethod
    def contiguous_write(cls, offset: int, data: bytes) -> "IOVector":
        """A single-range write vector (``data`` kept as :meth:`for_write`
        keeps a payload)."""
        return cls([IORequest(offset, len(data), data)])

    @classmethod
    def contiguous_read(cls, offset: int, size: int) -> "IOVector":
        """A single-range read vector."""
        return cls([IORequest(offset, size)])

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[IORequest]:
        return iter(self._requests)

    def __len__(self) -> int:
        return len(self._requests)

    def __getitem__(self, index: int) -> IORequest:
        return self._requests[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOVector):
            return NotImplemented
        return self._requests == other._requests

    def __hash__(self) -> int:
        return hash(self._requests)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"<IOVector {kind} n={len(self)} bytes={self.total_bytes()}>"

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def requests(self) -> Tuple[IORequest, ...]:
        """The underlying requests, in call order."""
        return self._requests

    @property
    def is_write(self) -> bool:
        """True if every request carries a payload (a pure write vector)."""
        return bool(self._requests) and all(req.is_write for req in self._requests)

    @property
    def is_read(self) -> bool:
        """True if no request carries a payload (a pure read vector)."""
        return all(not req.is_write for req in self._requests)

    def total_bytes(self) -> int:
        """Sum of request sizes."""
        return sum(req.size for req in self._requests)

    def region_list(self) -> RegionList:
        """The touched byte ranges (construction order, not normalized)."""
        return RegionList(req.region for req in self._requests)

    def covering_extent(self) -> Region:
        """Smallest contiguous range covering the whole vector."""
        return self.region_list().covering_extent()

    def is_contiguous(self) -> bool:
        """True when the access touches one contiguous range."""
        return self.region_list().is_contiguous()

    def overlaps(self, other: "IOVector") -> bool:
        """True if the two vectors touch at least one common byte."""
        return self.region_list().overlaps(other.region_list())

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def sorted_by_offset(self) -> "IOVector":
        """Requests re-ordered by offset (stable)."""
        return IOVector(sorted(self._requests, key=lambda req: (req.offset, req.size)))

    def apply_to(self, content: bytearray) -> None:
        """Apply the write vector in request order onto ``content`` in place.

        The target is grown with zero bytes if a request extends past its end,
        mirroring how a file grows on writes past EOF.
        """
        for req in self._requests:
            if not req.is_write:
                raise InvalidRegion("apply_to() called on a read vector")
            end = req.offset + req.size
            if end > len(content):
                content.extend(b"\x00" * (end - len(content)))
            content[req.offset:end] = req.data  # type: ignore[arg-type]

    def extract_from(self, content: bytes) -> List[bytes]:
        """Read the vector's ranges out of ``content`` (zero-filled past EOF)."""
        results: List[bytes] = []
        for req in self._requests:
            end = req.offset + req.size
            piece = content[req.offset:min(end, len(content))]
            if len(piece) < req.size:
                piece = piece + b"\x00" * (req.size - len(piece))
            results.append(bytes(piece))
        return results


#: what holes are joined from: views of one zero block, never a new buffer
_ZEROS = memoryview(bytes(1 << 20))


def _zeros(parts: list, length: int) -> None:
    """Append ``length`` zero bytes to ``parts`` as views of :data:`_ZEROS`."""
    while length > len(_ZEROS):
        parts.append(_ZEROS)
        length -= len(_ZEROS)
    parts.append(_ZEROS[:length])


def assemble(vector: IOVector, extents: Sequence[FetchedExtent],
             joined: bool = False):
    """A read's answer out of its sorted, disjoint ``extents``, in one sweep.

    One ``bytes`` per request of ``vector`` — or, ``joined``, the requests'
    bytes back to back as one ``bytes``, what an MPI-I/O read fills its one
    buffer with.  Each request finds its first extent with a bisect and
    takes read-only views of the extents it meets; a hole, or a gap no
    extent covers, reads as zeros.  Either shape is one ``b"".join`` over
    those views, so each byte is copied once and no view of a stored chunk
    leaves (a request that is one whole ``bytes`` extent is that object).
    """
    ends = [offset + length for offset, length, _data in extents]
    count = len(extents)
    results: list = []
    for request in vector:
        parts = results if joined else []
        cursor = request.offset
        req_end = cursor + request.size
        index = bisect_right(ends, cursor)
        while index < count and cursor < req_end:
            offset, length, data = extents[index]
            if offset >= req_end:
                break
            if offset > cursor:
                _zeros(parts, offset - cursor)
                cursor = offset
            hi = offset + length
            if hi > req_end:
                hi = req_end
            if data is None:
                _zeros(parts, hi - cursor)
            elif cursor == offset and hi - cursor == length:
                parts.append(data)
            else:
                parts.append(memoryview(data)[cursor - offset:hi - offset])
            cursor = hi
            index += 1
        if cursor < req_end:
            _zeros(parts, req_end - cursor)
        if not joined:
            results.append(b"".join(parts))
    return b"".join(results) if joined else results
