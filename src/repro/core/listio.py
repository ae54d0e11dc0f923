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
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.regions import Extents
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


def encode_extents(extents: Extents) -> List[Tuple[int, ...]]:
    """Run-length encode ``(offset, size)`` extents: an access description.

    Three or more consecutive extents of equal size at a constant stride —
    what a vector or subarray filetype flattens to — become one ``(offset,
    size, stride, count)`` entry; any other extent stays ``(offset, size)``,
    so an irregular list is exchanged, and priced, exactly as it is.
    """
    encoded: List[Tuple[int, ...]] = []
    index, total = 0, len(extents)
    while index < total:
        offset, size = extents[index]
        stop = index + 1
        stride = extents[stop][0] - offset if stop < total else 0
        while stop < total and extents[stop] == (
                offset + (stop - index) * stride, size):
            stop += 1
        if stop - index >= 3:
            encoded.append((offset, size, stride, stop - index))
            index = stop
        else:
            encoded.append((offset, size))
            index += 1
    return encoded


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
    Immutable by convention; slotted rather than frozen, because frozen
    construction measured about 2.5x slower on the per-piece paths.
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

    __slots__ = ("_requests", "_runs", "_payload", "_description", "_total")

    def __init__(self, requests: Iterable[IORequest] = ()):
        #: ``None`` until asked for on a vector built :meth:`from_runs`
        self._requests: Optional[Tuple[IORequest, ...]] = tuple(requests)
        self._runs: Optional[Extents] = None
        self._payload: Optional[Payload] = None
        #: :meth:`description` and :meth:`total_bytes`, once known
        self._description: Optional[List[Tuple[int, ...]]] = None
        self._total: Optional[int] = None

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
    def for_read(cls, pairs: Extents) -> "IOVector":
        """Build a read vector from ``[(offset, size), ...]``."""
        return cls(IORequest(offset, size) for offset, size in pairs)

    @classmethod
    def from_runs(cls, runs: Extents,
                  payload: Optional[bytes] = None,
                  description: Optional[List[Tuple[int, ...]]] = None
                  ) -> "IOVector":
        """The read vector of ``(offset, size)`` ``runs`` or, given a
        ``payload``, the write vector laying it over them in order.

        The runs were validated once by their maker (a flattened access:
        non-negative offsets, positive sizes); the payload is frozen
        (:func:`frozen`) and checked against their total once.  Requests
        (the payload itself, or read-only slices of it) are made only when
        asked for: :meth:`extents`, :meth:`payloads`, :meth:`description`
        (``description`` when the caller memoized it) and
        :meth:`total_bytes` answer without them.
        """
        total = sum([size for _offset, size in runs])
        if payload is not None:
            payload = frozen(payload)
            if len(payload) != total:
                raise InvalidRegion(f"payload length {len(payload)} does not "
                                    f"match the runs' {total} bytes")
        vector = cls()
        vector._requests = None
        vector._runs = runs
        vector._payload = payload
        vector._description = description
        vector._total = total
        return vector

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
        return iter(self.requests)

    def __len__(self) -> int:
        requests = self._requests
        return len(self._runs if requests is None else requests)

    def __getitem__(self, index: int) -> IORequest:
        return self.requests[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOVector):
            return NotImplemented
        return self.requests == other.requests

    def __hash__(self) -> int:
        return hash(self.requests)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"<IOVector {kind} n={len(self)} bytes={self.total_bytes()}>"

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def requests(self) -> Tuple[IORequest, ...]:
        """The underlying requests, in call order."""
        requests = self._requests
        if requests is None:
            made = []
            new = object.__new__
            for (offset, size), data in zip(self._runs, self.payloads()):
                request = new(IORequest)
                request.offset = offset
                request.size = size
                request.data = data
                made.append(request)
            requests = self._requests = tuple(made)
        return requests

    def extents(self) -> Extents:
        """The requests' ``(offset, size)`` pairs, in call order."""
        if self._requests is None:
            return self._runs
        return [(req.offset, req.size) for req in self._requests]

    def payloads(self) -> list:
        """The requests' payloads, in call order (``None`` for a read
        request); a vector built from runs cuts them from its one payload."""
        if self._requests is not None:
            return [req.data for req in self._requests]
        payload, runs = self._payload, self._runs
        if payload is None or len(runs) == 1:
            return [payload] * len(runs)
        view = memoryview(payload)
        payloads = []
        cursor = 0
        for _offset, size in runs:
            payloads.append(view[cursor:cursor + size])
            cursor += size
        return payloads

    @property
    def is_write(self) -> bool:
        """True if every request carries a payload (a pure write vector)."""
        return bool(self.requests) and all(req.is_write for req in self.requests)

    @property
    def is_read(self) -> bool:
        """True if no request carries a payload (a pure read vector)."""
        return all(not req.is_write for req in self.requests)

    def total_bytes(self) -> int:
        """Sum of request sizes (memoized: a vector is immutable)."""
        total = self._total
        if total is None:
            total = self._total = sum([req.size for req in self._requests])
        return total

    def description(self) -> List[Tuple[int, ...]]:
        """The requests' ``(offset, size)`` pairs run-length encoded
        (:func:`encode_extents`): what a collective exchanges (memoized)."""
        description = self._description
        if description is None:
            description = self._description = encode_extents(self.extents())
        return description

    def covering_extent(self) -> Tuple[int, int]:
        """``(offset, size)`` of the smallest contiguous range covering
        every non-empty request; ``(0, 0)`` when there is none.  This is
        what a POSIX-locking MPI-I/O driver locks for a non-contiguous
        access (the paper's Section III observation)."""
        touched = [(offset, offset + size)
                   for offset, size in self.extents() if size]
        if not touched:
            return (0, 0)
        start = min(touched)[0]
        return (start, max([end for _start, end in touched]) - start)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def sorted_by_offset(self) -> "IOVector":
        """Requests re-ordered by offset (stable)."""
        return IOVector(sorted(self.requests, key=lambda req: (req.offset, req.size)))

    def apply_to(self, content: bytearray) -> None:
        """Apply the write vector in request order onto ``content`` in place.

        The target is grown with zero bytes if a request extends past its end,
        mirroring how a file grows on writes past EOF.
        """
        for req in self.requests:
            if not req.is_write:
                raise InvalidRegion("apply_to() called on a read vector")
            end = req.offset + req.size
            if end > len(content):
                content.extend(b"\x00" * (end - len(content)))
            content[req.offset:end] = req.data  # type: ignore[arg-type]

    def extract_from(self, content: bytes) -> List[bytes]:
        """Read the vector's ranges out of ``content`` (zero-filled past EOF)."""
        results: List[bytes] = []
        for req in self.requests:
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
