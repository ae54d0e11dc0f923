"""An executable definition of MPI-I/O atomicity.

The MPI standard's atomic mode requires that when several processes issue
concurrent, possibly overlapping write operations (each of which may cover a
*set of non-contiguous regions*), every byte of the resulting file reflects a
state obtainable by executing the writes one after another in *some* order —
i.e. the concurrent execution is equivalent to a serial one, and in
particular overlapped regions never interleave data from two writers at a
granularity finer than a whole write operation.

This module turns that definition into a checker used throughout the test
suite:

* :func:`apply_writes` — replay a list of vectored writes in a given order;
* :func:`find_serialization` — build an order of the concurrent writes that
  reproduces an observed final state, or show that none exists;
* :func:`check_mpi_atomicity` — the boolean/raising wrapper used by tests and
  by the property-based atomicity suite.

The checker cuts ``[0, len(observed))`` at every request boundary.  On each
segment, a write holds the bytes of its *last* request covering it (as in
:meth:`~repro.core.listio.IOVector.apply_to`); a segment no write covers must
keep ``initial``'s bytes, zero past its end.  The order is built from its
end: a write may go last among the unplaced ones when it holds the file's
bytes on every segment no placed write covers, and placing it settles the
segments it covers.  When writes remain and none may go last, no order
exists.  Any write that may go last is a safe pick, so nothing is searched:
moving it to the end of a valid order of the unplaced writes keeps that
order valid, since on every segment where it is now last it holds the
observed bytes — equal payloads on an overlap included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.listio import IOVector
from repro.errors import AtomicityViolation


@dataclass(slots=True, unsafe_hash=True)
class VectoredWrite:
    """A concurrent vectored write issued by one writer.

    ``writer_id`` only serves error reporting; the checker treats writes as
    anonymous operations.
    """

    writer_id: int
    vector: IOVector


def apply_writes(initial: bytes, writes: Sequence[VectoredWrite],
                 order: Optional[Sequence[int]] = None) -> bytes:
    """Replay ``writes`` (optionally re-ordered by ``order``) over ``initial``.

    Parameters
    ----------
    initial:
        Starting file content.
    writes:
        The vectored writes.
    order:
        Indices into ``writes`` giving the serialization order.  ``None``
        replays them in list order.

    Returns
    -------
    The resulting file content (grown as needed).
    """
    content = bytearray(initial)
    sequence = list(range(len(writes))) if order is None else list(order)
    for index in sequence:
        writes[index].vector.apply_to(content)
    return bytes(content)


def _serialize(initial: bytes, writes: Sequence[VectoredWrite],
               observed: bytes) -> Tuple[Optional[List[int]], str]:
    """The order :func:`find_serialization` returns, with ``""``; or
    ``None`` with the reason no order exists."""
    length = len(observed)
    cuts = {0, length}
    for write in writes:
        for request in write.vector:
            cuts.add(min(request.offset, length))
            cuts.add(min(request.offset + request.size, length))
    bounds = sorted(cuts)
    segment_at = {start: index for index, start in enumerate(bounds)}

    # segment index -> {write index: the bytes that write leaves there}
    holds: List[Dict[int, bytes]] = [{} for _ in bounds[:-1]]
    for index, write in enumerate(writes):
        for request in write.vector:
            offset, data = request.offset, request.data
            start, end = offset, min(offset + request.size, length)
            segment = segment_at.get(start)
            while start < end:
                stop = bounds[segment + 1]
                holds[segment][index] = data[start - offset:stop - offset]
                start, segment = stop, segment + 1

    # differing[w]: unsettled segments where write w's bytes are not the
    # file's; waiting[s]: the writes counted on segment s
    differing = [0] * len(writes)
    waiting: List[List[int]] = [[] for _ in holds]
    covers: List[List[int]] = [[] for _ in writes]
    for segment, held in enumerate(holds):
        start, end = bounds[segment], bounds[segment + 1]
        actual = observed[start:end]
        if not held:
            expected = initial[start:end]
            if actual != expected + bytes(end - start - len(expected)):
                return None, (f"bytes [{start}, {end}) were modified but no "
                              "write touches them")
        for index, data in held.items():
            covers[index].append(segment)
            if data != actual:
                differing[index] += 1
                waiting[segment].append(index)

    ready = [index for index, count in enumerate(differing) if count == 0]
    settled = [False] * len(holds)
    placed: List[int] = []
    while ready:
        index = ready.pop()
        placed.append(index)
        for segment in covers[index]:
            if not settled[segment]:
                settled[segment] = True
                for other in waiting[segment]:
                    differing[other] -= 1
                    if differing[other] == 0:
                        ready.append(other)
    if len(placed) < len(writes):
        stuck = [writes[i].writer_id for i, n in enumerate(differing) if n]
        return None, ("no serialization of the concurrent writes reproduces "
                      f"the observed content (stuck writers: {stuck})")
    placed.reverse()
    return placed, ""


def find_serialization(initial: bytes, writes: Sequence[VectoredWrite],
                       observed: bytes) -> Optional[List[int]]:
    """Find an order of ``writes`` whose replay over ``initial``, zero-padded
    or cut to ``len(observed)``, equals ``observed``.

    Returns the order (indices into ``writes``), or ``None`` when no
    serialization produces the observed content: atomicity was violated.
    """
    return _serialize(bytes(initial), writes, bytes(observed))[0]


def check_mpi_atomicity(initial: bytes, writes: Sequence[VectoredWrite],
                        observed: bytes, raise_on_violation: bool = False) -> bool:
    """Decide whether ``observed`` satisfies MPI atomicity for ``writes``.

    Bytes that no write touches must keep their initial value (zero-fill
    beyond the initial length), which catches backends that corrupt
    unrelated data.

    Parameters
    ----------
    raise_on_violation:
        When True, raise :class:`~repro.errors.AtomicityViolation` with a
        diagnostic message instead of returning False.
    """
    order, reason = _serialize(bytes(initial), writes, bytes(observed))
    if order is None and raise_on_violation:
        raise AtomicityViolation(reason)
    return order is not None


def interleaving_example(initial: bytes, writes: Sequence[VectoredWrite]) -> bytes:
    """Produce a deliberately *non-atomic* final state for testing the checker.

    The writes are applied request-by-request in a round-robin interleaving,
    which mixes data from different writers inside overlapped regions whenever
    the writes conflict.  Used by failure-injection tests to demonstrate that
    the checker (and therefore the property-based suite) can actually detect
    violations.
    """
    content = bytearray(initial)
    cursors = [0] * len(writes)
    remaining = sum(len(write.vector) for write in writes)
    while remaining:
        for index, write in enumerate(writes):
            if cursors[index] < len(write.vector):
                request = write.vector[cursors[index]]
                IOVector([request]).apply_to(content)
                cursors[index] += 1
                remaining -= 1
    return bytes(content)
