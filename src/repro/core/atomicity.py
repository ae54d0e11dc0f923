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
* :func:`find_serialization` — search for an order of the concurrent writes
  that reproduces an observed final state;
* :func:`check_mpi_atomicity` — the boolean/raising wrapper used by tests and
  by the property-based atomicity suite.

The search is exact and exhaustive: the writes are split into conflict
groups (connected components of the overlap graph — groups commute, so only
orders within a group matter) and every permutation of a group is replayed
until one matches the observed bytes the group touches.  That is factorial in
the group size: up to 10 mutually conflicting writes are always enumerated
(10! = 3.6 M replays at worst); a larger group whose permutation count exceeds
``max_group_permutations`` (every group of 11 or more under the default
budget) raises :class:`~repro.errors.CheckerBudgetExceeded` — "cannot
decide", never :class:`~repro.errors.AtomicityViolation`.
``perfbench/atomicity.py`` is the polynomial checker for larger jobs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.listio import IOVector
from repro.core.regions import RegionList
from repro.errors import AtomicityViolation, CheckerBudgetExceeded


@dataclass(slots=True, unsafe_hash=True)
class VectoredWrite:
    """A concurrent vectored write issued by one writer.

    ``writer_id`` only serves error reporting; the checker treats writes as
    anonymous operations.
    """

    writer_id: int
    vector: IOVector

    def region_list(self) -> RegionList:
        """Byte ranges touched by the write."""
        return self.vector.region_list()


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


def _conflict_groups(writes: Sequence[VectoredWrite]) -> List[List[int]]:
    """Partition write indices into connected components of the conflict graph.

    Two writes conflict when their byte ranges overlap.  Only the relative
    order *within* a component can influence the final content, so the
    serialization search may treat components independently — this is what
    keeps the exact search tractable for realistic workloads.
    """
    count = len(writes)
    region_lists = [write.region_list().normalized() for write in writes]
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for i in range(count):
        for j in range(i + 1, count):
            if region_lists[i].overlaps(region_lists[j]):
                union(i, j)

    groups: Dict[int, List[int]] = {}
    for index in range(count):
        groups.setdefault(find(index), []).append(index)
    return list(groups.values())


def find_serialization(initial: bytes, writes: Sequence[VectoredWrite],
                       observed: bytes,
                       max_group_permutations: int = 2_000_000,
                       ) -> Optional[List[int]]:
    """Find an order of ``writes`` whose replay over ``initial`` equals ``observed``.

    Returns the order (list of indices into ``writes``) or ``None`` when no
    serialization produces the observed content — i.e. atomicity was violated.

    The search decomposes the writes into conflict groups (connected
    components of the overlap graph); non-conflicting groups commute, so only
    intra-group orders are enumerated.  A group of more than 10 writes with
    more than ``max_group_permutations`` orders raises
    :class:`~repro.errors.CheckerBudgetExceeded` rather than silently
    truncating the search or reporting a violation it has not shown.
    """
    if not writes:
        return [] if bytes(observed) == bytes(initial) else None

    final_length = len(observed)
    groups = _conflict_groups(writes)

    chosen_orders: List[List[int]] = []
    for group in groups:
        if len(group) > 10 \
                and math.factorial(len(group)) > max_group_permutations:
            raise CheckerBudgetExceeded(
                f"conflict group of {len(group)} writes exceeds the "
                f"permutation budget ({max_group_permutations}); "
                "reduce the workload used with the exact checker")

        solution: Optional[Tuple[int, ...]] = None
        for permutation in itertools.permutations(group):
            candidate = apply_writes(initial, writes, permutation)
            if _matches_on_touched_bytes(candidate, observed, writes, group,
                                         initial, final_length):
                solution = permutation
                break
        if solution is None:
            return None
        chosen_orders.append(list(solution))

    # Interleave groups in any fixed order (they commute); verify globally.
    flat_order = [index for group_order in chosen_orders for index in group_order]
    if apply_writes(initial, writes, flat_order)[:final_length] != bytes(observed):
        return None
    return flat_order


def _matches_on_touched_bytes(candidate: bytes, observed: bytes,
                              writes: Sequence[VectoredWrite],
                              group: Iterable[int], initial: bytes,
                              final_length: int) -> bool:
    """Compare candidate and observed content on the bytes touched by ``group``."""
    touched = RegionList()
    for index in group:
        touched = touched.union(writes[index].region_list())
    for region in touched:
        start = region.offset
        end = min(region.end, final_length)
        if start >= final_length:
            continue
        if candidate[start:end] != observed[start:end]:
            return False
    return True


def check_mpi_atomicity(initial: bytes, writes: Sequence[VectoredWrite],
                        observed: bytes, raise_on_violation: bool = False) -> bool:
    """Decide whether ``observed`` satisfies MPI atomicity for ``writes``.

    Also verifies that bytes never touched by any write kept their initial
    value (zero-fill beyond the initial length), which catches backends that
    corrupt unrelated data.

    Parameters
    ----------
    raise_on_violation:
        When True, raise :class:`~repro.errors.AtomicityViolation` with a
        diagnostic message instead of returning False.

    Whatever the flag, an undecidable input (see :func:`find_serialization`)
    raises :class:`~repro.errors.CheckerBudgetExceeded`.
    """
    observed = bytes(observed)
    initial = bytes(initial)

    # 1. untouched bytes must be preserved
    all_touched = RegionList()
    for write in writes:
        all_touched = all_touched.union(write.region_list())
    length = len(observed)
    untouched = RegionList.single(0, length).subtract(all_touched)
    for region in untouched:
        expected = initial[region.offset:region.end]
        if len(expected) < region.size:
            expected = expected + b"\x00" * (region.size - len(expected))
        actual = observed[region.offset:region.end]
        if actual != expected:
            if raise_on_violation:
                raise AtomicityViolation(
                    f"bytes [{region.offset}, {region.end}) were modified but "
                    "no write touches them")
            return False

    # 2. there must exist a serialization reproducing the touched bytes
    order = find_serialization(initial, writes, observed)
    if order is None:
        if raise_on_violation:
            raise AtomicityViolation(
                "no serialization of the concurrent writes reproduces the "
                f"observed content (writers: {[w.writer_id for w in writes]})")
        return False
    return True


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
