"""Polynomial MPI-atomicity check by precedence graph.

``repro.core.atomicity.check_mpi_atomicity`` searches permutations of each
conflict group and refuses the benchmark's sizes ("conflict group of 32
writes exceeds the permutation budget").  This checker is polynomial, on
one condition the benchmark's inputs are built to meet: wherever writes
overlap, their payload bytes differ, so **an observed byte names its
writer**.

Cut the file at every region boundary.  On each elementary segment the
observed bytes must equal the payload of exactly one covering write, the
*winner*; every other covering write must precede the winner in any serial
order that explains the file.  Add the caller's happens-before pairs (a
rank's own writes are ordered).  Then:

* acyclic  =>  a topological order replays to the observed file, because on
  every segment the winner comes last among the writes covering it;
* a serial order exists  =>  every edge agrees with it, so no cycle.

So "pairwise consistent and acyclic" is equivalent to MPI atomicity here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

#: one write: its ``(offset, payload)`` pieces, disjoint within the write
Write = Sequence[Tuple[int, bytes]]


class AmbiguousPayload(ValueError):
    """Two overlapping writes carry equal bytes: no byte can name its writer."""


def explain(writes: Sequence[Write], observed: bytes, initial: bytes = b"",
            happens_before: Sequence[Tuple[int, int]] = (),
            ) -> Tuple[Optional[List[int]], str]:
    """A serial order of ``writes`` that yields ``observed``, or why none does.

    Returns ``(order, "")`` or ``(None, reason)``.  ``happens_before`` holds
    ``(earlier, later)`` index pairs the order must respect.  Bytes no write
    touches must keep their ``initial`` value (zero beyond its length).
    """
    pieces = []  # (start, end, write index, payload)
    for index, write in enumerate(writes):
        for offset, payload in write:
            if payload:
                pieces.append((offset, offset + len(payload), index, payload))
    edges: Dict[int, Set[int]] = {index: set() for index in range(len(writes))}
    for earlier, later in happens_before:
        edges[earlier].add(later)

    cuts = sorted({0, len(observed)}
                  | {bound for start, end, _, _ in pieces
                     for bound in (start, end)})
    starting: Dict[int, list] = {}
    for piece in pieces:
        starting.setdefault(piece[0], []).append(piece)

    active: list = []
    for low, high in zip(cuts, cuts[1:]):
        active = [piece for piece in active if piece[1] > low]
        active.extend(starting.get(low, ()))
        if high > len(observed):
            return None, (f"write reaches byte {high}, the file has only "
                          f"{len(observed)}")
        seen = observed[low:high]
        if not active:
            kept = initial[low:high].ljust(high - low, b"\x00")
            if seen != kept:
                return None, f"bytes [{low}, {high}) changed but no write covers them"
            continue
        covering = [piece[2] for piece in active]
        if len(set(covering)) != len(covering):
            raise ValueError(f"a write overlaps itself in [{low}, {high})")
        winners = [index for start, _, index, payload in active
                   if payload[low - start:high - start] == seen]
        if not winners:
            return None, (f"bytes [{low}, {high}) match none of the writes "
                          f"{sorted(covering)} covering them")
        if len(winners) > 1:
            raise AmbiguousPayload(
                f"writes {sorted(winners)} carry the same bytes in "
                f"[{low}, {high})")
        for index in covering:
            if index != winners[0]:
                edges[index].add(winners[0])

    order = _topological_order(edges)
    if order is None:
        return None, "the precedence graph has a cycle: no serial order exists"
    return order, ""


def is_atomic(writes: Sequence[Write], observed: bytes, initial: bytes = b"",
              happens_before: Sequence[Tuple[int, int]] = ()) -> bool:
    """Whether some serial order of ``writes`` explains ``observed``."""
    return explain(writes, observed, initial, happens_before)[0] is not None


def _topological_order(edges: Dict[int, Set[int]]) -> Optional[List[int]]:
    indegree = {node: 0 for node in edges}
    for targets in edges.values():
        for target in targets:
            indegree[target] += 1
    ready = sorted(node for node, degree in indegree.items() if degree == 0)
    order: List[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for target in sorted(edges[node]):
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return order if len(order) == len(edges) else None
