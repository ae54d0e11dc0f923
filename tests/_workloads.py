"""Reference values of the workload generators that only the tests need.

The runners drive a workload through its access pattern (``write_pairs``,
``read_pairs``, ``seed_pairs``); the bytes a run must leave or return, and
the extents the tests check, are computed here over those public methods.
Import from here in ``tests/`` and ``benchmarks/``.
"""

from typing import Optional, Sequence, Tuple


def pieces(content: bytes, pairs: Sequence[Tuple[int, int]]) -> bytes:
    """The bytes of ``content`` an access of ``(offset, size)`` pairs
    returns, back to back."""
    return b"".join(content[offset:offset + size] for offset, size in pairs)


def sparse_scan_contents(workload) -> bytes:
    """What a :class:`~repro.workloads.collective_read.CollectiveReadWorkload`
    dump holds: its checkpoint's bytes with every hole slot zero."""
    content = bytearray(workload.content_workload().expected_contents())
    for round_index in range(workload.rounds):
        base = round_index * workload.section_size
        for slot in range(workload.blocks_per_section):
            if workload.is_hole(slot):
                offset = base + slot * workload.block_size
                content[offset:offset + workload.block_size] = \
                    bytes(workload.block_size)
    return bytes(content)


def union_extent(workload) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` over every rank's regions of a
    :class:`~repro.workloads.random_vectored.RandomVectoredWorkload`, or
    ``None`` when every rank is empty."""
    spans = [(offset, offset + size)
             for rank in range(workload.num_ranks)
             for offset, size, _fill in workload.rank_specs(rank)]
    if not spans:
        return None
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)
