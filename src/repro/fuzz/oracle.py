"""The serial byte oracle: rank-order application, shared by tests and fuzzer.

One implementation of the reference semantics every write mode is judged
against — MPI-I/O's *as-if-serial* contract: the final file contents must
equal applying each rank's vector immediately, in rank order (within a
rank: request order).  The conformance suites import these helpers through
``tests/_oracle.py``; the fuzzer's byte-identity checker builds on the
masked incremental variant below.

:class:`MaskedOracle` extends the plain oracle with an *uncertainty mask*
for fault-injected runs: when an aggregator dies mid-commit, some of the
collective's stripes may have published and some not, so the phase's union
extent becomes unverifiable — until a later write overwrites it and the
bytes are certain again.  Comparisons skip masked bytes; everything else
must match exactly.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

#: the conformance suites' historical default extent
FILE_SIZE_DEFAULT = 16 * 1024

WritePairs = Sequence[Tuple[int, bytes]]


def random_pattern(seed, num_ranks, file_size=FILE_SIZE_DEFAULT,
                   max_regions=4, max_region_size=1500,
                   empty_rank_chance=0.2):
    """Per-rank ``(offset, payload)`` lists: disjoint within a rank, freely
    overlapping across ranks, with occasional empty-handed ranks."""
    rng = random.Random(seed)
    pattern = []
    for rank in range(num_ranks):
        if num_ranks > 1 and rng.random() < empty_rank_chance:
            pattern.append([])
            continue
        count = rng.randint(1, max_regions)
        starts = sorted(rng.sample(range(file_size - max_region_size),
                                   count))
        regions = []
        for index, offset in enumerate(starts):
            limit = (starts[index + 1] - offset if index + 1 < count
                     else max_region_size)
            size = rng.randint(1, max(1, min(max_region_size, limit)))
            fill = bytes([1 + (rank * 41 + index * 13) % 255])
            regions.append((offset, fill * size))
        pattern.append(regions)
    return pattern


def serial_oracle(pattern, file_size=FILE_SIZE_DEFAULT):
    """The pattern applied in rank order (within a rank: region order)."""
    content = bytearray(file_size)
    apply_pattern(content, pattern)
    return bytes(content)


def apply_pattern(content: bytearray, pattern) -> None:
    """Apply per-rank ``(offset, payload)`` lists in rank order, in place."""
    for regions in pattern:
        for offset, payload in regions:
            content[offset:offset + len(payload)] = payload


def serial_oracle_vectors(vectors, file_size=FILE_SIZE_DEFAULT):
    """Rank-order application of already-built write vectors.

    Accepts anything with ``apply_to(bytearray)`` (e.g.
    :class:`repro.core.listio.IOVector` or the flattened vectors the File
    layer builds); within each vector, later requests win — the same
    (source rank, request sequence) resolution the aggregator promises.
    """
    content = bytearray(file_size)
    for vector in vectors:
        vector.apply_to(content)
    return bytes(content)


def pattern_extent(pattern) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` union over every rank's regions; ``None`` if all empty."""
    spans = [(offset, offset + len(payload))
             for regions in pattern for offset, payload in regions]
    if not spans:
        return None
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


class MaskedOracle:
    """Incremental serial oracle with an uncertainty mask.

    ``content`` is what a serial application of every (successful) write so
    far would produce; ``uncertain[i]`` is nonzero where an injected fault
    made byte ``i`` unpredictable.  Writes clear the mask (the new bytes are
    known again); comparisons skip masked bytes.
    """

    def __init__(self, file_size: int):
        self.file_size = file_size
        self.content = bytearray(file_size)
        self.uncertain = bytearray(file_size)

    # ------------------------------------------------------------------
    # evolving the expectation
    # ------------------------------------------------------------------
    def apply_pairs(self, pairs: WritePairs) -> None:
        """One writer's vector, applied in request order."""
        for offset, payload in pairs:
            end = offset + len(payload)
            self.content[offset:end] = payload
            self.uncertain[offset:end] = bytes(len(payload))

    def apply_pattern(self, pattern) -> None:
        """Per-rank pair lists in rank order (the serial reference)."""
        for pairs in pattern:
            self.apply_pairs(pairs)

    def mask(self, lo: int, hi: int) -> None:
        """Declare ``[lo, hi)`` unpredictable (a fault window)."""
        lo, hi = max(0, lo), min(self.file_size, hi)
        if hi > lo:
            self.uncertain[lo:hi] = b"\x01" * (hi - lo)

    @property
    def masked_bytes(self) -> int:
        return sum(1 for flag in self.uncertain if flag)

    # ------------------------------------------------------------------
    # judging observations
    # ------------------------------------------------------------------
    def mismatches(self, actual: bytes, base_offset: int = 0,
                   limit: int = 4) -> List[Tuple[int, int]]:
        """Differing unmasked runs of ``actual`` vs the expectation.

        ``actual`` covers file bytes ``[base_offset, base_offset +
        len(actual))``; returns up to ``limit`` ``(file_offset, run_length)``
        entries (empty means the observation is consistent).
        """
        if actual == self.content[base_offset:base_offset + len(actual)]:
            return []  # the common case: no byte to judge one by one
        runs: List[Tuple[int, int]] = []
        run_start = None
        for index, byte in enumerate(actual):
            position = base_offset + index
            differs = (position < self.file_size
                       and not self.uncertain[position]
                       and byte != self.content[position])
            if differs and run_start is None:
                run_start = position
            elif not differs and run_start is not None:
                runs.append((run_start, position - run_start))
                run_start = None
                if len(runs) >= limit:
                    return runs
        if run_start is not None:
            runs.append((run_start, base_offset + len(actual) - run_start))
        return runs

    def region_mismatches(self, regions: Sequence[Tuple[int, int]],
                          data: bytes, limit: int = 4
                          ) -> List[Tuple[int, int]]:
        """Judge one reader's concatenated region data against the oracle."""
        runs: List[Tuple[int, int]] = []
        cursor = 0
        for offset, size in regions:
            piece = data[cursor:cursor + size]
            cursor += size
            runs.extend(self.mismatches(piece, base_offset=offset,
                                        limit=limit - len(runs)))
            if len(runs) >= limit:
                break
        return runs
