"""Two-phase collective I/O: the exchange, above any storage backend.

Thakur, Gropp & Lusk's classic optimization, as ROMIO runs it above ADIO:
on a collective write every rank holds a (possibly non-contiguous) piece of
a shared access, and committing each piece separately costs one commit per
rank.  Two-phase collective buffering instead

1. exchanges the ranks' access *descriptions* (one ``allgather`` of region
   lists) so everyone can compute the same partition of the file domain into
   ``num_aggregators`` contiguous, chunk-aligned stripes;
2. exchanges the *data* in rounds, as ROMIO does with its collective
   buffer: every stripe is cut at absolute chunk multiples into sub-stripes
   of whole *stripe rows* (data providers x chunk size — one unit per disk)
   — the fewest rows for which what the aggregators send one disk in a round
   is a run worth the disk's positioning time (:func:`_round_bytes`; every
   factor is known to every rank, so all derive the same round count and
   nobody sets one) — and round ``k`` is one sparse ``alltoallv`` landing
   the pieces of every stripe's ``k``-th sub-stripe on the aggregator rank
   that owns it;
3. has each aggregator assemble the sub-stripe it just received — the pieces
   applied in source-rank order, so overlaps resolve exactly as a serial
   application of the ranks' writes in rank order (rounds partition the
   file, so no overlap crosses one), onto one buffer per contiguous run of
   written bytes (holes stay holes) — and *stage* those runs while the
   group exchanges round ``k + 1``: the disks work from the first round on
   instead of idling through the whole shuffle.  What every sub-stripe will
   hold is known from the descriptions before any byte moves, so the whole
   stripe is *placed* as soon as the plan is known, beside round 0's
   exchange.  The last round's runs and the stagings go to one *publish*:
   the group's collective is ``num_aggregators`` commits instead of ``N``.
   A stripe of one round is the same loop run once: a single shuffle;
4. shares the outcomes and the published watermark back with every rank in
   the closing ``allgather``, so each participant's client learns — at zero
   RPC cost — a published version containing its own data.

The aggregators talk to the storage control plane; the other ranks spend
*zero* control-plane round-trips on the collective — the traffic that
remains is MPI-internal exchange, which moves over the compute interconnect
instead of hammering the storage servers.

The storage side is a few duck-typed hook methods on the client each side
holds; :class:`~repro.blobseer.client.BlobClient` implements them for the
versioning backend and documents each.  A write calls ``collective_flush``
and ``collective_geometry`` in phase 0, ``collective_place`` once the plan
is known, ``collective_stage`` on every round's runs but the last,
``collective_publish`` on the last, ``collective_forget`` when it fails
after placing but before publishing (a publish that fails has forgotten
what went ahead itself) and ``collective_settle`` after the closing
exchange.  A read calls ``collective_pin`` in phase 0,
``collective_geometry``, ``fetch_extents`` to resolve a stripe — the
sorted ``(offset, length, data)`` extents tiling it, a hole's ``data``
``None`` — and ``note_collective_read`` on success.  Either calls
``drop_read_hint`` when the collective failed.

Failure containment: what one rank alone contributes to the partition (its
phase-0 flush, its geometry, its aggregator setting) is resolved before the
opening exchange and a failure there stops the collective in it; past it
every rank knows the round count, and anything that fails on one rank in
round ``k`` (a dead provider under a staging upload, a validation error, a
bad cut) is reported through the closing exchange instead of being raised
mid-protocol — the rank enters the remaining rounds empty-handed, so the
surviving ranks never hang in a half-entered collective.  A failed
aggregator forgets what it staged, and every rank raises.  Like MPI itself,
a *failed* collective leaves the file state undefined within the access
range: stripes whose aggregators succeeded are durably published, only the
failed parts are absent — the guarantees are stripe integrity and group
progress, not all-or-nothing application of the collective.

In MPI *atomic* mode the collective path is bypassed: splitting one rank's
access across several stripe commits could let a concurrent reader observe
half of that rank's write, so atomic collectives keep the backend's native
one-rank-one-commit guarantee.

The read side (:class:`CollectiveReader`) is the mirror image: on a
``read_at_all`` every rank would otherwise resolve the *same* shared extent
independently — ``N`` version round-trips and ``N`` metadata walks for one
logical access.  The collective read instead

1. allgathers the ranks' access descriptions (strided runs run-length
   encoded, as on the write side) plus each rank's pin floor, pinning ONE
   snapshot version for the whole group: their maximum — so no rank can
   ever be served a version older than its own published commits, and the
   group observes one consistent snapshot;
2. partitions the union extent into chunk-aligned stripes owned by
   ``num_aggregators`` *resolver* ranks (same config/heuristic as the write
   side); each resolver resolves its stripe at the pin in one vectored read
   — non-resolver ranks spend *zero* metadata control RPCs;
3. scatters bytes and nothing else over ``alltoallv``: each rank receives
   the written parts of its wanted ranges in run order, without offsets —
   it derives each one from its own canonical runs, clipped to the sending
   resolver's stripe and split at the shipped holes — and never-written
   ranges travel as compact *hole descriptors*, 16 bytes each instead of
   their literal zero payload, materialized locally by the receiving rank
   (zero-extent elision).  The parts are read-only views of the stored
   chunks (a versioning backend never rewrites one): the receiver's one
   join into its buffer is the only copy of a byte.  A resolver's
   traversal stays in its own client: shipping it to every rank is
   O(ranks x resolvers x nodes) of traffic that only spared a later
   *independent* re-read one cold walk;
4. raises on every rank when any rank failed: every failure is known before
   the scatter, so a rank whose resolution failed enters it carrying one
   error item for every rank instead of data (nobody hangs in a
   half-entered collective, and no closing exchange follows).  On success
   every rank records the pinned version.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import islice
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.listio import EXTENT_DESCRIPTION_BYTES, IOVector, assemble
from repro.core.regions import canonical_runs, clip_runs, coalesce_runs
from repro.errors import MPIIOError
from repro.mpi.simcomm import Communicator

#: heuristic used when neither the driver nor the cluster config names an
#: aggregator count: one aggregator per this many ranks (ROMIO defaults its
#: ``cb_nodes`` to the node count; with one rank per node this is a stand-in
#: that still demonstrates the aggregation win)
DEFAULT_RANKS_PER_AGGREGATOR = 4


def encode_extents(extents: List[Tuple[int, int]]) -> List[Tuple[int, ...]]:
    """Run-length encode one rank's access description for the allgather.

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


def expand_extents(encoded) -> List[Tuple[int, int]]:
    """The ``(offset, size)`` extents :func:`encode_extents` was given."""
    extents: List[Tuple[int, int]] = []
    for entry in encoded:
        if len(entry) == 2:
            extents.append(entry)
        else:
            offset, size, stride, count = entry
            extents.extend((offset + index * stride, size)
                           for index in range(count))
    return extents


def _encoded_bytes(encoded) -> int:
    """Wire size of an encoded description: 16 B a lone extent, 32 B a run."""
    return sum(EXTENT_DESCRIPTION_BYTES * (len(entry) // 2)
               for entry in encoded)


def resolve_aggregator_count(size: int, configured: Optional[int] = None) -> int:
    """Number of aggregator ranks for a communicator of ``size`` ranks."""
    if size <= 0:
        raise MPIIOError(f"communicator size must be positive, got {size}")
    if configured is None:
        return max(1, size // DEFAULT_RANKS_PER_AGGREGATOR)
    if configured <= 0:
        raise MPIIOError(
            f"collective aggregator count must be positive, got {configured}")
    return min(size, configured)


def aggregator_ranks(size: int, count: int) -> List[int]:
    """The ``count`` ranks that act as aggregators, spread over the job.

    Evenly spaced (``[0, size/count, 2*size/count, ...]``) so aggregation
    load lands on different nodes rather than piling onto the first ones.
    """
    if not 1 <= count <= size:
        raise MPIIOError(f"need 1..{size} aggregators, got {count}")
    return [(index * size) // count for index in range(count)]


def partition_file_domain(lo: int, hi: int, count: int,
                          align: int) -> List[Tuple[int, int]]:
    """Split ``[lo, hi)`` into ``count`` contiguous half-open stripes.

    Stripe boundaries sit on *absolute* multiples of ``align`` (the BLOB
    chunk size) — the grid is anchored at the aligned floor of ``lo``, not
    at ``lo`` itself — so one chunk is never written by two aggregators and
    each chunk's copy-on-write cost is paid exactly once even when the
    collective's extent starts mid-chunk.  Trailing stripes may be empty
    when the extent is smaller than ``count`` aligned stripes.
    """
    if hi <= lo:
        raise MPIIOError(f"empty file domain [{lo}, {hi})")
    base = lo - (lo % align) if align > 0 else lo
    span = hi - base
    stripe = -(-span // count)  # ceil
    if align > 0:
        stripe = -(-stripe // align) * align
    domains: List[Tuple[int, int]] = []
    for index in range(count):
        start = max(lo, min(base + index * stripe, hi))
        end = min(base + (index + 1) * stripe, hi)
        domains.append((start, max(start, end)))
    return domains


def _domain_index(offset: int, domains: List[Tuple[int, int]],
                  ends: Optional[List[int]] = None) -> int:
    """Index of the stripe containing ``offset``.

    Stripes are contiguous and sorted, so a binary search over the (non-
    decreasing) end offsets finds the owner; callers splitting many pieces
    pass the precomputed ``ends`` list once instead of per lookup.
    """
    if ends is None:
        ends = [end for _start, end in domains]
    index = bisect_right(ends, offset)
    if index < len(domains) and domains[index][0] <= offset:
        return index
    raise MPIIOError(f"offset {offset} outside the partitioned file domain")


@dataclass
class CollectiveStats:
    """Per-rank counters of the collective-buffering path."""

    #: collective writes this rank participated in
    collectives: int = 0
    #: exchange bytes this rank contributed: access descriptions (phase 1)
    #: plus data pieces shipped to other ranks' aggregators (phase 2)
    bytes_sent: int = 0
    #: payload bytes this rank received as an aggregator
    bytes_received: int = 0
    #: merged stripe batches this rank committed as an aggregator
    stripes_committed: int = 0
    #: application writes attributed to this rank's stripe commits
    attributed_writes: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict form for benchmark artifacts."""
        return asdict(self)


def _pieces_bytes(pieces: List[Tuple]) -> int:
    """Wire size of a list of exchanged pieces: each piece's last field,
    the payload, plus a small header.

    The header is one ``(offset, size)`` descriptor — the same
    :data:`EXTENT_DESCRIPTION_BYTES` a standalone extent description
    costs, which is also exactly what a *hole* descriptor costs on the
    read side: elided zero ranges are priced at descriptor size, never at
    their materialized size (pinned by the exact-accounting regression
    test over ``Communicator.bytes_moved``).
    """
    return (sum([len(piece[-1]) for piece in pieces])
            + EXTENT_DESCRIPTION_BYTES * len(pieces))


def _priced_bytes(item: Tuple) -> int:
    """Wire size of one data-exchange item: its sender priced it already."""
    return item[0]


def join_pieces(pairs: List[Tuple[int, bytes]]) -> List[Tuple[int, bytes]]:
    """``(offset, data)`` pieces, in application order, as one ``(offset,
    bytes)`` buffer per maximal contiguous run of written bytes.

    The runs are the normalized regions of the pieces — overlapping and
    adjacent pieces merge, empty ones vanish, gaps stay gaps — and later
    pieces win on overlapping bytes, as in serial application
    (:meth:`IOVector.apply_to <repro.core.listio.IOVector.apply_to>`).  No
    request object is built per piece: the pieces are sorted by offset and
    each run is one ``b"".join`` of them.  Only a run in which two pieces overlap is
    painted piece by piece, in application order, onto a scratch buffer.
    """
    ordered = sorted((offset, index, data)
                     for index, (offset, data) in enumerate(pairs) if data)
    runs: List[Tuple[int, bytes]] = []
    first, total = 0, len(ordered)
    while first < total:
        start, _index, data = ordered[first]
        end = start + len(data)
        overlapping = False
        stop = first + 1
        while stop < total:
            offset, _index, data = ordered[stop]
            if offset > end:
                break
            if offset < end:
                overlapping = True
            end = max(end, offset + len(data))
            stop += 1
        if not overlapping:
            runs.append((start, b"".join(
                [piece[2] for piece in ordered[first:stop]])))
        else:
            buffer = bytearray(end - start)
            for offset, _index, data in sorted(ordered[first:stop],
                                               key=itemgetter(1)):
                buffer[offset - start:offset - start + len(data)] = data
            runs.append((start, bytes(buffer)))
        first = stop
    return runs


def _written_spans(runs: List[Tuple[int, int]],
                   holes: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Canonical ``(start, end)`` ``runs`` cut at sorted, disjoint ``(start,
    end)`` ``holes``: the written ``(start, end)`` spans, in order — what
    the holes leave of the runs.  A read's receiver, cutting its runs at
    the holes shipped, finds where the resolver's parts go.
    """
    spans: List[Tuple[int, int]] = []
    index, total = 0, len(holes)
    for start, end in runs:
        while index < total and holes[index][1] <= start:
            index += 1
        cursor = start
        # a hole may reach into the next run: ``index`` stays on it
        for hole_start, hole_end in islice(holes, index, None):
            if hole_start >= end:
                break
            if hole_start > cursor:
                spans.append((cursor, hole_start))
            cursor = min(hole_end, end)
        if cursor < end:
            spans.append((cursor, end))
    return spans


def _cut_views(cuts: list) -> list:
    """The parts a read resolver cut for one rank: ``cuts`` lays ``(view,
    start, stop)`` triples flat, ``view`` a read-only view of a stored
    extent.  The resolver ships the triples, so no per-part object outlives
    the exchange (a view per part would be one more object for the
    collector to trace); the receiver slices them right before its join.
    """
    triples = iter(cuts)
    return [view[start:stop] for view, start, stop in
            zip(triples, triples, triples)]


def _opening_bytes(entry: Tuple) -> int:
    """Wire size of one rank's opening contribution: its encoded access
    description plus 8 B for the watermark a read carries; a failure
    report is a flat 64."""
    if entry[0] != "ok":
        return 64
    return _encoded_bytes(entry[1]) + 8 * (len(entry) - 2)


def _phase(ctx, gen, name: str, **args):
    """Run one protocol phase under a mainline span (tracing only).

    The collective protocols execute in the rank's sequential mainline, so
    phase spans use the context's stack — anything they trigger deeper down
    (commits, RPCs) parents under the phase naturally.
    ``ctx is None`` (tracing disabled) is a pure passthrough.
    """
    if ctx is None:
        result = yield from gen
        return result
    span = ctx.begin(name, cat="collective", **args)
    try:
        result = yield from gen
    finally:
        ctx.finish(span)
    return result


def _shared_memo(gathered, key, compute):
    """Memoize ``compute()`` on an allgather result shared by every rank.

    Each rank of a simulated collective derives the *same* planning from the
    *same* gathered descriptions; caching the derivation on the shared
    :class:`~repro.mpi.simcomm.SharedList` runs it once per collective
    instead of once per rank.  Falls back to plain computation when the
    result is not a memo-carrying list (single tests driving the protocol
    with hand-built lists).
    """
    memo = getattr(gathered, "memo", None)
    if memo is None:
        return compute()
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def _scan_gather(gathered) -> Tuple[list, list, int, int, int]:
    """One pass over an opening gather: errors, extents, version pin, hull.

    Returns ``(early_errors, extents_by_rank, pinned, lo, hi)``.  ``hi`` is
    0 exactly when no rank brought data bytes; ``pinned`` is the maximum
    watermark the healthy ranks of a *read* brought (0 on the write side,
    whose entries carry none; meaningless, but safe, when any rank reported
    an error).
    """
    early_errors: list = []
    extents_by_rank: list = []
    pinned = 0
    lo = None
    hi = 0
    for entry in gathered:
        if entry[0] == "err":
            early_errors.append(entry[1])
            extents_by_rank.append(())
            continue
        extents = expand_extents(entry[1])
        extents_by_rank.append(extents)
        for floor in entry[2:]:
            if floor > pinned:
                pinned = floor
        for offset, size in extents:
            if size:
                if lo is None or offset < lo:
                    lo = offset
                end = offset + size
                if end > hi:
                    hi = end
    return early_errors, extents_by_rank, pinned, lo or 0, hi


def _scan_outcomes(outcomes) -> Tuple[list, int, bool]:
    """A closing gather's error reports, and, if there are none, the highest
    version an aggregator published and whether the aggregators' versions
    are exactly the consecutive run ending there."""
    errors = [entry[1] for entry in outcomes if entry[0] == "err"]
    if errors:
        return errors, 0, False
    versions = sorted(entry[1] for entry in outcomes if entry[1])
    watermark = versions[-1] if versions else 0
    return errors, watermark, versions == list(
        range(watermark - len(versions) + 1, watermark + 1))


def _round_bytes(providers: int, chunk_size: int, count: int, config) -> int:
    """Bytes of one aggregator's stripe exchanged — and uploaded — per round.

    Whole stripe rows (``providers`` x ``chunk_size``: one unit per disk),
    the fewest that make a round worth a disk's while: what the ``count``
    aggregators send one disk in a round queues up as one sequential run,
    and that run should stream for at least as long as the disk takes to
    position for it — a dump too small for that gains nothing from
    uploading early and pays one I/O overhead per extra round, so it comes
    out as a single round.  Every factor is known to every rank alike.
    """
    positioning_bytes = config.disk_overhead * config.disk_bandwidth
    rows = max(1, -(-int(positioning_bytes) // (count * chunk_size)))
    return providers * chunk_size * rows


class _WritePlan(NamedTuple):
    """What every rank derives alike from one collective write's descriptions."""

    #: the aggregator ranks, one per stripe
    owners: List[int]
    #: logical writes attributed to each stripe's commit
    attributed: List[int]
    #: exchange rounds: the most sub-stripes any one stripe is cut into
    rounds: int
    #: the sub-stripes' end offsets in file order — one ``bisect`` places a
    #: request — and, of each, the aggregator rank, the round it is exchanged
    #: in and the ``(offset, size)`` extents its written bytes will fill
    edges: List[int]
    edge_owner: List[int]
    edge_round: List[int]
    edge_extents: List[List[Tuple[int, int]]]


def _plan_write_partition(size: int, count: int, lo: int, hi: int,
                          chunk_size: int, row: int,
                          extents_by_rank) -> _WritePlan:
    """Aggregator owners, write attribution and exchange rounds of one job.

    Each rank's one logical write is attributed to the aggregator owning its
    first data byte, so the attributions sum to the number of data-bearing
    ranks however the stripes slice them.

    Every stripe is cut, at absolute chunk multiples, into sub-stripes of
    ``row`` bytes; an aggregator's ``k``-th sub-stripe is exchanged in round
    ``k``.  What a sub-stripe will hold is known before any byte moves — the
    union of the described extents inside it — which is what lets the
    aggregator's client place a whole stripe ahead of its data.
    """
    owners = aggregator_ranks(size, count)
    domains = partition_file_domain(lo, hi, count, chunk_size)
    domain_ends = [end for _start, end in domains]
    attributed = [0] * count
    for extents in extents_by_rank:
        first = next((offset for offset, size in extents if size), None)
        if first is not None:
            attributed[_domain_index(first, domains, domain_ends)] += 1
    # the written bytes as maximal runs: what the aggregators' assembled
    # sub-stripes will consist of
    written = canonical_runs(extent for extents in extents_by_rank
                             for extent in extents)
    edges: List[int] = []
    edge_owner: List[int] = []
    edge_round: List[int] = []
    edge_extents: List[List[Tuple[int, int]]] = []
    run = 0
    for owner, (start, end) in zip(owners, domains):
        cursor = start - start % chunk_size
        round_index = 0
        while start < end:
            cursor += row
            stop = min(cursor, end)
            inside = []
            while run < len(written) and written[run][0] < stop:
                first = max(written[run][0], start)
                inside.append((first, min(written[run][1], stop) - first))
                if written[run][1] > stop:
                    break
                run += 1
            edges.append(stop)
            edge_owner.append(owner)
            edge_round.append(round_index)
            edge_extents.append(inside)
            start = stop
            round_index += 1
    return _WritePlan(owners, attributed, max(edge_round) + 1, edges,
                      edge_owner, edge_round, edge_extents)


class _CollectiveParticipant:
    """Both collective protocol sides: their owner count and describe phase.

    The write aggregators and the read resolvers of one job must pick the
    *same* owner ranks from the same hint/fallback chain (the driver's
    ``collective_aggregators`` → the 1-per-4 heuristic) — the partition
    math assumes it — so the chain lives here exactly once.
    """

    def __init__(self, client, num_aggregators: Optional[int] = None):
        if num_aggregators is not None and num_aggregators <= 0:
            # fail at construction, not mid-collective: a bad setting that
            # only surfaced inside the protocol would fail one rank's call
            # while its peers are already committed to the exchange
            raise MPIIOError(
                f"collective aggregator count must be positive, "
                f"got {num_aggregators}")
        self.client = client
        #: the driver's ``cb_nodes`` hint; ``None`` falls back to the
        #: heuristic.  Like ROMIO hints, the value must agree across the
        #: ranks of a job.
        self.num_aggregators = num_aggregators

    def resolved_count(self, size: int) -> int:
        """Owner (aggregator/resolver) count for a ``size``-rank job."""
        return resolve_aggregator_count(size, self.num_aggregators)

    def _describe(self, side: str, blob_id: str, vector: IOVector, rank: int,
                  comm: Communicator, failure: Optional[BaseException],
                  *watermark: int):
        """Phase 1 of either side: allgather this rank's encoded extents
        (a read adds its ``watermark``), or its own ``failure``, priced by
        the actual entries and counted into the stats.  Returns the gathered
        list and ``(extents_by_rank, pinned, lo, hi)`` (:func:`_scan_gather`);
        raises on every rank when any rank reported an error.
        """
        client = self.client
        if failure is None:
            opening = ("ok", encode_extents(
                [(request.offset, request.size) for request in vector]),
                *watermark)
            self.stats.bytes_sent += _opening_bytes(opening)
        else:
            opening = ("err", f"rank {rank}: {failure!r}")
        gathered = yield from _phase(
            client.trace_ctx, comm.allgather(rank, opening, payload_bytes=(
                lambda entries: sum(map(_opening_bytes, entries.values())))),
            f"collective.{side}.describe", rank=rank)
        early_errors, *scan = _shared_memo(
            gathered, "scan", lambda: _scan_gather(gathered))
        if early_errors:
            # a peer's phase-0 flush or barrier may have published while
            # this collective died: a hint planted (or kept) before it is
            # not trustworthy, so the next default read must round-trip
            client.drop_read_hint(blob_id)
            if failure is not None:
                raise failure
            raise MPIIOError(f"collective {side} aborted before the "
                             "exchange: " + "; ".join(early_errors))
        return gathered, scan


class CollectiveAggregator(_CollectiveParticipant):
    """One rank's side of the two-phase collective write protocol.

    Every rank of a job owns one instance (wrapping that rank's client);
    the instances coordinate purely through the shared
    :class:`~repro.mpi.simcomm.Communicator`, so there is no shared object —
    exactly like real MPI ranks in separate address spaces.
    """

    def __init__(self, client, num_aggregators: Optional[int] = None):
        super().__init__(client, num_aggregators)
        self.stats = CollectiveStats()

    # ------------------------------------------------------------------
    def collective_write(self, blob_id: str, vector: IOVector, rank: int,
                         comm: Communicator):
        """Execute one collective write; every rank of ``comm`` must call it.

        ``vector`` may be empty (a rank with nothing to write still
        participates in the exchange, as MPI requires).  Returns the bytes
        this rank contributed.  Raises :class:`~repro.errors.MPIIOError` on
        every rank when any rank's part of the protocol failed.
        """
        client = self.client
        failure: Optional[BaseException] = None

        # phase 0 (local): writes this rank queued earlier in program order
        # go before the group's stripes do.  What the partition needs from
        # this rank alone is fetched here too, so a rank that cannot get it
        # stops the collective before any exchange round is entered: past
        # the opening allgather every rank can derive the round count
        try:
            yield from client.collective_flush(blob_id)
            chunk_size, providers = yield from client.collective_geometry(
                blob_id)
            count = self.resolved_count(comm.size)
        except Exception as exc:
            failure = exc

        # phase 1: exchange access descriptions; everyone derives the same
        # file-domain partition (or learns that the collective already died)
        gathered, (extents_by_rank, _pinned, lo, hi) = yield from \
            self._describe("write", blob_id, vector, rank, comm, failure)
        ctx = client.trace_ctx
        if not hi:
            # collectively zero bytes (empty vectors, or only zero-size
            # requests): nothing to exchange or commit anywhere
            self.stats.collectives += 1
            return 0

        # pure arithmetic over what every rank received identically: it
        # cannot fail on one rank alone
        row = _round_bytes(providers, chunk_size, count,
                           client.cluster.config)
        plan = _shared_memo(
            gathered, ("write_plan", count, chunk_size, row),
            lambda: _plan_write_partition(comm.size, count, lo, hi,
                                          chunk_size, row, extents_by_rank))
        rounds = plan.rounds

        # cutting must not raise mid-protocol: a rank failing here (or in
        # any round below) still enters every exchange round empty-handed
        # and reports through the closing phase, so its peers never hang
        try:
            sends = self._cut_rounds(vector, plan)
        except Exception as exc:
            failure = exc
            sends = [{} for _round in range(rounds)]

        # phases 2-3, one sub-stripe per round: ship every piece of the
        # round to the aggregator owning its sub-stripe (a sparse exchange —
        # most ranks only touch a few stripes); the aggregator assembles the
        # sub-stripe and, while the group exchanges the next round, stages
        # it.  The last round's runs stay in hand: they are what the publish
        # carries itself
        stripe = plan.owners.index(rank) if rank in plan.owners else None
        ahead = None
        runs: Optional[IOVector] = None
        # a stripe with bytes in any round but the last sends them ahead of
        # its publish: have the whole stripe placed while round 0 is
        # exchanged, so that no round — nor the publish — waits on it
        placement = None
        if failure is None and stripe is not None:
            parts = self._stripe_extents(plan, rank)
            if any(parts[:-1]):
                placement = client.collective_place(blob_id, parts, rank)
        for index in range(rounds):
            # each send list is priced once, here, for the stats, the cost
            # model and the receiver; pieces addressed to this rank itself
            # are a local copy, not traffic
            send = {destination: (_pieces_bytes(pieces), pieces)
                    for destination, pieces in sends[index].items()}
            sends[index] = None
            self.stats.bytes_sent += sum(
                nbytes for destination, (nbytes, _pieces) in send.items()
                if destination != rank)
            received = yield from _phase(
                ctx, comm.alltoallv_sparse(rank, send, sizeof=_priced_bytes),
                "collective.write.exchange_data", rank=rank, round=index)
            if failure is None and stripe is not None:
                try:
                    runs = self._assemble(received, rank)
                    if runs is not None and index + 1 < rounds:
                        if ahead is None:
                            placed = yield placement
                            if isinstance(placed, Exception):
                                raise placed
                            ahead = placed
                        client.collective_stage(blob_id, runs, ahead, index)
                        runs = None
                except Exception as exc:
                    failure = exc
        if placement is not None and ahead is None:
            # nothing went ahead after all (this rank failed first, or a
            # failed peer left the early rounds empty): the placement is
            # joined, not left running past the collective, and unused
            yield placement

        # phase 3 (aggregators): publish the whole stripe — every round's
        # stagings — as one commit
        closing = ("ok", 0)
        receipt = None
        if failure is not None:
            closing = ("err", f"rank {rank}: {failure!r}")
            if ahead is not None:
                # no commit will reference what went ahead of it
                client.collective_forget(ahead)
        elif runs is not None or ahead is not None:
            attributed = plan.attributed[stripe]
            try:
                receipt = yield from _phase(
                    ctx, client.collective_publish(
                        blob_id, runs or IOVector(), ahead, attributed),
                    "collective.write.commit_stripe", rank=rank)
                closing = ("ok", receipt.version)
                self.stats.stripes_committed += 1
                self.stats.attributed_writes += attributed
            except Exception as exc:
                # a failed publish has forgotten what went ahead itself
                failure = exc
                closing = ("err", f"aggregator rank {rank}: {exc!r}")

        # phase 4: share outcomes and the published watermark
        outcomes = yield from _phase(
            ctx, comm.allgather(rank, closing),
            "collective.write.closing", rank=rank)
        errors, watermark, gapless = _shared_memo(
            outcomes, "closing", lambda: _scan_outcomes(outcomes))
        if errors:
            # surviving aggregators' stripes are durably published, so any
            # hint planted before this collective now names a version that
            # may hide them — drop it on every rank
            client.drop_read_hint(blob_id)
            if failure is not None:
                raise failure
            raise MPIIOError("collective write failed: " + "; ".join(errors))
        client.collective_settle(blob_id, watermark, gapless, receipt)
        self.stats.collectives += 1
        return vector.total_bytes()

    # ------------------------------------------------------------------
    @staticmethod
    def _stripe_extents(plan: _WritePlan, rank: int
                        ) -> List[List[Tuple[int, int]]]:
        """Per round, the written extents of aggregator ``rank``'s
        sub-stripe (none for a round its stripe is too short for)."""
        parts: List[List[Tuple[int, int]]] = [[] for _round in
                                               range(plan.rounds)]
        for owner, round_index, extents in zip(
                plan.edge_owner, plan.edge_round, plan.edge_extents):
            if owner == rank:
                parts[round_index] = extents
        return parts

    @staticmethod
    def _cut_rounds(vector: IOVector, plan: _WritePlan
                    ) -> List[Dict[int, List[Tuple[int, int, bytes]]]]:
        """This rank's pieces per exchange round and destination aggregator.

        A request is cut wherever it crosses a sub-stripe edge (stripe edges
        included); one ``bisect`` finds its first sub-stripe.  Within one
        destination's list the ``(sequence, offset, data)`` pieces ascend.
        """
        edges, edge_owner, edge_round = \
            plan.edges, plan.edge_owner, plan.edge_round
        sends: List[Dict[int, list]] = [{} for _round in range(plan.rounds)]
        for sequence, request in enumerate(vector):
            if request.size == 0:
                continue
            start, end = request.offset, request.offset + request.size
            index = bisect_right(edges, start)
            if end <= edges[index]:
                # the common case: the request crosses no edge
                sends[edge_round[index]].setdefault(
                    edge_owner[index], []).append(
                        (sequence, start, request.data))
                continue
            while start < end:
                cut = min(end, edges[index])
                data = request.data[start - request.offset:
                                    cut - request.offset]
                sends[edge_round[index]].setdefault(
                    edge_owner[index], []).append((sequence, start, data))
                start = cut
                index += 1
        return sends

    def _assemble(self, received: Dict[int, Tuple[int, list]],
                  self_rank: int) -> Optional[IOVector]:
        """One sub-stripe's received pieces as contiguous runs.

        The pieces are applied in (source rank, sequence) order — each
        source's list already ascends — as one buffer per maximal
        contiguous run of written bytes (:func:`join_pieces`: later pieces
        win on overlapping bytes, so the result equals applying the ranks'
        accesses serially in rank order — the resolution the conformance
        suite pins; rounds partition the file, so no overlap crosses one;
        holes stay holes, nothing is zero-filled).  Those runs, not the
        pieces, are what gets stored: every layer below sees one chunk per
        stripe unit however small the ranks' blocks were.  ``None`` if
        nothing arrived.
        """
        pairs = [(offset, data)
                 for source in sorted(received)
                 for _sequence, offset, data in received[source][1]]
        if not pairs:
            return None
        self.stats.bytes_received += sum(
            nbytes for source, (nbytes, _pieces) in received.items()
            if source != self_rank)
        runs = IOVector.for_write(join_pieces(pairs))
        # the run buffers replace the pieces: release this rank's receive
        # buffers now rather than when the collective returns
        for _nbytes, pieces in received.values():
            pieces.clear()
        return runs


# ----------------------------------------------------------------------
# the read side: aggregated metadata resolution for read_at_all
# ----------------------------------------------------------------------
@dataclass
class CollectiveReadStats:
    """Per-rank counters of the collective-read path."""

    #: collective reads this rank participated in
    collectives: int = 0
    #: exchange bytes this rank contributed: access descriptions (phase 1)
    #: plus data pieces and hole descriptors shipped to other ranks (phase 3)
    bytes_sent: int = 0
    #: payload bytes this rank received from other ranks
    bytes_received: int = 0
    #: stripe resolutions this rank executed as a resolver
    stripes_resolved: int = 0
    #: ``latest`` round-trips this rank issued as the lead resolver
    version_rpcs: int = 0
    #: lead-resolver version resolutions served by a consumed read hint
    version_rpcs_elided: int = 0
    #: never-written bytes this rank, as a resolver, shipped as compact
    #: hole descriptors instead of literal zeros (zero-extent elision:
    #: these bytes would have crossed the interconnect without it)
    hole_bytes_elided: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict form for benchmark artifacts."""
        return asdict(self)


class CollectiveReader(_CollectiveParticipant):
    """One rank's side of the aggregated collective-read protocol.

    Every rank of a job owns one instance (wrapping that rank's client); the
    instances coordinate purely through the shared
    :class:`~repro.mpi.simcomm.Communicator` — no shared object, exactly
    like the write-side :class:`CollectiveAggregator`.  The resolver set is
    the aggregator set (same count chain, same spread): placement wants the
    same properties on both sides, and one knob keeps the two in agreement.

    The exchange moves bytes only: what a resolver's client learns resolving
    its stripe (a versioning client's metadata walk, which warms its own
    cache) is never shipped — the other ranks do not touch the control plane
    inside a collective and have no use for it there.
    """

    def __init__(self, client, num_resolvers: Optional[int] = None):
        super().__init__(client, num_resolvers)
        self.stats = CollectiveReadStats()

    # ------------------------------------------------------------------
    def collective_read(self, blob_id: str, vector: IOVector, rank: int,
                        comm: Communicator):
        """Execute one collective read; every rank of ``comm`` must call it.

        ``vector`` may be empty (a rank with nothing to read still
        participates, as MPI requires).  Returns the requests' bytes back to
        back as one ``bytes``, all taken from the one snapshot version the
        group pinned.  Raises
        :class:`~repro.errors.MPIIOError` on every rank when any rank's part
        of the protocol failed.
        """
        client = self.client
        failure: Optional[BaseException] = None
        owners: List[int] = []
        floor = 0

        # phase 0 (local): this rank's floor for the group's version pin —
        # the lead resolver's the only one that may cost a round-trip
        try:
            count = self.resolved_count(comm.size)
            owners = aggregator_ranks(comm.size, count)
            lead = rank == owners[0]
            floor, elided = yield from client.collective_pin(blob_id, lead)
            if elided:
                self.stats.version_rpcs_elided += 1
            elif lead:
                self.stats.version_rpcs += 1
        except Exception as exc:
            failure = exc

        # phase 1: exchange access descriptions and floors.  The pin is
        # their maximum: every contribution is a *published* version, so it
        # is too — and at least as new as every rank's own commits
        gathered, (extents_by_rank, pinned, lo, hi) = yield from \
            self._describe("read", blob_id, vector, rank, comm, failure,
                           floor)
        ctx = client.trace_ctx
        if not hi:
            # collectively zero bytes: nothing to resolve or ship anywhere,
            # but the group still synchronized on the pinned version
            self.stats.collectives += 1
            if pinned:
                client.note_collective_read(blob_id, pinned)
            return b""

        # phase 2 (resolvers): resolve + fetch this rank's stripe of the
        # union extent.  A rank failing here still enters the data exchange,
        # carrying only its error report, so its peers never hang
        # mid-collective.  Non-resolver ranks ship nothing at all — the
        # exchange is sparse on their side.
        send: Dict[int, Tuple] = {}
        if failure is None:
            try:
                chunk_size, _providers = yield from \
                    client.collective_geometry(blob_id)
                domains = _shared_memo(
                    gathered, ("read_domains", len(owners), chunk_size),
                    lambda: partition_file_domain(lo, hi, len(owners),
                                                  chunk_size))
                # the per-rank wanted runs are identical for every rank —
                # derive them once per collective: each resolver clips them
                # to its own stripe, each receiver places its pieces on its
                # own
                wanted_full = _shared_memo(
                    gathered, "read_wanted",
                    lambda: [canonical_runs(extents)
                             for extents in extents_by_rank])
                if rank in owners:
                    send = yield from _phase(
                        ctx, self._resolve_stripe(
                            blob_id, pinned, domains[owners.index(rank)],
                            wanted_full, rank),
                        "collective.read.resolve", rank=rank,
                        version=pinned)
            except Exception as exc:
                failure = exc
        if failure is not None:
            # every failure is known by now: it rides the scatter as one
            # error item to every rank, priced as one extent description
            send = dict.fromkeys(range(comm.size), (
                EXTENT_DESCRIPTION_BYTES, None, f"rank {rank}: {failure!r}"))

        # phase 3: scatter the fetched pieces to the ranks that want them.
        # Never-written ranges travel as (offset, length) hole descriptors —
        # 16 bytes each — instead of their literal zero payload, and the
        # payloads travel without offsets: the receiver derives them from
        # its own runs.  Each item was priced once by its sender, for the
        # stats, the cost model and the receiver
        self.stats.bytes_sent += sum(item[0]
                                     for destination, item in send.items()
                                     if destination != rank)
        received = yield from _phase(
            ctx, comm.alltoallv_sparse(rank, send, sizeof=_priced_bytes),
            "collective.read.scatter", rank=rank)
        errors = [item[2] for item in received.values() if item[1] is None]
        if failure is not None or errors:
            # the hint consumed in phase 0 is gone and no fresh one is
            # planted: after a failed collective the next default read must
            # ask the version manager (peer state is undefined)
            client.drop_read_hint(blob_id)
            if failure is not None:
                raise failure
            raise MPIIOError("collective read failed: " + "; ".join(errors))

        self.stats.bytes_received += sum(
            item[0] for source, item in received.items() if source != rank)
        # the group pin is a published version every rank remembers:
        # recording it re-plants the one-shot hint
        client.note_collective_read(blob_id, pinned)

        data = self._scatter(vector, received, wanted_full[rank], domains,
                             owners)
        self.stats.collectives += 1
        return data

    def _scatter(self, vector: IOVector,
                 received: Dict[int, Tuple[int, list, list]],
                 wanted: List[Tuple[int, int]],
                 domains: List[Tuple[int, int]],
                 owners: List[int]) -> bytes:
        """This rank's one buffer — the requests of ``vector`` back to back
        — out of the received parts and hole descriptors, in one join.

        Each resolver cut this rank's canonical runs (``wanted``), clipped
        to its stripe, at the holes it ships, and sent the written parts in
        run order without their file offsets, as cuts of its stored extents
        (:func:`_cut_views`) — a part may stop short where an extent ends.
        When nothing was a hole and the requests ascend without overlapping
        (every block of an interleaved access), the parts in stripe order
        are the requests' bytes in order: the buffer is their join.  Any
        other shape places the parts along the spans :func:`_written_spans`
        gives — the resolver's cuts refine them — and assembles the
        requests from them and the holes
        (:func:`~repro.core.listio.assemble`): the zeros never crossed the
        interconnect.
        """
        items = [received[owner] for owner in owners if owner in received]
        if not any([holes for _price, _cuts, holes in items]):
            end = 0
            for request in vector:
                if request.offset < end:
                    break
                end = request.offset + request.size
            else:
                return b"".join([part for _price, cuts, _holes in items
                                 for part in _cut_views(cuts)])
        extents = []
        for owner, domain in zip(owners, domains):
            if owner not in received:
                continue
            _price, cuts, holes = received[owner]
            spans = _written_spans(
                clip_runs(wanted, *domain),
                [(offset, offset + length) for offset, length in holes])
            parts = iter(_cut_views(cuts))
            for start, end in spans:
                while start < end:
                    part = next(parts)
                    extents.append((start, len(part), part))
                    start += len(part)
            extents.extend((offset, length, None) for offset, length in holes)
        extents.sort(key=itemgetter(0))
        return assemble(vector, extents, joined=True)

    # ------------------------------------------------------------------
    def _resolve_stripe(self, blob_id: str, version: int,
                        domain: Tuple[int, int],
                        wanted_full: List[List[Tuple[int, int]]], rank: int):
        """Resolve and fetch one stripe; cut the bytes per destination rank.

        One fetch of the client at ``version`` over the union of every
        rank's wanted bytes within the stripe (each byte resolved once
        however many ranks want it) gives the sorted extents that tile the
        union; then per-rank extraction — all of it on canonical ``(start,
        end)`` runs.  Returns the ``send`` map for the sparse data exchange:
        ``(price, cuts, holes)`` for each destination that wants bytes of
        this stripe — ``holes`` are the never-written ranges within that
        rank's wanted bytes, shipped as ``(offset, length)`` descriptors
        instead of literal zero payloads (zero-extent elision), ``cuts`` the
        written parts between them in run order, as flat ``(view, start,
        stop)`` triples into the extents (:func:`_cut_views`) with no file
        offset (the receiver derives each from its own runs), and ``price``
        the item's wire size, computed once here: payload plus one
        descriptor per hole, plus one header when there is payload at all.
        No byte is copied here: the receiver's join is the only copy.  What
        the read learned on the way stays in this resolver's client.
        """
        start, end = domain
        send: Dict[int, Tuple[int, list, list]] = {}
        wanted_by_rank = [clip_runs(full, start, end) for full in wanted_full]
        union = coalesce_runs([run for wanted in wanted_by_rank
                               for run in wanted])
        if not union:
            return send

        extents = yield from self.client.fetch_extents(
            blob_id, IOVector.for_read([(run_start, run_end - run_start)
                                        for run_start, run_end in union]),
            version)
        self.stats.stripes_resolved += 1
        starts = [offset for offset, _length, _data in extents]
        ends = [offset + length for offset, length, _data in extents]
        views = [None if data is None else memoryview(data)
                 for _offset, _length, data in extents]

        for destination, wanted in enumerate(wanted_by_rank):
            if not wanted:
                continue
            cuts: list = []
            holes: List[Tuple[int, int]] = []
            payload = 0
            # the extents tile the union, which covers every wanted run, and
            # both lists ascend: one bisect finds the first extent, one
            # monotonic sweep cuts the rest
            index = bisect_right(ends, wanted[0][0])
            for run_start, run_end in wanted:
                cursor = run_start
                while cursor < run_end:
                    while ends[index] <= cursor:
                        index += 1
                    hi = ends[index]
                    if hi > run_end:
                        hi = run_end
                    view = views[index]
                    if view is not None:
                        base = starts[index]
                        cuts += view, cursor - base, hi - base
                        payload += hi - cursor
                    elif holes and sum(holes[-1]) == cursor:
                        # adjacent never-written extents: one descriptor
                        holes[-1] = (holes[-1][0], hi - holes[-1][0])
                    else:
                        holes.append((cursor, hi - cursor))
                    cursor = hi
            if destination != rank:
                self.stats.hole_bytes_elided += sum(length for _offset, length
                                                    in holes)
            send[destination] = (
                payload + len(holes) * EXTENT_DESCRIPTION_BYTES
                + (EXTENT_DESCRIPTION_BYTES if payload else 0),
                cuts, holes)
        return send
