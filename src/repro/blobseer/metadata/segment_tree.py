"""Pure algorithms of the versioned segment tree.

Everything in this module is simulation-independent: given a BLOB descriptor
and a vectored access, these functions compute

* how the payload splits into chunk-aligned :class:`WritePiece`\\ s,
* which :class:`~repro.blobseer.metadata.nodes.LeafSegment`\\ s describe each
  touched leaf after the write (later requests of the same vector win on
  overlaps),
* the full set of new metadata nodes the write must publish (leaves plus the
  copy-on-write path up to the root — the *shadowing* of Rodeh that the paper
  cites), and
* the read plan of a versioned snapshot: which chunks (or zero ranges) supply
  every requested byte, found from the snapshot's leaves and their base
  chains (the interior nodes a write publishes are never read back, see
  :class:`ReadPlanner`).

The BlobSeer client and the vstore vectored client feed these functions with
real payloads and charge simulated time around them; the unit tests exercise
them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.nodes import ChildRef, LeafSegment, MetadataNode, NodeKey
from repro.core.listio import IOVector, Payload
from repro.core.regions import Extents, Runs, canonical_runs
from repro.errors import InvalidRegion


# ----------------------------------------------------------------------
# write-side decomposition
# ----------------------------------------------------------------------
@dataclass
class WritePiece:
    """One chunk-aligned piece of a write request's payload.

    A piece never crosses a chunk boundary and becomes exactly one stored
    chunk under its own :class:`ChunkKey`; ``provider_id`` is the provider of
    the stripe unit the piece was packed into
    (:func:`pack_pieces_into_stripe_units`), so small pieces of one write
    share a provider without sharing a chunk.  ``request_index`` preserves
    the order of the originating :class:`~repro.core.listio.IORequest`\\ s so
    that intra-vector overlaps are resolved "last request wins".  ``data`` is
    the payload — the request's buffer or a read-only view of it — until the
    piece is uploaded; the commit engine drops it then (metadata needs the
    placement, not the bytes).
    """

    leaf_offset: int
    rel_offset: int
    length: int
    data: Optional[Payload]
    request_index: int
    chunk: Optional[ChunkKey] = None
    provider_id: Optional[str] = None


def split_vector_into_pieces(blob: BlobDescriptor, vector: IOVector) -> List[WritePiece]:
    """Split a write vector into chunk-aligned pieces (one future chunk each).

    A piece's ``data`` is its request's buffer when the request fits in one
    chunk, else a read-only view of that buffer: a payload byte is never
    copied on its way to the data provider.  The chunk walk is inlined
    arithmetic (no intermediate object per range) — fine-grained
    collective stripes split into tens of thousands of pieces, making this
    one of the hottest loops of the whole write path.
    """
    pieces: List[WritePiece] = []
    append = pieces.append
    chunk_size = blob.chunk_size
    for request_index, request in enumerate(vector):
        if not request.is_write:
            raise InvalidRegion("split_vector_into_pieces() needs a write vector")
        size = request.size
        if size == 0:
            continue
        offset = request.offset
        blob.validate_access(offset, size)
        data = request.data
        rel = offset % chunk_size
        if rel + size <= chunk_size:
            # the whole request is one piece: its buffer, not a view of it
            append(WritePiece(offset - rel, rel, size, data, request_index))
            continue
        if type(data) is not memoryview:
            data = memoryview(data)
        consumed = 0
        cursor = offset
        end = offset + size
        while cursor < end:
            rel = cursor % chunk_size
            piece_end = min(cursor - rel + chunk_size, end)
            length = piece_end - cursor
            append(WritePiece(
                leaf_offset=cursor - rel,
                rel_offset=rel,
                length=length,
                data=data[consumed:consumed + length],
                request_index=request_index,
            ))
            consumed += length
            cursor = piece_end
    return pieces


def pack_pieces_into_stripe_units(pieces: Sequence[WritePiece], chunk_size: int,
                                  ) -> Tuple[List[int], List[int]]:
    """Pack a write's pieces, in vector order, into stripe units.

    A stripe unit is what gets *placed*: consecutive pieces join the current
    unit while its total stays ≤ ``chunk_size``, otherwise a new unit opens,
    so a chunk-sized piece is its own unit and a noncontiguous write of many
    small pieces reaches few providers with one large I/O each instead of
    every provider with a small one.  Returns ``(unit_starts, unit_sizes)``:
    the index of every unit's first piece and every unit's byte total.
    Pieces stay separate chunks — a unit is a placement group, nothing else.
    """
    unit_starts: List[int] = []
    unit_sizes: List[int] = []
    for index, piece in enumerate(pieces):
        if unit_sizes and unit_sizes[-1] + piece.length <= chunk_size:
            unit_sizes[-1] += piece.length
        else:
            unit_starts.append(index)
            unit_sizes.append(piece.length)
    return unit_starts, unit_sizes


def stripe_unit_sizes(extents: Sequence[Tuple[int, int]],
                      chunk_size: int) -> List[int]:
    """The stripe-unit sizes of a write of ``extents``, before its bytes exist.

    What :func:`split_vector_into_pieces` + :func:`pack_pieces_into_stripe_units`
    give a vector of those ``(offset, size)`` requests: a writer that knows a
    write's shape ahead of its payload (a collective aggregator, from the
    access descriptions) can have it placed while the bytes still travel.
    """
    unit_sizes: List[int] = []
    for offset, size in extents:
        end = offset + size
        while offset < end:
            length = min(offset - offset % chunk_size + chunk_size, end) - offset
            if unit_sizes and unit_sizes[-1] + length <= chunk_size:
                unit_sizes[-1] += length
            else:
                unit_sizes.append(length)
            offset += length
    return unit_sizes


def overlay_segments(existing: Sequence[LeafSegment],
                     new: LeafSegment) -> List[LeafSegment]:
    """Overlay ``new`` onto ``existing`` segments of one leaf (new wins).

    Existing segments that overlap the new one are clipped (possibly split in
    two); the result stays sorted by ``rel_offset`` and non-overlapping.
    """
    result: List[LeafSegment] = []
    after: List[LeafSegment] = []
    new_start, new_end = new.rel_offset, new.rel_end
    for segment in existing:
        if segment.rel_end <= new_start:
            result.append(segment)
            continue
        if segment.rel_offset >= new_end:
            after.append(segment)
            continue
        # left survivor
        if segment.rel_offset < new_start:
            result.append(LeafSegment(
                rel_offset=segment.rel_offset,
                length=new_start - segment.rel_offset,
                chunk=segment.chunk,
                chunk_offset=segment.chunk_offset,
                provider_id=segment.provider_id,
            ))
        # right survivor (at most one: the last overlapped segment; any
        # existing segment after it starts past its end, hence past new_end)
        if segment.rel_end > new_end:
            cut = new_end - segment.rel_offset
            after.append(LeafSegment(
                rel_offset=new_end,
                length=segment.rel_end - new_end,
                chunk=segment.chunk,
                chunk_offset=segment.chunk_offset + cut,
                provider_id=segment.provider_id,
            ))
    # ``existing`` is sorted, so survivors before ``new`` landed in
    # ``result`` and survivors after it in ``after`` — concatenation is
    # already sorted, no per-overlay sort needed
    result.append(new)
    result.extend(after)
    return result


def build_leaf_segments(blob: BlobDescriptor,
                        pieces: Sequence[WritePiece]) -> Dict[int, List[LeafSegment]]:
    """Per-leaf segment lists for a set of placed (chunk/provider known) pieces."""
    by_leaf: Dict[int, List[LeafSegment]] = {}
    for piece in sorted(pieces, key=lambda p: p.request_index):
        if piece.chunk is None or piece.provider_id is None:
            raise InvalidRegion("build_leaf_segments() needs placed pieces "
                                "(chunk and provider assigned)")
        segment = LeafSegment(
            rel_offset=piece.rel_offset,
            length=piece.length,
            chunk=piece.chunk,
            chunk_offset=0,
            provider_id=piece.provider_id,
        )
        by_leaf[piece.leaf_offset] = overlay_segments(
            by_leaf.get(piece.leaf_offset, []), segment)
    return by_leaf


def build_write_metadata(blob: BlobDescriptor, version: int, base_version: int,
                         leaf_segments: Dict[int, List[LeafSegment]],
                         ) -> List[MetadataNode]:
    """All metadata nodes a write must publish for snapshot ``version``.

    The returned list contains one leaf node per touched leaf and one inner
    node per tree level on the copy-on-write paths from those leaves up to the
    root.  Untouched subtrees are shadowed through child references whose
    version hint is ``base_version``.
    """
    if not leaf_segments:
        raise InvalidRegion("a write must touch at least one leaf")
    nodes: List[MetadataNode] = []

    for leaf_offset, segments in sorted(leaf_segments.items()):
        nodes.append(MetadataNode(
            key=NodeKey(blob.blob_id, version, leaf_offset, blob.chunk_size),
            is_leaf=True,
            segments=tuple(sorted(segments, key=lambda s: s.rel_offset)),
            base_version=base_version,
        ))

    touched = set(leaf_segments.keys())
    level_size = blob.chunk_size
    while level_size < blob.capacity:
        parent_size = level_size * 2
        parents = sorted({(offset // parent_size) * parent_size for offset in touched})
        for parent_offset in parents:
            left_offset = parent_offset
            right_offset = parent_offset + level_size
            left_hint = version if left_offset in touched else base_version
            right_hint = version if right_offset in touched else base_version
            nodes.append(MetadataNode(
                key=NodeKey(blob.blob_id, version, parent_offset, parent_size),
                is_leaf=False,
                left=ChildRef(left_hint, left_offset, level_size),
                right=ChildRef(right_hint, right_offset, level_size),
            ))
        touched = set(parents)
        level_size = parent_size
    return nodes


# ----------------------------------------------------------------------
# read-side planning
# ----------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class ReadExtent:
    """One resolved piece of a snapshot read.

    ``chunk is None`` means the bytes were never written at this snapshot and
    must be zero-filled.
    """

    offset: int
    length: int
    chunk: Optional[ChunkKey] = None
    chunk_offset: int = 0
    provider_id: Optional[str] = None

    @property
    def is_zero(self) -> bool:
        """True for never-written (zero-filled) extents."""
        return self.chunk is None


@dataclass
class ReadPlan:
    """Result of :func:`plan_read`: extents plus metadata-traffic accounting.

    ``nodes_fetched`` counts every leaf node the walk *used*, whoever
    supplied it, and ``levels`` its rounds (the leaves, then one per link
    of the longest base chain); ``metadata_rpcs`` is filled by
    :func:`plan_read` from its callbacks.  Which of the private cache, the
    node pool and the shards answered which lookup is the business of
    whoever resolves the rounds (:mod:`repro.blobseer.metadata.tiers`).
    """

    extents: List[ReadExtent]
    nodes_fetched: int
    levels: int
    metadata_rpcs: int = 0

    def chunk_bytes(self) -> int:
        """Bytes that must be fetched from data providers."""
        return sum(extent.length for extent in self.extents if not extent.is_zero)

    def zero_bytes(self) -> int:
        """Bytes zero-filled locally."""
        return sum(extent.length for extent in self.extents if extent.is_zero)


GetNode = Callable[[int, int, int], Optional[MetadataNode]]

#: one at-or-before lookup a walk round needs: (offset, size, version)
NodeRequest = Tuple[int, int, int]

GetNodes = Callable[[Sequence[NodeRequest]], Sequence[Optional[MetadataNode]]]


class ReadPlanner:
    """The read walk of a snapshot: its leaves, then their base chains.

    Every version of a range key lives on one shard, every ticket's base is
    its predecessor, and a failed write's nodes are rolled back before its
    ticket is aborted, so the node snapshot ``version``'s tree reaches for a
    leaf is the newest stored node of that leaf's range at or before
    ``version``.  The walk therefore starts at the leaves: its first round
    asks one ``(leaf_offset, chunk_size, version)`` lookup per leaf the read
    touches, each carrying the runs wanted of that leaf, and every later
    round looks a partially covered leaf's leftovers up at its
    ``base_version``.  Interior nodes are written (the copy-on-write path
    the paper charges a write for) but never read.

    The planner is a pure walk: it names each round's deduplicated lookups
    and consumes their results, and the caller decides *how* they are
    satisfied — the simulated client resolves them through its metadata
    tier chain (caches first, then one batched RPC per shard, which answers each
    leaf's base chain along, :meth:`wanted`), while unit tests and
    :func:`plan_read` drive it with plain callbacks.

    The walk runs on plain integers, as it is a read's hottest domain code:
    the read's ``(offset, size)`` extents (any order, overlaps allowed)
    become canonical :data:`~repro.core.regions.Runs` once, a frontier
    entry's wanted bytes are canonical runs inside the entry's leaf, and
    one round's entries partition the bytes still unresolved.

    Protocol::

        planner = ReadPlanner(blob, version, extents)
        while not planner.done:
            requests = planner.pending()          # this round's lookups
            results = ... resolve them somehow ...  # {request: node-or-None}
            planner.advance(results)
        plan = planner.plan()

    What a walk resolved is remembered by the caches that kept it, not
    by the planner: a collective-read resolver walks its stripe through its
    own chain and ships the resulting bytes, never the walk.
    """

    def __init__(self, blob: BlobDescriptor, version: int, extents: Extents):
        runs = canonical_runs(extents)
        for start, end in runs:
            blob.validate_access(start, end - start)
        self.blob = blob
        self.version = version
        self.extents: List[ReadExtent] = []
        self.nodes_fetched = 0
        self.levels = 0
        chunk_size = blob.chunk_size
        by_leaf: Dict[int, List[Tuple[int, int]]] = {}
        for start, end in runs:
            leaf = start - start % chunk_size
            while start < end:
                stop = min(end, leaf + chunk_size)
                by_leaf.setdefault(leaf, []).append((start, stop))
                start = leaf = leaf + chunk_size
        #: ((leaf_offset, chunk_size, version), wanted runs), one per leaf
        #: still unresolved, so the round's lookups are distinct
        self._frontier: List[Tuple[NodeRequest, Runs]] = [
            ((leaf, chunk_size, version), tuple(leaf_runs))
            for leaf, leaf_runs in by_leaf.items()]

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every wanted byte has been resolved to an extent."""
        return not self._frontier

    def pending(self) -> List[NodeRequest]:
        """This round's lookups, in frontier order."""
        return [request for request, _runs in self._frontier]

    def wanted(self) -> Dict[NodeRequest, Runs]:
        """This round's lookups with the runs each wants of its leaf: what
        a reader ships so that the shard answers the leaf's
        :func:`base_chain` in the same round trip."""
        return dict(self._frontier)

    def advance(self,
                resolved: Dict[NodeRequest, Optional[MetadataNode]]) -> None:
        """Consume one round given all of its lookups' results."""
        if self.done:
            raise InvalidRegion("advance() called on a finished read plan")
        missing = [request for request, _runs in self._frontier
                   if request not in resolved]
        if missing:
            raise InvalidRegion(
                f"advance() is missing results for {missing[:3]}"
                f"{'...' if len(missing) > 3 else ''}")

        self.levels += 1
        extents = self.extents
        next_frontier: List[Tuple[NodeRequest, Runs]] = []
        for request, runs in self._frontier:
            node = resolved[request]
            if node is not None:
                self.nodes_fetched += 1
                offset, size, _version = request
                runs = _sweep_leaf(node.segments, offset, runs, extents)
                if runs and node.base_version is not None:
                    next_frontier.append(
                        ((offset, size, node.base_version), runs))
                    continue
            for start, end in runs:  # never written: reads as zeros
                extents.append(ReadExtent(start, end - start))
        self._frontier = next_frontier

    def plan(self) -> ReadPlan:
        """The finished plan (extents sorted by file offset)."""
        if not self.done:
            raise InvalidRegion("plan() called before the traversal finished")
        self.extents.sort(key=lambda extent: extent.offset)
        return ReadPlan(extents=self.extents, nodes_fetched=self.nodes_fetched,
                        levels=self.levels)


def plan_read(blob: BlobDescriptor, version: int, extents: Extents,
              get_node: Optional[GetNode] = None, *,
              get_nodes: Optional[GetNodes] = None) -> ReadPlan:
    """Resolve which chunks supply every byte of the ``(offset, size)``
    ``extents`` at ``version``.

    Parameters
    ----------
    get_node:
        Callback ``(offset, size, version) -> MetadataNode | None``
        implementing one at-or-before lookup (``None`` = range never written
        as of that version, i.e. zero-filled).
    get_nodes:
        Batched alternative: ``[(offset, size, version), ...] -> [node |
        None, ...]`` answering one whole round at a time (results aligned
        with the requests).  Exactly one of ``get_node`` / ``get_nodes`` must
        be given; ``metadata_rpcs`` then counts callback invocations (one per
        round) for the batched form and one per lookup for the scalar form.

    The walk is :class:`ReadPlanner`'s: every touched leaf at ``version``
    first, then partially-covered leaves recurse into their base version —
    the mechanism that makes every published snapshot a complete, immutable
    image.
    """
    if (get_node is None) == (get_nodes is None):
        raise InvalidRegion("plan_read() needs exactly one of get_node/get_nodes")
    planner = ReadPlanner(blob, version, extents)
    metadata_rpcs = 0
    while not planner.done:
        requests = planner.pending()
        if get_nodes is not None:
            nodes = list(get_nodes(requests))
            if len(nodes) != len(requests):
                raise InvalidRegion(
                    f"get_nodes returned {len(nodes)} results for "
                    f"{len(requests)} requests")
            metadata_rpcs += 1
        else:
            nodes = [get_node(*request) for request in requests]
            metadata_rpcs += len(requests)
        planner.advance(dict(zip(requests, nodes)))
    plan = planner.plan()
    plan.metadata_rpcs = metadata_rpcs
    return plan


def base_chain(node: Optional[MetadataNode], runs: Runs,
               get_node: GetNode) -> List[Tuple[NodeRequest,
                                                Optional[MetadataNode]]]:
    """The lookups a read walk issues after reaching leaf ``node`` for ``runs``.

    Follows the leaf's ``base_version`` chain exactly as
    :meth:`ReadPlanner.advance` does: sweep the runs over the leaf's own
    segments and look the leftovers up at the base version, until the runs
    are covered, the base is ``None`` or the range was never written.
    ``get_node`` is one at-or-before lookup.  Returns the chain's
    ``((offset, size, base_version), node-or-None)`` pairs in walk order.
    """
    links: List[Tuple[NodeRequest, Optional[MetadataNode]]] = []
    extents: List[ReadExtent] = []  # the walk's business, not the chain's
    while node is not None:
        key = node.key
        runs = _sweep_leaf(node.segments, key.offset, runs, extents)
        if not runs or node.base_version is None:
            break
        request = (key.offset, key.size, node.base_version)
        node = get_node(*request)
        links.append((request, node))
    return links


def _sweep_leaf(segments: Sequence[LeafSegment], leaf_offset: int, runs: Runs,
                extents: List[ReadExtent]) -> Runs:
    """Map one leaf's wanted runs onto its segments; return the leftovers.

    ``runs`` and ``segments`` are both sorted and disjoint, so one
    synchronized sweep appends an extent per covered piece to ``extents``
    and collects the holes in O(|runs| + |segments|), no subtraction.
    """
    leftover = []
    count = len(segments)
    base = 0  # first segment that may still overlap the current run
    for cursor, end in runs:
        while base < count and leaf_offset + segments[base].rel_end <= cursor:
            base += 1
        index = base
        while cursor < end and index < count:
            segment = segments[index]
            seg_start = leaf_offset + segment.rel_offset
            if seg_start >= end:
                break
            seg_end = leaf_offset + segment.rel_end
            if seg_start > cursor:
                leftover.append((cursor, seg_start))
                cursor = seg_start
            take_end = seg_end if seg_end < end else end
            if take_end > cursor:
                extents.append(ReadExtent(
                    cursor, take_end - cursor, segment.chunk,
                    segment.chunk_offset + cursor - seg_start,
                    segment.provider_id))
                cursor = take_end
            if seg_end <= end:
                index += 1
            else:
                break
        if cursor < end:
            leftover.append((cursor, end))
    return tuple(leftover)
