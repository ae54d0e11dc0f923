"""Value types of the versioned segment tree.

Every type here is immutable by convention: nodes are shared between
clients, caches and shards and are never modified once built.  They are
slotted dataclasses rather than frozen ones because frozen construction
(every field stored through ``object.__setattr__``) measured about 2.5x
slower, and a write builds one node, child reference and leaf segment per
touched tree position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.blobseer.chunk import ChunkKey
from repro.errors import InvalidRegion


@dataclass(slots=True, unsafe_hash=True, order=True)
class NodeKey:
    """Identity of one immutable metadata node."""

    blob_id: str
    version: int
    offset: int
    size: int

    @property
    def range_key(self) -> Tuple[str, int, int]:
        """The version-independent part (used by at-or-before lookups)."""
        return (self.blob_id, self.offset, self.size)


@dataclass(slots=True, unsafe_hash=True)
class ChildRef:
    """Reference from an inner node to one of its children.

    ``version_hint`` is the snapshot version as of which the child subtree
    must be interpreted: the write's own version for subtrees it touched, the
    write's base version for shadowed (untouched) subtrees.  The reference is
    resolved with an at-or-before lookup, because the base snapshot itself may
    have inherited that subtree from an even older version.
    """

    version_hint: int
    offset: int
    size: int


@dataclass(slots=True, unsafe_hash=True)
class LeafSegment:
    """One piece of a leaf's content, backed by a stored chunk.

    Attributes
    ----------
    rel_offset:
        Offset of the piece relative to the start of the leaf's byte range.
    length:
        Length of the piece in bytes.
    chunk:
        Key of the chunk holding the bytes.
    chunk_offset:
        Offset of the piece inside the chunk payload: 0 as written (every
        piece is a chunk of its own), nonzero only for what survives of a
        piece whose head a later request of the same vector overwrote.
    provider_id:
        The data provider holding the chunk (kept in metadata so readers know
        where to fetch from, exactly as BlobSeer's metadata does).
    """

    rel_offset: int
    length: int
    chunk: ChunkKey
    chunk_offset: int
    provider_id: str

    def __post_init__(self) -> None:
        if self.rel_offset < 0 or self.length <= 0 or self.chunk_offset < 0:
            raise InvalidRegion(
                f"invalid leaf segment ({self.rel_offset}, {self.length}, "
                f"chunk_offset={self.chunk_offset})")
        # precomputed plain attribute (not a property): ``rel_end`` is read
        # on every overlay/resolve sweep step, where descriptor overhead
        # alone is measurable
        self.rel_end = self.rel_offset + self.length

    #: first byte after the piece (relative to the leaf start); set in
    #: ``__post_init__``
    rel_end: int = field(init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class MetadataNode:
    """One immutable node of the versioned segment tree.

    Leaves (``is_leaf=True``) carry ``segments`` (the pieces written at this
    version, sorted and non-overlapping) and ``base_version`` — the snapshot
    from which any byte *not* covered by the segments must be resolved
    (``None`` means "never written before: zero-filled").

    Inner nodes carry ``left`` / ``right`` child references.
    """

    key: NodeKey
    is_leaf: bool
    segments: Tuple[LeafSegment, ...] = field(default=())
    base_version: Optional[int] = None
    left: Optional[ChildRef] = None
    right: Optional[ChildRef] = None

    def __post_init__(self) -> None:
        if self.is_leaf:
            if self.left is not None or self.right is not None:
                raise InvalidRegion("leaf nodes cannot have children")
            previous_end = 0
            for segment in self.segments:
                if segment.rel_offset < previous_end:
                    raise InvalidRegion("leaf segments must be sorted and disjoint")
                if segment.rel_end > self.key.size:
                    raise InvalidRegion("leaf segment exceeds the leaf range")
                previous_end = segment.rel_end
        else:
            if self.segments:
                raise InvalidRegion("inner nodes cannot carry segments")
            if self.left is None or self.right is None:
                raise InvalidRegion("inner nodes need both children")

    @property
    def covered(self) -> int:
        """Bytes of the leaf covered by this version's own segments."""
        return sum(segment.length for segment in self.segments)
