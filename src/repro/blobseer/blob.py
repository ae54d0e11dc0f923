"""BLOB identifiers and descriptors.

A BLOB (Binary Large OBject) is BlobSeer's unit of storage: a flat,
versioned sequence of bytes, transparently striped into fixed-size chunks.
The paper stores each shared MPI file directly as one BLOB, so no explicit
striping is needed at the MPI-I/O layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidRegion

BlobId = str


def _round_up_power_of_two(value: int) -> int:
    """Smallest power of two >= value (and >= 1)."""
    result = 1
    while result < value:
        result *= 2
    return result


@dataclass(slots=True, unsafe_hash=True)
class BlobDescriptor:
    """Static description of a BLOB.

    Attributes
    ----------
    blob_id:
        Globally unique name of the BLOB.
    chunk_size:
        Striping unit in bytes; every chunk stored at data providers spans at
        most this many bytes and never crosses a ``chunk_size`` boundary.
    capacity:
        Addressable size of the BLOB's byte space.  It is the requested size
        rounded up so that the metadata segment tree is a complete binary
        tree: ``chunk_size * 2**k``.  Writes beyond ``capacity`` are rejected
        (the MPI-I/O layer sizes the BLOB from the file's maximum extent).
    requested_size:
        The size asked for at creation time (what ``stat`` reports initially).
    """

    blob_id: BlobId
    chunk_size: int
    capacity: int
    requested_size: int

    @classmethod
    def create(cls, blob_id: BlobId, size: int, chunk_size: int) -> "BlobDescriptor":
        """Build a descriptor for a new BLOB of ``size`` bytes."""
        if chunk_size <= 0:
            raise InvalidRegion(f"chunk_size must be positive, got {chunk_size}")
        if size < 0:
            raise InvalidRegion(f"size must be non-negative, got {size}")
        num_chunks = max(1, -(-size // chunk_size))  # ceil div, at least 1
        capacity = _round_up_power_of_two(num_chunks) * chunk_size
        return cls(blob_id=blob_id, chunk_size=chunk_size, capacity=capacity,
                   requested_size=size)

    @property
    def num_leaves(self) -> int:
        """Number of chunk-sized leaves of the metadata tree."""
        return self.capacity // self.chunk_size

    @property
    def tree_depth(self) -> int:
        """Depth of the metadata segment tree (root = depth 0)."""
        depth = 0
        leaves = self.num_leaves
        while leaves > 1:
            leaves //= 2
            depth += 1
        return depth

    def leaf_offset(self, byte_offset: int) -> int:
        """Offset of the leaf (chunk range) containing ``byte_offset``."""
        return (byte_offset // self.chunk_size) * self.chunk_size

    def validate_access(self, offset: int, size: int) -> None:
        """Raise :class:`~repro.errors.OutOfBounds` for out-of-range accesses."""
        from repro.errors import OutOfBounds

        if offset < 0 or size < 0:
            raise InvalidRegion(f"invalid access ({offset}, {size})")
        if offset + size > self.capacity:
            raise OutOfBounds(
                f"access [{offset}, {offset + size}) exceeds BLOB capacity "
                f"{self.capacity} of {self.blob_id!r}")
