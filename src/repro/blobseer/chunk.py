"""Chunk identifiers.

Chunks are immutable: once uploaded to a data provider they are never
modified, which is what lets concurrent writers proceed without any
coordination on the data path (the paper's key argument against locking).
A chunk key is generated entirely on the writer's side — it does not embed
the snapshot version, because the version is only assigned *after* the data
has been uploaded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True, order=True)
class ChunkKey:
    """Globally unique, client-generated identifier of one stored chunk."""

    writer: str
    sequence: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.writer}#{self.sequence}"


class ChunkKeyFactory:
    """Per-writer factory of unique chunk keys."""

    def __init__(self, writer: str):
        self.writer = writer
        self._counter = itertools.count()

    def next_key(self) -> ChunkKey:
        """A fresh key, unique within this writer."""
        return ChunkKey(self.writer, next(self._counter))
