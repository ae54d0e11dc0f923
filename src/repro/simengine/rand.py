"""Deterministic random-number streams.

Simulations must be reproducible run-to-run; at the same time, different
components (each data provider's latency jitter, each client's workload
shuffle) must not share a single RNG whose consumption order would couple
them.  :class:`DeterministicRNG` derives an independent, stable
``numpy.random.Generator`` per *named stream* from a single root seed.

Streams are further grouped into per-subsystem *scopes* so whole families of
draws stay isolated: everything that shapes the workload (offsets, sizes,
placement) lives under the ``"workload"`` scope, everything that only
perturbs costs (queued-network jitter) under ``"network"``, and fault
injection under ``"fault"``, and everything the scenario fuzzer samples
(cluster shapes, workload mixes, injected hostility) under ``"fuzz"``.
Because a scope is just a name prefix, turning the queued network model's
jitter on or off can never change a single workload byte — that invariant
is pinned by a regression test — and the fuzzer drawing one more or one
less sample can never perturb the bytes or timelines of the scenarios it
generates (pinned by the fuzz RNG-isolation suite).

numpy is imported when the first stream is created, not with this module:
a simulation that never draws (no jitter, no random placement, no fuzzing)
never loads it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    import numpy as np

#: conventional per-subsystem scopes (see module docstring)
SCOPE_WORKLOAD = "workload"
SCOPE_NETWORK = "network"
SCOPE_FAULT = "fault"
SCOPE_FUZZ = "fuzz"


class RNGScope:
    """A view of a :class:`DeterministicRNG` that prefixes stream names."""

    __slots__ = ("_rng", "_prefix")

    def __init__(self, rng: "DeterministicRNG", prefix: str):
        self._rng = rng
        self._prefix = prefix

    def stream(self, name: str) -> np.random.Generator:
        return self._rng.stream(f"{self._prefix}:{name}")

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        return self._rng.uniform(f"{self._prefix}:{name}", low, high)

    def exponential(self, name: str, mean: float) -> float:
        return self._rng.exponential(f"{self._prefix}:{name}", mean)

    def integers(self, name: str, low: int, high: int) -> int:
        return self._rng.integers(f"{self._prefix}:{name}", low, high)

    def shuffled(self, name: str, items):
        return self._rng.shuffled(f"{self._prefix}:{name}", items)


class DeterministicRNG:
    """Factory of named, independent, reproducible random streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def scope(self, prefix: str) -> RNGScope:
        """A per-subsystem view whose streams live under ``prefix:``."""
        return RNGScope(self, prefix)

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for stream ``name``.

        The stream's seed is derived from ``(root seed, name)`` with SHA-256,
        so adding new streams never perturbs existing ones.
        """
        if name not in self._streams:
            import numpy as np

            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """Draw one uniform sample from the named stream."""
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential sample with the given mean."""
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)`` from the named stream."""
        return int(self.stream(name).integers(low, high))

    def shuffled(self, name: str, items):
        """Return a new list with ``items`` shuffled by the named stream."""
        result = list(items)
        self.stream(name).shuffle(result)
        return result
