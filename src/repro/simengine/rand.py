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
