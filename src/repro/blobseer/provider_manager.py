"""The provider manager: chunk placement / load balancing.

The provider manager is the control-plane service that writers contact to
learn *where* to put what they write.  The paper's second design principle —
data striping with a load-balancing allocation strategy that spreads writes
over the storage elements in a round-robin fashion — is
:meth:`ProviderManager.allocate`.  What it places is the *stripe unit*: a
chunk-sized piece, or the run of smaller pieces of one write the client
packed up to a chunk (``pack_pieces_into_stripe_units``); the ``sizes`` it
sees are unit sizes, one provider is chosen per unit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.cluster.rpc import Service
from repro.errors import ProviderUnavailable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class ProviderManager:
    """Pure allocation bookkeeping shared by the simulated service.

    Units cycle through the alive providers in registration order (the
    paper's round-robin).  A writer's first write starts at the shared
    cursor and each later one resumes after that writer's own last unit,
    so which of two concurrent writers' requests arrives first does not
    decide where either lands (and, with few units per write, which disks
    a later read queues on).
    """

    def __init__(self) -> None:
        self._providers: List[str] = []
        self._alive: Dict[str, bool] = {}
        #: cumulative bytes allocated per provider (allocation-time estimate)
        self.allocated_bytes: Dict[str, int] = {}
        self._cursor = 0
        self._resume: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def register(self, provider_id: str) -> None:
        """Add a provider to the allocation pool."""
        if provider_id not in self._providers:
            self._providers.append(provider_id)
        self._alive[provider_id] = True
        self.allocated_bytes.setdefault(provider_id, 0)

    def mark_failed(self, provider_id: str) -> None:
        """Exclude a provider from future allocations."""
        self._alive[provider_id] = False

    def mark_recovered(self, provider_id: str) -> None:
        """Re-admit a previously failed provider."""
        if provider_id not in self._alive:
            raise ProviderUnavailable(f"unknown provider {provider_id!r}")
        self._alive[provider_id] = True

    @property
    def alive_providers(self) -> List[str]:
        """Providers currently eligible for allocation (registration order)."""
        return [provider for provider in self._providers if self._alive[provider]]

    # ------------------------------------------------------------------
    def allocate(self, sizes: Sequence[int],
                 writer: Optional[str] = None) -> List[str]:
        """Pick a provider for each unit size, updating the load table."""
        alive = self.alive_providers
        if not alive:
            raise ProviderUnavailable("no alive data providers to allocate on")
        start = self._resume.get(writer, self._cursor)
        self._cursor += len(sizes)
        if writer is not None:
            self._resume[writer] = start + len(sizes)
        chosen = [alive[(start + unit) % len(alive)]
                  for unit in range(len(sizes))]
        for provider, size in zip(chosen, sizes):
            self.allocated_bytes[provider] = self.allocated_bytes.get(provider, 0) + size
        return chosen

    def load_imbalance(self) -> float:
        """max/mean ratio of allocated bytes (1.0 = perfectly balanced)."""
        loads = [self.allocated_bytes.get(p, 0) for p in self._providers]
        if not loads or sum(loads) == 0:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0


class SimProviderManager(Service):
    """The provider manager deployed as a cluster service."""

    def __init__(self, node: "Node"):
        super().__init__(node, name="provider-manager")
        self.manager = ProviderManager()

    def allocate(self, sizes: Sequence[int], writer: Optional[str] = None):
        """RPC handler: allocate providers for ``sizes`` (control-plane only)."""
        chosen = self.manager.allocate(sizes, writer)
        return chosen
        yield  # pragma: no cover - makes this a generator function

    def mark_failed(self, provider_id: str):
        """RPC handler: exclude a crashed provider."""
        self.manager.mark_failed(provider_id)
        return None
        yield  # pragma: no cover - makes this a generator function
