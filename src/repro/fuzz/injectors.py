"""Hostility injectors: runtime sabotage armed per phase, proven live.

Each injector mirrors a sabotage idiom from the fault-injection suites:

* :class:`AggregatorDeath` — one-shot ``_store_nodes`` failure on the
  doomed rank's commit engine: the stripe commit dies *after* its version
  ticket is assigned and *before* its metadata completes (the exact torn-
  snapshot window).  The collective must fail on every rank, the ticket
  must abort, and the phase's union extent becomes oracle-uncertain
  (surviving aggregators' stripes may have published).
* :class:`ResolverDeath` — one-shot ``fetch_extents`` failure on the
  doomed rank during a collective read: every rank must raise instead of
  hanging, and no version-manager state may change (reads own no tickets).
* :class:`CacheThrash` — a background adversary client with a tiny
  metadata cache issuing random reads (fuzz-scope RNG) throughout the
  job, churning the shared cache tier under the ranks' feet.
* :class:`HotSpot` — generation-time: the target phase's workload was
  confined to a narrow window, concentrating cross-rank overlap.  Nothing
  to arm; live by construction.

A patch that never fires (e.g. the doomed aggregator's stripe was empty)
is healed at phase end and reported as *dormant*, never as an anomaly —
and never leaks into later phases.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import StorageError
from repro.fuzz.scenario import InjectorSpec


class Injector:
    """Base runtime injector: arm/disarm around the target phase."""

    #: whether a *fired* injector makes its phase fail on every rank
    expects_phase_failure = False
    #: whether a fired instance aborts exactly one version ticket
    aborts_ticket = False
    #: whether the oracle must mask the faulted phase's union extent
    masks_phase = False

    def __init__(self, spec: InjectorSpec):
        self.spec = spec
        self.kind = spec.kind
        self.fired = False

    @property
    def phase(self) -> int:
        return self.spec.phase

    def arm(self, rank: int, driver) -> None:
        """Install sabotage on one rank at the start of the target phase."""

    def disarm(self, rank: int, driver) -> None:
        """Heal any dormant patch at the end of the target phase."""


class AggregatorDeath(Injector):
    expects_phase_failure = True
    aborts_ticket = True
    masks_phase = True

    def arm(self, rank: int, driver) -> None:
        if rank != self.spec.params["rank"]:
            return
        engine = driver.client.writepath
        injector = self

        def broken_store_nodes(blob, nodes, trace_parent=None):
            # one-shot: deleting the instance attribute restores the class
            # method, so the "node" recovers after killing this commit
            del engine._store_nodes
            injector.fired = True
            raise StorageError("fuzz: aggregator died mid-commit")
            yield  # pragma: no cover - generator shape

        engine._store_nodes = broken_store_nodes

    def disarm(self, rank: int, driver) -> None:
        if rank != self.spec.params["rank"]:
            return
        engine = driver.client.writepath
        if "_store_nodes" in engine.__dict__:  # dormant: stripe never committed
            del engine.__dict__["_store_nodes"]


class ResolverDeath(Injector):
    expects_phase_failure = True

    def arm(self, rank: int, driver) -> None:
        if rank != self.spec.params["rank"]:
            return
        client = driver.client
        injector = self

        def dying_fetch(blob_id, vector, version=None):
            del client.fetch_extents
            injector.fired = True
            raise StorageError("fuzz: resolver died mid-fetch")
            yield  # pragma: no cover - generator shape

        client.fetch_extents = dying_fetch

    def disarm(self, rank: int, driver) -> None:
        if rank != self.spec.params["rank"]:
            return
        client = driver.client
        if "fetch_extents" in client.__dict__:  # dormant: stripe was empty
            del client.__dict__["fetch_extents"]


class CacheThrash(Injector):
    """Marker for the runner's background adversary process."""

    def __init__(self, spec: InjectorSpec):
        super().__init__(spec)
        self.reads_done = 0
        self.errors: List[str] = []

    def note_read(self) -> None:
        self.reads_done += 1
        self.fired = True


class HotSpot(Injector):
    """Generation-time hostility: live by construction."""

    def __init__(self, spec: InjectorSpec):
        super().__init__(spec)
        self.fired = True


_KINDS = {
    "aggregator_death": AggregatorDeath,
    "resolver_death": ResolverDeath,
    "cache_thrash": CacheThrash,
    "hot_spot": HotSpot,
}


def build_injector(spec: InjectorSpec) -> Injector:
    return _KINDS[spec.kind](spec)


def build_injectors(specs) -> List[Injector]:
    return [build_injector(spec) for spec in specs]


def death_injector_for_phase(injectors, phase_index: int
                             ) -> Optional[Injector]:
    """The (single) phase-failure injector targeting ``phase_index``."""
    for injector in injectors:
        if injector.expects_phase_failure and injector.phase == phase_index:
            return injector
    return None
