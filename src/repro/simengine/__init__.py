"""Deterministic discrete-event simulation engine.

The engine is a small, self-contained core in the style of SimPy: simulated
*processes* are Python generators that ``yield`` :class:`~repro.simengine.events.Event`
objects to suspend themselves until the event fires.  Simulated time only
advances when the event queue is stepped, so runs are fully deterministic for
a fixed seed and fixed process creation order.

The rest of the repro package uses this engine to model the cluster on which
the storage services and the MPI ranks execute, charging time for network
transfers, disk I/O and lock waiting.  Contended devices (NICs, links, disks)
are not engine objects: the cluster models them as analytic FIFO queues
(:mod:`repro.cluster.network`, :mod:`repro.cluster.disk`).

Public surface
--------------

=====================  ======================================================
:class:`Simulator`      the event loop and simulated clock
:class:`Event`          one-shot event; ``succeed`` / ``fail`` to trigger
:class:`Timeout`        event that fires after a fixed simulated delay
:class:`Process`        a running generator; itself an event (fires on return)
:class:`AllOf`          condition event: fires when all children fired
:class:`AnyOf`          condition event: fires when any child fired
:class:`DeterministicRNG`  seeded random streams derived from a root seed
=====================  ======================================================
"""

from repro.simengine.events import Event, Timeout, AllOf, AnyOf, Condition
from repro.simengine.simulator import Simulator
from repro.simengine.process import Fanout, Process
from repro.simengine.rand import DeterministicRNG

__all__ = [
    "Simulator",
    "Event",
    "Fanout",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Condition",
    "Process",
    "DeterministicRNG",
]
