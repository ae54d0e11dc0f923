"""Disk model: a FIFO device with fixed per-operation overhead and bandwidth.

The device queue is accounted analytically (a ``free_at`` scalar, one pooled
sleep per request).  Two reservations share it, both pinned against
sorted-by-arrival references by ``tests/cluster/test_fifo_reservation.py``;
arrival order — ties broken by the order the requests were issued — is kept
across the two kinds.

* ``io`` is first-come first-served: an I/O starts at ``max(arrival, previous
  finish)`` and finishes ``overhead + nbytes / bandwidth`` later.
* ``append`` is for a caller that does not care where its bytes land (a log).
  An append that finds the device idle is an ``io``.  Appends that arrive
  while it is busy join the one *open run* queued at the tail, and when the
  device frees the run goes down as one I/O: one ``overhead``, then the
  members' bytes streamed in arrival order, each member finishing with its
  own last byte.  A run takes members until it starts or until an ``io``
  queues behind it, whichever is first; the next append opens a new run.
  With the same arrivals no request finishes later than if every append had
  been an ``io``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simengine import Simulator


class Disk:
    """A single storage device attached to a node.

    Concurrent I/O requests on the same disk are serialized in arrival
    order; each request costs ``overhead + nbytes / bandwidth`` of
    simulated time.  Aggregate counters feed the benchmark reports.
    """

    def __init__(self, sim: "Simulator", bandwidth: float, overhead: float,
                 name: str = "disk"):
        if bandwidth <= 0:
            raise ValueError("disk bandwidth must be positive")
        if overhead < 0:
            raise ValueError("disk overhead must be non-negative")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.overhead = float(overhead)
        self.name = name
        #: when the last reserved I/O finishes (analytic FIFO queue)
        self.free_at: float = 0.0
        #: total bytes read + written through this disk
        self.bytes_transferred: int = 0
        #: number of I/O operations served
        self.operations: int = 0
        #: total busy time of the device
        self.busy_time: float = 0.0
        #: when the newest append run starts, and when its last member
        #: finishes: the run is open while it has not started and is still
        #: the tail of the queue (``free_at == _run_end``)
        self._run_start: float = 0.0
        self._run_end: float = 0.0

    def io_time(self, nbytes: int) -> float:
        """Service time of a single ``nbytes`` I/O (excluding queueing)."""
        return self.overhead + nbytes / self.bandwidth

    def io(self, nbytes: int):
        """Simulated-process generator performing one I/O of ``nbytes``.

        Reserves the device's FIFO queue analytically (``free_at``) and
        sleeps once until the I/O completes.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        service = self.overhead + nbytes / self.bandwidth
        now = sim.now
        start = self.free_at if self.free_at > now else now
        finish = start + service
        self.free_at = finish
        self.busy_time += service
        self.bytes_transferred += nbytes
        self.operations += 1
        yield sim.sleep(finish - now)

    def append(self, nbytes: int):
        """Simulated-process generator appending ``nbytes`` to the device's
        log (see the module docstring for the run rule).

        The acknowledgement is per member — a log is sequential, so a
        member's bytes are down once the run has streamed that far, whatever
        joins behind it.  Acknowledging at the end of the run instead would
        make early members wait for later ones, so they could finish *later*
        than under plain FIFO (and the run's end is not known while it is
        open; a member's own finish is, which keeps this one pooled sleep).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        now = sim.now
        service = nbytes / self.bandwidth
        if now < self._run_start and self.free_at == self._run_end:
            start = self.free_at  # joins the open run: bytes only
        else:
            start = self.free_at if self.free_at > now else now
            self._run_start = start
            service += self.overhead
            self.operations += 1
        finish = start + service
        self.free_at = self._run_end = finish
        self.busy_time += service
        self.bytes_transferred += nbytes
        yield sim.sleep(finish - now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the device was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
