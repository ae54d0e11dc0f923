"""Network models: per-node NICs with latency + bandwidth costs.

Two switchable models (``ClusterConfig.network_model``):

* :class:`Network` (``"bottleneck"``) — the seed model: a full-bisection
  switch (as in a Grid'5000 cluster).  A transfer from ``src`` to ``dst``
  occupies the half-duplex sender NIC and then the receiver NIC for
  ``nbytes / bandwidth`` each, plus a one-way propagation latency.
  Serializing transfers on each NIC is what produces incast congestion at
  heavily used servers — the phenomenon that makes a single storage target a
  bottleneck and data striping worthwhile (design principle 2 of the paper).

* :class:`QueuedNetwork` (``"queued"``) — per-link FIFO queues carrying
  transmission + propagation delay over an explicit two-tier topology: nodes
  are grouped ``nodes_per_switch`` per leaf switch in node-creation order
  (:meth:`QueuedNetwork.add_node`), which is the dense block placement of
  :func:`~repro.cluster.cluster.placement_map` whoever talks first;
  same-switch transfers pay NIC egress + propagation + NIC ingress, and
  cross-switch transfers additionally queue on the shared switch uplinks,
  which carry :data:`SWITCH_BANDWIDTH_FACTOR` times the NIC bandwidth and
  pay :data:`CROSS_SWITCH_LATENCY_FACTOR` times the one-way latency
  between the switches.  NICs are full duplex here.  Every link is the
  same :class:`NIC` FIFO queue.

Both models account FIFO queueing *analytically*: a link keeps a ``free_at``
scalar and each transfer reserves a slot at the instant it reaches the link.
The contract (pinned by ``tests/cluster/test_fifo_reservation.py`` against a
sorted-by-arrival reference) is first-come first-served, work-conserving
service: in arrival order — ties broken by reservation order — a transfer
starts at ``max(arrival, previous finish)`` and finishes ``nbytes /
bandwidth`` later, at a small constant number of pooled scheduler events per
transfer.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.config import ClusterConfig
    from repro.cluster.node import Node
    from repro.simengine import Simulator


#: queued model: a switch uplink/downlink carries this many NICs' bandwidth
SWITCH_BANDWIDTH_FACTOR = 4.0
#: queued model: the switch-to-switch hop's latency, in one-way NIC latencies
CROSS_SWITCH_LATENCY_FACTOR = 2.5


class NIC:
    """A FIFO transmission queue with fixed bandwidth: a node's network
    interface, or one switch uplink/downlink of the queued model."""

    __slots__ = ("sim", "bandwidth", "name", "free_at",
                 "bytes_transferred", "busy_time")

    def __init__(self, sim: "Simulator", bandwidth: float, name: str):
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        #: when the last reserved transmission finishes (analytic FIFO queue)
        self.free_at: float = 0.0
        self.bytes_transferred: int = 0
        self.busy_time: float = 0.0

    def reserve(self, nbytes: int) -> float:
        """Reserve the next FIFO transmission slot; returns its finish time.

        Called at the instant the message reaches the NIC, so slots are
        handed out in arrival order: start = max(now, previous finish).
        """
        tx = nbytes / self.bandwidth
        now = self.sim.now
        start = self.free_at if self.free_at > now else now
        done = start + tx
        self.free_at = done
        self.busy_time += tx
        self.bytes_transferred += nbytes
        return done


class Network:
    """Switch-based cluster network connecting every node to every other."""

    model = "bottleneck"

    def __init__(self, sim: "Simulator", latency: float, bandwidth: float,
                 obs=None):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self._nics: Dict[str, NIC] = {}
        #: span recorder when the cluster traces (None when disabled, the
        #: zero-cost guard every transfer checks once)
        self.tracer = obs.tracer if obs is not None else None
        #: latency-digest taps (None when disabled)
        self.digests = obs.digests if obs is not None else None
        self._observed = self.tracer is not None or self.digests is not None
        #: total bytes moved across the network
        self.bytes_transferred: int = 0
        #: total messages moved across the network
        self.messages: int = 0

    def nic(self, node_name: str) -> NIC:
        """The (lazily created) NIC of ``node_name``."""
        nic = self._nics.get(node_name)
        if nic is None:
            nic = self._nics[node_name] = NIC(self.sim, self.bandwidth,
                                              name=f"nic:{node_name}")
        return nic

    def transfer(self, src: "Node", dst: "Node", nbytes: int,
                 trace_parent: Optional[int] = None):
        """Generator moving ``nbytes`` from ``src`` to ``dst``.

        Local (same-node) transfers cost nothing: services co-located with
        their client short-circuit the network, as a real loopback would.
        ``trace_parent`` is the span id the NIC-occupation spans attach to
        when the cluster traces.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if src.name == dst.name:
            return
        sim = self.sim
        tracer = self.tracer
        digests = self.digests
        # Sender NIC: reserved in initiation order, then one sleep to the
        # moment the message has fully arrived at the receiver NIC's queue.
        src_nic = self.nic(src.name)
        if self._observed:
            now = sim.now
            start = max(src_nic.free_at, now)
            src_done = src_nic.reserve(nbytes)
            if tracer is not None:
                tracer.complete_span(
                    "net.tx", "net", ("link", src_nic.name),
                    start, src_done, parent_id=trace_parent,
                    args={"bytes": nbytes})
            if digests is not None:
                digests.link(src_nic.name, start - now)
        else:
            src_done = src_nic.reserve(nbytes)
        yield sim.sleep(src_done + self.latency - sim.now)
        # Receiver NIC: reserved in arrival order.
        dst_nic = self.nic(dst.name)
        if self._observed:
            now = sim.now
            start = max(dst_nic.free_at, now)
            dst_done = dst_nic.reserve(nbytes)
            if tracer is not None:
                tracer.complete_span(
                    "net.rx", "net", ("link", dst_nic.name),
                    start, dst_done, parent_id=trace_parent,
                    args={"bytes": nbytes})
            if digests is not None:
                digests.link(dst_nic.name, start - now)
        else:
            dst_done = dst_nic.reserve(nbytes)
        yield sim.sleep(dst_done - sim.now)
        self.bytes_transferred += nbytes
        self.messages += 1


class QueuedNetwork:
    """Per-link FIFO network over a two-tier (leaf switch) topology."""

    model = "queued"

    def __init__(self, sim: "Simulator", config: "ClusterConfig", obs=None):
        if config.network_latency < 0:
            raise ValueError("latency must be non-negative")
        if config.network_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.latency = float(config.network_latency)
        self.bandwidth = float(config.network_bandwidth)
        self.nodes_per_switch = max(1, int(config.nodes_per_switch))
        self.uplink_latency = CROSS_SWITCH_LATENCY_FACTOR * self.latency
        self.uplink_bandwidth = SWITCH_BANDWIDTH_FACTOR * self.bandwidth
        #: fractional uniform jitter on propagation latency, drawn from the
        #: network RNG scope so workload streams are never perturbed
        self.jitter = float(config.network_jitter)
        self._jitter_stream = (
            sim.rng.scope("network").stream("jitter") if self.jitter else None)

        self._egress: Dict[str, NIC] = {}
        self._ingress: Dict[str, NIC] = {}
        self._uplinks: Dict[int, NIC] = {}
        self._downlinks: Dict[int, NIC] = {}
        self._switch_of: Dict[str, int] = {}
        #: span recorder / per-link sampler when the cluster observes its
        #: links; ``_observed`` is the single boolean every reservation
        #: site checks, so disabled runs pay one attribute test per hop
        self.tracer = obs.tracer if obs is not None else None
        self.telemetry = obs.link_telemetry if obs is not None else None
        self.digests = obs.digests if obs is not None else None
        self._observed = (self.tracer is not None
                          or self.telemetry is not None
                          or self.digests is not None)
        self.bytes_transferred: int = 0
        self.messages: int = 0

    # ------------------------------------------------------------------
    def add_node(self, node_name: str) -> None:
        """Plug a new node into the next free leaf-switch port
        (:meth:`Cluster.add_node <repro.cluster.cluster.Cluster.add_node>`
        calls this, so switches fill in node-creation order)."""
        self._switch_of[node_name] = (len(self._switch_of)
                                      // self.nodes_per_switch)

    def switch_of(self, node_name: str) -> int:
        """Leaf-switch index of a node."""
        return self._switch_of[node_name]

    def _link(self, table: Dict, key, bandwidth: float, name: str) -> NIC:
        link = table.get(key)
        if link is None:
            link = table[key] = NIC(self.sim, bandwidth, name)
        return link

    def _propagation(self) -> float:
        if self._jitter_stream is None:
            return self.latency
        return self.latency * (1.0 + float(
            self._jitter_stream.uniform(-self.jitter, self.jitter)))

    def _reserve(self, link: NIC, nbytes: int,
                 trace_parent: Optional[int]) -> float:
        """Reserve on an *observed* link: identical schedule to a plain
        ``link.reserve``, plus one telemetry sample and/or one link span
        recorded on values the reservation computed anyway."""
        now = self.sim.now
        start = link.free_at if link.free_at > now else now
        done = link.reserve(nbytes)
        if self.telemetry is not None:
            self.telemetry.record(link, now, start - now, nbytes)
        if self.tracer is not None:
            self.tracer.complete_span("net.link", "net", ("link", link.name),
                                      start, done, parent_id=trace_parent,
                                      args={"bytes": nbytes})
        if self.digests is not None:
            self.digests.link(link.name, start - now)
        return done

    def transfer(self, src: "Node", dst: "Node", nbytes: int,
                 trace_parent: Optional[int] = None):
        """Generator moving ``nbytes`` from ``src`` to ``dst``.

        Same-node transfers are free (loopback).  Same-switch transfers pay
        NIC egress + propagation + NIC ingress; cross-switch transfers
        additionally queue on the source switch's uplink and the destination
        switch's downlink and pay the longer cross-switch propagation.
        ``trace_parent`` is the span id the per-link spans attach to when
        the cluster traces.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if src.name == dst.name:
            return
        sim = self.sim
        observed = self._observed
        src_switch = self.switch_of(src.name)
        dst_switch = self.switch_of(dst.name)

        egress = self._link(self._egress, src.name, self.bandwidth,
                            f"egress:{src.name}")
        egress_done = (self._reserve(egress, nbytes, trace_parent) if observed
                       else egress.reserve(nbytes))

        if src_switch == dst_switch:
            yield sim.sleep(egress_done + self._propagation() - sim.now)
        else:
            # Hop 1: to the leaf switch, then queue on its shared uplink.
            yield sim.sleep(egress_done + self._propagation() / 2 - sim.now)
            uplink = self._link(self._uplinks, src_switch, self.uplink_bandwidth,
                                f"uplink:sw{src_switch}")
            up_done = (self._reserve(uplink, nbytes, trace_parent) if observed
                       else uplink.reserve(nbytes))
            yield sim.sleep(up_done + self.uplink_latency - sim.now)
            # Hop 2: down through the destination switch's shared downlink.
            downlink = self._link(self._downlinks, dst_switch,
                                  self.uplink_bandwidth, f"downlink:sw{dst_switch}")
            down_done = (self._reserve(downlink, nbytes, trace_parent)
                         if observed else downlink.reserve(nbytes))
            yield sim.sleep(down_done + self._propagation() / 2 - sim.now)

        ingress = self._link(self._ingress, dst.name, self.bandwidth,
                             f"ingress:{dst.name}")
        ingress_done = (self._reserve(ingress, nbytes, trace_parent)
                        if observed else ingress.reserve(nbytes))
        yield sim.sleep(ingress_done - sim.now)

        self.bytes_transferred += nbytes
        self.messages += 1
