"""Simulated RPC transport between cluster services.

A :class:`Service` is an object bound to a :class:`~repro.cluster.node.Node`
whose public methods are *generator methods*: they may yield simulation
events (disk I/O, lock waits) and finally ``return`` their result.
:func:`remote_call` wraps an invocation with the network cost of shipping the
request and the response and a small per-RPC handling overhead.

The payload sizes are explicit arguments rather than being derived from
serializing real Python objects — the simulation transfers *sizes*, the
functional layer transfers *values*; both travel together through the same
call so behaviour and cost cannot drift apart.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node


class Service:
    """Base class of every simulated service (provider, lock manager, ...)."""

    def __init__(self, node: "Node", name: str):
        self.node = node
        self.name = name
        #: number of RPCs handled, per method name
        self.calls: dict = {}

    def _account(self, method: str) -> None:
        self.calls[method] = self.calls.get(method, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Service {self.name} on {self.node.name}>"


class RpcTransport:
    """Cost model shared by every remote call on a cluster."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.total_calls: int = 0
        self.total_request_bytes: int = 0
        self.total_response_bytes: int = 0
        # observability hooks, resolved once: each is None when disabled,
        # so the per-call cost of a disabled channel is one attribute test
        obs = cluster.obs
        self._tracer = obs.tracer if obs.tracer.enabled else None
        self._digests = obs.digests

    def call(self, caller: "Node", service: Service, method: str,
             request_bytes: int, response_bytes, *args: Any,
             _trace_parent: Any = None, **kwargs: Any):
        """Invoke ``service.method(*args, **kwargs)`` with transport costs.

        The method must be a generator function; its return value is returned
        to the caller after the response transfer completes.
        ``response_bytes`` may be a callable evaluated on the handler's
        result — the hook for responses whose wire size only the server
        knows (e.g. a cooperative peer probe, sized by how many lookups
        the peer could answer), mirroring the callable payload sizing of
        the simulated collectives.

        ``_trace_parent`` (keyword-only, never forwarded to the handler) is
        the span id the request/response link transfers attach to when the
        cluster traces.
        """
        sim = self.cluster.sim
        config = self.cluster.config
        handler = getattr(service, method, None)
        if handler is None:
            raise SimulationError(f"service {service.name} has no method {method!r}")

        self.total_calls += 1
        self.total_request_bytes += request_bytes
        service._account(method)
        started = sim.now

        # request
        yield from self.cluster.network.transfer(
            caller, service.node, max(request_bytes, config.control_message_size),
            trace_parent=_trace_parent)
        # server window: handling overhead plus the handler body
        serve_started = sim.now
        if config.rpc_handling_overhead:
            yield sim.sleep(config.rpc_handling_overhead)
        result = yield from handler(*args, **kwargs)
        if self._tracer is not None:
            self._tracer.complete_span(
                "rpc.serve", "rpc", ("shard", service.node.name),
                serve_started, sim.now, parent_id=_trace_parent)
        # response (sized from the result when the caller passed a callable)
        if callable(response_bytes):
            response_bytes = response_bytes(result)
        self.total_response_bytes += response_bytes
        yield from self.cluster.network.transfer(
            service.node, caller, max(response_bytes, config.control_message_size),
            trace_parent=_trace_parent)
        if self._digests is not None:
            self._digests.rpc(method, sim.now - started)
        return result


    def call_batch(self, caller: "Node", calls, *, _trace_parent: Any = None):
        """Issue several independent RPCs concurrently; return their results.

        ``calls`` is a sequence of ``(service, method, request_bytes,
        response_bytes, args, kwargs)`` tuples (``args`` and ``kwargs``
        optional).  All calls start at the current instant and the batch
        completes when the slowest response lands — one
        :class:`~repro.simengine.Fanout` transaction instead of one
        bootstrap/termination event pair per shard.  Results come back in
        call order.

        ``_trace_parent`` (keyword-only, like :meth:`call`'s) is threaded
        into every member call, so all of a batch's request/response link
        transfers attach to the one span the caller opened for the fan-out.
        """
        generators = []
        for spec in calls:
            service, method, request_bytes, response_bytes, *rest = spec
            args = rest[0] if rest else ()
            kwargs = rest[1] if len(rest) > 1 else {}
            generators.append(self.call(caller, service, method,
                                        request_bytes, response_bytes, *args,
                                        _trace_parent=_trace_parent,
                                        **kwargs))
        results = yield self.cluster.sim.fanout(generators)
        return results


def remote_call(cluster: "Cluster", caller: "Node", service: Service, method: str,
                request_bytes: int, response_bytes: int, *args: Any, **kwargs: Any):
    """Convenience wrapper around :meth:`RpcTransport.call`."""
    result = yield from cluster.rpc.call(caller, service, method, request_bytes,
                                         response_bytes, *args, **kwargs)
    return result
