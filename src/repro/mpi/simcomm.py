"""Simulated MPI communicator: the collective operations the stack needs.

The stack runs three collectives: ``barrier``, ``allgather`` (ROMIO's
exchange of access descriptions in two-phase I/O) and the personalized
all-to-all ``alltoallv_sparse`` that carries the data.

The communicator is shared by the rank processes of one job.  Every
collective is implemented as a synchronization point: ranks arriving early
wait on a per-operation event; the last arrival completes the operation,
charges its communication cost (a tree-structured latency term plus the data
volume moved over the slowest rank's NIC bandwidth), and wakes everyone with
the result.

Matching of collective calls follows MPI semantics: all ranks must call the
same collectives in the same order; each call site consumes one "generation"
of the operation's sequence.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import MPIError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.simengine import Event


class _Collective:
    """State of one in-flight collective operation (one generation)."""

    __slots__ = ("contributions", "event", "result", "taken")

    def __init__(self):
        self.contributions: Dict[int, Any] = {}
        self.event: Optional["Event"] = None
        self.result: Any = None
        #: ranks that have left with the result; the slot dies with the last
        self.taken = 0


class SharedList(list):
    """Result list of an allgather, handed to every rank of the job.

    Real MPI gives each rank a private copy and each rank re-derives any
    planning from it; the simulator gives all ranks this one object, so a
    deterministic derivation every rank would compute identically (stripe
    partition math, write attribution) can be stashed in ``memo`` by the
    first rank and reused by the rest — ``size`` times less host work with
    byte-identical results.  ``memo`` must only ever hold values that are
    a pure function of what every rank of this collective received
    identically (the list contents), never rank-specific state.
    """

    __slots__ = ("memo",)

    def __init__(self, items):
        super().__init__(items)
        self.memo: Dict[Any, Any] = {}


class Communicator:
    """A communicator over ``size`` simulated ranks."""

    def __init__(self, cluster: "Cluster", size: int, name: str = "comm_world"):
        if size <= 0:
            raise MPIError(f"communicator size must be positive, got {size}")
        self.cluster = cluster
        self.size = size
        self.name = name
        #: op -> generation -> state, for the generations some rank is
        #: still inside; a finished one is dropped (with its contributions
        #: and result — a data shuffle's worth of payload) by the last rank
        #: to leave it
        self._pending: Dict[str, Dict[int, _Collective]] = {}
        #: per-rank counters of how many collectives each rank entered
        self._rank_counts: Dict[str, Dict[int, int]] = {}
        #: total collectives completed (benchmark metric)
        self.collectives_completed: int = 0
        #: total payload bytes charged across completed collectives — the
        #: compute-interconnect side of every two-phase trade (benchmark
        #: metric; zero on single-rank communicators, which move no bytes)
        self.bytes_moved: int = 0

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise MPIError(f"rank {rank} outside communicator of size {self.size}")

    def _cost(self, payload_bytes: int) -> float:
        """Latency/bandwidth cost of one collective (binomial-tree model)."""
        config = self.cluster.config
        rounds = max(1, math.ceil(math.log2(self.size))) if self.size > 1 else 0
        return (rounds * config.network_latency
                + payload_bytes / config.network_bandwidth)

    def _enter(self, op: str, rank: int, contribution: Any,
               payload_bytes, finalize: Callable[[Dict[int, Any]], Any]):
        """Common rendezvous logic of every collective.

        ``payload_bytes`` is either a byte count or a callable evaluated on
        the collected contributions by the last arrival — the hook operations
        whose traffic depends on what every rank brought (the all-to-all)
        use to charge their true cost.
        """
        self._check_rank(rank)
        counts = self._rank_counts.setdefault(op, {})
        generation = counts.get(rank, 0)
        counts[rank] = generation + 1

        pending = self._pending.setdefault(op, {})
        collective = pending.get(generation)
        if collective is None:
            collective = pending[generation] = _Collective()
        collective.contributions[rank] = contribution

        if len(collective.contributions) < self.size:
            if collective.event is None:
                collective.event = self.cluster.sim.event()
            yield collective.event
        else:
            # last arrival: perform the operation, charge its cost, wake
            # the others
            collective.result = finalize(collective.contributions)
            if callable(payload_bytes):
                payload_bytes = payload_bytes(collective.contributions)
            collective.contributions = None
            if self.size > 1:
                self.bytes_moved += payload_bytes
                yield self.cluster.sim.sleep(self._cost(payload_bytes))
            self.collectives_completed += 1
            if collective.event is not None:
                collective.event.succeed(collective.result)
        collective.taken += 1
        if collective.taken == self.size:
            del pending[generation]
        return collective.result

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self, rank: int):
        """Block until every rank reached the same barrier."""
        result = yield from self._enter("barrier", rank, None, 0, lambda _: None)
        return result

    def allgather(self, rank: int, value: Any, payload_bytes=None):
        """Gather one value per rank at every rank.

        ``payload_bytes`` overrides the default 64-bytes-per-rank estimate —
        either a byte count or a callable over the collected contributions
        (for values whose wire size depends on what every rank brought).
        """
        if payload_bytes is None:
            payload_bytes = 64 * self.size
        gathered = yield from self._enter(
            "allgather", rank, value, payload_bytes,
            lambda contributions: SharedList(
                contributions[index] for index in range(self.size)))
        return gathered

    def alltoallv_sparse(self, rank: int, send_map: Dict[int, Any],
                         sizeof: Optional[Callable[[Any], int]] = None):
        """Sparse personalized all-to-all: ``send_map[dst]`` goes to rank ``dst``.

        MPI's ``alltoallv`` where absent destinations send nothing: both the
        exchange and the cost model only touch the non-empty entries — on a
        collective write/read most ranks talk to a handful of file-domain
        owners.  Returns ``{src: item}`` for the items addressed to this
        rank.

        ``sizeof`` prices one item (bytes on the wire, default 64); the
        charged cost uses the *bottleneck* rank — the largest sent-plus-
        received volume over any single NIC — rather than the total volume,
        since the pairwise transfers proceed in parallel.  An item a rank
        addresses to itself is a local copy and moves over no NIC, so it
        costs nothing.  A destination outside the communicator raises
        :class:`~repro.errors.MPIError`.
        """
        for dst in send_map:
            self._check_rank(dst)
        measure = sizeof or (lambda item: 64)

        def finalize(contributions: Dict[int, Any]) -> List[Dict[int, Any]]:
            inboxes: List[Dict[int, Any]] = [{} for _ in range(self.size)]
            for src in range(self.size):
                for dst, item in contributions[src].items():
                    inboxes[dst][src] = item
            return inboxes

        def bottleneck_bytes(contributions: Dict[int, Any]) -> int:
            load = [0] * self.size
            for src in range(self.size):
                for dst, item in contributions[src].items():
                    if dst == src:
                        continue
                    nbytes = measure(item)
                    load[src] += nbytes
                    load[dst] += nbytes
            return max(load) if load else 0

        inboxes = yield from self._enter(
            "alltoallv", rank, send_map, bottleneck_bytes, finalize)
        # every rank resumes from one shared result; each takes its inbox
        # out of it, so the items a rank is done with are freed while the
        # later ranks still run, rather than all held until the last leaves
        inbox, inboxes[rank] = inboxes[rank], None
        return inbox
