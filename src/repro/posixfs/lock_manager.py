"""Distributed byte-range lock manager.

Each object storage target runs one :class:`LockManager` instance that
controls the byte ranges of the objects it hosts, in *object-offset* space
(mirroring Lustre's LDLM, where "locks are stored and managed on the storage
servers hosting the objects they control", as the paper puts it).  Two
independent lock spaces coexist, distinguished by the ``file_id`` prefix
used by the client:

* ``data:<path>`` — the file system's own extent locks giving POSIX atomicity
  to individual contiguous reads/writes;
* ``fcntl:<path>`` — the advisory locks exposed to upper layers, which the
  locking ADIO drivers use to make whole non-contiguous MPI accesses atomic.

One request names every extent its owner needs on this server and is granted
all-or-nothing, so a client never holds one range here while it waits for
another: hold-and-wait exists only *between* servers, where clients acquire
in ascending OST order.

Grant policy: FIFO with conflict checks against both granted locks and
*earlier waiting* requests — i.e. fair queueing, no starvation, no barging.
The manager itself is pure (no simulation types); the service wrapper
:class:`SimLockService` turns grant callbacks into simulation events so that
waiting writers consume simulated time, which is precisely the cost the
paper's versioning approach avoids.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union, TYPE_CHECKING

from repro.core.regions import Region, RegionList
from repro.cluster.rpc import Service
from repro.errors import LockError, LockNotHeld

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class LockMode(enum.Enum):
    """Lock compatibility modes: two shared locks are compatible,
    everything else conflicts."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass(eq=False)
class LockRequest:
    """One lock request over a set of byte ranges (also the token used to
    release it).

    Requests compare by identity: two requests for the same ranges are still
    two locks.
    """

    token: int
    file_id: str
    #: the locked byte ranges, normalized (sorted, disjoint, non-empty)
    extents: RegionList
    mode: LockMode
    owner: str
    granted: bool = False
    released: bool = False
    #: simulated time at which the lock was requested / granted (filled by the
    #: service wrapper; used by the benchmark harness to report wait times)
    requested_at: float = 0.0
    granted_at: float = 0.0
    #: called once, at grant time, then dropped
    on_grant: Optional[Callable[["LockRequest"], None]] = field(default=None,
                                                                repr=False)
    #: hull of ``extents`` and ``mode`` as plain values, read by the
    #: conflict scans; ``contiguous`` means the hull is the lock
    start: int = field(init=False, repr=False)
    end: int = field(init=False, repr=False)
    contiguous: bool = field(init=False, repr=False)
    exclusive: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.start = self.extents[0].offset
        self.end = self.extents[-1].end
        self.contiguous = len(self.extents) == 1
        self.exclusive = self.mode is LockMode.EXCLUSIVE

    @property
    def region(self) -> Region:
        """Smallest contiguous range covering every extent."""
        return Region(self.start, self.end - self.start)

    @property
    def wait_time(self) -> float:
        """Simulated time spent waiting for the grant."""
        return max(0.0, self.granted_at - self.requested_at)


def _conflicts(locks: Iterable[LockRequest], request: LockRequest) -> bool:
    """True if ``request`` cannot coexist with one of ``locks`` (all on the
    same file): some extents overlap and either side is exclusive.  The hulls
    are compared first; only two overlapping hulls of which one has holes
    need the walk over the extents."""
    start, end, exclusive = request.start, request.end, request.exclusive
    for lock in locks:
        if (lock.start < end and start < lock.end
                and (exclusive or lock.exclusive)
                and (lock.contiguous and request.contiguous
                     or lock.extents.overlaps(request.extents))):
            return True
    return False


class LockManager:
    """Pure byte-range lock table with fair FIFO granting.

    Invariant between calls: every queued request conflicts with a holder or
    with a request queued before it.  A conflicting request stays a blocker
    when it moves from the queue to the holders, so blockers only ever
    disappear through :meth:`release` — which is why a new request is decided
    on its own and a release re-examines only the waiters it overlaps.
    """

    def __init__(self, manager_id: str = "lockmgr"):
        self.manager_id = manager_id
        self._tokens = itertools.count(1)
        #: file_id -> token -> holder, in grant order
        self._granted: Dict[str, Dict[int, LockRequest]] = {}
        #: file_id -> queued requests, in arrival order
        self._waiting: Dict[str, List[LockRequest]] = {}
        self._by_token: Dict[int, LockRequest] = {}
        #: benchmark counters
        self.locks_granted: int = 0
        self.locks_queued: int = 0

    # ------------------------------------------------------------------
    def request(self, file_id: str, extents: Union[Region, Iterable[Region]],
                mode: LockMode, owner: str,
                on_grant: Optional[Callable[[LockRequest], None]] = None,
                ) -> LockRequest:
        """Ask for one lock over ``extents`` (a region or several); it is
        granted immediately when every extent is compatible with the holders
        and (no barging) with the queued requests.

        Otherwise the whole request is queued — no extent is held meanwhile —
        and ``on_grant`` will be invoked at grant time.
        """
        if isinstance(extents, Region):
            extents = (extents,)
        extents = RegionList(extents).normalized()
        if len(extents) == 0:
            raise LockError("cannot lock an empty byte range")
        request = LockRequest(token=next(self._tokens), file_id=file_id,
                              extents=extents, mode=mode, owner=owner,
                              on_grant=on_grant)
        self._by_token[request.token] = request
        if (_conflicts(self._granted.get(file_id, {}).values(), request)
                or _conflicts(self._waiting.get(file_id, ()), request)):
            self._waiting.setdefault(file_id, []).append(request)
            self.locks_queued += 1
        else:
            self._grant(request)
        return request

    def release(self, token: int) -> None:
        """Release a granted lock (or cancel a still-queued request)."""
        request = self._by_token.get(token)
        if request is None or request.released:
            raise LockNotHeld(f"token {token} does not name a held lock")
        request.released = True
        del self._by_token[token]
        if request.granted:
            del self._granted[request.file_id][token]
        else:
            self._waiting[request.file_id].remove(request)
        self._regrant(request.file_id, request.start, request.end)

    # ------------------------------------------------------------------
    def _grant(self, request: LockRequest) -> None:
        request.granted = True
        self._granted.setdefault(request.file_id, {})[request.token] = request
        self.locks_granted += 1
        on_grant = request.on_grant
        if on_grant is not None:
            # a grant fires once; dropping the callback also breaks the
            # cycle request -> callback -> grant event -> request that a
            # waiting service would otherwise leave for the cyclic GC
            request.on_grant = None
            on_grant(request)

    def _regrant(self, file_id: str, start: int, end: int) -> None:
        """After a lock with hull ``[start, end)`` was released: grant, in
        FIFO order, every waiter whose hull overlaps it (the released lock
        blocked no other) that no holder and no earlier waiter blocks."""
        waiting = self._waiting.get(file_id)
        if not waiting:
            return
        holders = self._granted.setdefault(file_id, {})
        still_waiting: List[LockRequest] = []
        for request in waiting:
            if (request.start < end and start < request.end
                    and not _conflicts(holders.values(), request)
                    and not _conflicts(still_waiting, request)):
                self._grant(request)
            else:
                still_waiting.append(request)
        self._waiting[file_id] = still_waiting

    # ------------------------------------------------------------------
    def held_locks(self, file_id: str) -> List[LockRequest]:
        """Currently granted locks on ``file_id``."""
        return list(self._granted.get(file_id, {}).values())

    def queued_locks(self, file_id: str) -> List[LockRequest]:
        """Currently waiting requests on ``file_id``."""
        return list(self._waiting.get(file_id, ()))

    def is_held(self, token: int) -> bool:
        """True if ``token`` names a granted, unreleased lock."""
        request = self._by_token.get(token)
        return bool(request and request.granted and not request.released)


class SimLockService(Service):
    """A lock manager deployed on a storage node (one per OST).

    The ``acquire`` handler blocks the calling process (via a simulation
    event) until the lock is granted, so lock contention directly turns into
    simulated waiting time.
    """

    def __init__(self, node: "Node", manager: Optional[LockManager] = None):
        super().__init__(node, name=f"locks:{node.name}")
        self.manager = manager or LockManager(manager_id=node.name)
        #: cumulative simulated time writers spent waiting for locks here
        self.total_wait_time: float = 0.0

    # ------------------------------------------------------------------
    # RPC handlers (generator methods)
    # ------------------------------------------------------------------
    def acquire(self, file_id: str, extents: Iterable[Region], mode: LockMode,
                owner: str):
        """Acquire one lock over all of ``extents``, waiting while any of
        them conflicts."""
        sim = self.node.sim
        grant_event = sim.event()
        request = self.manager.request(
            file_id, extents, mode, owner,
            on_grant=lambda req: grant_event.succeed(req))
        request.requested_at = sim.now
        if not request.granted:
            yield grant_event
        request.granted_at = sim.now
        self.total_wait_time += request.wait_time
        return request.token

    def release(self, token: int):
        """Release a previously acquired lock."""
        self.manager.release(token)
        return None
        yield  # pragma: no cover - makes this a generator function
