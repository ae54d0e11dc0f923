"""Differential property test: the lock table against its predecessor.

The property tests next door check safety and liveness, which many grant
orders satisfy.  Simulated time depends on *which* order: every grant fires
``on_grant``, which schedules an event, so a lock table that grants the same
set in another order moves every timing downstream.  ``OracleLockManager`` is
the grant path the manager had before it stopped rescanning — every waiter
re-checked against every holder on every request and release — kept verbatim
as the reference.  Seeded random request / release / cancel scripts must
produce the identical grant order, ``on_grant`` call sequence, introspection
lists and counters on both.

Requests over several extents postdate that table, so their reference is the
same full rescan with one thing swapped: two requests conflict when *any* two
of their extents overlap (``MultiExtentOracle``, all pairs compared).  The
manager's hull pre-filter, its walk over sorted extents and its choice of
which waiters a release re-examines must not show through.
"""

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.errors import LockNotHeld
from repro.posixfs.lock_manager import LockManager, LockMode


def _modes_conflict(a: LockMode, b: LockMode) -> bool:
    return not (a is LockMode.SHARED and b is LockMode.SHARED)


def _overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """Two non-empty ``(start, end)`` ranges share a byte."""
    return a[0] < b[1] and b[0] < a[1]


@dataclass
class OracleRequest:
    token: int
    file_id: str
    #: one ``(start, end)`` range
    region: Tuple[int, int]
    mode: LockMode
    owner: str
    granted: bool = False
    released: bool = False
    on_grant: Optional[Callable[["OracleRequest"], None]] = field(
        default=None, repr=False)

    def conflicts_with(self, other: "OracleRequest") -> bool:
        return (self.file_id == other.file_id
                and _overlap(self.region, other.region)
                and _modes_conflict(self.mode, other.mode))


class OracleLockManager:
    """The full-rescan lock table (reference implementation)."""

    def __init__(self):
        self._tokens = itertools.count(1)
        self._granted: Dict[str, List[OracleRequest]] = {}
        self._waiting: Dict[str, List[OracleRequest]] = {}
        self._by_token: Dict[int, OracleRequest] = {}
        self.locks_granted = 0
        self.locks_queued = 0

    def request(self, file_id, extents, mode, owner, on_grant=None):
        (region,) = extents
        request = OracleRequest(token=next(self._tokens), file_id=file_id,
                                region=region, mode=mode, owner=owner,
                                on_grant=on_grant)
        self._by_token[request.token] = request
        self._waiting.setdefault(file_id, []).append(request)
        self._dispatch(file_id)
        if not request.granted:
            self.locks_queued += 1
        return request

    def release(self, token):
        request = self._by_token.get(token)
        if request is None or request.released:
            raise LockNotHeld(f"token {token} does not name a held lock")
        request.released = True
        del self._by_token[token]
        if request.granted:
            self._granted[request.file_id].remove(request)
        else:
            self._waiting[request.file_id].remove(request)
        self._dispatch(request.file_id)

    def _dispatch(self, file_id):
        waiting = self._waiting.get(file_id, [])
        granted = self._granted.setdefault(file_id, [])
        still_waiting = []
        for request in waiting:
            blocked = any(request.conflicts_with(holder) for holder in granted)
            if not blocked:
                # fairness: do not overtake an earlier conflicting waiter
                blocked = any(request.conflicts_with(earlier)
                              for earlier in still_waiting)
            if blocked:
                still_waiting.append(request)
            else:
                request.granted = True
                granted.append(request)
                self.locks_granted += 1
                if request.on_grant is not None:
                    request.on_grant(request)
        self._waiting[file_id] = still_waiting

    def held_locks(self, file_id):
        return list(self._granted.get(file_id, []))

    def queued_locks(self, file_id):
        return list(self._waiting.get(file_id, []))


class MultiExtentRequest(OracleRequest):
    """``region`` holds a tuple of ``(start, end)`` ranges, in the order the
    script drew them."""

    def conflicts_with(self, other):
        return (self.file_id == other.file_id
                and _modes_conflict(self.mode, other.mode)
                and any(_overlap(mine, theirs) for mine in self.region
                        for theirs in other.region))


class MultiExtentOracle(OracleLockManager):
    """The full-rescan table over requests of several extents."""

    def request(self, file_id, extents, mode, owner, on_grant=None):
        request = MultiExtentRequest(token=next(self._tokens), file_id=file_id,
                                     region=tuple(extents), mode=mode,
                                     owner=owner, on_grant=on_grant)
        self._by_token[request.token] = request
        self._waiting.setdefault(file_id, []).append(request)
        self._dispatch(file_id)
        if not request.granted:
            self.locks_queued += 1
        return request


FILES = ["f", "f", "f", "g"]
OPS_PER_SCRIPT = 200


def one_region(rng):
    start = rng.randrange(100)
    return [(start, start + rng.randrange(1, 30))]


def several_extents(rng):
    """1-4 short extents scattered over the same span, unsorted, free to
    touch or overlap each other: hulls overlap far more often than locks."""
    extents = []
    for _ in range(rng.randint(1, 4)):
        start = rng.randrange(120)
        extents.append((start, start + rng.randrange(1, 8)))
    return extents


def check_script(seed, oracle, draw_extents):
    """One seeded script of requests, releases and cancels, on both tables;
    everything observable must agree after every step.

    Mostly one file, offsets and sizes from a small range and releases just
    under half the steps: queues grow several deep behind holders that go
    away one at a time, which is where a grant path that looks at too few
    waiters parts from the oracle.
    """
    rng = random.Random(seed)
    managers = (LockManager(), oracle)
    #: per manager: owners in the order their on_grant fired
    grant_logs = ([], [])
    #: per manager: every request handle, in request order
    handles = ([], [])
    new, oracle = managers
    for step in range(OPS_PER_SCRIPT):
        unreleased = [index for index, handle in enumerate(handles[1])
                      if not handle.released]
        if unreleased and rng.random() < 0.49:
            # a granted lock is released, a queued request cancelled
            index = rng.choice(unreleased)
            for manager, made in zip(managers, handles):
                manager.release(made[index].token)
        else:
            file_id = rng.choice(FILES)
            extents = draw_extents(rng)
            mode = (LockMode.SHARED if rng.random() < 0.3
                    else LockMode.EXCLUSIVE)
            owner = f"o{len(handles[0])}"
            for manager, log, made in zip(managers, grant_logs, handles):
                made.append(manager.request(
                    file_id, extents, mode, owner,
                    on_grant=lambda request, log=log: log.append(request.owner)))
        where = f"seed {seed}, step {step}"
        assert grant_logs[0] == grant_logs[1], where
        assert ([(h.token, h.granted, h.released) for h in handles[0]]
                == [(h.token, h.granted, h.released) for h in handles[1]]), where
        for file_id in set(FILES):
            assert ([h.token for h in new.held_locks(file_id)]
                    == [h.token for h in oracle.held_locks(file_id)]), where
            assert ([h.token for h in new.queued_locks(file_id)]
                    == [h.token for h in oracle.queued_locks(file_id)]), where
        assert (new.locks_granted, new.locks_queued) \
            == (oracle.locks_granted, oracle.locks_queued), where
    assert oracle.locks_queued > 0  # the script did contend


@pytest.mark.parametrize("seed", range(40))
def test_grant_order_matches_the_full_rescan_oracle(seed):
    """Single-extent scripts against the verbatim pre-rewrite table.
    (Dropping the earlier-waiter check from the release path fails 36 of
    these 40 seeds.)"""
    check_script(seed, OracleLockManager(), one_region)


@pytest.mark.parametrize("seed", range(40))
def test_multi_extent_grant_order_matches_the_full_rescan_oracle(seed):
    """All-or-nothing requests over several extents, shared and exclusive,
    on two files; one request counts once whatever its extent count."""
    check_script(seed, MultiExtentOracle(), several_extents)


def test_hulls_may_overlap_where_extents_do_not():
    """Interleaved combs share a hull and no byte: both are held at once,
    and a request is queued as a whole — none of its extents is held while
    another one waits."""
    manager = LockManager()
    even = manager.request("f", [(0, 10), (20, 30), (40, 50)],
                           LockMode.EXCLUSIVE, "even")
    odd = manager.request("f", [(10, 20), (30, 40)],
                          LockMode.EXCLUSIVE, "odd")
    assert even.granted and odd.granted
    assert ((even.start, even.end), (odd.start, odd.end)) == ((0, 50), (10, 40))

    both = manager.request("f", [(45, 55), (60, 65)],
                           LockMode.EXCLUSIVE, "both")
    free_part = manager.request("f", [(60, 65)], LockMode.EXCLUSIVE, "late")
    assert not both.granted          # [45, 50) is held by ``even``
    assert not free_part.granted     # no barging past ``both``
    assert manager.locks_queued == 2
    manager.release(even.token)
    assert both.granted and not free_part.granted
    manager.release(both.token)
    assert free_part.granted
    assert manager.locks_granted == 4
