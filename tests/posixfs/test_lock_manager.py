"""Unit tests for the byte-range lock manager (pure logic)."""

import pytest

from repro.errors import LockError, LockNotHeld
from repro.posixfs.lock_manager import LockManager, LockMode


def test_non_conflicting_locks_granted_immediately():
    manager = LockManager()
    a = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "a")
    b = manager.request("f", [(10, 20)], LockMode.EXCLUSIVE, "b")
    assert a.granted and b.granted


def test_conflicting_exclusive_locks_queue():
    manager = LockManager()
    a = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "a")
    b = manager.request("f", [(5, 15)], LockMode.EXCLUSIVE, "b")
    assert a.granted and not b.granted
    manager.release(a.token)
    assert b.granted


def test_shared_locks_are_compatible():
    manager = LockManager()
    a = manager.request("f", [(0, 10)], LockMode.SHARED, "a")
    b = manager.request("f", [(0, 10)], LockMode.SHARED, "b")
    assert a.granted and b.granted


def test_shared_blocks_exclusive_and_vice_versa():
    manager = LockManager()
    shared = manager.request("f", [(0, 10)], LockMode.SHARED, "a")
    exclusive = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "b")
    assert shared.granted and not exclusive.granted
    manager.release(shared.token)
    assert exclusive.granted
    late_shared = manager.request("f", [(0, 10)], LockMode.SHARED, "c")
    assert not late_shared.granted


def test_locks_on_different_files_do_not_conflict():
    manager = LockManager()
    a = manager.request("f1", [(0, 10)], LockMode.EXCLUSIVE, "a")
    b = manager.request("f2", [(0, 10)], LockMode.EXCLUSIVE, "b")
    assert a.granted and b.granted


def test_fifo_fairness_no_overtaking():
    manager = LockManager()
    holder = manager.request("f", [(0, 100)], LockMode.EXCLUSIVE, "holder")
    big_waiter = manager.request("f", [(0, 100)], LockMode.EXCLUSIVE, "big")
    # a later, smaller request that does not conflict with the holder's region
    # remainder but does conflict with the earlier waiter must not overtake it
    small_waiter = manager.request("f", [(50, 60)], LockMode.EXCLUSIVE, "small")
    assert not big_waiter.granted and not small_waiter.granted
    manager.release(holder.token)
    assert big_waiter.granted
    assert not small_waiter.granted
    manager.release(big_waiter.token)
    assert small_waiter.granted


def test_grant_callback_invoked():
    manager = LockManager()
    granted = []
    a = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "a")
    manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "b",
                    on_grant=lambda req: granted.append(req.owner))
    assert granted == []
    manager.release(a.token)
    assert granted == ["b"]


def test_release_queued_request_cancels_it():
    manager = LockManager()
    a = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "a")
    b = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "b")
    c = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "c")
    manager.release(b.token)          # cancel while queued
    manager.release(a.token)
    assert c.granted and not b.granted


def test_release_unknown_token_raises():
    with pytest.raises(LockNotHeld):
        LockManager().release(42)


def test_double_release_raises():
    manager = LockManager()
    a = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "a")
    manager.release(a.token)
    with pytest.raises(LockNotHeld):
        manager.release(a.token)


def test_empty_range_rejected():
    with pytest.raises(LockError):
        LockManager().request("f", [(0, 0)], LockMode.EXCLUSIVE, "a")


def test_is_held_and_introspection():
    manager = LockManager()
    a = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "a")
    b = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "b")
    assert manager.is_held(a.token)
    assert not manager.is_held(b.token)
    assert len(manager.held_locks("f")) == 1
    assert len(manager.queued_locks("f")) == 1


def test_counters():
    manager = LockManager()
    a = manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "a")
    manager.request("f", [(0, 10)], LockMode.EXCLUSIVE, "b")
    assert manager.locks_granted == 1
    assert manager.locks_queued == 1
    manager.release(a.token)
    assert manager.locks_granted == 2


def test_many_disjoint_writers_all_granted():
    manager = LockManager()
    requests = [manager.request("f", [(i * 10, i * 10 + 10)], LockMode.EXCLUSIVE, f"w{i}")
                for i in range(50)]
    assert all(request.granted for request in requests)
