"""Property-based tests of the byte-range lock manager (safety & liveness)."""

from hypothesis import given, settings, strategies as st

from repro.core.regions import Region
from repro.posixfs.lock_manager import LockManager, LockMode


@st.composite
def lock_scripts(draw):
    """A random interleaving of lock requests and releases."""
    num_requests = draw(st.integers(1, 20))
    requests = []
    for index in range(num_requests):
        offset = draw(st.integers(0, 200))
        size = draw(st.integers(1, 50))
        mode = draw(st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]))
        requests.append((offset, size, mode))
    # release order: a permutation prefix (some locks may never be released)
    release_order = draw(st.permutations(list(range(num_requests))))
    release_count = draw(st.integers(0, num_requests))
    return requests, list(release_order)[:release_count]


def check_safety(manager: LockManager, file_id: str) -> None:
    """No two granted locks on the same file may conflict."""
    held = manager.held_locks(file_id)
    for i, a in enumerate(held):
        for b in held[i + 1:]:
            assert not (a.region.overlaps(b.region)
                        and LockMode.EXCLUSIVE in (a.mode, b.mode)), \
                f"conflicting grants {a} / {b}"


@settings(max_examples=80, deadline=None)
@given(script=lock_scripts())
def test_no_conflicting_locks_ever_granted(script):
    requests, releases = script
    manager = LockManager()
    handles = []
    for offset, size, mode in requests:
        handles.append(manager.request("f", Region(offset, size), mode,
                                       owner=f"o{len(handles)}"))
        check_safety(manager, "f")
    for index in releases:
        manager.release(handles[index].token)
        check_safety(manager, "f")


@settings(max_examples=60, deadline=None)
@given(script=lock_scripts())
def test_releasing_everything_grants_everything(script):
    """Liveness: once every earlier lock is released, a waiter is granted."""
    requests, _releases = script
    manager = LockManager()
    handles = [manager.request("f", Region(offset, size), mode, owner=f"o{i}")
               for i, (offset, size, mode) in enumerate(requests)]
    # release in FIFO order; every handle must be granted by the time it is
    # released (it either was granted immediately or all conflicting earlier
    # holders are gone)
    for handle in handles:
        assert handle.granted, f"{handle} still waiting although all earlier " \
                               "conflicting locks were released"
        manager.release(handle.token)


@settings(max_examples=60, deadline=None)
@given(script=lock_scripts())
def test_accounting_is_consistent(script):
    requests, releases = script
    manager = LockManager()
    handles = [manager.request("f", Region(offset, size), mode, owner=f"o{i}")
               for i, (offset, size, mode) in enumerate(requests)]
    for index in releases:
        manager.release(handles[index].token)
    held = manager.held_locks("f")
    queued = manager.queued_locks("f")
    released = [handle for handle in handles if handle.released]
    assert len(held) + len(queued) + len(released) == len(handles)
    assert all(handle.granted for handle in held)
    assert all(not handle.granted for handle in queued)
