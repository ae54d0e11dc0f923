"""Contract test: the simulator's event queue against a sorted-list model.

Simulation results are a function of the order events are processed in, so
the queue has one job: hand events back in exactly ``(time, priority, seq)``
order, with a cancelled :class:`Timer` never delivered.  The model is the
obvious implementation — a list kept sorted, cancellation by removal — and
any interleaving of schedule / step / cancel / peek must agree with it on
what is delivered, when, what ``peek`` answers and how many events are
pending.
"""

from hypothesis import given, settings, strategies as st

from repro.simengine.simulator import Simulator

DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-9, 64e-6, 1e-3, 2.0]),
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("event"), DELAYS, st.integers(0, 1)),
        st.tuples(st.just("timer"), DELAYS),
        st.tuples(st.just("step")),
        st.tuples(st.just("cancel"), st.integers(0, 2 ** 30)),
        st.tuples(st.just("peek")),
    ),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_queue_agrees_with_sorted_list_model(ops):
    sim = Simulator()
    #: the model: (time, priority, seq, tag) of every live entry, sorted
    model = []
    #: tag -> (model entry, Timer) for timers that can still be cancelled
    timers = {}
    delivered = []
    seq = 0

    def deliver(tag):
        delivered.append((sim.now, tag))

    for op in ops:
        if op[0] == "event":
            _, delay, priority = op
            event = sim.event()
            event._ok, event._value = True, None
            event.callbacks.append(lambda _event, tag=seq: deliver(tag))
            sim.schedule(event, delay=delay, priority=priority)
            model.append((sim.now + delay, priority, seq, seq))
            seq += 1
        elif op[0] == "timer":
            entry = (sim.now + op[1], Simulator.PRIORITY_NORMAL, seq, seq)
            timers[seq] = (entry, sim.call_later(op[1], deliver, seq))
            model.append(entry)
            seq += 1
        elif op[0] == "step":
            if not model:
                continue
            model.sort()
            when, _priority, _seq, tag = model.pop(0)
            timers.pop(tag, None)
            sim.step()
            assert delivered[-1] == (when, tag)
            assert sim.now == when
        elif op[0] == "cancel":
            if not timers:
                continue
            tag = sorted(timers)[op[1] % len(timers)]
            entry, timer = timers.pop(tag)
            model.remove(entry)
            assert timer.cancel()
            assert not timer.cancel()  # second cancel is a no-op
        else:  # peek
            assert sim.peek() == (min(model)[0] if model else float("inf"))
        assert sim.pending == len(model)
    # drain whatever is left: the tail must come out in model order
    already = len(delivered)
    sim.run_all()
    assert [tag for _when, tag in delivered[already:]] \
        == [entry[3] for entry in sorted(model)]
    assert sim.pending == 0 and sim.peek() == float("inf")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(DELAYS, st.booleans()), min_size=1, max_size=40))
def test_process_workload_never_runs_a_cancelled_timer(plan):
    """End-to-end: processes, timeouts and re-armed timers — a cancelled
    timer never fires, every other one fires exactly at its deadline."""
    sim = Simulator()
    fired = []
    expected = {}
    timers = []

    def driver():
        for index, (delay, cancel_previous) in enumerate(plan):
            timers.append(sim.call_later(
                delay, lambda tag=index: fired.append((tag, sim.now))))
            expected[index] = sim.now + delay
            if cancel_previous and len(timers) >= 2 and timers[-2].cancel():
                del expected[index - 1]
            yield sim.timeout(delay / 3)

    sim.process(driver())
    sim.run_all()
    assert dict(fired) == expected and len(fired) == len(expected)
