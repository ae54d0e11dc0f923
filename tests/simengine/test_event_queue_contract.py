"""Contract test: the simulator's event queue against a sorted-list model.

Simulation results are a function of the order events are processed in, so
the queue has one job: hand events back in exactly ``(time, priority, seq)``
order.  The model is the obvious implementation — a list kept sorted — and
any interleaving of schedule / step / peek must agree with it on what is
delivered, when, what ``peek`` answers and how many events are pending.
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
        st.tuples(st.just("step")),
        st.tuples(st.just("peek")),
    ),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_queue_agrees_with_sorted_list_model(ops):
    sim = Simulator()
    #: the model: (time, priority, seq, tag) of every scheduled entry
    model = []
    delivered = []
    seq = 0

    for op in ops:
        if op[0] == "event":
            _, delay, priority = op
            event = sim.event()
            event._ok, event._value = True, None
            event.callbacks.append(
                lambda _event, tag=seq: delivered.append((sim.now, tag)))
            sim.schedule(event, delay=delay, priority=priority)
            model.append((sim.now + delay, priority, seq, seq))
            seq += 1
        elif op[0] == "step":
            if not model:
                continue
            model.sort()
            when, _priority, _seq, tag = model.pop(0)
            sim.step()
            assert delivered[-1] == (when, tag)
            assert sim.now == when
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
@given(st.lists(st.tuples(DELAYS, DELAYS), min_size=1, max_size=40))
def test_process_timeouts_fire_exactly_at_their_deadlines(plan):
    """End-to-end: processes sleeping on timeouts wake exactly at their
    deadlines, in deadline order, and leave nothing pending."""
    sim = Simulator()
    woke = []
    expected = {}

    def sleeper(tag, delay):
        yield sim.timeout(delay)
        woke.append((sim.now, tag))

    def driver():
        for index, (delay, pause) in enumerate(plan):
            sim.process(sleeper(index, delay))
            expected[index] = sim.now + delay
            yield sim.timeout(pause)

    sim.process(driver())
    sim.run_all()
    assert dict((tag, when) for when, tag in woke) == expected
    assert [when for when, _tag in woke] == sorted(expected.values())
    assert sim.pending == 0 and sim.peek() == float("inf")
