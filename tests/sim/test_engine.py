"""Tests for the simulator event loop: ordering, cancellation, run_until."""

import gc

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventPriority


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending() == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_fifo_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5, lambda l=label: fired.append(l))
    sim.run()
    assert fired == list("abcde")


def test_priority_breaks_ties():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append("control"), priority=EventPriority.CONTROL)
    sim.schedule(5, lambda: fired.append("device"), priority=EventPriority.DEVICE)
    sim.run()
    assert fired == ["device", "control"]


def test_callback_sees_its_own_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.schedule(8, lambda: fired.append(("second", sim.now)))

    sim.schedule(2, first)
    sim.run()
    assert fired == [("first", 2), ("second", 10)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(5, lambda: fired.append("x"))
    sim.cancel(event)
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(20, lambda: fired.append(20))
    sim.run_until(15)
    assert fired == [10]
    assert sim.now == 15
    sim.run_until(25)
    assert fired == [10, 20]
    assert sim.now == 25


def test_run_until_inclusive_of_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(15, lambda: fired.append(15))
    sim.run_until(15)
    assert fired == [15]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.run_until(50)


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: fired.append(1))
    sim.schedule(2, sim.stop)
    sim.schedule(3, lambda: fired.append(3))
    sim.run()
    assert fired == [1]
    assert sim.pending() == 1


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    dispatched = sim.run(max_events=3)
    assert dispatched == 3
    assert fired == [0, 1, 2]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    sim.cancel(first)
    assert sim.peek_time() == 9


def test_dispatched_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.dispatched == 4


def test_pending_is_live_count_through_cancel_and_dispatch():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(4)]
    assert sim.pending() == 4
    sim.cancel(events[0])
    sim.cancel(events[0])  # idempotent: must not double-decrement
    assert sim.pending() == 3
    sim.run()
    assert sim.pending() == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    event = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run(max_events=1)
    sim.cancel(event)  # already fired: must not corrupt the live count
    assert sim.pending() == 1
    assert sim.peek_time() == 2


def test_peek_time_pops_cancelled_heads_lazily():
    sim = Simulator()
    head = [sim.schedule(i + 1, lambda: None) for i in range(3)]
    survivor = sim.schedule(10, lambda: None)
    for event in head:
        sim.cancel(event)
    assert sim.peek_time() == 10
    assert sim.pending() == 1
    sim.run()
    assert sim.now == survivor[0]


def test_peek_time_none_when_every_event_cancelled():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(3)]
    for event in events:
        sim.cancel(event)
    assert sim.peek_time() is None
    assert sim.pending() == 0
    assert sim.run() == 0


def test_cancel_then_reschedule_fires_only_replacement():
    sim = Simulator()
    fired = []
    stale = sim.schedule(5, lambda: fired.append("stale"))
    sim.cancel(stale)
    replacement = sim.schedule(5, lambda: fired.append("fresh"))
    assert sim.pending() == 1
    assert sim.peek_time() == 5
    sim.run()
    assert fired == ["fresh"]
    assert sim.now == replacement[0]
    assert sim.pending() == 0


def test_fired_or_cancelled_handle_holds_no_simulator_reference():
    # A component may keep the handle ``schedule`` returned after the
    # event fired or was cancelled; the handle must not keep the
    # simulator (and its whole heap) reachable, and late or repeated
    # cancels must leave the live count exact.
    sim = Simulator()
    fired_event = sim.schedule(1, lambda: None)
    cancelled_event = sim.schedule(2, lambda: None)
    sim.run(max_events=1)
    sim.cancel(cancelled_event)
    for handle in (fired_event, cancelled_event):
        assert all(ref is not sim for ref in gc.get_referents(handle))
    sim.cancel(cancelled_event)  # idempotent once withdrawn
    sim.cancel(fired_event)  # no-op once fired
    assert sim.pending() == 0
