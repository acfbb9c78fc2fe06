"""Tests for event ordering: an event is its ``(time, priority, seq,
callback, name)`` heap entry, ordered by its first three fields."""

from repro.sim.engine import Simulator
from repro.sim.events import EventPriority


def make(time, priority=EventPriority.NORMAL, seq=0):
    return (time, int(priority), seq, lambda: None, None)


def test_time_dominates():
    assert make(1, EventPriority.LOW, 99) < make(2, EventPriority.DEVICE, 0)


def test_priority_breaks_time_ties():
    assert make(5, EventPriority.DEVICE, 9) < make(5, EventPriority.CONTROL, 0)


def test_seq_breaks_full_ties():
    assert make(5, EventPriority.NORMAL, 1) < make(5, EventPriority.NORMAL, 2)


def test_priority_ordering_constants():
    assert (
        EventPriority.DEVICE
        < EventPriority.NORMAL
        < EventPriority.CONTROL
        < EventPriority.LOW
    )


def test_cancel_flag():
    sim = Simulator()
    event = sim.schedule(1, lambda: None)
    assert sim.pending() == 1
    sim.cancel(event)
    assert sim.pending() == 0


def test_sort_key_shape():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(0, lambda: None)
    event = sim.schedule(7, lambda: None, priority=EventPriority.CONTROL, name="tick")
    assert event[:3] == (7, EventPriority.CONTROL, 3)
    assert event[4] == "tick"
