"""An obviously-correct event kernel, and whole runs on it.

:class:`ReferenceSimulator` has :class:`~repro.sim.engine.Simulator`'s
public API and semantics but none of its layout: pending events sit in
a plain list, the next one is found with ``min()`` over their
``(time, priority, seq)`` keys, and ``run``, ``run_until`` and ``step``
are written out separately, straight from their docstrings.  Events are
the same ``(time, priority, seq, callback, name)`` tuples, so handles
and profiler labels agree.

:func:`reference_kernel` patches the reference methods into
``Simulator`` at *class* level for the duration of a ``with`` block (as
:func:`~tests.oracles.scan_reference` does for the hot-path oracles),
which turns a whole scenario run into its reference-kernel twin::

    production = run_scenario(spec)
    with reference_kernel():
        reference = run_scenario(spec)
    assert production == reference
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, Optional

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import PRIORITY_NORMAL
from tests.oracles.reference import patched


def _key(event):
    return event[:3]


def _next(sim: "ReferenceSimulator"):
    """The pending event that fires next, or None."""
    return min(sim._events, key=_key) if sim._events else None


def _fire(sim: "ReferenceSimulator", event) -> None:
    """Take ``event`` off the pending list and run it at its time."""
    sim._events.remove(event)
    sim.now = event[0]
    sim.dispatched += 1
    if sim._profiler is None:
        event[3]()
    else:
        label = event[4] or getattr(event[3], "__qualname__", "anonymous")
        start = perf_counter_ns()
        event[3]()
        sim._profiler.record(label, perf_counter_ns() - start)


class ReferenceSimulator:
    """List-and-``min()`` twin of :class:`~repro.sim.engine.Simulator`."""

    def __init__(self) -> None:
        self.now = 0
        self._events = []
        self._seq = 0
        self._stopped = False
        self._dead = False
        self.dispatched = 0
        self._profiler = None

    @property
    def profiler(self):
        return self._profiler

    def set_profiler(self, profiler) -> None:
        self._profiler = profiler

    def schedule(self, delay, callback, *, priority=PRIORITY_NORMAL, name=None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {name or callback}")
        return self.schedule_at(self.now + delay, callback, priority=priority, name=name)

    def schedule_at(self, time, callback, *, priority=PRIORITY_NORMAL, name=None):
        if self._dead:
            raise SimulationError("simulator is dead after a power cut")
        if time < self.now:
            raise SimulationError(f"cannot schedule event at {time} before {self.now}")
        event = (time, priority, self._seq, callback, name)
        self._seq += 1
        self._events.append(event)
        return event

    def cancel(self, event) -> None:
        self._events = [pending for pending in self._events if pending is not event]

    def step(self) -> bool:
        event = _next(self)
        if event is None:
            return False
        _fire(self, event)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        self._stopped = False
        count = 0
        while self._events and not self._stopped:
            if max_events is not None and count >= max_events:
                break
            _fire(self, _next(self))
            count += 1
        return count

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        if self._dead:
            raise SimulationError("simulator is dead after a power cut")
        if time < self.now:
            raise SimulationError(f"run_until({time}) is in the past (now={self.now})")
        self._stopped = False
        count = 0
        while self._events and not self._stopped:
            if max_events is not None and count >= max_events:
                # Early return: the clock stays at the last fired event.
                return count
            event = _next(self)
            if event[0] > time:
                break
            _fire(self, event)
            count += 1
        if not self._stopped:
            self.now = time
        return count

    def stop(self) -> None:
        self._stopped = True

    def resume_at(self, time: int) -> None:
        if self._events:
            raise SimulationError("resume_at with events pending")
        if time < self.now:
            raise SimulationError(f"resume_at({time}) is in the past (now={self.now})")
        self.now = time

    def power_cut(self) -> int:
        dropped = len(self._events)
        self._events = []
        self._stopped = True
        self._dead = True
        return dropped

    def pending(self) -> int:
        return len(self._events)

    def peek_time(self) -> Optional[int]:
        event = _next(self)
        return None if event is None else event[0]


#: Every ``Simulator`` attribute the reference replaces.  The production
#: ``_loop`` is swapped for a tripwire, so no path can still reach it.
_API = (
    "__init__", "profiler", "set_profiler", "schedule", "schedule_at", "cancel",
    "step", "run", "run_until", "stop", "resume_at", "power_cut", "pending",
    "peek_time",
)


def _no_production_loop(self, *args, **kwargs):
    raise AssertionError("production dispatch loop reached under reference_kernel()")


@contextmanager
def reference_kernel() -> Iterator[None]:
    """Run every ``Simulator`` built inside the block on the reference kernel."""
    with patched(
        [(Simulator, name, ReferenceSimulator.__dict__[name]) for name in _API]
        + [(Simulator, "_loop", _no_production_loop)]
    ):
        yield
