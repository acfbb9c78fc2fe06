"""The simulator event loop.

:class:`Simulator` owns the clock and the event heap.  Components schedule
callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the loop dispatches them
in deterministic ``(time, priority, sequence)`` order.

The loop never advances time past the event being dispatched, so a callback
always observes ``sim.now`` equal to its own firing time.

Hot-path layout (PERFORMANCE.md): an event *is* its heap entry, the flat
tuple ``(time, priority, seq, callback, name)``.  ``seq`` is unique per
event, so heap sifting is decided by C-level int comparison of the first
three fields and never reaches the callback.  Scheduling allocates that
one tuple and nothing else.  :meth:`Simulator.cancel` takes the entry out
of the heap at once (O(n); only tests cancel), so the dispatch loop never
checks for cancelled events.  ``run``, ``run_until`` and ``step`` share
one dispatch loop.
"""

from __future__ import annotations

import heapq
from math import inf
from time import perf_counter_ns
from typing import Any, Callable, List, Optional

from repro.sim.events import PRIORITY_NORMAL, Event

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for scheduling bugs (negative delays, time travel, etc.)."""


class Simulator:
    """Deterministic discrete-event simulator.

    A single instance is shared by every component of a scenario: the NAND
    device, the FTL's background-GC machinery, the host page cache flusher
    and the workload actors all schedule against the same clock.

    Typical use::

        sim = Simulator()
        sim.schedule(5 * SECOND, flusher.wake)
        sim.run_until(3600 * SECOND)
    """

    def __init__(self) -> None:
        #: Current simulated time in integer nanoseconds.  Components
        #: read it; only the loop (and :meth:`resume_at`) moves it.
        self.now: int = 0
        self._heap: List[Event] = []
        self._seq: int = 0
        self._stopped: bool = False
        self._dead: bool = False
        #: Number of events dispatched so far (monitoring / tests).
        self.dispatched: int = 0
        #: Optional wall-clock profiler (see :meth:`set_profiler`).
        self._profiler = None

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self):
        """The attached :class:`~repro.obs.profiler.LoopProfiler`, if any."""
        return self._profiler

    def set_profiler(self, profiler) -> None:
        """Attach (or with ``None`` detach) a wall-clock loop profiler.

        With a profiler attached every dispatched event is timed with
        ``perf_counter_ns`` and accounted under its event name (or the
        callback's qualified name); with none attached the dispatch loop
        pays only an ``is None`` check.  Takes effect at the next
        ``run``/``run_until``/``step`` call.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ticks from now.

        Returns the event (its heap entry), which :meth:`cancel` accepts.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {name or callback}")
        if self._dead:
            raise SimulationError("simulator is dead after a power cut")
        seq = self._seq
        self._seq = seq + 1
        entry = (self.now + delay, priority, seq, callback, name)
        _heappush(self._heap, entry)
        return entry

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        return self.schedule(time - self.now, callback, priority=priority, name=name)

    def cancel(self, event: Event) -> None:
        """Withdraw a pending event so it never fires.

        Idempotent, and a no-op once the event has fired (or died in a
        power cut).  O(n): the entry is taken out of the heap at once, so
        :meth:`pending` and :meth:`peek_time` see only live events and
        the dispatch loop never checks for cancellation.
        """
        heap = self._heap
        for index, entry in enumerate(heap):
            if entry is event:
                heap[index] = heap[-1]
                heap.pop()
                heapq.heapify(heap)
                return

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _loop(self, horizon, max_events: Optional[int]) -> int:
        """Fire due events in heap order; the one loop behind ``run``,
        ``run_until`` and ``step``.

        Stops when the heap drains, the next event is later than
        ``horizon``, a callback calls :meth:`stop`, or ``max_events``
        have fired while events remain (which counts as a stop, so
        ``run_until`` leaves the clock at the last fired event).
        Returns the number fired.  ``dispatched`` counts every fired
        event, including one whose callback raises.
        """
        self._stopped = False
        heap = self._heap
        profiler = self._profiler
        limit = -1 if max_events is None else max_events
        count = 0
        try:
            while heap and not self._stopped:
                if count == limit:
                    self._stopped = True
                    break
                entry = _heappop(heap)
                time = entry[0]
                if time > horizon:
                    _heappush(heap, entry)  # not due yet: put it back
                    break
                self.now = time
                count += 1
                if profiler is None:
                    entry[3]()
                else:
                    label = entry[4] or getattr(entry[3], "__qualname__", "anonymous")
                    start = perf_counter_ns()
                    entry[3]()
                    profiler.record(label, perf_counter_ns() - start)
        finally:
            self.dispatched += count
        return count

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns ``False`` when the heap is empty (nothing was dispatched).
        """
        return self._loop(inf, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``max_events`` dispatched).

        Returns the number of events dispatched by this call.
        """
        return self._loop(inf, max_events)

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= time``, then set the clock to it.

        Events scheduled beyond ``time`` stay pending; the clock is advanced
        to exactly ``time`` so a subsequent ``run_until`` continues cleanly.
        With ``max_events`` the call returns early after that many
        dispatches, leaving the clock at the last fired event so the caller
        can interleave wall-clock deadline checks and resume (the worker
        wall-clock budget in :mod:`repro.experiments.runner` relies on
        this).  Returns the number of events dispatched.
        """
        if self._dead:
            raise SimulationError("simulator is dead after a power cut")
        if time < self.now:
            raise SimulationError(f"run_until({time}) is in the past (now={self.now})")
        count = self._loop(time, max_events)
        if not self._stopped:
            self.now = time
        return count

    def stop(self) -> None:
        """Ask the running loop to stop after the current event."""
        self._stopped = True

    def resume_at(self, time: int) -> None:
        """Jump the idle clock forward to ``time`` (power-loss recovery).

        A host rebuilt around a recovered FTL continues the *same*
        timeline: its fresh simulator starts at the power-cut time plus
        the recovery-scan duration rather than zero.  Only legal before
        anything is scheduled -- moving the clock under pending events
        would violate the no-time-travel guarantee.
        """
        if self._heap:
            raise SimulationError("resume_at with events pending")
        if time < self.now:
            raise SimulationError(
                f"resume_at({time}) is in the past (now={self.now})"
            )
        self.now = time

    def power_cut(self) -> int:
        """Drop every pending event and stop the loop (sudden power-off).

        In-flight work dies with the power rail: nothing queued survives
        into recovery, which starts from durable state only.  Returns
        the number of live events discarded.  The simulator is dead
        afterwards -- further scheduling or running raises
        :class:`SimulationError`; recovery builds a fresh one
        (:meth:`resume_at` continues the timeline).
        """
        dropped = len(self._heap)
        self._heap.clear()
        self._stopped = True
        self._dead = True
        return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap)

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if idle."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending()}>"
