"""Generator-based sequential processes.

Closed-loop workload actors are most naturally written as straight-line
code: *issue a write, wait for completion, think, repeat*.  :class:`Process`
lets such code be an ordinary Python generator that ``yield``\\ s commands
to the simulator:

* ``yield Timeout(delay)`` -- sleep for ``delay`` ticks.
* ``yield WaitFor()`` -- park until something calls
  :meth:`Process.wake` (e.g. an I/O-completion callback).  ``wake`` may
  carry a value, which becomes the result of the ``yield``.

Example::

    def actor(sim, device):
        while True:
            waiter = WaitFor()
            device.submit(req, on_complete=waiter.wake)
            yield waiter                 # blocks until completion
            yield Timeout(10 * MILLISECOND)   # think time

    Process(sim, actor(sim, device)).start()
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.engine import Simulator


class ProcessExit(Exception):
    """Thrown into a generator to terminate it from outside."""


class Timeout:
    """Yield command: sleep for ``delay`` ticks.

    A negative ``delay`` is rejected by :meth:`Simulator.schedule
    <repro.sim.engine.Simulator.schedule>` when the process yields it.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class WaitFor:
    """Yield command: park the process until :meth:`wake` is called.

    A ``WaitFor`` is single-shot: it connects exactly one ``yield`` to one
    ``wake``.  Waking before the process yields is allowed (the value is
    stored and the yield returns immediately); waking twice is an error.
    """

    __slots__ = ("_process", "_value", "_woken", "_consumed")

    def __init__(self) -> None:
        self._process: Optional["Process"] = None
        self._value: Any = None
        self._woken = False
        self._consumed = False

    @property
    def woken(self) -> bool:
        return self._woken

    def wake(self, value: Any = None) -> None:
        """Resume the waiting process, passing ``value`` to its yield."""
        if self._woken:
            raise RuntimeError("WaitFor.wake() called twice")
        self._woken = True
        self._value = value
        process = self._process
        if process is not None:
            self._process = None
            process._resume_soon(value)

    def _attach(self, process: "Process") -> bool:
        """Bind to a process; returns True if already woken (no parking)."""
        if self._consumed:
            raise RuntimeError("WaitFor yielded twice")
        self._consumed = True
        if self._woken:
            return True
        self._process = process
        return False


class Process:
    """Drives a generator against a :class:`Simulator`.

    The generator advances inside simulator events, so everything it does
    happens at well-defined simulated instants.  Every step -- start,
    timeout expiry, wake-up -- is the same event: the process's one bound
    :meth:`_step`, under a name fixed at construction (``<name>.start``,
    ``<name>.timeout``, ``<name>.resume``).  A process has at most one
    step queued, so the value a wake-up carries waits on the process
    itself.  The generator is driven only through ``send`` and ``throw``.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, None],
        *,
        name: Optional[str] = None,
        on_exit: Optional[Callable[["Process"], None]] = None,
    ) -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._send = generator.send
        self._on_exit = on_exit
        self._finished = False
        self._started = False
        #: Sent into the generator by the next step (a wake-up's value).
        self._value: Any = None
        self._resume = self._step
        self._start_name = f"{self.name}.start"
        self._timeout_name = f"{self.name}.timeout"
        self._resume_name = f"{self.name}.resume"

    @property
    def finished(self) -> bool:
        return self._finished

    def start(self, delay: int = 0) -> "Process":
        """Schedule the first step of the process ``delay`` ticks from now."""
        if self._started:
            raise RuntimeError(f"process {self.name} already started")
        self._started = True
        self.sim.schedule(delay, self._resume, name=self._start_name)
        return self

    def kill(self) -> None:
        """Terminate the generator by throwing :class:`ProcessExit` into it.

        A step already queued finds the process finished and does nothing.
        """
        if self._finished:
            return
        try:
            self._generator.throw(ProcessExit())
        except (ProcessExit, StopIteration):
            pass
        self._finish()

    # ------------------------------------------------------------------
    def _resume_soon(self, value: Any) -> None:
        """Resume at the current instant (still via the event loop)."""
        self._value = value
        self.sim.schedule(0, self._resume, name=self._resume_name)

    def _step(self) -> None:
        if self._finished:
            return
        value = self._value
        self._value = None
        try:
            command = self._send(value)
        except StopIteration:
            self._finish()
            return
        if isinstance(command, Timeout):
            self.sim.schedule(command.delay, self._resume, name=self._timeout_name)
        elif isinstance(command, WaitFor):
            if command._attach(self):
                # Already woken before we parked: resume with its value now.
                self._resume_soon(command._value)
        else:
            raise TypeError(
                f"process {self.name} yielded {command!r}; expected Timeout or WaitFor"
            )

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self._on_exit is not None:
            self._on_exit(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else ("running" if self._started else "new")
        return f"<Process {self.name} {state}>"
