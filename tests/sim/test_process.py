"""Tests for generator-based processes (Timeout / WaitFor semantics)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Process, ProcessExit, Timeout, WaitFor


def test_timeout_sequencing():
    sim = Simulator()
    trace = []

    def actor():
        trace.append(("start", sim.now))
        yield Timeout(10)
        trace.append(("mid", sim.now))
        yield Timeout(5)
        trace.append(("end", sim.now))

    Process(sim, actor()).start()
    sim.run()
    assert trace == [("start", 0), ("mid", 10), ("end", 15)]


def test_start_delay():
    sim = Simulator()
    trace = []

    def actor():
        trace.append(sim.now)
        yield Timeout(1)

    Process(sim, actor()).start(delay=7)
    sim.run()
    assert trace == [7]


def test_waitfor_blocks_until_woken():
    sim = Simulator()
    trace = []
    waiter = WaitFor()

    def actor():
        result = yield waiter
        trace.append((sim.now, result))

    Process(sim, actor()).start()
    sim.schedule(25, lambda: waiter.wake("payload"))
    sim.run()
    assert trace == [(25, "payload")]


def test_waitfor_woken_before_yield():
    """Completion may land before the process parks; value must not be lost."""
    sim = Simulator()
    trace = []
    waiter = WaitFor()
    waiter.wake(99)

    def actor():
        result = yield waiter
        trace.append(result)

    Process(sim, actor()).start()
    sim.run()
    assert trace == [99]


def test_waitfor_double_wake_raises():
    waiter = WaitFor()
    waiter.wake()
    with pytest.raises(RuntimeError):
        waiter.wake()


def test_process_finishes_and_callback():
    sim = Simulator()
    exited = []

    def actor():
        yield Timeout(1)

    proc = Process(sim, actor(), on_exit=exited.append)
    proc.start()
    sim.run()
    assert proc.finished
    assert exited == [proc]


def test_kill_stops_process():
    sim = Simulator()
    trace = []

    def actor():
        try:
            while True:
                yield Timeout(10)
                trace.append(sim.now)
        except ProcessExit:
            trace.append("killed")
            raise

    proc = Process(sim, actor()).start()
    sim.run_until(35)
    proc.kill()
    sim.run()
    assert trace == [10, 20, 30, "killed"]
    assert proc.finished


def test_double_start_rejected():
    sim = Simulator()

    def actor():
        yield Timeout(1)

    proc = Process(sim, actor())
    proc.start()
    with pytest.raises(RuntimeError):
        proc.start()


def test_bad_yield_type_raises():
    sim = Simulator()

    def actor():
        yield "nonsense"

    Process(sim, actor()).start()
    with pytest.raises(TypeError):
        sim.run()


def test_two_processes_interleave():
    sim = Simulator()
    trace = []

    def actor(name, period):
        for _ in range(3):
            yield Timeout(period)
            trace.append((name, sim.now))

    Process(sim, actor("a", 10)).start()
    Process(sim, actor("b", 15)).start()
    sim.run()
    # At t=30 both fire; b's timeout was scheduled earlier (t=15 vs t=20)
    # so FIFO tie-breaking runs b first.
    assert trace == [
        ("a", 10),
        ("b", 15),
        ("a", 20),
        ("b", 30),
        ("a", 30),
        ("b", 45),
    ]


def test_wake_values_reach_each_yield_and_timeouts_send_none():
    # The wake value waits on the process until its resume runs; a later
    # timeout resume must not see a stale one.
    sim = Simulator()
    waiters = [WaitFor(), WaitFor()]
    seen = []

    def actor():
        seen.append((yield waiters[0]))
        seen.append((yield Timeout(3)))
        seen.append((yield waiters[1]))

    Process(sim, actor()).start()
    sim.schedule(5, lambda: waiters[0].wake("first"))
    sim.schedule(20, lambda: waiters[1].wake({"second": 2}))
    sim.run()
    assert seen == ["first", None, {"second": 2}]


def test_kill_makes_an_already_queued_resume_a_no_op():
    sim = Simulator()
    waiter = WaitFor()
    trace = []

    def actor():
        try:
            trace.append((yield waiter))
        except ProcessExit:
            trace.append("killed")
        # Reached only if something resumed the process after its kill.
        trace.append((yield Timeout(1)))

    proc = Process(sim, actor()).start()
    sim.run()
    waiter.wake("late")  # queues the resume ...
    assert sim.pending() == 1
    proc.kill()  # ... which must then find the process finished
    assert sim.run() == 1
    assert trace == ["killed"]
    assert proc.finished


def test_processes_woken_at_one_instant_resume_in_wake_order():
    sim = Simulator()
    waiters = {name: WaitFor() for name in "abc"}
    order = []

    def actor(name):
        yield waiters[name]
        order.append((name, sim.now))

    for name in "abc":
        Process(sim, actor(name), name=name).start()

    def wake_all():
        for name in "cab":
            waiters[name].wake()

    sim.schedule(9, wake_all)
    sim.run()
    assert order == [("c", 9), ("a", 9), ("b", 9)]


class SendThrowProxy:
    """A generator stand-in offering only ``send`` and ``throw``, the
    way a tracing wrapper around a workload actor does."""

    __slots__ = ("_generator", "calls")

    def __init__(self, generator):
        self._generator = generator
        self.calls = 0

    def send(self, value):
        self.calls += 1
        return self._generator.send(value)

    def throw(self, exc):
        return self._generator.throw(exc)


def test_process_runs_a_send_throw_only_proxy():
    sim = Simulator()
    waiter = WaitFor()
    trace = []

    def actor():
        trace.append((yield Timeout(4)))
        trace.append((yield waiter))
        while True:
            yield Timeout(10)
            trace.append(sim.now)

    proxy = SendThrowProxy(actor())
    proc = Process(sim, proxy, name="proxied").start()
    sim.schedule(6, lambda: waiter.wake("woken"))
    sim.run_until(30)
    proc.kill()
    sim.run()
    assert trace == [None, "woken", 16, 26]
    assert proxy.calls == 5
    assert proc.finished
