"""The production event loop against the list-and-``min()`` reference.

Random schedules drive :class:`~repro.sim.engine.Simulator` and
:class:`~tests.oracles.ReferenceSimulator` side by side: nested
scheduling from callbacks, same-instant ties across all four
priorities, cancels before and after firing, ``stop()``,
``max_events`` and callbacks that raise.  Both kernels must fire the
same events in the same order and agree on ``now``, ``pending()``,
``peek_time()`` and ``dispatched`` after every call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from tests.oracles import ReferenceSimulator, reference_kernel

delays = st.integers(min_value=0, max_value=6)
priorities = st.sampled_from([int(p) for p in EventPriority])
targets = st.integers(min_value=0, max_value=63)
limits = st.none() | st.integers(min_value=0, max_value=8)

#: What a firing callback does next, consumed in firing order.
reactions = st.lists(
    st.tuples(
        st.sampled_from(["nothing", "schedule", "tie", "cancel", "stop", "raise"]),
        delays,
        priorities,
        targets,
    ),
    max_size=40,
)

#: What the test itself calls on the kernel.
calls = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), delays, priorities),
        st.tuples(st.just("run"), limits),
        st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=12), limits),
        st.tuples(st.just("step")),
        st.tuples(st.just("cancel"), targets),
    ),
    max_size=30,
)


class Boom(Exception):
    """Raised by a callback; the kernel must count the event anyway."""


def drive(sim, script, reaction_list):
    """Play ``script`` on ``sim``; returns everything observable."""
    log = []
    handles = []
    pending_reactions = list(reaction_list)

    def schedule(delay, priority):
        label = len(handles)
        handles.append(
            sim.schedule(delay, make_callback(label), priority=priority, name=f"e{label}")
        )

    def make_callback(label):
        def fire():
            log.append(("fire", label, sim.now))
            if not pending_reactions:
                return
            kind, delay, priority, target = pending_reactions.pop(0)
            if kind == "schedule":
                schedule(delay, priority)
            elif kind == "tie":
                schedule(delay, priority)
                schedule(delay, priority)
            elif kind == "cancel":
                sim.cancel(handles[target % len(handles)])
            elif kind == "stop":
                sim.stop()
            elif kind == "raise":
                raise Boom(label)

        return fire

    def observe(call, result):
        log.append((call, result, sim.now, sim.pending(), sim.peek_time(), sim.dispatched))

    for call in script:
        result = None
        try:
            if call[0] == "schedule":
                schedule(call[1], call[2])
            elif call[0] == "run":
                result = sim.run(max_events=call[1])
            elif call[0] == "run_until":
                result = sim.run_until(sim.now + call[1], max_events=call[2])
            elif call[0] == "step":
                result = sim.step()
            elif handles:
                sim.cancel(handles[call[1] % len(handles)])
                sim.cancel(handles[call[1] % len(handles)])  # idempotent
        except Boom as exc:
            result = ("raised", str(exc))
        observe(call, result)
    while True:  # drain what is left, past any raising callback
        try:
            observe(("drain",), sim.run())
            break
        except Boom as exc:
            observe(("drain",), ("raised", str(exc)))
    return log, [(h[0], h[1], h[2], h[4]) for h in handles]


@settings(max_examples=300, deadline=None)
@given(script=calls, reaction_list=reactions)
def test_random_schedules_match_reference_kernel(script, reaction_list):
    production = drive(Simulator(), script, reaction_list)
    reference = drive(ReferenceSimulator(), script, reaction_list)
    assert production == reference


def test_reference_kernel_patches_every_simulator():
    with reference_kernel():
        sim = Simulator()
        sim.schedule(3, lambda: None)
        assert sim._events and not hasattr(sim, "_heap")
        assert sim.run_until(5) == 1 and sim.now == 5
    assert hasattr(Simulator(), "_heap")


def test_power_cut_counts_live_events_on_both_kernels():
    for sim in (Simulator(), ReferenceSimulator()):
        events = [sim.schedule(i, lambda: None) for i in range(4)]
        sim.cancel(events[1])
        sim.run(max_events=1)
        sim.cancel(events[0])  # fired already: no effect on the count
        assert sim.power_cut() == 2
        assert sim.pending() == 0 and sim.peek_time() is None


def test_spent_event_budget_leaves_clock_at_last_fired_event():
    # run_until(t, max_events=k) returns as soon as k events fired, even
    # when the next one lies beyond t: the caller resumes from the last
    # fired event (the runner's wall-clock budget relies on this).
    for sim in (Simulator(), ReferenceSimulator()):
        sim.schedule(1, lambda: None)
        sim.schedule(10, lambda: None)
        assert sim.run_until(5, max_events=1) == 1
        assert sim.now == 1
        assert sim.run_until(5) == 0
        assert sim.now == 5
