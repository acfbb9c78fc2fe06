"""Span recording around the simulator's layer boundaries, from outside.

The traced run wraps the public entry points of each layer (the
:data:`BOUNDARIES` table) at *class* level, before any host is built:
several hot paths resolve their callees once at construction, and a
wrap applied to an instance afterwards would silently miss those calls.
Subclasses that override a wrapped method are wrapped too, so an
override cannot escape the trace either.

Each wrapped call records one span: name, parent span, start and end
(``perf_counter_ns``) and an integer tally read off the call (events
dispatched, pages flushed, cache hit, ...).  Spans live in flat
``array`` columns in memory and are written out once, after the run.
A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: What a wrapped call contributes to its span's tally:
#: ``(args, kwargs, result) -> int``.
Tally = Callable[[tuple, dict, object], int]


def _result(args, kwargs, result) -> int:
    return int(result)


def _hit(args, kwargs, result) -> int:
    return 1 if result else 0


def _arg(position: int, keyword: str) -> Tally:
    def tally(args, kwargs, result) -> int:
        return int(kwargs[keyword] if keyword in kwargs else args[position])

    return tally


#: ``(span name, module, owner, attribute, tally)``.  ``owner`` names a
#: class of ``module`` (wrapped with every subclass that overrides the
#: attribute) or is None for a module-level function.  The layer is the
#: span name's first component.
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], str, Optional[Tally]], ...] = (
    ("sim.run_until", "repro.sim.engine", "Simulator", "run_until", _result),
    ("oskernel.write", "repro.oskernel.iopath", "IoDispatcher", "write", None),
    ("oskernel.read", "repro.oskernel.iopath", "IoDispatcher", "read", None),
    ("oskernel.fsync", "repro.oskernel.iopath", "IoDispatcher", "fsync", None),
    ("oskernel.trim", "repro.oskernel.iopath", "IoDispatcher", "trim", None),
    ("oskernel.cache.write_page", "repro.oskernel.cache", "PageCache", "write_page", None),
    ("oskernel.cache.read_page", "repro.oskernel.cache", "PageCache", "read_page", _hit),
    ("oskernel.flush_once", "repro.oskernel.flusher", "FlusherThread", "flush_once", _result),
    ("core.buffered_predict", "repro.core.buffered_predictor", "BufferedWritePredictor",
     "predict", None),
    ("core.direct_predict", "repro.core.direct_predictor", "DirectWritePredictor",
     "predict", None),
    ("core.decide", "repro.core.manager", "JitGcManager", "decide",
     lambda args, kwargs, result: 1 if result.invokes_bgc else 0),
    ("ssd.submit", "repro.ssd.device", "SsdDevice", "submit", None),
    ("ssd.kick_bgc", "repro.ssd.device", "SsdDevice", "kick_bgc", None),
    ("ftl.host_write_page", "repro.ftl.ftl", "PageMappedFtl", "host_write_page", None),
    ("ftl.host_write_extent", "repro.ftl.ftl", "PageMappedFtl", "host_write_extent", None),
    ("ftl.host_read_page", "repro.ftl.ftl", "PageMappedFtl", "host_read_page", None),
    ("ftl.trim", "repro.ftl.ftl", "PageMappedFtl", "trim", None),
    ("ftl.collect_one_block", "repro.ftl.ftl", "PageMappedFtl", "collect_one_block", None),
    ("ftl.maybe_scrub", "repro.ftl.ftl", "PageMappedFtl", "maybe_scrub", None),
    ("ftl.set_sip_list", "repro.ftl.ftl", "PageMappedFtl", "set_sip_list", None),
    ("ftl.victim_select", "repro.ftl.victim", "VictimSelector", "select", None),
    ("ftl.cmt_touch", "repro.ftl.mapping", "CachedPageMap", "cmt_touch",
     lambda args, kwargs, result: 1 if result[0] else 0),
    ("nand.read_page", "repro.nand.array", "NandArray", "read_page", None),
    ("nand.program_page", "repro.nand.array", "NandArray", "program_page", None),
    ("nand.erase_block", "repro.nand.array", "NandArray", "erase_block", None),
    ("nand.read_pages_batch", "repro.nand.array", "NandArray", "read_pages_batch",
     _arg(2, "count")),
    ("nand.program_pages_batch", "repro.nand.array", "NandArray", "program_pages_batch",
     _arg(3, "count")),
    ("nand.read_outcome", "repro.nand.reliability", "ReliabilityModel", "read_outcome",
     lambda args, kwargs, result: 1 if result.level == 0 and not result.soft else 0),
    ("metrics.record_op", "repro.metrics.collector", "MetricsCollector", "record_op", None),
    ("metrics.hdr_record", "repro.metrics.hdr", "HdrHistogram", "record", None),
    ("analytic.synthesize_steady_state", "repro.analytic.warmstart", None,
     "synthesize_steady_state", None),
    ("host.prefill", "repro.host", "HostSystem", "prefill", None),
    ("experiments.build_preconditioned_host", "repro.experiments.runner", None,
     "build_preconditioned_host", None),
)

#: Span name of one workload-actor generator resume.
ACTOR_SPAN = "workloads.actor_resume"

#: Every layer, in report order.
LAYERS = (
    "sim", "workloads", "oskernel", "core", "ssd", "ftl", "nand",
    "metrics", "analytic", "host", "experiments",
)


class SpanRecorder:
    """Columnar in-memory span store plus the class-level patches."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tally = array("q")
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def timed(self, name: str, fn: Callable, tally: Optional[Tally] = None) -> Callable:
        """``fn`` wrapped so that each call records one ``name`` span."""
        nid = self._intern(name)
        stack = self._stack
        names, parents, starts, ends, tallies = (
            self.name, self.parent, self.start, self.end, self.tally
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            tallies.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if tally is not None:
                tallies[index] = tally(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every boundary (classes and their overriding subclasses)."""
        # Import every module that defines a subclass of a wrapped class,
        # so the subclass walk below sees all of them.
        importlib.import_module("repro.core.policies")
        importlib.import_module("repro.workloads")
        for name, module_name, owner_name, attr, tally in BOUNDARIES:
            module = importlib.import_module(module_name)
            if owner_name is None:
                self._patch(module, attr, self.timed(name, getattr(module, attr), tally))
                continue
            for cls in _overriding(getattr(module, owner_name), attr):
                self._patch(cls, attr, self.timed(name, cls.__dict__[attr], tally))
        workload_base = importlib.import_module("repro.workloads.base").Workload
        for cls in _overriding(workload_base, "build_actors"):
            self._patch(cls, "build_actors", self._timed_actors(cls.__dict__["build_actors"]))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, replacement)

    def _timed_actors(self, build_actors: Callable) -> Callable:
        recorder = self

        @functools.wraps(build_actors)
        def wrapper(workload):
            return [_TimedActor(actor, recorder) for actor in build_actors(workload)]

        return wrapper

    # ------------------------------------------------------------------
    def frame(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns, with self time (ns) computed."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        has_parent = parent >= 0
        child_cover = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": parent,
            "dur": dur,
            "self": dur - child_cover.astype(np.int64),
            "tally": np.frombuffer(self.tally, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Write the raw spans (and the name table) as one ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            tally=np.frombuffer(self.tally, dtype=np.int64),
        )


class _TimedActor:
    """A workload-actor generator whose every resume is one span.

    :class:`repro.sim.process.Process` drives actors only through
    ``send`` and ``throw``, so those are the methods proxied.
    """

    __slots__ = ("_send", "throw", "close")

    def __init__(self, generator, recorder: SpanRecorder) -> None:
        self._send = recorder.timed(ACTOR_SPAN, generator.send)
        self.throw = generator.throw
        self.close = generator.close

    def send(self, value):
        return self._send(value)


def _overriding(base: type, attr: str) -> Iterable[type]:
    """``base`` and every (transitive) subclass defining ``attr`` itself."""
    seen, todo, out = set(), [base], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class SpanTable:
    """Per-name aggregates over ``[lo, hi)`` ranges of span indices."""

    def __init__(
        self,
        frame: Dict[str, np.ndarray],
        names: List[str],
        ranges: Iterable[Tuple[int, int]],
    ) -> None:
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        picked = np.concatenate(
            [np.arange(lo, hi) for lo, hi in ranges] or [np.zeros(0, dtype=np.int64)]
        )
        ids = frame["name"][picked]
        width = len(names)
        self.count = np.bincount(ids, minlength=width)
        self.self_ns = np.bincount(ids, weights=frame["self"][picked], minlength=width)
        self.tally_sum = np.bincount(ids, weights=frame["tally"][picked], minlength=width)
        roots = frame["parent"][picked] < 0
        self.root_ns = int(frame["dur"][picked][roots].sum())

    def _get(self, column: np.ndarray, names: Iterable[str]) -> float:
        return float(sum(column[self._index[n]] for n in names if n in self._index))

    def calls(self, *names: str) -> int:
        return int(self._get(self.count, names))

    def tallied(self, *names: str) -> int:
        return int(self._get(self.tally_sum, names))

    def self_ms(self, *names: str) -> float:
        return self._get(self.self_ns, names) / 1e6

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return self.self_ms(*[n for n in self._names if n.startswith(prefix)])

    def calls_under(self, prefix: str) -> int:
        """Calls of span ``prefix`` and of every span named under it."""
        return self.calls(
            *[n for n in self._names if n == prefix or n.startswith(prefix + ".")]
        )
