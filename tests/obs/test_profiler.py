"""Tests for the wall-clock event-loop profiler."""

from repro.experiments.runner import ScenarioSpec, _run_scenario_host
from repro.obs import ObservabilityConfig
from repro.obs.profiler import LoopProfiler
from repro.sim.engine import Simulator


def test_record_accumulates_per_label():
    profiler = LoopProfiler()
    profiler.record("flusher.wake", 1_000)
    profiler.record("flusher.wake", 3_000)
    profiler.record("device.complete", 500)
    assert profiler.counts == {"flusher.wake": 2, "device.complete": 1}
    assert profiler.wall_ns == {"flusher.wake": 4_000, "device.complete": 500}
    assert profiler.total_events() == 3
    assert profiler.total_wall_ns() == 4_500


def test_rows_sorted_by_wall_time_with_top():
    profiler = LoopProfiler()
    profiler.record("cheap", 100)
    profiler.record("hot", 9_000)
    profiler.record("warm", 2_000)
    rows = profiler.rows()
    assert [r[0] for r in rows] == ["hot", "warm", "cheap"]
    # (label, count, wall_ns, mean_us)
    assert rows[0] == ("hot", 1, 9_000, 9.0)
    assert [r[0] for r in profiler.rows(top=1)] == ["hot"]


def test_format_report_shape():
    profiler = LoopProfiler()
    profiler.record("manager.tick", 2_000_000)
    report = profiler.format()
    lines = report.splitlines()
    assert lines[0].startswith("event-loop profile: 1 events")
    assert "manager.tick" in report
    assert "count" in lines[1] and "wall ms" in lines[1]


def test_simulator_times_named_events():
    sim = Simulator()
    profiler = LoopProfiler()
    sim.set_profiler(profiler)
    for t in (10, 20):
        sim.schedule_at(t, lambda: None, name="tick")
    sim.schedule_at(30, lambda: None)  # unnamed: falls back to __qualname__
    sim.run()
    assert profiler.counts["tick"] == 2
    assert profiler.total_events() == 3
    assert all(ns >= 0 for ns in profiler.wall_ns.values())


def test_simulator_profiler_detach():
    sim = Simulator()
    profiler = LoopProfiler()
    sim.set_profiler(profiler)
    assert sim.profiler is profiler
    sim.schedule_at(1, lambda: None, name="a")
    sim.run()
    sim.set_profiler(None)
    assert sim.profiler is None
    sim.schedule_at(2, lambda: None, name="b")
    sim.run()
    assert profiler.counts == {"a": 1}


def test_profiler_labels_of_a_workload_run_are_pinned():
    # The per-event labels --profile reports: process steps are named
    # after their process, device and dispatcher events after the site.
    spec = ScenarioSpec(
        workload="YCSB", blocks=64, pages_per_block=16, warmup_s=1, measure_s=2, seed=3,
        obs=ObservabilityConfig(profile=True, metrics_interval_ns=0),
    )
    _metrics, host = _run_scenario_host(spec)
    labels = set(host.obs.profiler.counts)
    for label in ("YCSB[0].start", "YCSB[0].timeout", "YCSB[0].resume",
                  "YCSB[1].resume", "ssd.complete", "iopath.read_hit",
                  "iopath.buffered_done"):
        assert label in labels
    assert host.obs.profiler.total_events() == host.sim.dispatched
