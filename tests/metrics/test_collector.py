"""Tests for the run-metrics collector."""

import pytest

from repro.core.policies import NoBgcPolicy, lazy_bgc_policy
from repro.host import HostSystem
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.sim.simtime import SECOND
from repro.ssd.config import SsdConfig
from repro.ssd.request import IoKind, IoRequest


def make_host(policy=None):
    return HostSystem(
        SsdConfig.small(blocks=128, pages_per_block=16), policy or NoBgcPolicy()
    )


def test_window_scoped_results():
    host = make_host()
    metrics = MetricsCollector(host, "unit")
    # Pre-window traffic.
    host.device.submit(IoRequest(IoKind.DIRECT_WRITE, 0, 4))
    host.run_for(SECOND)
    metrics.begin()

    def timed_request(lpn):
        req = IoRequest(IoKind.DIRECT_WRITE, lpn, 1)
        req.on_complete = lambda: metrics.record_op(req.latency())
        return req

    for index in range(10):
        host.sim.schedule(
            index * 1_000_000,
            lambda i=index: host.device.submit(timed_request(i)),
        )
    host.run_for(SECOND)
    metrics.end()
    result = metrics.results()
    assert isinstance(result, RunMetrics)
    assert result.workload == "unit"
    assert result.policy == "NO-BGC"
    assert result.duration_ns == SECOND
    assert result.iops == pytest.approx(10.0)
    assert result.host_pages_written == 10  # pre-window 4 pages excluded
    assert result.mean_latency_ns > 0
    assert result.p99_latency_ns >= result.mean_latency_ns / 2


def test_results_require_window():
    host = make_host()
    metrics = MetricsCollector(host, "unit")
    with pytest.raises(RuntimeError):
        metrics.results()


def test_accuracy_absent_for_non_predicting_policy():
    host = make_host(lazy_bgc_policy())
    metrics = MetricsCollector(host, "unit")
    metrics.begin()
    host.run_for(SECOND)
    metrics.end()
    assert metrics.results().prediction_accuracy_pct is None


def test_sip_filtered_pct_zero_without_selections():
    metrics = RunMetrics(
        policy="x", workload="y", duration_ns=1, iops=0, waf=1,
        host_pages_written=0, gc_pages_migrated=0, fgc_invocations=0,
        fgc_time_ns=0, bgc_blocks=0, erases=0,
    )
    assert metrics.sip_filtered_pct() == 0.0
    metrics.sip_selections = 10
    metrics.sip_filtered = 3
    assert metrics.sip_filtered_pct() == pytest.approx(30.0)
