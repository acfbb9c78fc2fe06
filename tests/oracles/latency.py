"""Reservoir-sampled latency recording: the HDR histogram's oracle.

:class:`LatencyRecorder` shares the histogram's quantile definition --
**nearest rank** (:func:`repro.metrics.hdr.nearest_rank`): ``P_q`` is
the sample at 1-based rank ``ceil(q/100 * N)`` of the sorted stream.
Below its reservoir size the recorder holds the whole stream, so its
percentiles are exact.

Inside :func:`reservoir_reference` every
:class:`~repro.metrics.collector.MetricsCollector` co-records into a
recorder of its own and freezes *its* mean and percentiles into the
:class:`~repro.metrics.collector.RunMetrics`.  Recording draws from the
recorder's own seeded ``random.Random`` and never touches simulation
state, so the run is bit-identical and only the latency estimator
changes::

    primary = run_scenario(spec)       # HDR quantiles
    with reservoir_reference():
        oracle = run_scenario(spec)    # exact quantiles
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator, List

from repro.metrics.collector import MetricsCollector
from repro.metrics.hdr import nearest_rank
from tests.oracles.reference import patched


class LatencyRecorder:
    """Reservoir-sampled latency distribution (nanosecond samples).

    Keeps an exact list up to ``reservoir_size`` samples, then switches
    to uniform reservoir sampling, so long runs stay O(1) in memory
    while percentiles remain statistically sound.
    """

    def __init__(self, reservoir_size: int = 4096, seed: int = 0) -> None:
        if reservoir_size <= 0:
            raise ValueError(f"reservoir_size must be positive, got {reservoir_size}")
        self.reservoir_size = reservoir_size
        self._samples: List[int] = []
        self._count = 0
        self._sum = 0
        self._max = 0
        self._rng = random.Random(seed)

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"latency must be >= 0, got {latency_ns}")
        self._count += 1
        self._sum += latency_ns
        self._max = max(self._max, latency_ns)
        if len(self._samples) < self.reservoir_size:
            self._samples.append(latency_ns)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.reservoir_size:
                self._samples[slot] = latency_ns

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def max(self) -> int:
        return self._max

    def percentile(self, q: float) -> int:
        """Nearest-rank percentile of the sampled distribution."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self._samples:
            return 0
        ordered = sorted(self._samples)
        return ordered[nearest_rank(q, len(ordered)) - 1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LatencyRecorder n={self._count} mean={self.mean():.0f}ns>"


def _recorder(collector: MetricsCollector) -> LatencyRecorder:
    return collector.__dict__.setdefault("reservoir", LatencyRecorder())


@contextmanager
def reservoir_reference() -> Iterator[None]:
    """Report every collector's latency summary from a reservoir oracle."""
    record_op = MetricsCollector.record_op
    latency_summary = MetricsCollector._latency_summary

    def recording(self, latency_ns=None, *args, **kwargs):
        record_op(self, latency_ns, *args, **kwargs)
        if latency_ns is not None:
            _recorder(self).record(latency_ns)

    def summary(self):
        fields = latency_summary(self)
        rec = _recorder(self)
        fields.update(
            mean_latency_ns=rec.mean(),
            p50_latency_ns=rec.percentile(50),
            p95_latency_ns=rec.percentile(95),
            p99_latency_ns=rec.percentile(99),
            p999_latency_ns=rec.percentile(99.9),
            p9999_latency_ns=rec.percentile(99.99),
            max_latency_ns=rec.max(),
        )
        return fields

    with patched([
        (MetricsCollector, "record_op", recording),
        (MetricsCollector, "_latency_summary", summary),
    ]):
        yield
