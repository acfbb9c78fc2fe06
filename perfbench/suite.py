"""The benchmark's workloads, the measured repetition and its checks.

One *repetition* runs every scenario of a workload once: build the host
stack and bring it to measurement-ready state (timed as set-up), open
the measurement window, advance simulated time one simulated second at
a time (each slice timed), close the window, then check the outputs
outside the timed region.  All repetitions of one workload and seed
simulate exactly the same thing, so their RunMetrics wire digests must
agree, traced or not.

Host time is reported *speed-corrected*.  The shared machines this
benchmark runs on change speed by a third and more over stretches of
seconds to minutes, which moved raw wall-clock figures 15-27 % between
runs of identical work.  Between slices (and around set-up) the
benchmark times a fixed reference kernel; each interval's raw host time
is scaled by :data:`REFERENCE_KERNEL_MS` over the kernel time measured
on either side of it, i.e. reported as the time the work would have
taken on a machine running the kernel in that long.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.experiments.fig7 import POLICY_ORDER
from repro.experiments.runner import ScenarioSpec
from repro.ftl.ftl import DeviceReadOnlyError
from repro.metrics.collector import RunMetrics
from repro.metrics.hdr import nearest_rank
from repro.sim.simtime import SECOND

from spans import LAYERS, SpanRecorder, SpanTable

#: Samples a reported percentile must have beyond it.
MIN_TAIL_SAMPLES = 10
#: Largest share of traced wall time allowed outside every root span.
MAX_UNATTRIBUTED_SHARE = 0.02
#: Host ms the reference kernel is scaled to (about its uncontended time
#: on the 2-vCPU Xeon VM the benchmark was tuned on).
REFERENCE_KERNEL_MS = 2.0


@dataclass(frozen=True)
class BenchWorkload:
    """One named workload: the scenarios a repetition runs, in order.

    Every scenario uses the default Fig 7 device of
    :class:`~repro.experiments.runner.ScenarioSpec` (1024 blocks x 64
    pages, 7 % over-provisioning) and the host's default page cache
    (a quarter of user capacity).
    """

    name: str
    workload: str
    policies: Tuple[str, ...]
    measure_s: int
    warm_start: str
    mapping: str = "dram"
    reliability: Optional[str] = None
    #: Layers (or single spans) that must record spans in the traced
    #: run; a silent one means a wrap was missed, which fails the run.
    active: Tuple[str, ...] = ()

    def specs(self, seed: int) -> List[ScenarioSpec]:
        return [
            ScenarioSpec(
                workload=self.workload,
                policy=policy,
                measure_s=self.measure_s,
                warm_start=self.warm_start,
                mapping=self.mapping,
                reliability=self.reliability,
                seed=seed,
            )
            for policy in self.policies
        ]


_COMMON_LAYERS = ("sim", "workloads", "oskernel", "core", "ssd", "ftl", "nand",
                  "metrics", "experiments")

WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            "ycsb-buffered", "YCSB", ("JIT-GC",), measure_s=40, warm_start="sim",
            active=_COMMON_LAYERS + ("host",),
        ),
        BenchWorkload(
            "tpcc-policies", "TPC-C", POLICY_ORDER, measure_s=60, warm_start="analytic",
            active=_COMMON_LAYERS + ("analytic",),
        ),
        BenchWorkload(
            "postmark-dftl", "Postmark", ("JIT-GC",), measure_s=60, warm_start="analytic",
            mapping="dftl", reliability="mlc-20nm",
            active=_COMMON_LAYERS + ("analytic", "ftl.cmt_touch", "nand.read_outcome"),
        ),
    )
}


@dataclass
class ScenarioRun:
    """One scenario of one repetition."""

    spec: ScenarioSpec
    #: Raw host time of set-up and of the window's slices.
    setup_s: float
    slice_ms: List[float]
    #: The same, speed-corrected by the reference kernel.
    norm_setup_s: float
    norm_slice_ms: List[float]
    kernel_ms: List[float]
    metrics: RunMetrics
    window_events: int
    window_ops: int
    lost_ops: int
    invariant_ok: bool
    errors: List[str]
    #: Span index range of the measurement window (traced runs only).
    span_window: Tuple[int, int] = (0, 0)


@dataclass
class Repetition:
    runs: List[ScenarioRun] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.runs)

    @property
    def window_s(self) -> float:
        return sum(sum(r.slice_ms) for r in self.runs) / 1e3

    @property
    def norm_setup_s(self) -> float:
        return sum(r.norm_setup_s for r in self.runs)

    @property
    def norm_window_s(self) -> float:
        return sum(sum(r.norm_slice_ms) for r in self.runs) / 1e3

    @property
    def norm_wall_s(self) -> float:
        return self.norm_setup_s + self.norm_window_s

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.window_s

    @property
    def sim_s(self) -> int:
        return sum(r.spec.measure_s for r in self.runs)

    @property
    def errors(self) -> List[str]:
        return [f"{r.spec.policy}: {e}" for r in self.runs for e in r.errors]

    @property
    def failed(self) -> int:
        return sum(
            r.lost_ops + r.metrics.uecc_count + r.metrics.uncorrectable_reads
            + (0 if r.invariant_ok else 1)
            for r in self.runs
        )

    @property
    def attempted(self) -> int:
        return sum(r.window_ops for r in self.runs) + self.failed

    def digest(self) -> str:
        """SHA-256 of every scenario's RunMetrics wire form."""
        wire = json.dumps([r.metrics.to_wire() for r in self.runs], sort_keys=True)
        return hashlib.sha256(wire.encode()).hexdigest()

    def by_policy(self, policy: str) -> RunMetrics:
        return next(r.metrics for r in self.runs if r.spec.policy == policy)


def _advance(host, target_ns: int) -> int:
    """Run the simulator to ``target_ns``; returns events lost to a
    read-only device (each raising event is consumed, so this ends)."""
    lost = 0
    while host.sim.now < target_ns:
        try:
            host.sim.run_until(target_ns)
        except DeviceReadOnlyError:
            lost += 1
    return lost


def _reference_kernel() -> int:
    """Fixed pure-Python work in the simulator's idiom (a heap, a dict,
    integer arithmetic).  It runs no program code, so no change to the
    program can make it faster or slower."""
    heap: List[int] = []
    table: Dict[int, int] = {}
    acc = 0
    for i in range(3000):
        heapq.heappush(heap, (i * 7919) % 1013)
        table[i % 257] = table.get(i % 131, 0) + i
        acc += i * i % 7
    while heap:
        heapq.heappop(heap)
    return acc


def _kernel_ms() -> float:
    start = perf_counter_ns()
    _reference_kernel()
    return (perf_counter_ns() - start) / 1e6


def _corrected(raw: float, kernel_before: float, kernel_after: float) -> float:
    return raw * 2.0 * REFERENCE_KERNEL_MS / (kernel_before + kernel_after)


def run_scenario(spec: ScenarioSpec, recorder: Optional[SpanRecorder] = None) -> ScenarioRun:
    """Set up, measure in 1-sim-s slices, then check one scenario."""
    kernel = [_kernel_ms()]
    t0 = perf_counter()
    # Looked up on the module so a traced run sees its wrapped version.
    host, collector, workload, _ = runner.build_preconditioned_host(spec)
    t1 = perf_counter()
    kernel.append(_kernel_ms())
    sim = host.sim
    collector.begin()
    events0 = sim.dispatched
    span_lo = len(recorder) if recorder is not None else 0
    slices: List[float] = []
    lost = 0
    for _ in range(spec.measure_s):
        s0 = perf_counter()
        lost += _advance(host, sim.now + SECOND)
        slices.append((perf_counter() - s0) * 1e3)
        kernel.append(_kernel_ms())
    collector.end()
    workload.stop()
    span_hi = len(recorder) if recorder is not None else 0
    metrics = collector.results()
    errors = []
    try:
        host.ftl.invariant_check()
    except AssertionError as exc:
        errors.append(f"invariant_check failed: {exc}")
    return ScenarioRun(
        spec=spec,
        setup_s=t1 - t0,
        slice_ms=slices,
        norm_setup_s=_corrected(t1 - t0, kernel[0], kernel[1]),
        norm_slice_ms=[
            _corrected(ms, before, after)
            for ms, before, after in zip(slices, kernel[1:], kernel[2:])
        ],
        kernel_ms=kernel,
        metrics=metrics,
        window_events=sim.dispatched - events0,
        window_ops=collector.iops_meter.window_ops(),
        lost_ops=lost,
        invariant_ok=not errors,
        errors=errors + _output_errors(host, metrics),
        span_window=(span_lo, span_hi),
    )


def _output_errors(host, metrics: RunMetrics) -> List[str]:
    """Output checks besides the invariant (empty when all pass)."""
    errors = []
    if host.ftl.read_only:
        errors.append("device went read-only")
    hist = metrics.latency_histogram()
    count = hist.count if hist is not None else 0
    for q in (50.0, 99.9):
        beyond = count - nearest_rank(q, count)
        if beyond < MIN_TAIL_SAMPLES:
            errors.append(f"p{q:g} has {beyond} samples beyond it (< {MIN_TAIL_SAMPLES})")
    return errors


def run_repetition(
    bench: BenchWorkload, seed: int, recorder: Optional[SpanRecorder] = None
) -> Repetition:
    return Repetition([run_scenario(spec, recorder) for spec in bench.specs(seed)])


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def _time_weighted_quantile(slice_ms: Sequence[float], q: float) -> float:
    """The slice time at or below which share ``q`` of all host time is
    spent.  Weighting by host time keeps a duty-cycled workload's many
    near-idle slices from deciding the figure: an unweighted median of
    YCSB's slices sits on the boundary between its quiet and busy
    seconds and flips between them from run to run."""
    ordered = sorted(slice_ms)
    target = q * sum(ordered)
    seen = 0.0
    for ms in ordered:
        seen += ms
        if seen >= target:
            return ms
    return ordered[-1]


def end_to_end(reps: List[Repetition], peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric of a set of identical repetitions.

    Host-time figures are speed-corrected (see the module docstring) and
    are medians over repetitions; the slice percentiles use each slice's
    median over repetitions (slice ``i`` is the same work in every
    repetition).  Simulated figures come from the JIT-GC scenario
    (identical in every repetition).
    """
    per_rep = [[ms for run in rep.runs for ms in run.norm_slice_ms] for rep in reps]
    typical = [statistics.median(column) for column in zip(*per_rep)]
    host_pages = sum(r.metrics.host_pages_written for r in reps[0].runs)
    jit = reps[0].by_policy("JIT-GC")
    return {
        "sim_s_per_wall_s": statistics.median(rep.sim_s / rep.norm_window_s for rep in reps),
        "host_pages_per_wall_s": statistics.median(host_pages / rep.norm_window_s for rep in reps),
        "wall_s": statistics.median(rep.norm_wall_s for rep in reps),
        "setup_s": statistics.median(rep.norm_setup_s for rep in reps),
        "peak_rss_mb": peak_rss_mb,
        "wall_ms_per_sim_s_p50": _time_weighted_quantile(typical, 0.50),
        "wall_ms_per_sim_s_p90": _time_weighted_quantile(typical, 0.90),
        "sim_iops": jit.iops,
        "sim_waf": jit.waf,
        "sim_p50_latency_ms": jit.p50_latency_ns / 1e6,
        "sim_p999_latency_ms": jit.p999_latency_ns / 1e6,
    }


def raw_host_time(reps: List[Repetition]) -> Dict[str, float]:
    """Uncorrected counterparts of the headline host-time figures, and
    the median reference-kernel time, for the human-readable report."""
    return {
        "raw_sim_s_per_wall_s": statistics.median(rep.sim_s / rep.window_s for rep in reps),
        "raw_setup_s": statistics.median(rep.setup_s for rep in reps),
        "kernel_ms": statistics.median(
            ms for rep in reps for run in rep.runs for ms in run.kernel_ms
        ),
    }


def policy_ratios(rep: Repetition) -> Dict[str, float]:
    """The Fig 7 row ratios (only for workloads running all four policies)."""
    jit, lbgc, abgc = (rep.by_policy(p) for p in ("JIT-GC", "L-BGC", "A-BGC"))
    return {
        "jit_iops_vs_lbgc": jit.iops / lbgc.iops,
        "jit_waf_vs_abgc": jit.waf / abgc.waf,
        "jit_iops_vs_abgc": jit.iops / abgc.iops,
    }


#: The paper's Fig 7 figures the TPC-C row is printed against.
PAPER_REFERENCE = {
    "jit_iops_vs_abgc": (0.72, "JIT-GC at ~72 % of A-BGC IOPS on TPC-C"),
    "jit_iops_vs_lbgc": (2.82, "+182 % IOPS over L-BGC (mean of six benchmarks)"),
    "jit_waf_vs_abgc": (0.56, "-44 % WAF vs A-BGC (mean of six benchmarks)"),
}


# ----------------------------------------------------------------------
# Per-layer metrics of the traced repetition
# ----------------------------------------------------------------------
def layer_metrics(
    bench: BenchWorkload,
    rep: Repetition,
    recorder: SpanRecorder,
    untraced: Repetition,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics and the span <-> counter cross-check errors.

    Span-derived figures cover the whole traced repetition (set-up and
    window); figures read off RunMetrics cover the measurement windows.
    """
    frame = recorder.frame()
    whole = SpanTable(frame, recorder.names, [(0, len(recorder))])
    window = SpanTable(frame, recorder.names, [run.span_window for run in rep.runs])
    traced_ns = rep.wall_s * 1e9
    m = [run.metrics for run in rep.runs]
    jit = rep.by_policy("JIT-GC")
    ppb = rep.runs[0].spec.pages_per_block

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    read_outcomes = whole.calls("nand.read_outcome")
    gc_window = window.calls("ftl.collect_one_block")
    migrated = sum(x.gc_pages_migrated for x in m)
    moved = migrated + sum(x.trans_pages_migrated for x in m)
    out = {
        "sim.events": whole.tallied("sim.run_until"),
        "sim.self_ms": whole.layer_self_ms("sim"),
        "sim.ns_per_event": ratio(whole.layer_self_ms("sim") * 1e6, whole.tallied("sim.run_until")),
        "workloads.ops": whole.calls("metrics.record_op"),
        "workloads.self_ms": whole.layer_self_ms("workloads"),
        "oskernel.dispatch_calls": whole.calls(
            "oskernel.write", "oskernel.read", "oskernel.fsync", "oskernel.trim"
        ),
        "oskernel.self_ms": whole.layer_self_ms("oskernel"),
        "oskernel.cache_self_ms": whole.self_ms(
            "oskernel.cache.write_page", "oskernel.cache.read_page"
        ),
        "oskernel.cache_read_hit_ratio": ratio(
            whole.tallied("oskernel.cache.read_page"), whole.calls("oskernel.cache.read_page")
        ),
        "oskernel.flush_calls": whole.calls("oskernel.flush_once"),
        "oskernel.flush_self_ms": whole.self_ms("oskernel.flush_once"),
        "oskernel.pages_flushed": whole.tallied("oskernel.flush_once"),
        "core.predict_calls": whole.calls("core.buffered_predict", "core.direct_predict"),
        "core.self_ms": whole.layer_self_ms("core"),
        "core.bgc_decision_ratio": ratio(whole.tallied("core.decide"), whole.calls("core.decide")),
        "core.prediction_accuracy_pct": jit.prediction_accuracy_pct or 0.0,
        "core.sip_filtered_pct": jit.sip_filtered_pct(),
        "ssd.submits": whole.calls("ssd.submit"),
        "ssd.self_ms": whole.layer_self_ms("ssd"),
        "ssd.fgc_invocations": sum(x.fgc_invocations for x in m),
        "ssd.fgc_sim_ms": sum(x.fgc_time_ns for x in m) / 1e6,
        "ssd.bgc_blocks": sum(x.bgc_blocks for x in m),
        "ftl.write_calls": whole.calls("ftl.host_write_page", "ftl.host_write_extent"),
        "ftl.read_calls": whole.calls("ftl.host_read_page"),
        "ftl.self_ms": whole.layer_self_ms("ftl"),
        "ftl.gc_calls": whole.calls("ftl.collect_one_block"),
        "ftl.gc_self_ms": whole.self_ms("ftl.collect_one_block"),
        "ftl.gc_pages_migrated": migrated,
        "ftl.gc_useful_ratio": ratio(gc_window * ppb - moved, gc_window * ppb),
        "ftl.victim_self_ms": whole.self_ms("ftl.victim_select"),
        "ftl.cmt_hit_ratio": ratio(whole.tallied("ftl.cmt_touch"), whole.calls("ftl.cmt_touch")),
        "ftl.trans_pages_written": sum(x.trans_pages_written for x in m),
        "ftl.scrub_self_ms": whole.self_ms("ftl.maybe_scrub"),
        "nand.reads": whole.calls("nand.read_page") + whole.tallied("nand.read_pages_batch"),
        "nand.programs": whole.calls("nand.program_page")
        + whole.tallied("nand.program_pages_batch"),
        "nand.erases": whole.calls("nand.erase_block"),
        "nand.self_ms": whole.layer_self_ms("nand"),
        "nand.reliability_self_ms": whole.self_ms("nand.read_outcome"),
        "nand.ecc_fast_ratio": ratio(whole.tallied("nand.read_outcome"), read_outcomes),
        "metrics.records": whole.calls("metrics.hdr_record"),
        "metrics.self_ms": whole.layer_self_ms("metrics"),
        "analytic.synth_self_ms": whole.self_ms("analytic.synthesize_steady_state"),
        "host.prefill_self_ms": whole.self_ms("host.prefill"),
        "experiments.self_ms": whole.layer_self_ms("experiments"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = whole.layer_self_ms(layer) * 1e6 / traced_ns
    out["trace.overhead_pct"] = 100.0 * (rep.norm_wall_s / untraced.norm_wall_s - 1.0)
    out["trace.unattributed_share"] = 1.0 - whole.root_ns / traced_ns

    errors = []

    def expect(label: str, spans: int, counter: int) -> None:
        if spans != counter:
            errors.append(f"cross-check {label}: spans {spans} != program counter {counter}")

    expect("sim.events (window)", window.tallied("sim.run_until"),
           sum(run.window_events for run in rep.runs))
    expect("nand.programs (window)",
           window.calls("nand.program_page") + window.tallied("nand.program_pages_batch"),
           sum(x.host_pages_written + x.gc_pages_migrated + x.trans_pages_written
               + x.trans_pages_migrated for x in m))
    expect("nand.erases (window)", window.calls("nand.erase_block"), sum(x.erases for x in m))
    expect("workloads.ops (window)", window.calls("metrics.record_op"),
           sum(round(x.iops * x.duration_ns / SECOND) for x in m))
    for prefix in bench.active:
        if whole.calls_under(prefix) == 0:
            errors.append(f"{prefix} recorded no spans: its wall share is unattributed")
    if out["trace.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        errors.append(
            f"{out['trace.unattributed_share']:.3%} of traced wall time is outside every span"
        )
    return out, errors
