"""Whole runs on the production event loop vs the reference kernel.

The hot-path equivalence suites compare two FTL/cache paths that run on
the *same* kernel, so an ordering bug in the kernel itself would pass
them.  Here every simulator of a run is swapped for the list-and-
``min()`` :class:`~tests.oracles.ReferenceSimulator` inside
:func:`~tests.oracles.reference_kernel`, and the run must reproduce the
production run exactly: ``RunMetrics`` wire form and the decision-audit
stream.
"""

import numpy as np

from repro.experiments.crashsweep import run_scenario_with_spo
from repro.experiments.runner import ScenarioSpec, _run_scenario_host
from repro.faults.powerloss import PowerLossEmulator, SpoPlan
from repro.obs import ObservabilityConfig
from repro.sim.simtime import SECOND
from tests.oracles import reference_kernel
from tests.oracles.reference import patched

AUDIT_OBS = ObservabilityConfig(audit=True, metrics_interval_ns=0)

_STREAMS = (
    "manager_ticks", "victim_selections", "faults", "recoveries", "checkpoints",
    "gc_spans", "backpressure_spans", "mapping_fault_spans",
)


def audit_stream(audit):
    return {name: list(getattr(audit, name)) for name in _STREAMS}


def run_with_audit(spec):
    metrics, host = _run_scenario_host(spec)
    return metrics.to_wire(), audit_stream(host.obs.audit), host.sim.dispatched


def test_ycsb_sim_warm_start_matches_reference_kernel():
    spec = ScenarioSpec(
        workload="YCSB", policy="JIT-GC", blocks=128, pages_per_block=32,
        warmup_s=5, measure_s=10, seed=5, obs=AUDIT_OBS,
    )
    production = run_with_audit(spec)
    with reference_kernel():
        reference = run_with_audit(spec)
    assert production == reference
    assert production[1]["manager_ticks"] and production[1]["gc_spans"]


def test_tpcc_lbgc_matches_reference_kernel():
    spec = ScenarioSpec(
        workload="TPC-C", policy="L-BGC", blocks=128, pages_per_block=32,
        measure_s=10, warm_start="analytic", seed=6, obs=AUDIT_OBS,
    )
    production = run_with_audit(spec)
    with reference_kernel():
        reference = run_with_audit(spec)
    assert production == reference
    assert production[1]["victim_selections"]


def run_spo(spec, plan):
    """An SPO run, plus the audit stream of each host at its power cut."""
    audits = []
    cut_power = PowerLossEmulator.cut_power

    def spy(emulator, host):
        audits.append(audit_stream(host.obs.audit))
        return cut_power(emulator, host)

    with patched([(PowerLossEmulator, "cut_power", spy)]):
        outcome = run_scenario_with_spo(spec, plan)
    cuts = [(cut.t_ns, cut.torn, cut.events_dropped) for cut in outcome.cuts]
    phases = [phase.to_wire() for phase in outcome.phases]
    reports = [
        {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(r).items()}
        for r in outcome.reports
    ]
    return outcome.metrics.to_wire(), phases, cuts, reports, audits


def test_postmark_dftl_reliability_power_cut_matches_reference_kernel():
    spec = ScenarioSpec(
        workload="Postmark", policy="JIT-GC", blocks=128, pages_per_block=32,
        measure_s=8, warm_start="analytic", mapping="dftl", reliability="mlc-20nm",
        seed=8, obs=AUDIT_OBS,
    )
    plan = SpoPlan(at_ns=(4 * SECOND,))
    production = run_spo(spec, plan)
    with reference_kernel():
        reference = run_spo(spec, plan)
    assert production == reference
    metrics, _phases, cuts, _reports, audits = production
    assert metrics["spo_count"] == 1 and len(cuts) == 1 and cuts[0][2] > 0
    assert audits[0]["mapping_fault_spans"]
