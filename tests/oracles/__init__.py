"""Brute-force reference implementations of the simulator's hot paths.

Production keeps exactly one implementation per hot-path decision: the
page cache's expiry index, the predictor's incremental ``Dbuf``
histogram, the FTL's valid-count and SIP-overlap indexes, the NAND's
cached-int address probe, batched host-write extents and batched GC
migration.  The functions here answer the same questions by rescanning
public state, so the equivalence suites
(``tests/integration/test_hotpath_equivalence.py`` and friends) can
check every production answer against an obviously-correct one.

:func:`scan_reference` patches these oracles into the production
classes for the duration of a ``with`` block, which turns a whole
scenario run into its brute-force twin (bit-identical ``RunMetrics`` and
audit stream are the contract); :func:`reservoir_reference` does the
same for the latency summary.  ``benchmarks/bench_hotpaths.py`` times
the two sides against each other.  :func:`reference_kernel` runs every
simulator on :class:`ReferenceSimulator`, a list-and-``min()`` event
kernel, so whole runs can check the production event loop's ordering.

Nothing here imports pytest or hypothesis: the benchmark harness runs
with numpy alone.
"""

from tests.oracles.hotpaths import (
    check_addr,
    dbuf_scan,
    expired_dirty,
    greedy_select,
    has_victim,
    oldest_dirty,
    page_map_invariant_check,
    sip_filtered_select,
    sip_valid_pages,
)
from tests.oracles.kernel import ReferenceSimulator, reference_kernel
from tests.oracles.latency import LatencyRecorder, reservoir_reference
from tests.oracles.reference import scan_reference

__all__ = [
    "LatencyRecorder",
    "ReferenceSimulator",
    "check_addr",
    "dbuf_scan",
    "expired_dirty",
    "greedy_select",
    "has_victim",
    "oldest_dirty",
    "page_map_invariant_check",
    "reference_kernel",
    "reservoir_reference",
    "scan_reference",
    "sip_filtered_select",
    "sip_valid_pages",
]
