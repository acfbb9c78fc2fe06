"""Brute-force oracles for the page-cache, predictor, NAND and FTL hot paths.

Each function rescans state the production object exposes and returns
what the matching production method must return.  They are the
simulator's original full-scan implementations, kept as free functions
so that production carries a single path.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.core.buffered_predictor import BufferedPrediction, BufferedWritePredictor
from repro.core.sip import SipList
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.mapping import UNMAPPED, PageMap
from repro.ftl.victim import SipFilteredSelector, VictimDecision, filter_excluded
from repro.nand.array import STATE_BAD, NandArray
from repro.nand.errors import BadBlockError
from repro.oskernel.cache import DirtyPage, PageCache


# ----------------------------------------------------------------------
# Page cache (flusher queries)
# ----------------------------------------------------------------------
def expired_dirty(cache: PageCache, now: int, tau_expire: int) -> List[DirtyPage]:
    """Dirty pages older than ``tau_expire`` at ``now`` (dirty-set order)."""
    return [e for e in cache.dirty_items() if now - e.last_update >= tau_expire]


def oldest_dirty(cache: PageCache) -> List[DirtyPage]:
    """Every dirty page, sorted oldest-first by ``(last_update, lpn)``."""
    return sorted(cache.dirty_items(), key=lambda e: (e.last_update, e.lpn))


# ----------------------------------------------------------------------
# Buffered-write predictor
# ----------------------------------------------------------------------
def dbuf_scan(predictor: BufferedWritePredictor, now: int) -> BufferedPrediction:
    """``Dbuf(now)`` plus the SIP list from one walk of the dirty set.

    A page last updated at ``w`` flushes in interval
    ``ceil((w + tau_expire - now) / p)``, clamped to ``[1, Nwb]``.
    """
    page = predictor.cache.page_size
    nwb = predictor.nwb
    demands = [0] * nwb
    sip_lpns = []
    for entry in predictor.cache.dirty_items():
        delta = entry.last_update + predictor.tau_expire_ns - now
        interval = -(-delta // predictor.period_ns)
        demands[min(max(interval, 1), nwb) - 1] += page
        sip_lpns.append(entry.lpn)
    if predictor.strict and predictor.tau_flush_pages > 0:
        predictor._apply_volume_condition(demands, page)
    return BufferedPrediction(
        demands_bytes=demands,
        sip=SipList(sip_lpns, created_at=now),
        scanned_at=now,
    )


# ----------------------------------------------------------------------
# NAND address validation
# ----------------------------------------------------------------------
def check_addr(nand: NandArray, block: int, page: int, operation: str) -> None:
    """Geometry-backed bounds and bad-block validation of one page op."""
    nand.geometry.check_block(block)
    nand.geometry.check_page(page)
    if nand.block_states[block] == STATE_BAD:
        raise BadBlockError(block, operation)


# ----------------------------------------------------------------------
# Mapping table
# ----------------------------------------------------------------------
def page_map_invariant_check(pm: PageMap) -> None:
    """Per-LPN recount of :meth:`PageMap.invariant_check` (same verdicts,
    same messages)."""
    if int(pm._valid.sum()) != pm.mapped_count:
        raise AssertionError("valid-page population does not match mapped_count")
    per_block = np.add.reduceat(
        pm._valid.astype(np.int32),
        np.arange(0, pm.geometry.total_pages, pm.geometry.pages_per_block),
    )
    if not np.array_equal(per_block, pm._valid_per_block):
        raise AssertionError("per-block valid counters out of sync")
    for lpn in np.flatnonzero(pm._l2p != UNMAPPED):
        ppn = int(pm._l2p[lpn])
        if not pm._valid[ppn] or int(pm._p2l[ppn]) != lpn:
            raise AssertionError(f"l2p/p2l mismatch at LPN {lpn}")


# ----------------------------------------------------------------------
# GC victim state and selection
# ----------------------------------------------------------------------
def has_victim(ftl: PageMappedFtl) -> bool:
    """True if some closed candidate block holds an invalid page."""
    candidates = ftl.gc_candidates()
    if len(candidates) == 0:
        return False
    valid = ftl.page_map.valid_counts()[candidates]
    return bool((valid < ftl.geometry.pages_per_block).any())


def sip_valid_pages(block: int, page_map: PageMap, sip_lpns: Set[int]) -> int:
    """Number of valid pages in ``block`` whose LPN is in the SIP list."""
    return sum(1 for _, lpn in page_map.valid_lpns_in_block(block) if lpn in sip_lpns)


def greedy_select(
    candidates: np.ndarray,
    page_map: PageMap,
    excluded_blocks: Optional[Set[int]] = None,
) -> VictimDecision:
    """Fewest-valid candidate, ties to the lowest block (``np.argmin``)."""
    candidates = filter_excluded(candidates, excluded_blocks)
    if len(candidates) == 0:
        return VictimDecision(block=None)
    counts = page_map.valid_counts()[candidates]
    pick = int(np.argmin(counts))
    valid = int(counts[pick])
    return VictimDecision(
        block=int(candidates[pick]),
        candidates_considered=len(candidates),
        valid_pages=valid,
        score=float(valid),
    )


def sip_filtered_select(
    selector: SipFilteredSelector,
    candidates: np.ndarray,
    page_map: PageMap,
    sip_lpns: Optional[Set[int]] = None,
    excluded_blocks: Optional[Set[int]] = None,
) -> VictimDecision:
    """The paper's SIP-filtered greedy rule over a candidate array.

    Ranks by a stable argsort of valid counts, recounts each ranked
    block's SIP pages from the reverse map, and advances ``selector``'s
    Table 3 counters exactly as :meth:`SipFilteredSelector.select` does.
    """
    candidates = filter_excluded(candidates, excluded_blocks)
    if len(candidates) == 0:
        return VictimDecision(block=None)
    considered = len(candidates)
    counts = page_map.valid_counts()[candidates]
    order = np.argsort(counts, kind="stable")
    ranked = [int(candidates[i]) for i in order[: selector.max_rank_scan]]
    selector.total_selections += 1

    def decide(block: int, filtered: int) -> VictimDecision:
        selector.total_filtered += filtered
        valid = page_map.valid_count(block)
        return VictimDecision(
            block=block,
            candidates_considered=considered,
            filtered_by_sip=filtered,
            valid_pages=valid,
            score=float(valid),
        )

    if not sip_lpns:
        return decide(ranked[0], 0)
    ppb = page_map.geometry.pages_per_block
    filtered = 0
    for block in ranked:
        valid = page_map.valid_count(block)
        if valid >= ppb:
            break
        if valid == 0:
            return decide(block, filtered)
        sip_pages = sip_valid_pages(block, page_map, sip_lpns)
        if sip_pages / valid > selector.sip_fraction_threshold:
            filtered += 1
            continue
        return decide(block, filtered)
    return decide(ranked[0], filtered)
