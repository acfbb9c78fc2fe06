"""Tests for victim selection: greedy, cost-benefit and SIP filtering."""

import numpy as np
import pytest

from repro.ftl.mapping import PageMap
from repro.ftl.space import SipOverlapIndex, ValidCountIndex
from repro.ftl.victim import (
    CostBenefitSelector,
    GreedySelector,
    SipFilteredSelector,
)
from repro.nand.geometry import NandGeometry
from tests import oracles

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)


def build_map(block_contents):
    """block_contents: {block: [lpn, ...]} programs pages sequentially."""
    pm = PageMap(GEOMETRY, user_pages=GEOMETRY.total_pages)
    for block, lpns in block_contents.items():
        for offset, lpn in enumerate(lpns):
            pm.remap(lpn, pm.ppn(block, offset))
    return pm


def select(selector, candidates, pm, sip_lpns=None):
    """Run an index-backed selector over ``candidates`` (closed blocks)."""
    valid_index = ValidCountIndex()
    for block in candidates:
        valid_index.track(block, pm.valid_count(block))
    sip_overlap = SipOverlapIndex(GEOMETRY.total_blocks)
    sip_overlap.replace(sip_lpns or (), pm)
    return selector.select(
        None, pm, sip_lpns=sip_lpns, valid_index=valid_index, sip_overlap=sip_overlap
    )


def test_greedy_picks_min_valid():
    pm = build_map({0: [1, 2, 3], 1: [4], 2: [5, 6]})
    decision = select(GreedySelector(), [0, 1, 2], pm)
    assert decision.block == 1
    assert decision.candidates_considered == 3
    assert decision.filtered_by_sip == 0


def test_greedy_tie_breaks_low_block():
    pm = build_map({3: [1], 5: [2]})
    decision = select(GreedySelector(), [3, 5], pm)
    assert decision.block == 3


def test_greedy_empty_candidates():
    pm = build_map({})
    decision = select(GreedySelector(), [], pm)
    assert decision.block is None


def test_cost_benefit_prefers_older_blocks():
    # Same utilisation, different age: the older block wins.
    pm = build_map({0: [1, 2], 1: [3, 4]})
    ages = np.zeros(GEOMETRY.total_blocks)
    ages[0] = 100
    ages[1] = 10
    decision = CostBenefitSelector().select(np.array([0, 1]), pm, block_ages=ages)
    assert decision.block == 0


def test_cost_benefit_weighs_utilisation():
    # Very full old block loses to empty young block.
    pm = build_map({0: [1, 2, 3, 4], 1: []})
    ages = np.zeros(GEOMETRY.total_blocks)
    ages[0] = 1000
    ages[1] = 1
    decision = CostBenefitSelector().select(np.array([0, 1]), pm, block_ages=ages)
    assert decision.block == 1


def test_sip_filter_skips_sip_heavy_block():
    """The greedy-best block is SIP-dominated: it must be skipped and the
    skip counted (Table 3 metric)."""
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    decision = select(selector, [0, 1], pm, sip_lpns={1})
    assert decision.block == 1  # block 0 (valid={1}) is 100% SIP
    assert decision.filtered_by_sip == 1
    assert selector.total_filtered == 1
    assert selector.total_selections == 1


def test_sip_filter_no_sip_list_behaves_greedy():
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector()
    decision = select(selector, [0, 1], pm, sip_lpns=set())
    assert decision.block == 0
    assert decision.filtered_by_sip == 0


def test_sip_filter_below_threshold_not_skipped():
    pm = build_map({0: [1, 2, 3], 1: [4, 5, 6, 7]})
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    # Only 1/3 of block 0's valid pages are SIP -> keep it.
    decision = select(selector, [0, 1], pm, sip_lpns={1})
    assert decision.block == 0
    assert decision.filtered_by_sip == 0


def test_sip_filter_all_filtered_falls_back_to_greedy():
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector(sip_fraction_threshold=0.5)
    decision = select(selector, [0, 1], pm, sip_lpns={1, 2, 3})
    assert decision.block == 0  # fallback: plain greedy best
    assert decision.filtered_by_sip == 2


def test_sip_filter_empty_block_chosen_immediately():
    """A block with zero valid pages is a perfect victim regardless of SIP."""
    pm = build_map({0: [1], 1: []})
    pm.remap(1, pm.ppn(2, 0))  # invalidate block 0's only page
    selector = SipFilteredSelector()
    decision = select(selector, [0, 1], pm, sip_lpns={50})  # unmapped LPN
    assert decision.block in (0, 1)
    assert pm.valid_count(decision.block) == 0


def test_sip_filtered_fraction():
    pm = build_map({0: [1], 1: [2, 3]})
    selector = SipFilteredSelector()
    select(selector, [0, 1], pm, sip_lpns={1})      # one filter event
    select(selector, [0, 1], pm, sip_lpns=set())    # none
    assert selector.filtered_fraction() == pytest.approx(0.5)


def test_sip_filter_parameter_validation():
    with pytest.raises(ValueError):
        SipFilteredSelector(sip_fraction_threshold=0.0)
    with pytest.raises(ValueError):
        SipFilteredSelector(sip_fraction_threshold=1.5)
    with pytest.raises(ValueError):
        SipFilteredSelector(max_rank_scan=0)


def test_sip_valid_pages_counts_only_valid():
    pm = build_map({0: [1, 2]})
    pm.remap(1, pm.ppn(1, 0))  # LPN 1 leaves block 0
    assert oracles.sip_valid_pages(0, pm, {1, 2}) == 1
    overlap = SipOverlapIndex(GEOMETRY.total_blocks)
    overlap.replace({1, 2}, pm)
    assert overlap.overlap(0) == 1
