"""Tests for FTL fault recovery: read retry, block retirement, degraded
OP accounting and the read-only terminal state."""

import random

import pytest

from repro.faults.injector import FaultInjector, FaultProfile
from repro.ftl.ftl import DeviceReadOnlyError, PageMappedFtl
from repro.ftl.mapping import TRANS_LPN_BASE
from repro.ftl.space import SpaceModel
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTiming

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=4, blocks_per_plane=16)
TIMING = NandTiming(read_ns=10, program_ns=100, erase_ns=1000, transfer_ns_per_page=1)


class ScriptedInjector(FaultInjector):
    """Injector that fires faults from explicit scripts (True = fault).

    Exhausted scripts never fault (retries always succeed), so each test
    stages exactly the failure sequence it wants to exercise.
    """

    def __init__(self, program=(), erase=(), read=(), retry_fails=()):
        super().__init__(FaultProfile(program_fail_prob=0.5), seed=0)
        self._script = {
            "program": list(program),
            "erase": list(erase),
            "read": list(read),
            "retry": list(retry_fails),
        }

    def _pop(self, kind):
        queue = self._script[kind]
        return queue.pop(0) if queue else False

    def program_fails(self, block, page, pe_cycles):
        if self._pop("program"):
            self.program_faults += 1
            self._log("program", block, page)
            return True
        return False

    def erase_fails(self, block, pe_cycles):
        if self._pop("erase"):
            self.erase_faults += 1
            self._log("erase", block, -1)
            return True
        return False

    def read_uncorrectable(self, block, page, pe_cycles):
        if self._pop("read"):
            self.read_faults += 1
            self._log("read", block, page)
            return True
        return False

    def read_retry_succeeds(self):
        return not self._pop("retry")


def make_ftl(injector=None, op_ratio=0.25, **kwargs):
    nand = NandArray(GEOMETRY, TIMING, fault_injector=injector)
    space = SpaceModel.from_op_ratio(GEOMETRY, op_ratio=op_ratio)
    return PageMappedFtl(nand, space, **kwargs)


# ----------------------------------------------------------------------
# Read retry
# ----------------------------------------------------------------------
def test_read_retry_recovers_and_counts():
    injector = ScriptedInjector(read=[False, True])
    ftl = make_ftl(injector)
    ftl.host_write_page(0)
    ftl.host_read_page(0)  # scripted: clean
    ftl.host_read_page(0)  # scripted: uncorrectable, first retry recovers
    assert ftl.stats.read_retries == 1
    assert ftl.stats.uncorrectable_reads == 0


def test_read_retry_budget_exhaustion_counts_uncorrectable():
    injector = ScriptedInjector(read=[True], retry_fails=[True] * 10)
    ftl = make_ftl(injector, max_read_retries=3)
    ftl.host_write_page(0)
    ftl.host_read_page(0)
    assert ftl.stats.read_retries == 3
    assert ftl.stats.uncorrectable_reads == 1


# ----------------------------------------------------------------------
# Program failure -> block retirement
# ----------------------------------------------------------------------
def test_program_fail_retires_block_and_write_succeeds():
    injector = ScriptedInjector(program=[True])
    ftl = make_ftl(injector)
    failed_block = ftl.active_user_block
    op_before = ftl.effective_op_pages()

    ftl.host_write_page(0)  # first program attempt fails, retry succeeds

    assert ftl.stats.program_faults == 1
    assert ftl.stats.blocks_retired == 1
    assert failed_block in ftl.retired_blocks
    assert ftl.nand.is_bad(failed_block)
    assert ftl.nand.grown_bad_blocks == 1
    assert ftl.active_user_block != failed_block
    # Retired capacity comes out of the effective OP, one block's worth.
    assert ftl.effective_op_pages() == op_before - GEOMETRY.pages_per_block
    assert ftl.op_timeline and ftl.op_timeline[-1][1] == ftl.effective_op_pages()
    # The write still landed: data is readable.
    assert ftl.page_map.lookup(0) is not None
    ftl.invariant_check()


def test_retirement_relocates_live_pages():
    injector = ScriptedInjector(program=[False, False, True])
    ftl = make_ftl(injector)
    ftl.host_write_page(0)
    ftl.host_write_page(1)
    failed_block = ftl.active_user_block
    ftl.host_write_page(2)  # third program fails; block had 2 live pages

    assert failed_block in ftl.retired_blocks
    assert ftl.stats.gc_pages_migrated >= 2  # LPNs 0 and 1 relocated
    for lpn in (0, 1, 2):
        ppn = ftl.page_map.lookup(lpn)
        assert ppn is not None
        assert ftl.page_map.block_of(ppn) != failed_block
    ftl.invariant_check()


def test_unrecoverable_page_during_retirement_is_unmapped():
    # Program fail on the third write; relocating LPN 0 hits an
    # uncorrectable read whose retries all fail -> data lost, unmapped.
    injector = ScriptedInjector(
        program=[False, False, True], read=[True], retry_fails=[True] * 10
    )
    ftl = make_ftl(injector)
    ftl.host_write_page(0)
    ftl.host_write_page(1)
    ftl.host_write_page(2)

    assert ftl.stats.uncorrectable_reads == 1
    assert ftl.page_map.lookup(0) is None  # lost, not silently stale
    assert ftl.page_map.lookup(1) is not None
    ftl.invariant_check()


class StreamFailInjector(ScriptedInjector):
    """Fails the first program on one write stream's open block once that
    block holds live pages, then records that stream's open block at the
    next program: the replacement frontier the retirement installed."""

    def __init__(self, stream):
        super().__init__()
        self.stream = stream
        self.ftl = None
        self.failed = None
        self.live = []
        self.replacement = None

    def program_fails(self, block, page, pe_cycles):
        ftl = self.ftl
        if ftl is None:
            return False
        stream = next(s for s in ftl.streams if s.name == self.stream)
        if self.failed is None:
            if block == stream.block and ftl.page_map.valid_count(block) > 0:
                self.failed = block
                self.live = list(ftl.page_map.valid_lpns_in_block(block))
                self.program_faults += 1
                self._log("program", block, page)
                return True
        elif self.replacement is None:
            self.replacement = stream.block
        return False


@pytest.mark.parametrize("stream", ["user", "gc", "translation"])
def test_program_fail_retires_each_streams_frontier(stream):
    # 768 user pages span two 512-entry translation pages and the CMT
    # holds one, so random writes keep writing translation pages back;
    # overwrites on a 75%-full device keep GC migrating.
    geometry = NandGeometry(page_size=4096, pages_per_block=8, blocks_per_plane=128)
    injector = StreamFailInjector(stream)
    nand = NandArray(geometry, TIMING, fault_injector=injector)
    space = SpaceModel.from_op_ratio(geometry, op_ratio=0.25)
    ftl = PageMappedFtl(nand, space, mapping_mode="dftl", cmt_budget_bytes=4096)
    injector.ftl = ftl
    rng = random.Random(11)
    for _ in range(20 * space.user_pages):
        ftl.host_write_page(rng.randrange(space.user_pages))
        if injector.replacement is not None:
            break
    failed = injector.failed
    assert injector.live
    assert injector.replacement not in (None, failed)

    assert ftl.stats.program_faults == 1
    assert ftl.retired_blocks == {failed}
    assert ftl.nand.is_bad(failed)
    pm = ftl.page_map
    for _, lpn in injector.live:
        if lpn >= TRANS_LPN_BASE:
            # Still a translation page, and the GTD follows it.
            ppn = pm.trans_ppn(lpn - TRANS_LPN_BASE)
        else:
            ppn = pm.lookup(lpn)
            ftl.host_read_page(lpn)
        assert pm.block_of(ppn) == injector.replacement
        assert int(ftl.nand.oob_lpn[ppn]) == lpn
    ftl.invariant_check()


# ----------------------------------------------------------------------
# Erase failure -> retirement via GC
# ----------------------------------------------------------------------
def test_erase_fail_retires_victim_block():
    injector = ScriptedInjector(erase=[True] * 10)
    ftl = make_ftl(injector, max_erase_retries=2)
    # Fill one block with garbage (overwrites), then collect it.
    for _ in range(3):
        for lpn in range(GEOMETRY.pages_per_block):
            ftl.host_write_page(lpn)
    assert ftl.has_victim()
    retired_before = ftl.stats.blocks_retired
    ftl.collect_one_block(background=False)

    assert ftl.stats.erase_faults == 3  # initial attempt + 2 retries
    assert ftl.stats.blocks_retired == retired_before + 1
    retired = next(iter(ftl.retired_blocks))
    assert ftl.nand.is_bad(retired)
    ftl.invariant_check()


# ----------------------------------------------------------------------
# Terminal read-only state
# ----------------------------------------------------------------------
def test_op_exhaustion_enters_read_only():
    # OP is 0.25 -> 4 spare blocks; four consecutive frontier failures on
    # one write retire four blocks and exhaust the effective OP.
    injector = ScriptedInjector(program=[True] * 4)
    ftl = make_ftl(injector, max_program_retries=8)
    ftl.host_write_page(0)  # survives, but burns the whole OP

    assert ftl.stats.blocks_retired == 4
    assert ftl.effective_op_pages() == 0
    assert ftl.read_only
    with pytest.raises(DeviceReadOnlyError):
        ftl.host_write_page(1)
    # Reads still work in the terminal state.
    ftl.host_read_page(0)
    ftl.invariant_check()


def test_victim_selection_excludes_retired_blocks():
    import numpy as np

    from repro.ftl.victim import GreedySelector, filter_excluded

    candidates = np.array([1, 2, 3])
    assert list(filter_excluded(candidates, {2})) == [1, 3]
    assert list(filter_excluded(candidates, None)) == [1, 2, 3]

    ftl = make_ftl(None)
    # Two garbage-heavy closed blocks; exclude the greedy favourite.
    for _ in range(3):
        for lpn in range(2 * GEOMETRY.pages_per_block):
            ftl.host_write_page(lpn)
    selector = GreedySelector()
    best = selector.select(None, ftl.page_map, valid_index=ftl.victim_index).block
    assert best is not None
    second = selector.select(
        None, ftl.page_map, excluded_blocks={best}, valid_index=ftl.victim_index
    ).block
    assert second is not None and second != best


def test_fault_free_device_unaffected():
    ftl = make_ftl(None)
    for lpn in range(8):
        ftl.host_write_page(lpn)
    assert ftl.stats.blocks_retired == 0
    assert not ftl.read_only
    assert ftl.retired_blocks == set()
    assert ftl.op_timeline == []
