"""Run whole scenarios on the brute-force oracles.

:func:`scan_reference` swaps the oracles of :mod:`tests.oracles.hotpaths`
into the production classes for the duration of a ``with`` block.  The
patches are applied at *class* level, as ``perfbench/spans.py`` applies
its span wrappers: several hot paths resolve their callees when a
component is built, so the block must enclose construction as well as
the run::

    indexed = run_scenario(spec)
    with scan_reference():
        scan = run_scenario(spec)
    assert indexed == scan
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Tuple

from repro.core.buffered_predictor import BufferedWritePredictor
from repro.ftl.ftl import PageMappedFtl
from repro.ftl.mapping import PageMap
from repro.ftl.victim import GreedySelector, SipFilteredSelector
from repro.nand.array import NandArray
from repro.oskernel.cache import PageCache
from tests.oracles import hotpaths


@contextmanager
def patched(patches: List[Tuple[type, str, object]]) -> Iterator[None]:
    """Set each ``(owner, attribute, value)`` inside the block, then put
    back what was there (nesting and exceptions included).  Every
    attribute must be defined on ``owner`` itself."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _predict(self, now):
    self.invocations += 1
    return hotpaths.dbuf_scan(self, now)


def _iter_oldest_dirty(self):
    return iter(hotpaths.oldest_dirty(self))


def _host_write_extent(self, lpn, count):
    return sum(self.host_write_page(lpn + i) for i in range(count))


def _greedy(self, candidates, page_map, block_ages=None, sip_lpns=None,
            excluded_blocks=None):
    return hotpaths.greedy_select(candidates, page_map, excluded_blocks)


def _sip_filtered(self, candidates, page_map, block_ages=None, sip_lpns=None,
                  excluded_blocks=None):
    return hotpaths.sip_filtered_select(
        self, candidates, page_map, sip_lpns, excluded_blocks
    )


@contextmanager
def scan_reference() -> Iterator[None]:
    """Route every indexed/batched hot path through its brute-force oracle.

    * page cache: expired/oldest dirty pages by scanning the dirty set;
    * predictor: ``Dbuf`` by walking the dirty set on every call;
    * NAND: geometry-backed address validation;
    * mapping: per-LPN invariant recount;
    * FTL: ``has_victim`` and greedy / SIP-filtered selection over
      :meth:`~repro.ftl.ftl.PageMappedFtl.gc_candidates` (the selectors
      stop asking for the indexes), host-write extents as the per-page
      ``host_write_page`` loop, and every GC migration on the per-page
      path.
    """
    with patched([
        (PageCache, "expired_dirty", hotpaths.expired_dirty),
        (PageCache, "oldest_dirty", hotpaths.oldest_dirty),
        (PageCache, "iter_oldest_dirty", _iter_oldest_dirty),
        (BufferedWritePredictor, "predict", _predict),
        (NandArray, "_check_addr", hotpaths.check_addr),
        (PageMap, "invariant_check", hotpaths.page_map_invariant_check),
        (PageMappedFtl, "has_victim", hotpaths.has_victim),
        (PageMappedFtl, "host_write_extent", _host_write_extent),
        (PageMappedFtl, "_batch_migratable", lambda self, victim: False),
        (GreedySelector, "uses_valid_index", False),
        (GreedySelector, "select", _greedy),
        (SipFilteredSelector, "uses_valid_index", False),
        (SipFilteredSelector, "select", _sip_filtered),
    ]):
        yield
