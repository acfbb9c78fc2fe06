"""Page-level address mapping with validity tracking.

:class:`PageMap` is the FTL's logical heart: the LPN→PPN table, the
reverse PPN→LPN table, a per-page validity bitmap and per-block valid-page
counters.  Out-place updates (the NAND erase-before-write consequence) are
expressed here: remapping an LPN invalidates its previous physical page,
creating the garbage that GC later reclaims.

Physical page numbers are flat: ``ppn = block * pages_per_block + page``.

Two ``MappingStore`` implementations share this interface, and
:func:`build_page_map` is the one place a ``mapping_mode`` picks between
them -- the FTL never asks which store it holds:

* :class:`PageMap` -- the all-DRAM page map: every LPN→PPN entry is
  resident, translation costs nothing.  Its translation hooks are free
  no-ops (no translation pages are ever dirtied, there is no directory
  to snapshot or flush), so the FTL's "touch the translation pages
  these LPNs dirtied" loops simply have nothing to iterate.  This is
  the historical (and default) mode; its behaviour is bit-frozen by the
  equivalence suites.
* :class:`CachedPageMap` -- the DFTL-class flash-resident map:
  translation pages live on NAND in dedicated translation blocks, a
  global translation directory (GTD) pins each translation page's
  current location, and an LRU cached mapping table (CMT) with a
  configurable DRAM budget fronts them.  The FTL prices CMT misses
  (translation-page reads) and dirty evictions (translation-page
  programs) as real NAND traffic.

Translation pages are addressed by *virtual translation page number*
(``tvpn = lpn // entries_per_tpage``) and stamped on NAND with the
encoded OOB LPN ``TRANS_LPN_BASE + tvpn``, which keeps the recovery
scan's newest-stamp-wins merge working unchanged over both page classes:
stamps below the base rebuild the data L2P, stamps at or above it
rebuild the GTD.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nand.geometry import NandGeometry

#: Sentinel for "unmapped" entries in both translation directions.
UNMAPPED: int = -1

#: OOB-stamp namespace split between data pages and translation pages:
#: a stamped LPN at or above this base is a translation page and encodes
#: ``TRANS_LPN_BASE + tvpn``.  Far above any realistic logical space
#: (2^48 4-KiB pages = 1 EiB) and comfortably inside int64 OOB slots.
TRANS_LPN_BASE: int = 1 << 48

#: Bytes per mapping entry (one int64 PPN) in a translation page.
ENTRY_BYTES: int = 8


def translation_layout(page_size: int, user_pages: int) -> Tuple[int, int]:
    """``(entries_per_tpage, trans_pages)`` of the flash-resident map.

    The single owner of the translation-page layout: the cached map, the
    recovery scan and the analytic warm start all size the directory
    through here.
    """
    entries = page_size // ENTRY_BYTES
    return entries, -(-user_pages // entries)  # ceil


def build_page_map(
    mapping_mode: str,
    geometry: NandGeometry,
    user_pages: int,
    cmt_budget_bytes: Optional[int] = None,
) -> "PageMap":
    """The mapping store for ``mapping_mode`` (``dram`` or ``dftl``).

    ``dftl`` caps the cached mapping table at ``cmt_budget_bytes`` of
    controller DRAM, 1/64 of the full map by default.
    """
    if mapping_mode == "dram":
        return PageMap(geometry, user_pages)
    if mapping_mode == "dftl":
        if cmt_budget_bytes is None:
            cmt_budget_bytes = user_pages * ENTRY_BYTES // 64
        store = CachedPageMap(
            geometry, user_pages, max(1, cmt_budget_bytes // geometry.page_size)
        )
        store.cmt_budget_bytes = cmt_budget_bytes
        return store
    raise ValueError(f"mapping_mode must be 'dram' or 'dftl', got {mapping_mode!r}")


def write_stream_count(mapping_mode: str) -> int:
    """Write frontiers an FTL over ``mapping_mode`` keeps open."""
    store = CachedPageMap if mapping_mode == "dftl" else PageMap
    return len(store.STREAMS)


class PageMap:
    """LPN↔PPN translation state.

    Args:
        geometry: NAND geometry (defines the physical page space).
        user_pages: size of the logical page space.
    """

    #: Write streams an FTL over this store runs, in allocation order.
    STREAMS: Tuple[str, ...] = ("user", "gc")
    #: Controller DRAM granted to a translation cache (none: all resident).
    cmt_budget_bytes: Optional[int] = None
    #: Translation pages with a flushed on-NAND copy (none in DRAM).
    gtd_mapped_count = 0

    def __init__(self, geometry: NandGeometry, user_pages: int) -> None:
        if user_pages <= 0:
            raise ValueError(f"user_pages must be positive, got {user_pages}")
        self.geometry = geometry
        self.user_pages = user_pages
        # Cached int: the per-write paths below do flat-address math per
        # call and must not walk the geometry attribute chain each time.
        self._ppb = geometry.pages_per_block
        self._l2p = np.full(user_pages, UNMAPPED, dtype=np.int64)
        self._p2l = np.full(geometry.total_pages, UNMAPPED, dtype=np.int64)
        self._valid = np.zeros(geometry.total_pages, dtype=bool)
        self._valid_per_block = np.zeros(geometry.total_blocks, dtype=np.int32)
        #: Number of LPNs currently mapped (the paper's ``Cused`` in pages).
        self.mapped_count = 0
        #: Single observer called as ``(block, lpn, delta)`` on every
        #: per-page validity change (delta is +1 or -1).  The FTL's
        #: victim/SIP indexes subscribe here; None costs one ``is None``
        #: check per mutation.
        self._observer: Optional[Callable[[int, int, int], None]] = None

    def set_valid_observer(
        self, observer: Optional[Callable[[int, int, int], None]]
    ) -> None:
        """Install (or with ``None`` remove) the validity-change observer."""
        self._observer = observer

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def ppn(self, block: int, page: int) -> int:
        return block * self._ppb + page

    def block_of(self, ppn: int) -> int:
        return ppn // self._ppb

    def page_of(self, ppn: int) -> int:
        return ppn % self._ppb

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.user_pages:
            raise IndexError(f"LPN {lpn} out of range [0, {self.user_pages})")

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def remap(self, lpn: int, new_ppn: int) -> Optional[int]:
        """Point ``lpn`` at ``new_ppn``; returns the invalidated old PPN.

        The caller must have already programmed ``new_ppn``.  If the LPN
        was mapped, its old physical page becomes invalid (garbage).

        This is the per-host-write inner loop: address math is inlined
        on the cached ``_ppb`` int (see :meth:`check_lpn` for the bounds
        contract it preserves).
        """
        if not 0 <= lpn < self.user_pages:
            raise IndexError(f"LPN {lpn} out of range [0, {self.user_pages})")
        old_ppn = int(self._l2p[lpn])
        if old_ppn != UNMAPPED:
            self._invalidate_ppn(old_ppn)
        else:
            self.mapped_count += 1
        self._l2p[lpn] = new_ppn
        self._p2l[new_ppn] = lpn
        self._valid[new_ppn] = True
        block = new_ppn // self._ppb
        self._valid_per_block[block] += 1
        if self._observer is not None:
            self._observer(block, lpn, 1)
        return old_ppn if old_ppn != UNMAPPED else None

    def unmap(self, lpn: int) -> Optional[int]:
        """TRIM: drop the mapping of ``lpn``; returns the freed PPN."""
        self.check_lpn(lpn)
        old_ppn = int(self._l2p[lpn])
        if old_ppn == UNMAPPED:
            return None
        self._invalidate_ppn(old_ppn)
        self._l2p[lpn] = UNMAPPED
        self.mapped_count -= 1
        return old_ppn

    def unmap_many(self, lpns: Iterable[int]) -> List[int]:
        """Batched :meth:`unmap`; returns the LPNs that were mapped.

        A TRIM command covers an extent, but typically only part of it
        still maps to live pages (re-trims and sparse files are common);
        the returned list is exactly the set the FTL must tombstone in
        the durable unmap journal -- already-unmapped LPNs need none,
        because they were either never written or their previous
        tombstone already outranks every surviving copy.
        """
        freed: List[int] = []
        for lpn in lpns:
            if self.unmap(lpn) is not None:
                freed.append(lpn)
        return freed

    # Below this extent size the fixed overhead of the ~10 numpy vector
    # ops exceeds the cost of a scalar loop (writeback chunks are
    # typically a handful of pages).
    _SCALAR_EXTENT_MAX = 32

    def remap_extent(self, first_lpn: int, count: int, first_ppn: int) -> List[int]:
        """Batched :meth:`remap` of a contiguous LPN extent onto a
        contiguous just-programmed PPN run inside one block.

        Semantically identical to ``remap(first_lpn + i, first_ppn + i)``
        for ``i in range(count)``; returns the old-PPN list (``UNMAPPED``
        where the LPN was fresh).  Like :meth:`migrate_pages` it does NOT
        fire the per-page observer -- the caller (the FTL's batched host
        write) applies the aggregated index deltas itself.  Small extents
        take a scalar loop; large ones the vectorized path -- both apply
        the exact same state transitions.
        """
        if first_lpn < 0 or first_lpn + count > self.user_pages:
            raise IndexError(
                f"LPN extent [{first_lpn}, {first_lpn + count}) out of range "
                f"[0, {self.user_pages})"
            )
        l2p = self._l2p
        p2l = self._p2l
        valid = self._valid
        per_block = self._valid_per_block
        ppb = self._ppb
        old_ppns = l2p[first_lpn:first_lpn + count].tolist()
        if count <= self._SCALAR_EXTENT_MAX:
            fresh = 0
            lpn, ppn = first_lpn, first_ppn
            for old in old_ppns:
                if old != UNMAPPED:
                    if not valid[old]:
                        raise RuntimeError("double invalidation in remap_extent")
                    valid[old] = False
                    p2l[old] = UNMAPPED
                    per_block[old // ppb] -= 1
                else:
                    fresh += 1
                l2p[lpn] = ppn
                p2l[ppn] = lpn
                valid[ppn] = True
                lpn += 1
                ppn += 1
            self.mapped_count += fresh
        else:
            old_arr = np.asarray(old_ppns, dtype=np.int64)
            old = old_arr[old_arr != UNMAPPED]
            if old.size:
                if not valid[old].all():
                    raise RuntimeError("double invalidation in remap_extent")
                valid[old] = False
                p2l[old] = UNMAPPED
                np.subtract.at(per_block, old // ppb, 1)
            self.mapped_count += count - int(old.size)
            l2p[first_lpn:first_lpn + count] = np.arange(
                first_ppn, first_ppn + count, dtype=np.int64
            )
            p2l[first_ppn:first_ppn + count] = np.arange(
                first_lpn, first_lpn + count, dtype=np.int64
            )
            valid[first_ppn:first_ppn + count] = True
        per_block[first_ppn // ppb] += count
        return old_ppns

    def load_mapping(self, l2p: np.ndarray) -> None:
        """Install a complete L2P table in one shot (recovery scan).

        ``l2p`` is a full ``user_pages``-long PPN vector (``UNMAPPED``
        where the LPN has no surviving copy); the reverse map, validity
        bitmap, per-block counters and ``mapped_count`` are all rebuilt
        from it.  Replaces any existing state and does **not** fire the
        validity observer -- the recovery path rebuilds its indexes from
        the resulting counters itself.
        """
        if len(l2p) != self.user_pages:
            raise ValueError(
                f"l2p table sized {len(l2p)}, map holds {self.user_pages} LPNs"
            )
        self._l2p[:] = l2p
        self._p2l[:] = UNMAPPED
        self._valid[:] = False
        self._valid_per_block[:] = 0
        self.mapped_count = self._claim_table(self._l2p, 0, "l2p table")

    def _claim_table(self, table: np.ndarray, base: int, what: str) -> int:
        """Mark every page ``table`` maps valid, with reverse entry
        ``base + index``; returns the mapped count."""
        keys = np.flatnonzero(table != UNMAPPED)
        ppns = table[keys]
        if len(np.unique(ppns)) != len(ppns):
            raise ValueError(f"{what} maps two entries to the same physical page")
        if self._valid[ppns].any():
            raise ValueError(f"{what} entry collides with a mapped page")
        self._p2l[ppns] = base + keys
        self._valid[ppns] = True
        np.add.at(self._valid_per_block, ppns // self._ppb, 1)
        return int(len(keys))

    def _invalidate_ppn(self, ppn: int) -> None:
        if not self._valid[ppn]:
            raise RuntimeError(f"double invalidation of PPN {ppn}")
        self._valid[ppn] = False
        lpn = int(self._p2l[ppn])
        self._p2l[ppn] = UNMAPPED
        block = ppn // self._ppb
        self._valid_per_block[block] -= 1
        if self._observer is not None:
            self._observer(block, lpn, -1)

    def clear_block(self, block: int) -> None:
        """Reset per-page state of ``block`` after an erase.

        All pages of the block must already be invalid (GC migrates valid
        pages out before erasing); this is asserted to catch GC bugs.
        """
        if self._valid_per_block[block] != 0:
            raise RuntimeError(
                f"erasing block {block} with {self._valid_per_block[block]} valid pages"
            )
        start = block * self.geometry.pages_per_block
        end = start + self.geometry.pages_per_block
        self._p2l[start:end] = UNMAPPED
        self._valid[start:end] = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def l2p_snapshot(self) -> np.ndarray:
        """Copy of the full LPN→PPN vector (``UNMAPPED`` where unmapped).

        For recovery oracles and crash-sweep verification -- one array
        compare instead of ``user_pages`` :meth:`lookup` calls.
        """
        return self._l2p.copy()

    def lookup(self, lpn: int) -> Optional[int]:
        """Current PPN of ``lpn``, or None if unmapped."""
        self.check_lpn(lpn)
        ppn = int(self._l2p[lpn])
        return None if ppn == UNMAPPED else ppn

    def lpn_of_ppn(self, ppn: int) -> Optional[int]:
        """LPN stored at ``ppn`` if that physical page is valid."""
        lpn = int(self._p2l[ppn])
        return None if lpn == UNMAPPED else lpn

    def mapped_blocks(self, lpns: Iterable[int]) -> np.ndarray:
        """Block index of each currently-mapped LPN in ``lpns``.

        Vectorized batch form of :meth:`lookup` + :meth:`block_of`;
        unmapped LPNs are dropped.  A block appears once per mapped LPN
        it holds, so the result feeds ``np.add.at`` style accumulation.
        """
        arr = np.fromiter(lpns, dtype=np.int64)
        ppns = self._l2p[arr]
        return ppns[ppns != UNMAPPED] // self.geometry.pages_per_block

    def is_valid(self, ppn: int) -> bool:
        return bool(self._valid[ppn])

    def valid_count(self, block: int) -> int:
        return int(self._valid_per_block[block])

    def valid_counts(self) -> np.ndarray:
        """Read-only view of per-block valid-page counters."""
        return self._valid_per_block

    def valid_lpns_in_block(self, block: int) -> Iterator[int]:
        """Yield (page_offset, lpn) for each valid page in ``block``.

        Yields in ascending page order, which keeps GC migration
        deterministic.
        """
        start = block * self.geometry.pages_per_block
        end = start + self.geometry.pages_per_block
        valid = self._valid[start:end]
        lpns = self._p2l[start:end]
        for offset in np.flatnonzero(valid):
            yield int(offset), int(lpns[offset])

    def valid_pages_in_block(self, block: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(page_offsets, lpns)`` arrays for the valid pages of ``block``.

        Batch form of :meth:`valid_lpns_in_block` in the same ascending
        page order (the order GC migration depends on for determinism).
        """
        start = block * self.geometry.pages_per_block
        offsets = np.flatnonzero(self._valid[start:start + self.geometry.pages_per_block])
        return offsets, self._p2l[start + offsets]

    # ------------------------------------------------------------------
    # Batched mutations (GC migration fast path)
    # ------------------------------------------------------------------
    def migrate_pages(
        self,
        src_block: int,
        offsets: np.ndarray,
        lpns: np.ndarray,
        dst_block: int,
        dst_start: int,
    ) -> None:
        """Move valid pages ``offsets`` of ``src_block`` (mapping ``lpns``)
        onto consecutive pages of ``dst_block`` starting at ``dst_start``.

        Array-batched equivalent of per-page ``remap(lpn, new_ppn)`` calls
        during GC migration: the source pages become invalid, the LPNs
        point at the destination pages, ``mapped_count`` is unchanged.
        Deliberately does **not** fire the per-page validity observer --
        the caller (the FTL's batched migration) applies the equivalent
        index updates in bulk itself.
        """
        n = len(offsets)
        if n == 0:
            return
        ppb = self.geometry.pages_per_block
        old_ppns = src_block * ppb + offsets
        if not self._valid[old_ppns].all():
            raise RuntimeError(f"migrating invalid pages out of block {src_block}")
        new_ppns = dst_block * ppb + dst_start + np.arange(n, dtype=np.int64)
        self._valid[old_ppns] = False
        self._p2l[old_ppns] = UNMAPPED
        self._valid[new_ppns] = True
        self._p2l[new_ppns] = lpns
        self._l2p[lpns] = new_ppns
        self._valid_per_block[src_block] -= n
        self._valid_per_block[dst_block] += n

    def invariant_check(self) -> None:
        """Full-state consistency check on batched array ops (O(total pages)).

        The validity plane is shared by every page class, so its
        population is the data mapping plus the translation directory.
        """
        if int(self._valid.sum()) != self.mapped_count + self.gtd_mapped_count:
            raise AssertionError("valid-page population does not match mapped_count")
        per_block = np.add.reduceat(
            self._valid.astype(np.int32),
            np.arange(0, self.geometry.total_pages, self.geometry.pages_per_block),
        )
        if not np.array_equal(per_block, self._valid_per_block):
            raise AssertionError("per-block valid counters out of sync")
        self._check_table(self._l2p, 0, "l2p/p2l mismatch at LPN")

    def _check_table(self, table: np.ndarray, base: int, what: str) -> int:
        """Every mapped entry of ``table`` must point at a valid page whose
        reverse entry is ``base + index``; returns the mapped count."""
        keys = np.flatnonzero(table != UNMAPPED)
        if len(keys):
            ppns = table[keys]
            bad = ~self._valid[ppns] | (self._p2l[ppns] != base + keys)
            if bad.any():
                raise AssertionError(f"{what} {int(keys[np.argmax(bad)])}")
        return len(keys)

    # ------------------------------------------------------------------
    # Translation tier: free in DRAM (overridden by CachedPageMap)
    # ------------------------------------------------------------------
    def tvpns_of(self, lpns: Iterable[int]) -> Sequence[int]:
        """Translation pages the data LPNs in ``lpns`` dirty, ascending."""
        return ()

    def tvpns_spanning(self, first_lpn: int, count: int) -> Sequence[int]:
        """Translation pages covering the extent ``[first_lpn, +count)``."""
        return ()

    def gtd_snapshot(self) -> Optional[np.ndarray]:
        return None

    def load_gtd(self, gtd: Optional[np.ndarray]) -> None:
        pass

    def block_holds_trans(self, block: int) -> bool:
        return False

    def cmt_flush_all(self) -> List[int]:
        return []


class CachedPageMap(PageMap):
    """DFTL-class mapping store: on-NAND translation pages + GTD + CMT.

    Extends :class:`PageMap` with the flash-resident translation tier:

    * the **GTD** (global translation directory) is an int64 vector of
      one entry per virtual translation page (``tvpn``), pinning the PPN
      of that translation page's newest on-NAND copy (``UNMAPPED`` until
      first flushed).  At 8 bytes per ``entries_per_tpage`` mapping
      entries it is ~1/512 of the full map and is assumed DRAM-resident,
      exactly like DFTL's.
    * the **CMT** (cached mapping table) is an LRU over translation
      pages, capped at ``cmt_capacity_pages``.  The FTL consults it on
      every translation; a miss costs a NAND read of the translation
      page, a dirty eviction a NAND program of a fresh copy.

    Translation pages share the physical validity plane with data pages:
    ``_p2l`` stores the encoded ``TRANS_LPN_BASE + tvpn`` for a valid
    translation page, so ``valid_lpns_in_block`` / per-block counters /
    the valid-count observer all see translation blocks exactly like
    data blocks -- which is how GC learns the second block class for
    free.  ``mapped_count`` keeps its host semantics (data LPNs only,
    the paper's ``Cused``); the translation population is tracked apart
    in :attr:`gtd_mapped_count`.

    The ground-truth L2P stays in the inherited DRAM arrays: the
    simulator always knows the true mapping, and what this class adds is
    the *cost model* (which translations are cached, what each access
    pays) plus the durable translation-page layout that recovery and the
    crash sweep verify bit-identically.
    """

    #: Translation pages get their own write frontier.
    STREAMS = ("user", "gc", "translation")

    def __init__(
        self,
        geometry: NandGeometry,
        user_pages: int,
        cmt_capacity_pages: int,
    ) -> None:
        super().__init__(geometry, user_pages)
        if cmt_capacity_pages < 1:
            raise ValueError(
                f"cmt_capacity_pages must be >= 1, got {cmt_capacity_pages}"
            )
        self.entries_per_tpage, self.trans_pages = translation_layout(
            geometry.page_size, user_pages
        )
        #: GTD: tvpn -> PPN of the newest flushed translation page.
        self._gtd = np.full(self.trans_pages, UNMAPPED, dtype=np.int64)
        self.gtd_mapped_count = 0
        #: LRU cached mapping table: tvpn -> dirty flag, newest last.
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        self.cmt_capacity_pages = cmt_capacity_pages

    # ------------------------------------------------------------------
    # Translation addressing
    # ------------------------------------------------------------------
    def tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_tpage

    def tvpns_of(self, lpns: Iterable[int]) -> Sequence[int]:
        ept = self.entries_per_tpage
        return sorted({lpn // ept for lpn in lpns if lpn < TRANS_LPN_BASE})

    def tvpns_spanning(self, first_lpn: int, count: int) -> Sequence[int]:
        ept = self.entries_per_tpage
        return range(first_lpn // ept, (first_lpn + count - 1) // ept + 1)

    def trans_ppn(self, tvpn: int) -> Optional[int]:
        """PPN of ``tvpn``'s newest flushed copy, or None if never flushed."""
        ppn = int(self._gtd[tvpn])
        return None if ppn == UNMAPPED else ppn

    def gtd_snapshot(self) -> np.ndarray:
        """Copy of the GTD vector (crash-sweep verification, checkpoints)."""
        return self._gtd.copy()

    def block_holds_trans(self, block: int) -> bool:
        """True when ``block`` holds at least one valid translation page."""
        start = block * self._ppb
        return bool((self._p2l[start:start + self._ppb] >= TRANS_LPN_BASE).any())

    # ------------------------------------------------------------------
    # Translation-page mutations (mirroring remap/load_mapping)
    # ------------------------------------------------------------------
    def remap_trans(self, tvpn: int, new_ppn: int) -> Optional[int]:
        """Point ``tvpn``'s directory entry at a just-programmed copy.

        The old copy (if any) becomes garbage exactly like a data page's:
        the validity observer fires, so the valid-count index -- and with
        it victim selection -- covers translation blocks with no extra
        bookkeeping.  Returns the invalidated old PPN.
        """
        if not 0 <= tvpn < self.trans_pages:
            raise IndexError(f"tvpn {tvpn} out of range [0, {self.trans_pages})")
        old_ppn = int(self._gtd[tvpn])
        if old_ppn != UNMAPPED:
            self._invalidate_ppn(old_ppn)
        else:
            self.gtd_mapped_count += 1
        self._gtd[tvpn] = new_ppn
        self._p2l[new_ppn] = TRANS_LPN_BASE + tvpn
        self._valid[new_ppn] = True
        block = new_ppn // self._ppb
        self._valid_per_block[block] += 1
        if self._observer is not None:
            self._observer(block, TRANS_LPN_BASE + tvpn, 1)
        return old_ppn if old_ppn != UNMAPPED else None

    def load_gtd(self, gtd: Optional[np.ndarray]) -> None:
        """Install a recovered GTD in one shot.

        Must run *after* :meth:`load_mapping` (which resets the shared
        validity plane); adds each flushed translation page back into the
        reverse map / validity bitmap / per-block counters.  Does not
        fire the observer, matching :meth:`load_mapping`'s contract.
        """
        if gtd is None:
            raise ValueError(
                "dftl mapping needs a recovered GTD "
                "(recovery scan ran without translation-stamp support?)"
            )
        if len(gtd) != self.trans_pages:
            raise ValueError(
                f"gtd sized {len(gtd)}, directory holds {self.trans_pages} entries"
            )
        self._gtd[:] = gtd
        self.gtd_mapped_count = self._claim_table(self._gtd, TRANS_LPN_BASE, "gtd")
        self._cmt.clear()

    # ------------------------------------------------------------------
    # CMT (the modelled DRAM budget)
    # ------------------------------------------------------------------
    def cmt_touch(self, tvpn: int, dirty: bool) -> Tuple[bool, List[Tuple[int, bool]]]:
        """Reference ``tvpn`` in the CMT; LRU-promote or fault it in.

        Returns ``(hit, evicted)`` where ``evicted`` lists the
        ``(tvpn, was_dirty)`` entries displaced to make room (at most
        one).  The *caller* (the FTL) prices the consequences: a miss
        reads the translation page off NAND, a dirty eviction programs a
        fresh copy and updates the GTD through :meth:`remap_trans`.
        """
        cmt = self._cmt
        if tvpn in cmt:
            cmt.move_to_end(tvpn)
            if dirty:
                cmt[tvpn] = True
            return True, []
        evicted: List[Tuple[int, bool]] = []
        while len(cmt) >= self.cmt_capacity_pages:
            evicted.append(cmt.popitem(last=False))
        cmt[tvpn] = dirty
        return False, evicted

    def cmt_flush_all(self) -> List[int]:
        """Mark every cached entry clean; returns the dirty tvpns.

        Checkpointing persists the whole directory, so cached entries
        stop being writeback debt at that instant.
        """
        dirty = [tvpn for tvpn, d in self._cmt.items() if d]
        for tvpn in dirty:
            self._cmt[tvpn] = False
        return dirty

    @property
    def cmt_len(self) -> int:
        return len(self._cmt)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def invariant_check(self) -> None:
        """Cross-check the shared validity plane over both page classes."""
        super().invariant_check()
        flushed = self._check_table(self._gtd, TRANS_LPN_BASE, "gtd/p2l mismatch at tvpn")
        if flushed != self.gtd_mapped_count:
            raise AssertionError("gtd_mapped_count out of sync with the GTD")
        if len(self._cmt) > self.cmt_capacity_pages:
            raise AssertionError("CMT exceeds its capacity")
