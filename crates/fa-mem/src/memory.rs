//! The simulated address space.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use crate::addr::Addr;
use crate::fault::{AccessKind, MemFault};
use crate::page::{Page, SharedPage, PAGE_SIZE};
use crate::perm::Perms;
use crate::region::{Region, RegionId};
use crate::snapshot::MemSnapshot;
use crate::table::{self, Root, VA_LIMIT};
use crate::tlb::{Tlb, TlbStats};

/// A sparse, paged, checkpointable address space backed by a multi-level
/// page table.
///
/// `SimMemory` stands in for the native process memory First-Aid operates
/// on. It provides:
///
/// * region mapping with `sbrk`-style growth for the simulated heap,
/// * byte/word reads and writes with fault detection,
/// * per-page permission bits ([`Perms`]) flipped with [`Self::protect`] —
///   the MMU primitive behind guard pages and poison-on-free,
/// * O(1) copy-on-write snapshots for checkpointing,
/// * dirty-page accounting for the adaptive checkpoint controller.
///
/// # Structure
///
/// Addresses translate through a 3-level radix page table
/// ([`crate::table`]): 9 bits per level, 4 KiB pages, 39-bit virtual
/// address space. Each [`crate::table::PageEntry`] carries an optional
/// backing frame plus permission bits; pages of a mapped region default to
/// [`Perms::RW`] and materialize lazily, zero-filled, on first store, like
/// anonymous mappings handed out by the kernel. Reads of mapped but
/// untouched pages observe zeros and never materialize frames. A frame
/// whose bytes all hold one value is stored as that byte ([`Page`]), so
/// [`Self::fill`] over whole pages writes no page data.
///
/// All table nodes are `Arc`-shared with snapshots: [`Self::snapshot`] is
/// an `Arc` clone of the root, [`Self::restore`] a root swap, and a store
/// after a snapshot path-copies the spine and replicates one frame.
///
/// # Translation cache
///
/// A direct-mapped, 64-entry TLB ([`crate::tlb`]) fronts the walk,
/// caching effective page permissions. Entries are epoch-invalidated by
/// every `map`/`unmap`/`grow_region`/`protect`/`restore`; pages straddling
/// a region boundary are never cached, preserving byte-exact
/// single-region containment faults at region edges. A one-entry region
/// cache additionally keeps [`Self::region_of`] off the binary search on
/// clustered lookups.
pub struct SimMemory {
    /// Mapped regions, sorted by start address.
    regions: Vec<Region>,
    /// Page-table root, `Arc`-shared with outstanding snapshots.
    root: Arc<Root>,
    /// Page numbers written since the last [`Self::take_dirty_pages`] call.
    /// A hash set, so that clearing it at every checkpoint keeps its
    /// allocation instead of freeing one tree node per few pages.
    dirty: HashSet<u64>,
    /// Number of materialized frames.
    resident: usize,
    /// Next region id to hand out.
    next_region: u32,
    /// Translation-cache generation; bumped by every operation that can
    /// change a page's effective permissions or region containment.
    epoch: u64,
    /// Total bytes read since creation (not rolled back by `restore`).
    bytes_read: u64,
    /// Total bytes written since creation (not rolled back by `restore`).
    bytes_written: u64,
    /// Frames replicated by stores to snapshot-shared pages.
    cow_faults: u64,
    /// Permission/translation cache in front of the table walk.
    tlb: Tlb,
    /// One-entry region-lookup cache: index into `regions` of the last hit.
    rcache: Cell<Option<usize>>,
}

impl Clone for SimMemory {
    fn clone(&self) -> Self {
        SimMemory {
            regions: self.regions.clone(),
            // The table becomes shared between the copies; the next store
            // on either side path-copies via `Arc::make_mut`.
            root: Arc::clone(&self.root),
            dirty: self.dirty.clone(),
            resident: self.resident,
            next_region: self.next_region,
            epoch: self.epoch,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            cow_faults: self.cow_faults,
            tlb: self.tlb.clone(),
            rcache: self.rcache.clone(),
        }
    }
}

impl SimMemory {
    /// Creates an empty address space with no mapped regions.
    pub fn new() -> Self {
        SimMemory {
            regions: Vec::new(),
            root: Arc::new(Root::new()),
            dirty: HashSet::new(),
            resident: 0,
            next_region: 0,
            epoch: 0,
            bytes_read: 0,
            bytes_written: 0,
            cow_faults: 0,
            tlb: Tlb::new(),
            rcache: Cell::new(None),
        }
    }

    // ------------------------------------------------------------------
    // Region management
    // ------------------------------------------------------------------

    /// Maps a new region `[start, start + len)`.
    ///
    /// Returns the region's id, [`MemFault::MapOverlap`] if the range
    /// intersects an existing region, or [`MemFault::BeyondAddressSpace`]
    /// if it exceeds the 39-bit simulated address space.
    pub fn map(&mut self, start: Addr, len: u64, name: &str) -> Result<RegionId, MemFault> {
        let end = start
            .0
            .checked_add(len)
            .filter(|&end| end <= VA_LIMIT)
            .ok_or(MemFault::BeyondAddressSpace { addr: start, len })?;
        if self.regions.iter().any(|r| r.overlaps(start, len)) {
            return Err(MemFault::MapOverlap { addr: start, len });
        }
        let id = RegionId(self.next_region);
        self.next_region += 1;
        let region = Region {
            id,
            start,
            end: Addr(end),
            name: name.to_owned(),
        };
        let pos = self.regions.partition_point(|r| r.start < region.start);
        self.regions.insert(pos, region);
        self.rcache.set(None);
        self.epoch += 1;
        Ok(id)
    }

    /// Maps a new trap-on-access region: every page is protected
    /// [`Perms::GUARD`]. Convenience for free-standing red zones; the
    /// sentry tier flips individual pages with [`Self::protect`] instead.
    pub fn map_guarded(&mut self, start: Addr, len: u64, name: &str) -> Result<RegionId, MemFault> {
        let id = self.map(start, len, name)?;
        self.protect(start, len, Perms::GUARD)
            .expect("freshly mapped range must be protectable");
        Ok(id)
    }

    /// Removes a region and drops the page-table entries it exclusively
    /// owned. Entries of pages straddling a boundary shared with a
    /// neighbouring region survive (with the neighbour's bytes intact).
    pub fn unmap(&mut self, id: RegionId) -> Result<(), MemFault> {
        let pos = self
            .regions
            .iter()
            .position(|r| r.id == id)
            .ok_or(MemFault::NoSuchRegion)?;
        self.rcache.set(None);
        self.epoch += 1;
        let region = self.regions.remove(pos);
        self.reclaim_range(region.start, region.end);
        Ok(())
    }

    /// Grows (or shrinks) a region to end at `new_end`, the `sbrk` analog.
    ///
    /// Shrinking drops the pages of the vacated range that no region still
    /// overlaps. Growing fails with [`MemFault::MapOverlap`] if the new
    /// range would collide with the next region, or
    /// [`MemFault::BeyondAddressSpace`] past the 39-bit space.
    pub fn grow_region(&mut self, id: RegionId, new_end: Addr) -> Result<(), MemFault> {
        let pos = self
            .regions
            .iter()
            .position(|r| r.id == id)
            .ok_or(MemFault::NoSuchRegion)?;
        if new_end < self.regions[pos].start {
            return Err(MemFault::NoSuchRegion);
        }
        if new_end.0 > VA_LIMIT {
            return Err(MemFault::BeyondAddressSpace {
                addr: self.regions[pos].start,
                len: new_end - self.regions[pos].start,
            });
        }
        if let Some(next) = self.regions.get(pos + 1) {
            if new_end.0 > next.start.0 {
                return Err(MemFault::MapOverlap {
                    addr: next.start,
                    len: new_end - next.start,
                });
            }
        }
        let old_end = self.regions[pos].end;
        self.regions[pos].end = new_end;
        self.rcache.set(None);
        self.epoch += 1;
        if new_end < old_end {
            self.reclaim_range(new_end, old_end);
        }
        Ok(())
    }

    /// Drops page-table entries of the dead range `[start, end)` that no
    /// mapped region still overlaps.
    ///
    /// Regions are disjoint, so only the two *boundary* pages of the range
    /// can be shared — with a neighbouring region or with the retained
    /// prefix of a shrunk region; interior pages are reclaimed
    /// unconditionally (whole subtrees at a time — cost is proportional to
    /// materialized nodes, not range size). Spared boundary entries keep
    /// both frame and permission bits. Called after the region list has
    /// been updated.
    fn reclaim_range(&mut self, start: Addr, end: Addr) {
        if end <= start {
            return;
        }
        let first = start.page();
        let last = end.back(1).page();
        let spared = |regions: &[Region], pageno: u64| {
            let page_start = Addr(pageno * PAGE_SIZE as u64);
            regions
                .iter()
                .any(|r| r.overlaps(page_start, PAGE_SIZE as u64))
        };
        let mut lo = first;
        let mut hi = last;
        if spared(&self.regions, first) {
            lo += 1;
        }
        if spared(&self.regions, last) {
            // `last < lo` below covers the single-page fully-spared case.
            hi = hi.wrapping_sub(1);
        }
        if lo > hi || hi == u64::MAX {
            return;
        }
        self.clear_pages(lo, hi);
    }

    /// Removes all page-table entries in `[lo, hi]`, dropping fully
    /// covered subtrees wholesale.
    fn clear_pages(&mut self, lo: u64, hi: u64) {
        const L1_SPAN: u64 = 1 << 9; // pages per leaf
        const L2_SPAN: u64 = 1 << 18; // pages per mid table
        let mut removed = 0usize;
        let root = Arc::make_mut(&mut self.root);
        for i2 in (lo / L2_SPAN)..=(hi / L2_SPAN) {
            let slot2 = &mut root.children[i2 as usize];
            let Some(mid_arc) = slot2.as_mut() else {
                continue;
            };
            let base2 = i2 * L2_SPAN;
            if lo <= base2 && base2 + L2_SPAN - 1 <= hi {
                removed += mid_arc.frames();
                *slot2 = None;
                continue;
            }
            let mid = Arc::make_mut(mid_arc);
            let sub_lo = lo.max(base2);
            let sub_hi = hi.min(base2 + L2_SPAN - 1);
            for i1 in (sub_lo / L1_SPAN)..=(sub_hi / L1_SPAN) {
                let slot1 = &mut mid.children[(i1 % L1_SPAN) as usize];
                let Some(leaf_arc) = slot1.as_mut() else {
                    continue;
                };
                let base1 = i1 * L1_SPAN;
                if lo <= base1 && base1 + L1_SPAN - 1 <= hi {
                    removed += leaf_arc.frames();
                    *slot1 = None;
                    continue;
                }
                let leaf = Arc::make_mut(leaf_arc);
                for pageno in sub_lo.max(base1)..=sub_hi.min(base1 + L1_SPAN - 1) {
                    let entry = &mut leaf.entries[(pageno % L1_SPAN) as usize];
                    if entry.frame.is_some() {
                        removed += 1;
                    }
                    *entry = table::PageEntry::vacant();
                }
                if leaf.is_empty() {
                    *slot1 = None;
                }
            }
            if mid.is_empty() {
                *slot2 = None;
            }
        }
        self.resident -= removed;
        self.dirty.retain(|&p| p < lo || p > hi);
    }

    /// Returns the region containing `addr`, if any.
    pub fn region_of(&self, addr: Addr) -> Option<&Region> {
        // Fast path: the last region that satisfied a lookup, re-verified
        // against its live bounds (indices shift on map/unmap, so those
        // invalidate the cache outright).
        if let Some(i) = self.rcache.get() {
            if let Some(r) = self.regions.get(i) {
                if r.start <= addr && addr < r.end {
                    return Some(r);
                }
            }
        }
        let pos = self.regions.partition_point(|r| r.start.0 <= addr.0);
        let i = pos.checked_sub(1)?;
        let r = &self.regions[i];
        if addr < r.end {
            self.rcache.set(Some(i));
            Some(r)
        } else {
            None
        }
    }

    /// Returns the region with the given id, if mapped.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Returns all mapped regions in address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    // ------------------------------------------------------------------
    // Permissions
    // ------------------------------------------------------------------

    /// Sets the permission bits of every page covered by
    /// `[addr, addr + len)` — the `mprotect` analog, and the O(1)-per-page
    /// primitive behind guard-page install and poison-on-free.
    ///
    /// The range must lie within a single mapped region
    /// ([`MemFault::NoSuchRegion`] otherwise). [`Perms::COW`] is dynamic
    /// and masked off; pass [`Perms::RW`] to restore the mapped default.
    /// No frame is allocated or freed: page contents survive a
    /// protect/unprotect round trip.
    pub fn protect(&mut self, addr: Addr, len: u64, perms: Perms) -> Result<(), MemFault> {
        let perms = perms & Perms::STORABLE;
        match self.region_of(addr) {
            Some(r) if r.contains_range(addr, len) => {}
            _ => return Err(MemFault::NoSuchRegion),
        }
        if len == 0 {
            return Ok(());
        }
        let first = addr.page();
        let last = addr.offset(len - 1).page();
        for pageno in first..=last {
            table::walk_mut(&mut self.root, pageno).perms = perms;
        }
        self.epoch += 1;
        Ok(())
    }

    /// Returns the effective permissions of the page containing `addr`,
    /// or `None` if no region maps it.
    ///
    /// [`Perms::COW`] is reported dynamically: set when the page has a
    /// backing frame that a store would replicate (frame or table spine
    /// shared with a snapshot or clone).
    pub fn perms_of(&self, addr: Addr) -> Option<Perms> {
        self.region_of(addr)?;
        let pageno = addr.page();
        let entry = table::walk(&self.root, pageno);
        let stored = entry.map_or(Perms::RW, |e| e.perms);
        let cow = entry.is_some_and(|e| e.frame.is_some())
            && table::path_shared(&self.root, pageno) == Some(true);
        Some(if cow { stored | Perms::COW } else { stored })
    }

    /// Validates an access: region containment plus per-page permission
    /// bits. Single-page accesses are served from the TLB when possible.
    fn access_check(&mut self, addr: Addr, len: u64, kind: AccessKind) -> Result<(), MemFault> {
        let first = addr.page();
        let last = if len == 0 {
            first
        } else {
            addr.offset(len - 1).page()
        };
        if first == last {
            if let Some(perms) = self.tlb.lookup(first, self.epoch) {
                // A cached entry proves the page lies entirely inside one
                // region, so the (single-page) access is contained too.
                return Self::check_perms(perms, addr, len, kind);
            }
        }
        self.tlb.count_miss();
        let (r_start, r_end) = match self.region_of(addr) {
            Some(r) if r.contains_range(addr, len) => (r.start.0, r.end.0),
            _ => return Err(MemFault::AccessViolation { addr, kind, len }),
        };
        for pageno in first..=last {
            let perms = table::walk(&self.root, pageno).map_or(Perms::RW, |e| e.perms);
            Self::check_perms(perms, addr, len, kind)?;
            // Cache only pages fully inside the region: boundary pages
            // keep byte-exact containment checks on the slow path.
            let page_start = pageno * PAGE_SIZE as u64;
            if r_start <= page_start && page_start + PAGE_SIZE as u64 <= r_end {
                self.tlb.insert(pageno, perms, self.epoch);
            }
        }
        Ok(())
    }

    fn check_perms(perms: Perms, addr: Addr, len: u64, kind: AccessKind) -> Result<(), MemFault> {
        if perms.traps() {
            return Err(MemFault::GuardTrap { addr, kind, len });
        }
        let allowed = match kind {
            AccessKind::Read => perms.contains(Perms::READ),
            AccessKind::Write => perms.contains(Perms::WRITE),
        };
        if allowed {
            Ok(())
        } else {
            Err(MemFault::AccessViolation { addr, kind, len })
        }
    }

    // ------------------------------------------------------------------
    // Data access
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&mut self, addr: Addr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.access_check(addr, buf.len() as u64, AccessKind::Read)?;
        self.bytes_read += buf.len() as u64;
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let in_page = PAGE_SIZE - cursor.page_offset();
            let take = in_page.min(buf.len() - filled);
            // Reads walk the table read-only: they must not materialize
            // frames or path-copy shared nodes.
            self.frame(cursor.page())
                .read(cursor.page_offset(), &mut buf[filled..filled + take]);
            filled += take;
            cursor = cursor.offset(take as u64);
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: Addr, buf: &[u8]) -> Result<(), MemFault> {
        self.access_check(addr, buf.len() as u64, AccessKind::Write)?;
        self.bytes_written += buf.len() as u64;
        let mut cursor = addr;
        let mut taken = 0usize;
        while taken < buf.len() {
            let in_page = PAGE_SIZE - cursor.page_offset();
            let take = in_page.min(buf.len() - taken);
            let off = cursor.page_offset();
            Arc::make_mut(self.store_slot(cursor.page())).bytes_mut()[off..off + take]
                .copy_from_slice(&buf[taken..taken + take]);
            taken += take;
            cursor = cursor.offset(take as u64);
        }
        Ok(())
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_bytes(&mut self, addr: Addr, len: u64) -> Result<Vec<u8>, MemFault> {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Compares `[addr, addr + len)` against `byte` in place on the page
    /// frames, without copying.
    ///
    /// Returns `None` if every byte equals `byte`, or
    /// `Some((first, count))`: the offset of the first differing byte and
    /// the number of differing bytes. Access checks, faults, TLB counters
    /// and `bytes_read` are exactly those of [`Self::read`] over the same
    /// range, and an unmaterialized page compares as zeros. A uniform page
    /// answers in O(1); a materialized slice is compared a word at a time
    /// and walked byte by byte only if it differs.
    pub fn find_not(
        &mut self,
        addr: Addr,
        len: u64,
        byte: u8,
    ) -> Result<Option<(u64, u64)>, MemFault> {
        self.access_check(addr, len, AccessKind::Read)?;
        self.bytes_read += len;
        let mut first = None;
        let mut count = 0u64;
        let mut done = 0u64;
        while done < len {
            let cursor = addr.offset(done);
            let off = cursor.page_offset();
            let take = (PAGE_SIZE - off).min((len - done) as usize);
            if let Some((i, n)) = self.frame(cursor.page()).find_not(off, take, byte) {
                first.get_or_insert(done + i as u64);
                count += n as u64;
            }
            done += take as u64;
        }
        Ok(first.map(|f| (f, count)))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: Addr) -> Result<u64, MemFault> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), MemFault> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self, addr: Addr) -> Result<u32, MemFault> {
        let mut buf = [0u8; 4];
        self.read(addr, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, value: u32) -> Result<(), MemFault> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: Addr) -> Result<u8, MemFault> {
        let mut buf = [0u8; 1];
        self.read(addr, &mut buf)?;
        Ok(buf[0])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), MemFault> {
        self.write(addr, &[value])
    }

    /// Fills `[addr, addr + len)` with `byte`.
    ///
    /// The range is access-checked in 4 KiB chunks from `addr`, exactly as
    /// a sequence of 4 KiB [`Self::write`]s would be: the same faults, the
    /// same TLB counts, and on a fault the same prefix of whole chunks
    /// stored before the fault is returned. The checked prefix is then
    /// stored one page at a time: a whole page becomes uniform ([`Page`]
    /// stores it as one byte), a slice of a uniform page that already
    /// holds `byte` needs no data work, and any other slice is filled in
    /// place. Each store counts like a write's: a dirty page, a resident
    /// frame if the page was vacant, and a COW fault if its frame was
    /// shared, though a shared frame that a whole-page fill replaces is
    /// not copied first.
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), MemFault> {
        let mut checked = 0u64;
        let mut fault = Ok(());
        while checked < len {
            let take = (len - checked).min(PAGE_SIZE as u64);
            fault = self.access_check(addr.offset(checked), take, AccessKind::Write);
            if fault.is_err() {
                break;
            }
            checked += take;
        }
        self.bytes_written += checked;
        let mut done = 0u64;
        while done < checked {
            let cursor = addr.offset(done);
            let off = cursor.page_offset();
            let take = (PAGE_SIZE - off).min((checked - done) as usize);
            let slot = self.store_slot(cursor.page());
            if take == PAGE_SIZE && Arc::strong_count(slot) > 1 {
                *slot = Arc::new(Page::uniform(byte));
            } else {
                Arc::make_mut(slot).fill(off, take, byte);
            }
            done += take as u64;
        }
        fault
    }

    /// Returns the frame of page `pageno` for reading; a vacant page reads
    /// as a shared uniform zero page.
    #[inline]
    fn frame(&self, pageno: u64) -> &Page {
        static VACANT: Page = Page::zeroed();
        table::walk(&self.root, pageno)
            .and_then(|e| e.frame.as_deref())
            .unwrap_or(&VACANT)
    }

    /// Returns the frame slot of page `pageno` for a store, counting the
    /// store: the page is dirty, a vacant page gets a new zero frame, and a
    /// frame still shared with a snapshot counts a COW fault (the caller
    /// replicates or replaces it).
    fn store_slot(&mut self, pageno: u64) -> &mut SharedPage {
        if !self.tlb.note_dirty(pageno, self.epoch) {
            self.dirty.insert(pageno);
        }
        let entry = table::walk_mut(&mut self.root, pageno);
        if entry.frame.is_none() {
            self.resident += 1;
        }
        let frame = entry.frame.get_or_insert_with(|| Arc::new(Page::zeroed()));
        if Arc::strong_count(frame) > 1 {
            self.cow_faults += 1;
        }
        frame
    }

    /// Copies `len` bytes from `src` to `dst` through a page-sized stack
    /// buffer — overlap-safe in both directions (`memmove`), without
    /// allocating a `len`-sized temporary.
    ///
    /// Both ranges are validated up front, so a fault leaves the
    /// destination unmodified.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<(), MemFault> {
        self.access_check(src, len, AccessKind::Read)?;
        self.access_check(dst, len, AccessKind::Write)?;
        const CHUNK: u64 = PAGE_SIZE as u64;
        let mut tmp = [0u8; PAGE_SIZE];
        if dst.0 <= src.0 {
            // Ascending chunks: writes only clobber source bytes at or
            // below the chunk already buffered in `tmp`.
            let mut done = 0u64;
            while done < len {
                let take = (len - done).min(CHUNK) as usize;
                self.read(src.offset(done), &mut tmp[..take])?;
                self.write(dst.offset(done), &tmp[..take])?;
                done += take as u64;
            }
        } else {
            // Descending chunks: writes land above the source bytes still
            // to be read.
            let mut remaining = len;
            while remaining > 0 {
                let take = remaining.min(CHUNK) as usize;
                remaining -= take as u64;
                self.read(src.offset(remaining), &mut tmp[..take])?;
                self.write(dst.offset(remaining), &tmp[..take])?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Takes a copy-on-write snapshot of the entire address space.
    ///
    /// O(1): an `Arc` clone of the page-table root. Cost accrues later,
    /// per *written* page, as stores path-copy the shared spine — the
    /// fork analog.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            regions: self.regions.clone(),
            root: Arc::clone(&self.root),
            resident: self.resident,
            next_region: self.next_region,
        }
    }

    /// Restores the address space from a snapshot, discarding all changes
    /// made after it was taken.
    ///
    /// O(1): swaps the page-table root back to the snapshot's. Pages
    /// still shared with the snapshot are untouched; diverged spine nodes
    /// and frames are simply dropped, so resetting a reused trial context
    /// (the validation engine's per-iteration restore) costs only the free
    /// of the diverged state.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        self.root = Arc::clone(&snap.root);
        self.resident = snap.resident;
        self.regions.clone_from(&snap.regions);
        self.next_region = snap.next_region;
        self.dirty.clear();
        self.epoch += 1;
        self.rcache.set(None);
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Returns and clears the count of pages dirtied since the last call.
    ///
    /// This is the COW page rate input of the adaptive checkpoint-interval
    /// controller (paper §3, "Lightweight checkpoint/rollback").
    pub fn take_dirty_pages(&mut self) -> usize {
        let n = self.dirty.len();
        self.dirty.clear();
        self.tlb.clear_dirty();
        n
    }

    /// Returns the count of pages dirtied since the last
    /// [`Self::take_dirty_pages`] without clearing it.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.len()
    }

    /// Returns the number of materialized (resident) pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Returns the total size of all mapped regions in bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(Region::len).sum()
    }

    /// Returns total bytes read through this address space since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Returns total bytes written through this address space since
    /// creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Returns hit/miss counters of the translation cache.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Returns the number of frames replicated by stores to
    /// snapshot-shared pages since creation (the COW fault count).
    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }
}

impl Default for SimMemory {
    fn default() -> Self {
        SimMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped() -> (SimMemory, Addr) {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        (mem, base)
    }

    #[test]
    fn zero_filled_on_first_read() {
        let (mut mem, base) = mapped();
        assert_eq!(mem.read_u64(base).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 0, "reads must not materialize pages");
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut mem, base) = mapped();
        mem.write(base.offset(100), b"hello world").unwrap();
        assert_eq!(
            mem.read_bytes(base.offset(100), 11).unwrap(),
            b"hello world"
        );
    }

    #[test]
    fn cross_page_write() {
        let (mut mem, base) = mapped();
        let addr = base.offset(PAGE_SIZE as u64 - 3);
        mem.write(addr, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(mem.read_bytes(addr, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut mem, base) = mapped();
        let err = mem.read_u8(Addr(0x50)).unwrap_err();
        assert!(matches!(err, MemFault::AccessViolation { .. }));
        // One byte past the end of the region.
        let end = base.offset(1 << 20);
        assert!(mem.write_u8(end, 1).is_err());
        // Access straddling the region end.
        assert!(mem.write(end.back(4), &[0; 8]).is_err());
    }

    #[test]
    fn map_overlap_rejected() {
        let (mut mem, base) = mapped();
        assert!(matches!(
            mem.map(base.offset(512), 16, "x"),
            Err(MemFault::MapOverlap { .. })
        ));
        // Adjacent is fine.
        assert!(mem.map(base.offset(1 << 20), 4096, "y").is_ok());
    }

    #[test]
    fn map_beyond_address_space_rejected() {
        let mut mem = SimMemory::new();
        assert!(matches!(
            mem.map(Addr(VA_LIMIT), 4096, "high"),
            Err(MemFault::BeyondAddressSpace { .. })
        ));
        assert!(matches!(
            mem.map(Addr(u64::MAX - 100), 4096, "wrap"),
            Err(MemFault::BeyondAddressSpace { .. })
        ));
        // The last page of the 39-bit space is fine.
        let id = mem
            .map(Addr(VA_LIMIT - PAGE_SIZE as u64), PAGE_SIZE as u64, "top")
            .unwrap();
        mem.write_u8(Addr(VA_LIMIT - 1), 0xee).unwrap();
        assert!(matches!(
            mem.grow_region(id, Addr(VA_LIMIT + 1)),
            Err(MemFault::BeyondAddressSpace { .. })
        ));
    }

    #[test]
    fn grow_region_sbrk() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000);
        let id = mem.map(base, 4096, "heap").unwrap();
        assert!(mem.write_u8(base.offset(5000), 1).is_err());
        mem.grow_region(id, base.offset(8192)).unwrap();
        assert!(mem.write_u8(base.offset(5000), 1).is_ok());
    }

    #[test]
    fn grow_collision_with_next_region() {
        let mut mem = SimMemory::new();
        let id = mem.map(Addr(0x1000), 4096, "heap").unwrap();
        mem.map(Addr(0x4000), 4096, "other").unwrap();
        assert!(mem.grow_region(id, Addr(0x4000)).is_ok());
        assert!(mem.grow_region(id, Addr(0x4001)).is_err());
    }

    #[test]
    fn shrink_drops_pages() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000);
        let id = mem.map(base, 1 << 16, "heap").unwrap();
        mem.fill(base, 1 << 16, 0xaa).unwrap();
        let before = mem.resident_pages();
        mem.grow_region(id, base.offset(4096)).unwrap();
        assert!(mem.resident_pages() < before);
        // Data in the retained page survives.
        assert_eq!(mem.read_u8(base).unwrap(), 0xaa);
    }

    #[test]
    fn shrink_page_aligned_end_reclaims_exactly() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000);
        let id = mem.map(base, 3 * PAGE_SIZE as u64, "heap").unwrap();
        mem.fill(base, 3 * PAGE_SIZE as u64, 0x11).unwrap();
        assert_eq!(mem.resident_pages(), 3);
        // Page-aligned new end: both vacated pages are exclusively owned.
        mem.grow_region(id, base.offset(PAGE_SIZE as u64)).unwrap();
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(
            mem.read_u8(base.offset(PAGE_SIZE as u64 - 1)).unwrap(),
            0x11
        );
    }

    #[test]
    fn shrink_keeps_page_straddling_the_new_end() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000);
        let id = mem.map(base, 0x2800 - 0x1000, "heap").unwrap(); // [0x1000, 0x2800)
        mem.fill(base, 0x1800, 0x22).unwrap();
        // Shrink to a mid-page end: page 1 straddles the retained prefix.
        mem.grow_region(id, Addr(0x1800)).unwrap();
        assert_eq!(mem.read_u8(Addr(0x17ff)).unwrap(), 0x22);
    }

    #[test]
    fn shrink_spares_straddling_neighbour_page() {
        let mut mem = SimMemory::new();
        // A = [0x1000, 0x2800), B = [0x2800, 0x3800): B starts mid-page 2.
        let a = mem.map(Addr(0x1000), 0x1800, "a").unwrap();
        mem.map(Addr(0x2800), 0x1000, "b").unwrap();
        mem.write(Addr(0x2800), b"neighbour").unwrap();
        // Shrinking A vacates [0x1800, 0x2800); page 2 belongs to B too.
        mem.grow_region(a, Addr(0x1800)).unwrap();
        assert_eq!(mem.read_bytes(Addr(0x2800), 9).unwrap(), b"neighbour");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (mut mem, base) = mapped();
        mem.write_u64(base, 111).unwrap();
        let snap = mem.snapshot();
        mem.write_u64(base, 222).unwrap();
        mem.write_u64(base.offset(8192), 333).unwrap();
        mem.restore(&snap);
        assert_eq!(mem.read_u64(base).unwrap(), 111);
        assert_eq!(mem.read_u64(base.offset(8192)).unwrap(), 0);
    }

    #[test]
    fn restore_is_diff_aware() {
        let (mut mem, base) = mapped();
        let stride = PAGE_SIZE as u64;
        for i in 0..4 {
            mem.write_u64(base.offset(i * stride), i).unwrap();
        }
        let snap = mem.snapshot();
        // Diverge one page, drop another's worth of mapping state, and
        // materialize a page the snapshot never saw.
        mem.write_u64(base.offset(stride), 999).unwrap();
        mem.write_u64(base.offset(10 * stride), 7).unwrap();
        mem.restore(&snap);
        // Every restored page is the snapshot's own Arc, shared in place.
        let again = mem.snapshot();
        assert_eq!(again.page_count(), snap.page_count());
        assert_eq!(again.content_digest(), snap.content_digest());
        for i in 0..4 {
            assert_eq!(mem.read_u64(base.offset(i * stride)).unwrap(), i);
        }
        assert_eq!(mem.read_u64(base.offset(10 * stride)).unwrap(), 0);
        // A second restore with no intervening writes is a no-op swap.
        mem.restore(&snap);
        assert_eq!(mem.snapshot().content_digest(), snap.content_digest());
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let (mut mem, base) = mapped();
        mem.write_u64(base, 1).unwrap();
        let snap = mem.snapshot();
        // Dirty the same page heavily after the snapshot.
        for i in 0..100 {
            mem.write_u64(base.offset(8 * i), i).unwrap();
        }
        mem.restore(&snap);
        assert_eq!(mem.read_u64(base).unwrap(), 1);
        assert_eq!(mem.read_u64(base.offset(8)).unwrap(), 0);
    }

    #[test]
    fn dirty_page_accounting() {
        let (mut mem, base) = mapped();
        assert_eq!(mem.take_dirty_pages(), 0);
        mem.write_u64(base, 1).unwrap();
        mem.write_u64(base.offset(16), 1).unwrap(); // same page
        mem.write_u64(base.offset(PAGE_SIZE as u64), 1).unwrap(); // new page
        assert_eq!(mem.dirty_page_count(), 2);
        assert_eq!(mem.take_dirty_pages(), 2);
        assert_eq!(mem.take_dirty_pages(), 0);
    }

    #[test]
    fn cached_page_redirties_after_take() {
        let (mut mem, base) = mapped();
        mem.write_u64(base, 1).unwrap();
        assert_eq!(mem.take_dirty_pages(), 1);
        // Same page stays hot in the TLB across the interval boundary;
        // the next write must count it dirty again.
        mem.write_u64(base.offset(8), 2).unwrap();
        assert_eq!(mem.dirty_page_count(), 1);
    }

    #[test]
    fn region_of_lookup() {
        let mut mem = SimMemory::new();
        mem.map(Addr(0x1000), 4096, "a").unwrap();
        mem.map(Addr(0x10000), 4096, "b").unwrap();
        assert_eq!(mem.region_of(Addr(0x1000)).unwrap().name, "a");
        assert_eq!(mem.region_of(Addr(0x10fff)).unwrap().name, "b");
        assert!(mem.region_of(Addr(0x2000)).is_none());
        assert!(mem.region_of(Addr(0x0)).is_none());
        // Cached hit after a miss still resolves correctly.
        assert_eq!(mem.region_of(Addr(0x1008)).unwrap().name, "a");
    }

    #[test]
    fn unmap_drops_region() {
        let mut mem = SimMemory::new();
        let id = mem.map(Addr(0x1000), 4096, "a").unwrap();
        mem.write_u8(Addr(0x1000), 9).unwrap();
        mem.unmap(id).unwrap();
        assert!(mem.read_u8(Addr(0x1000)).is_err());
        assert!(matches!(mem.unmap(id), Err(MemFault::NoSuchRegion)));
    }

    #[test]
    fn unmap_reclaims_all_pages() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000);
        let id = mem.map(base, 2 * PAGE_SIZE as u64, "a").unwrap();
        mem.write_u8(base, 1).unwrap();
        mem.write_u8(base.offset(PAGE_SIZE as u64), 2).unwrap();
        mem.unmap(id).unwrap();
        assert_eq!(mem.resident_pages(), 0, "all pages reclaimed");
        // Remapping the same range observes fresh zero pages.
        mem.map(base, 2 * PAGE_SIZE as u64, "a2").unwrap();
        assert_eq!(mem.read_u8(base).unwrap(), 0);
        assert_eq!(mem.read_u8(base.offset(PAGE_SIZE as u64)).unwrap(), 0);
    }

    #[test]
    fn unmap_spares_pages_straddled_by_neighbours() {
        let mut mem = SimMemory::new();
        // A = [0x1000, 0x1800), B = [0x1800, 0x2800): they share page 1,
        // and B alone owns the tail of page 2.
        let a = mem.map(Addr(0x1000), 0x800, "a").unwrap();
        let b = mem.map(Addr(0x1800), 0x1000, "b").unwrap();
        mem.write(Addr(0x1800), b"tail").unwrap();
        mem.write(Addr(0x2000), b"head").unwrap();
        mem.unmap(a).unwrap();
        assert_eq!(mem.read_bytes(Addr(0x1800), 4).unwrap(), b"tail");
        assert_eq!(mem.read_bytes(Addr(0x2000), 4).unwrap(), b"head");
        // Unmapping B afterwards reclaims both shared pages.
        mem.unmap(b).unwrap();
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn unmap_spares_trailing_page_of_following_region() {
        let mut mem = SimMemory::new();
        // A = [0x1000, 0x2800) ends mid-page 2; B = [0x2800, 0x3800)
        // starts on the same page. Unmapping A must not clobber B.
        let a = mem.map(Addr(0x1000), 0x1800, "a").unwrap();
        mem.map(Addr(0x2800), 0x1000, "b").unwrap();
        mem.write(Addr(0x2800), b"survivor").unwrap();
        mem.unmap(a).unwrap();
        assert_eq!(mem.read_bytes(Addr(0x2800), 8).unwrap(), b"survivor");
    }

    #[test]
    fn fill_large_range() {
        let (mut mem, base) = mapped();
        mem.fill(base.offset(10), 3 * PAGE_SIZE as u64, 0x5a)
            .unwrap();
        assert_eq!(mem.read_u8(base.offset(10)).unwrap(), 0x5a);
        assert_eq!(
            mem.read_u8(base.offset(10 + 3 * PAGE_SIZE as u64 - 1))
                .unwrap(),
            0x5a
        );
        assert_eq!(mem.read_u8(base.offset(9)).unwrap(), 0);
    }

    #[test]
    fn fill_stores_whole_pages_uniform_and_reads_them_back() {
        let (mut mem, base) = mapped();
        // Mid-page start: two partial edge pages around two whole ones.
        let start = base.offset(100);
        mem.fill(start, 3 * PAGE_SIZE as u64, 0xab).unwrap();
        assert_eq!(mem.resident_pages(), 4);
        assert_eq!(mem.dirty_page_count(), 4);
        assert_eq!(mem.bytes_written(), 3 * PAGE_SIZE as u64);
        assert_eq!(mem.find_not(start, 3 * PAGE_SIZE as u64, 0xab), Ok(None));
        assert_eq!(mem.read_u8(base.offset(99)).unwrap(), 0);
        let end = start.offset(3 * PAGE_SIZE as u64);
        assert_eq!(mem.read_u8(end).unwrap(), 0);
        // A partial write into a uniform page materializes it.
        mem.write_u8(base.offset(PAGE_SIZE as u64 + 5), 1).unwrap();
        assert_eq!(
            mem.find_not(start, 3 * PAGE_SIZE as u64, 0xab),
            Ok(Some((PAGE_SIZE as u64 - 95, 1)))
        );
    }

    #[test]
    fn fill_stops_at_the_first_faulting_chunk() {
        let (mut mem, base) = mapped();
        // The third 4 KiB chunk from `start` reaches the guard page.
        let start = base.offset(8);
        mem.protect(
            base.offset(3 * PAGE_SIZE as u64),
            PAGE_SIZE as u64,
            Perms::GUARD,
        )
        .unwrap();
        let err = mem.fill(start, 4 * PAGE_SIZE as u64, 0x5a).unwrap_err();
        assert_eq!(
            err,
            MemFault::GuardTrap {
                addr: start.offset(2 * PAGE_SIZE as u64),
                kind: AccessKind::Write,
                len: PAGE_SIZE as u64,
            }
        );
        // Two whole chunks were stored: up to 8 bytes into page 2.
        assert_eq!(mem.bytes_written(), 2 * PAGE_SIZE as u64);
        assert_eq!(mem.find_not(start, 2 * PAGE_SIZE as u64, 0x5a), Ok(None));
        assert_eq!(mem.read_u8(start.offset(2 * PAGE_SIZE as u64)).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 3);
    }

    #[test]
    fn whole_page_fill_of_shared_pages_counts_a_cow_fault_per_page() {
        let (mut mem, base) = mapped();
        let len = 4 * PAGE_SIZE as u64;
        mem.write(base, &vec![7u8; len as usize]).unwrap();
        let snap = mem.snapshot();
        mem.fill(base, len, 0).unwrap();
        assert_eq!(mem.cow_faults(), 4, "one COW fault per shared page");
        mem.fill(base, len, 1).unwrap();
        assert_eq!(mem.cow_faults(), 4, "the pages are private again");
        // The snapshot keeps its bytes; the live pages are uniform ones.
        mem.restore(&snap);
        assert_eq!(mem.find_not(base, len, 7), Ok(None));

        // Same counts as writing the same bytes.
        let (mut by_write, base) = mapped();
        by_write.write(base, &vec![7u8; len as usize]).unwrap();
        let _snap = by_write.snapshot();
        by_write.write(base, &vec![0u8; len as usize]).unwrap();
        assert_eq!(by_write.cow_faults(), 4);
    }

    #[test]
    fn copy_moves_bytes() {
        let (mut mem, base) = mapped();
        mem.write(base, b"first-aid").unwrap();
        mem.copy(base.offset(4096), base, 9).unwrap();
        assert_eq!(mem.read_bytes(base.offset(4096), 9).unwrap(), b"first-aid");
    }

    #[test]
    fn copy_overlapping_forward_and_backward() {
        // Overlap distance smaller than the chunk size in both directions,
        // across a page boundary — the memmove cases.
        let len = PAGE_SIZE as u64 + 500;
        let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();

        let (mut mem, base) = mapped();
        mem.write(base.offset(300), &pattern).unwrap();
        mem.copy(base, base.offset(300), len).unwrap(); // dst < src
        assert_eq!(mem.read_bytes(base, len).unwrap(), pattern);

        let (mut mem, base) = mapped();
        mem.write(base, &pattern).unwrap();
        mem.copy(base.offset(300), base, len).unwrap(); // dst > src
        assert_eq!(mem.read_bytes(base.offset(300), len).unwrap(), pattern);
    }

    #[test]
    fn copy_to_unmapped_destination_is_atomic() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000);
        mem.map(base, 2 * PAGE_SIZE as u64, "a").unwrap();
        mem.write(base, b"payload").unwrap();
        // Destination range runs off the end of the region: the copy must
        // fail up front without writing anything.
        let dst = base.offset(2 * PAGE_SIZE as u64 - 4);
        assert!(mem.copy(dst, base, 7).is_err());
        assert_eq!(mem.read_bytes(dst, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn byte_counters_accumulate() {
        let (mut mem, base) = mapped();
        mem.write_u64(base, 5).unwrap();
        let _ = mem.read_u32(base).unwrap();
        assert_eq!(mem.bytes_written(), 8);
        assert_eq!(mem.bytes_read(), 4);
    }

    #[test]
    fn guarded_page_traps_reads_and_writes() {
        let mut mem = SimMemory::new();
        mem.map(Addr(0x1000), 4096, "slot").unwrap();
        mem.protect(Addr(0x1000), 4096, Perms::GUARD).unwrap();
        assert!(matches!(
            mem.read_u8(Addr(0x1000)),
            Err(MemFault::GuardTrap {
                kind: AccessKind::Read,
                ..
            })
        ));
        assert!(matches!(
            mem.write_u8(Addr(0x1fff), 1),
            Err(MemFault::GuardTrap {
                kind: AccessKind::Write,
                ..
            })
        ));
        // Disarming makes it an ordinary page again.
        mem.protect(Addr(0x1000), 4096, Perms::RW).unwrap();
        assert!(mem.write_u8(Addr(0x1000), 1).is_ok());
        assert_eq!(mem.read_u8(Addr(0x1000)).unwrap(), 1);
    }

    #[test]
    fn map_guarded_protects_every_page() {
        let mut mem = SimMemory::new();
        mem.map_guarded(Addr(0x1000), 2 * PAGE_SIZE as u64, "guard")
            .unwrap();
        assert!(matches!(
            mem.read_u8(Addr(0x1000)),
            Err(MemFault::GuardTrap { .. })
        ));
        assert!(matches!(
            mem.write_u8(Addr(0x1000 + PAGE_SIZE as u64), 1),
            Err(MemFault::GuardTrap { .. })
        ));
        assert_eq!(mem.resident_pages(), 0, "guarding allocates no frames");
    }

    #[test]
    fn poisoned_page_traps_and_contents_survive_unpoison() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000);
        mem.map(base, 4096, "chunk").unwrap();
        mem.write_u64(base, 0xfeed).unwrap();
        mem.protect(base, 4096, Perms::POISONED).unwrap();
        assert!(matches!(
            mem.read_u64(base),
            Err(MemFault::GuardTrap {
                kind: AccessKind::Read,
                ..
            })
        ));
        mem.protect(base, 4096, Perms::RW).unwrap();
        assert_eq!(
            mem.read_u64(base).unwrap(),
            0xfeed,
            "poison round trip must not touch contents"
        );
    }

    #[test]
    fn guard_flip_allocates_nothing() {
        // The acceptance-criteria unit test: arming and disarming a guard
        // page is a pure permission flip — no region allocation, no frame
        // materialization, no change to the mapped extent.
        let (mut mem, base) = mapped();
        mem.write_u8(base, 1).unwrap();
        let regions = mem.regions().len();
        let resident = mem.resident_pages();
        let mapped = mem.mapped_bytes();
        for _ in 0..1000 {
            mem.protect(
                base.offset(PAGE_SIZE as u64),
                PAGE_SIZE as u64,
                Perms::GUARD,
            )
            .unwrap();
            mem.protect(base.offset(PAGE_SIZE as u64), PAGE_SIZE as u64, Perms::RW)
                .unwrap();
        }
        assert_eq!(mem.regions().len(), regions);
        assert_eq!(mem.resident_pages(), resident);
        assert_eq!(mem.mapped_bytes(), mapped);
    }

    #[test]
    fn protect_requires_single_region_containment() {
        let (mut mem, base) = mapped();
        assert!(matches!(
            mem.protect(Addr(0x50), 16, Perms::GUARD),
            Err(MemFault::NoSuchRegion)
        ));
        // Range running off the region end.
        assert!(mem
            .protect(base.offset((1 << 20) - 8), 16, Perms::GUARD)
            .is_err());
    }

    #[test]
    fn perms_of_reports_default_protect_and_cow() {
        let (mut mem, base) = mapped();
        assert_eq!(mem.perms_of(Addr(0x50)), None);
        assert_eq!(mem.perms_of(base), Some(Perms::RW));
        mem.protect(base, PAGE_SIZE as u64, Perms::GUARD).unwrap();
        assert_eq!(mem.perms_of(base), Some(Perms::GUARD));
        mem.protect(base, PAGE_SIZE as u64, Perms::RW).unwrap();
        // COW appears only while a written page is snapshot-shared.
        mem.write_u8(base, 1).unwrap();
        assert_eq!(mem.perms_of(base), Some(Perms::RW));
        let snap = mem.snapshot();
        assert_eq!(mem.perms_of(base), Some(Perms::RW | Perms::COW));
        mem.write_u8(base, 2).unwrap(); // replicates the frame
        assert_eq!(mem.perms_of(base), Some(Perms::RW));
        drop(snap);
        // Untouched pages are never COW (nothing to replicate).
        assert_eq!(mem.perms_of(base.offset(PAGE_SIZE as u64)), Some(Perms::RW));
    }

    #[test]
    fn cow_faults_count_replications() {
        let (mut mem, base) = mapped();
        mem.write_u8(base, 1).unwrap();
        assert_eq!(mem.cow_faults(), 0);
        let _snap = mem.snapshot();
        mem.write_u8(base, 2).unwrap();
        assert_eq!(mem.cow_faults(), 1, "store to a shared page replicates");
        mem.write_u8(base, 3).unwrap();
        assert_eq!(mem.cow_faults(), 1, "page is private again");
    }

    #[test]
    fn guard_survives_snapshot_restore() {
        let mut mem = SimMemory::new();
        mem.map(Addr(0x1000), 4096, "slot").unwrap();
        mem.write_u8(Addr(0x1000), 7).unwrap();
        let snap = mem.snapshot();
        mem.protect(Addr(0x1000), 4096, Perms::GUARD).unwrap();
        assert!(mem.read_u8(Addr(0x1000)).is_err());
        mem.restore(&snap);
        assert_eq!(mem.read_u8(Addr(0x1000)).unwrap(), 7);
        // And the converse: a guard armed before the snapshot is restored
        // with it.
        mem.protect(Addr(0x1000), 4096, Perms::GUARD).unwrap();
        let armed = mem.snapshot();
        mem.protect(Addr(0x1000), 4096, Perms::RW).unwrap();
        assert!(mem.read_u8(Addr(0x1000)).is_ok());
        mem.restore(&armed);
        assert!(mem.read_u8(Addr(0x1000)).is_err());
    }

    #[test]
    fn tlb_serves_hot_page_and_invalidates_on_protect() {
        let (mut mem, base) = mapped();
        mem.write_u8(base.offset(2 * PAGE_SIZE as u64), 1).unwrap();
        let hot = base.offset(2 * PAGE_SIZE as u64);
        let before = mem.tlb_stats();
        for _ in 0..100 {
            let _ = mem.read_u8(hot).unwrap();
        }
        let after = mem.tlb_stats();
        assert!(
            after.hits >= before.hits + 99,
            "hot single-page reads must hit the TLB ({before:?} -> {after:?})"
        );
        // Protect must invalidate the hot entry immediately.
        mem.protect(hot, PAGE_SIZE as u64, Perms::POISONED).unwrap();
        assert!(matches!(mem.read_u8(hot), Err(MemFault::GuardTrap { .. })));
    }

    #[test]
    fn tlb_never_caches_region_boundary_pages() {
        let mut mem = SimMemory::new();
        // Region ends mid-page: accesses near the end must keep faulting
        // byte-exactly even after many repetitions warm the cache.
        mem.map(Addr(0x1000), 0x800, "a").unwrap();
        for _ in 0..50 {
            assert!(mem.read_u8(Addr(0x17ff)).is_ok());
            assert!(mem.read_u8(Addr(0x1800)).is_err());
            assert!(mem.read(Addr(0x17fd), &mut [0; 8]).is_err());
        }
    }

    #[test]
    fn snapshot_sees_latest_write() {
        let (mut mem, base) = mapped();
        mem.write_u64(base, 77).unwrap();
        let snap = mem.snapshot();
        assert_eq!(snap.page_count(), 1);
        mem.write_u64(base, 88).unwrap();
        mem.restore(&snap);
        assert_eq!(mem.read_u64(base).unwrap(), 77);
    }
}
