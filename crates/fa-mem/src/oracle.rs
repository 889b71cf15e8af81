//! The retained flat-map address space: differential-testing oracle.
//!
//! [`FlatMemory`] is the pre-page-table implementation of the memory
//! substrate — a `BTreeMap` of pages plus a `BTreeMap` of per-page
//! permissions, with **no** TLB, no region cache, and no radix walk. It
//! implements exactly the semantics [`crate::SimMemory`] promises, by the
//! most obvious construction possible, and exists so property tests can
//! drive both implementations with the same operation stream and compare
//! every observable (`tests/differential.rs`).
//!
//! Its pages are plain byte arrays, never the uniform pages of
//! [`crate::Page`], so the differential tests check that representation
//! against bytes.
//!
//! Keep this module boring: any cleverness added here weakens the oracle.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::addr::Addr;
use crate::fault::{AccessKind, MemFault};
use crate::page::{hash_bytes, PAGE_SIZE};
use crate::perm::Perms;
use crate::region::{Region, RegionId};
use crate::table::VA_LIMIT;

/// A page of the oracle: its bytes in full, shared copy-on-write.
type FlatPage = Arc<[u8; PAGE_SIZE]>;

/// Snapshot of a [`FlatMemory`]: a full clone of the page and permission
/// maps (O(resident pages), unlike the O(1) paged snapshot).
#[derive(Clone)]
pub struct FlatSnapshot {
    regions: Vec<Region>,
    pages: BTreeMap<u64, FlatPage>,
    perms: BTreeMap<u64, Perms>,
    next_region: u32,
}

impl FlatSnapshot {
    /// Number of pages referenced by the snapshot.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Content digest with the same fold as
    /// [`crate::MemSnapshot::content_digest`].
    pub fn content_digest(&self) -> u64 {
        let mut h = 0xfa1d_c0de_5eed_0001u64;
        for (pageno, page) in &self.pages {
            h = crate::snapshot::mix64(h ^ pageno.rotate_left(32) ^ hash_bytes(page));
        }
        h
    }
}

/// Flat-map reference implementation of the [`crate::SimMemory`] API.
#[derive(Clone, Default)]
pub struct FlatMemory {
    /// Mapped regions, sorted by start address.
    regions: Vec<Region>,
    /// Materialized pages by page number.
    pages: BTreeMap<u64, FlatPage>,
    /// Non-default permissions by page number (absent ⇒ [`Perms::RW`]).
    perms: BTreeMap<u64, Perms>,
    dirty: BTreeSet<u64>,
    next_region: u32,
    bytes_read: u64,
    bytes_written: u64,
}

impl FlatMemory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        FlatMemory::default()
    }

    /// See [`crate::SimMemory::map`].
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
        Ok(id)
    }

    /// See [`crate::SimMemory::map_guarded`].
    pub fn map_guarded(&mut self, start: Addr, len: u64, name: &str) -> Result<RegionId, MemFault> {
        let id = self.map(start, len, name)?;
        self.protect(start, len, Perms::GUARD)
            .expect("freshly mapped range must be protectable");
        Ok(id)
    }

    /// See [`crate::SimMemory::unmap`].
    pub fn unmap(&mut self, id: RegionId) -> Result<(), MemFault> {
        let pos = self
            .regions
            .iter()
            .position(|r| r.id == id)
            .ok_or(MemFault::NoSuchRegion)?;
        let region = self.regions.remove(pos);
        self.reclaim_range(region.start, region.end);
        Ok(())
    }

    /// See [`crate::SimMemory::grow_region`].
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
        if new_end < old_end {
            self.reclaim_range(new_end, old_end);
        }
        Ok(())
    }

    fn reclaim_range(&mut self, start: Addr, end: Addr) {
        if end <= start {
            return;
        }
        let first = start.page();
        let last = end.back(1).page();
        for pageno in first..=last {
            if pageno == first || pageno == last {
                let page_start = Addr(pageno * PAGE_SIZE as u64);
                if self
                    .regions
                    .iter()
                    .any(|r| r.overlaps(page_start, PAGE_SIZE as u64))
                {
                    continue;
                }
            }
            self.pages.remove(&pageno);
            self.perms.remove(&pageno);
            self.dirty.remove(&pageno);
        }
    }

    /// See [`crate::SimMemory::region_of`].
    pub fn region_of(&self, addr: Addr) -> Option<&Region> {
        self.regions
            .iter()
            .find(|r| r.start <= addr && addr < r.end)
    }

    /// See [`crate::SimMemory::region`].
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// See [`crate::SimMemory::regions`].
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// See [`crate::SimMemory::protect`].
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
            if perms == Perms::RW {
                self.perms.remove(&pageno);
            } else {
                self.perms.insert(pageno, perms);
            }
        }
        Ok(())
    }

    /// See [`crate::SimMemory::perms_of`].
    pub fn perms_of(&self, addr: Addr) -> Option<Perms> {
        self.region_of(addr)?;
        let pageno = addr.page();
        let stored = self.perms.get(&pageno).copied().unwrap_or(Perms::RW);
        let cow = self
            .pages
            .get(&pageno)
            .is_some_and(|page| Arc::strong_count(page) > 1);
        Some(if cow { stored | Perms::COW } else { stored })
    }

    fn page_perms(&self, pageno: u64) -> Perms {
        self.perms.get(&pageno).copied().unwrap_or(Perms::RW)
    }

    fn access_check(&self, addr: Addr, len: u64, kind: AccessKind) -> Result<(), MemFault> {
        match self.region_of(addr) {
            Some(r) if r.contains_range(addr, len) => {}
            _ => return Err(MemFault::AccessViolation { addr, kind, len }),
        }
        let first = addr.page();
        let last = if len == 0 {
            first
        } else {
            addr.offset(len - 1).page()
        };
        for pageno in first..=last {
            let perms = self.page_perms(pageno);
            if perms.traps() {
                return Err(MemFault::GuardTrap { addr, kind, len });
            }
            let allowed = match kind {
                AccessKind::Read => perms.contains(Perms::READ),
                AccessKind::Write => perms.contains(Perms::WRITE),
            };
            if !allowed {
                return Err(MemFault::AccessViolation { addr, kind, len });
            }
        }
        Ok(())
    }

    /// See [`crate::SimMemory::read`].
    pub fn read(&mut self, addr: Addr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.access_check(addr, buf.len() as u64, AccessKind::Read)?;
        self.bytes_read += buf.len() as u64;
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let in_page = PAGE_SIZE - cursor.page_offset();
            let take = in_page.min(buf.len() - filled);
            match self.pages.get(&cursor.page()) {
                Some(page) => {
                    let off = cursor.page_offset();
                    buf[filled..filled + take].copy_from_slice(&page[off..off + take]);
                }
                None => buf[filled..filled + take].fill(0),
            }
            filled += take;
            cursor = cursor.offset(take as u64);
        }
        Ok(())
    }

    /// See [`crate::SimMemory::write`].
    pub fn write(&mut self, addr: Addr, buf: &[u8]) -> Result<(), MemFault> {
        self.access_check(addr, buf.len() as u64, AccessKind::Write)?;
        self.bytes_written += buf.len() as u64;
        let mut cursor = addr;
        let mut taken = 0usize;
        while taken < buf.len() {
            let in_page = PAGE_SIZE - cursor.page_offset();
            let take = in_page.min(buf.len() - taken);
            let pageno = cursor.page();
            let page = match self.pages.entry(pageno) {
                Entry::Occupied(slot) => slot.into_mut(),
                Entry::Vacant(slot) => slot.insert(Arc::new([0; PAGE_SIZE])),
            };
            let off = cursor.page_offset();
            Arc::make_mut(page)[off..off + take].copy_from_slice(&buf[taken..taken + take]);
            self.dirty.insert(pageno);
            taken += take;
            cursor = cursor.offset(take as u64);
        }
        Ok(())
    }

    /// See [`crate::SimMemory::read_bytes`].
    pub fn read_bytes(&mut self, addr: Addr, len: u64) -> Result<Vec<u8>, MemFault> {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// See [`crate::SimMemory::read_u64`].
    pub fn read_u64(&mut self, addr: Addr) -> Result<u64, MemFault> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// See [`crate::SimMemory::write_u64`].
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), MemFault> {
        self.write(addr, &value.to_le_bytes())
    }

    /// See [`crate::SimMemory::read_u8`].
    pub fn read_u8(&mut self, addr: Addr) -> Result<u8, MemFault> {
        let mut buf = [0u8; 1];
        self.read(addr, &mut buf)?;
        Ok(buf[0])
    }

    /// See [`crate::SimMemory::write_u8`].
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), MemFault> {
        self.write(addr, &[value])
    }

    /// See [`crate::SimMemory::fill`].
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), MemFault> {
        const CHUNK: usize = PAGE_SIZE;
        let tmp = [byte; CHUNK];
        let mut cursor = addr;
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(CHUNK as u64);
            self.write(cursor, &tmp[..take as usize])?;
            cursor = cursor.offset(take);
            remaining -= take;
        }
        Ok(())
    }

    /// See [`crate::SimMemory::copy`]. The paged implementation chunks
    /// through a page-sized buffer with memmove semantics; a full
    /// temporary is observationally identical and more obviously correct.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<(), MemFault> {
        self.access_check(src, len, AccessKind::Read)?;
        self.access_check(dst, len, AccessKind::Write)?;
        let mut tmp = vec![0u8; len as usize];
        self.read(src, &mut tmp)?;
        self.write(dst, &tmp)?;
        Ok(())
    }

    /// See [`crate::SimMemory::snapshot`].
    pub fn snapshot(&self) -> FlatSnapshot {
        FlatSnapshot {
            regions: self.regions.clone(),
            pages: self.pages.clone(),
            perms: self.perms.clone(),
            next_region: self.next_region,
        }
    }

    /// See [`crate::SimMemory::restore`].
    pub fn restore(&mut self, snap: &FlatSnapshot) {
        self.regions.clone_from(&snap.regions);
        self.pages.clone_from(&snap.pages);
        self.perms.clone_from(&snap.perms);
        self.next_region = snap.next_region;
        self.dirty.clear();
    }

    /// See [`crate::SimMemory::take_dirty_pages`].
    pub fn take_dirty_pages(&mut self) -> usize {
        let n = self.dirty.len();
        self.dirty.clear();
        n
    }

    /// See [`crate::SimMemory::dirty_page_count`].
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.len()
    }

    /// See [`crate::SimMemory::resident_pages`].
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// See [`crate::SimMemory::mapped_bytes`].
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(Region::len).sum()
    }

    /// See [`crate::SimMemory::bytes_read`].
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// See [`crate::SimMemory::bytes_written`].
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_basic_roundtrip() {
        let mut mem = FlatMemory::new();
        let base = Addr(0x1000);
        mem.map(base, 1 << 16, "heap").unwrap();
        mem.write(base.offset(10), b"oracle").unwrap();
        assert_eq!(mem.read_bytes(base.offset(10), 6).unwrap(), b"oracle");
        assert_eq!(mem.resident_pages(), 1);
        let snap = mem.snapshot();
        mem.fill(base, 1 << 16, 0xff).unwrap();
        mem.restore(&snap);
        assert_eq!(mem.read_bytes(base.offset(10), 6).unwrap(), b"oracle");
        assert_eq!(mem.read_u8(base).unwrap(), 0);
    }

    #[test]
    fn oracle_guard_and_poison() {
        let mut mem = FlatMemory::new();
        let base = Addr(0x1000);
        mem.map(base, 1 << 16, "heap").unwrap();
        mem.protect(base, PAGE_SIZE as u64, Perms::GUARD).unwrap();
        assert!(matches!(mem.read_u8(base), Err(MemFault::GuardTrap { .. })));
        mem.protect(base, PAGE_SIZE as u64, Perms::RW).unwrap();
        assert!(mem.read_u8(base).is_ok());
    }

    #[test]
    fn oracle_reports_cow_while_snapshot_lives() {
        let mut mem = FlatMemory::new();
        let base = Addr(0x1000);
        mem.map(base, 1 << 16, "heap").unwrap();
        mem.write_u8(base, 1).unwrap();
        assert_eq!(mem.perms_of(base), Some(Perms::RW));
        let snap = mem.snapshot();
        assert_eq!(mem.perms_of(base), Some(Perms::RW | Perms::COW));
        mem.write_u8(base, 2).unwrap();
        assert_eq!(mem.perms_of(base), Some(Perms::RW));
        drop(snap);
    }
}
