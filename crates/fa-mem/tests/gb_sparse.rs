//! GB-scale sparse mappings: memory cost must track *touched* pages,
//! never mapped extent, and snapshot cost must track *dirtied* pages.
//!
//! The radix page table makes a multi-GB region free until written —
//! this is what lets a checkpoint ring or a validation fork share a
//! full-size heap. These tests map regions far larger than physical
//! memory could back (multiple GiB inside the 512 GiB virtual space)
//! and assert the proportionality properties directly.

use std::collections::BTreeSet;

use fa_mem::{Addr, SimMemory, PAGE_SIZE, VA_LIMIT};

const PAGE: u64 = PAGE_SIZE as u64;
const GIB: u64 = 1 << 30;

/// Deterministic scatter: a multiplicative-congruential walk over the
/// region's page space, so touched pages land in distinct radix leaves.
fn scattered_pages(region_pages: u64, count: usize) -> Vec<u64> {
    let mut pages = Vec::with_capacity(count);
    let mut x = 0x9e37_79b9u64;
    for _ in 0..count {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        pages.push(x % region_pages);
    }
    pages
}

#[test]
fn multi_gb_region_costs_only_touched_pages() {
    let mut mem = SimMemory::new();
    let base = Addr(0x10_0000_0000); // 64 GiB
    let len = 8 * GIB;
    assert!(
        base.0 + len <= VA_LIMIT,
        "test region must fit the address space"
    );
    mem.map(base, len, "sparse-heap").unwrap();

    assert_eq!(mem.mapped_bytes(), len);
    assert_eq!(
        mem.resident_pages(),
        0,
        "mapping alone materializes nothing"
    );

    let touched = scattered_pages(len / PAGE, 300);
    let distinct: BTreeSet<u64> = touched.iter().copied().collect();
    for &p in &touched {
        mem.write_u64(base.offset(p * PAGE + (p % 37) * 8), p)
            .unwrap();
    }

    assert_eq!(
        mem.resident_pages(),
        distinct.len(),
        "residency must equal distinct touched pages, not the 8 GiB extent"
    );
    assert_eq!(mem.dirty_page_count(), distinct.len());

    // Reads of untouched space stay free.
    assert_eq!(mem.read_u64(base.offset(len - PAGE)).unwrap_or(1), 0);
    assert_eq!(
        mem.resident_pages(),
        distinct.len(),
        "reads materialize nothing"
    );

    // Every touched page reads back its marker (last write wins per page).
    for &p in distinct.iter().take(50) {
        let got = mem.read_u64(base.offset(p * PAGE + (p % 37) * 8)).unwrap();
        assert_eq!(got, p);
    }
}

#[test]
fn snapshot_cost_scales_with_dirty_pages_not_extent() {
    let mut mem = SimMemory::new();
    let base = Addr(0x20_0000_0000);
    let len = 4 * GIB;
    mem.map(base, len, "sparse-heap").unwrap();

    // Working set: 200 scattered pages.
    let pages = scattered_pages(len / PAGE, 200);
    let distinct: BTreeSet<u64> = pages.iter().copied().collect();
    for &p in &pages {
        mem.write_u64(base.offset(p * PAGE), p).unwrap();
    }
    mem.take_dirty_pages();

    let s1 = mem.snapshot();
    assert_eq!(s1.page_count(), distinct.len());
    assert_eq!(s1.referenced_bytes(), distinct.len() as u64 * PAGE);

    // Dirty a small, known subset after the checkpoint.
    let redirty: Vec<u64> = distinct.iter().copied().take(17).collect();
    for &p in &redirty {
        mem.write_u64(base.offset(p * PAGE), p ^ 0xff).unwrap();
    }
    assert_eq!(mem.dirty_page_count(), redirty.len());

    // The next checkpoint's incremental space cost is exactly the
    // re-dirtied pages (paper Table 7: COW checkpoints cost the pages
    // written in the interval), not the resident set and certainly not
    // the 4 GiB extent.
    let s2 = mem.snapshot();
    assert_eq!(s2.page_count(), distinct.len(), "no new pages were created");
    assert_eq!(s2.owned_bytes_vs(&s1), redirty.len() as u64 * PAGE);
    assert_eq!(s1.owned_bytes_vs(&s2), redirty.len() as u64 * PAGE);
    assert_ne!(s1.content_digest(), s2.content_digest());

    // Rollback is O(1) and restores both content and accounting.
    mem.restore(&s1);
    assert_eq!(mem.resident_pages(), distinct.len());
    assert_eq!(mem.dirty_page_count(), 0);
    for &p in &redirty {
        assert_eq!(mem.read_u64(base.offset(p * PAGE)).unwrap(), p);
    }
    assert_eq!(mem.snapshot().content_digest(), s1.content_digest());
}

#[test]
fn unmap_reclaims_sparse_residency() {
    let mut mem = SimMemory::new();
    let keep = mem.map(Addr(0x40_0000_0000), GIB, "keep").unwrap();
    let drop_id = mem.map(Addr(0x48_0000_0000), GIB, "drop").unwrap();
    for i in 0..64u64 {
        mem.write_u64(Addr(0x40_0000_0000 + i * 367 * PAGE), i)
            .unwrap();
        mem.write_u64(Addr(0x48_0000_0000 + i * 367 * PAGE), i)
            .unwrap();
    }
    let before = mem.resident_pages();
    mem.unmap(drop_id).unwrap();
    assert_eq!(
        mem.resident_pages(),
        before / 2,
        "unmap frees the dropped frames"
    );
    mem.unmap(keep).unwrap();
    assert_eq!(mem.resident_pages(), 0);
    assert_eq!(mem.mapped_bytes(), 0);
}
