//! Differential test: [`SimMemory::find_not`], the in-place compare, against
//! a reference built from `read_bytes` plus a byte loop.
//!
//! Two clones of one seeded address space answer the same seeded queries,
//! one through `find_not` and one through the reference. After every query
//! the results must be equal, including the exact [`MemFault`], and so must
//! `tlb_stats()` and `bytes_read()`: the in-place compare has to charge the
//! same access checks as the read it replaces. Pages are canary-filled,
//! canary-filled with flipped bytes, zero-filled, left unmaterialized,
//! guarded or poisoned. Queries cross pages, run off region edges, start
//! or end mid-word and have zero length.

use std::collections::HashSet;

use fa_mem::{Addr, MemFault, Perms, SimMemory, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const PAGE: u64 = PAGE_SIZE as u64;
const FILL: u8 = 0xab;
/// Region A: page-aligned, holds every kind of page including guards.
const A: u64 = 0x4000_0000;
const A_PAGES: u64 = 12;
/// Region B: starts and ends mid-page, so its edge pages are partial.
const B: u64 = 0x4010_0000 + 100;
const B_LEN: u64 = 6 * PAGE + 333;

type Found = Result<Option<(u64, u64)>, MemFault>;

/// The reference: copy the range out, then compare byte by byte.
fn reference(mem: &mut SimMemory, addr: Addr, len: u64, byte: u8) -> Found {
    let bytes = mem.read_bytes(addr, len)?;
    let mut first = None;
    let mut count = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        if b != byte {
            first.get_or_insert(i as u64);
            count += 1;
        }
    }
    Ok(first.map(|f| (f, count)))
}

/// Writes `v` at `addr`, or zero where `v` is the fill byte.
fn flip(mem: &mut SimMemory, addr: u64, v: u8) {
    mem.write_u8(Addr(addr), if v == FILL { 0 } else { v })
        .unwrap();
}

/// Fills every page of `[start, start + len)` one of five ways: left
/// unmaterialized, canary, canary with flips (always at a word lane or an
/// edge byte as well as at random), zeros, or canary then guarded or
/// poisoned (`guards` only). Returns the page numbers left unmaterialized.
fn populate(
    mem: &mut SimMemory,
    rng: &mut SmallRng,
    start: u64,
    len: u64,
    guards: bool,
) -> Vec<u64> {
    let mut vacant = Vec::new();
    let end = start + len;
    let mut page = start / PAGE * PAGE;
    while page < end {
        let lo = page.max(start);
        let hi = (page + PAGE).min(end);
        let span = hi - lo;
        match rng.random_range(0u32..if guards { 6 } else { 4 }) {
            0 => vacant.push(page / PAGE),
            1 => mem.fill(Addr(lo), span, FILL).unwrap(),
            2 => {
                mem.fill(Addr(lo), span, FILL).unwrap();
                let edge = [lo, hi - 1, lo + rng.random_range(0..span.min(8))];
                let mut at = vec![edge[rng.random_range(0usize..3)]];
                for _ in 0..rng.random_range(0u32..4) {
                    at.push(lo + rng.random_range(0..span));
                }
                for a in at {
                    flip(mem, a, rng.random_range(0u8..=255));
                }
            }
            3 => mem.fill(Addr(lo), span, 0).unwrap(),
            k => {
                mem.fill(Addr(lo), span, FILL).unwrap();
                let perms = if k == 4 {
                    Perms::GUARD
                } else {
                    Perms::POISONED
                };
                mem.protect(Addr(page), PAGE, perms).unwrap();
            }
        }
        page += PAGE;
    }
    vacant
}

/// Returns the address space and its unmaterialized page numbers.
fn build(seed: u64) -> (SimMemory, HashSet<u64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mem = SimMemory::new();
    mem.map(Addr(A), A_PAGES * PAGE, "a").unwrap();
    mem.map(Addr(B), B_LEN, "b").unwrap();
    // The first and last page of A stay ordinary, so queries that start
    // outside A reach its edge checks rather than a guard.
    let last = A + (A_PAGES - 1) * PAGE;
    let vacant = [
        populate(&mut mem, &mut rng, A, PAGE, false),
        populate(&mut mem, &mut rng, A + PAGE, (A_PAGES - 2) * PAGE, true),
        populate(&mut mem, &mut rng, last, PAGE, false),
        populate(&mut mem, &mut rng, B, B_LEN, false),
    ];
    (mem, vacant.into_iter().flatten().collect())
}

/// A query range near one of the two regions, sometimes overrunning it.
fn query(rng: &mut SmallRng) -> (Addr, u64, u8) {
    let (start, len) = if rng.random_bool(0.5) {
        (A, A_PAGES * PAGE)
    } else {
        (B, B_LEN)
    };
    let addr = start - PAGE + rng.random_range(0..len + 2 * PAGE);
    let len = match rng.random_range(0u32..10) {
        0 => 0,
        1..=3 => rng.random_range(1..24),
        4..=7 => rng.random_range(1..3 * PAGE + 17),
        _ => (start + len).saturating_sub(addr) + rng.random_range(0u64..3),
    };
    let byte = match rng.random_range(0u32..4) {
        0 | 1 => FILL,
        2 => 0,
        _ => rng.random_range(0u8..=255),
    };
    (Addr(addr), len, byte)
}

/// Counts of the outcome classes a run exercised.
#[derive(Default, Debug)]
struct Coverage {
    intact: usize,
    differs: usize,
    vacant_differs: usize,
    guard_trap: usize,
    violation: usize,
    empty: usize,
}

#[test]
fn find_not_matches_read_bytes_reference() {
    let mut cov = Coverage::default();
    for seed in 0..8 {
        let (mut fast, vacant) = build(seed);
        let mut slow = fast.clone();
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        for step in 0..1500 {
            let (addr, len, byte) = query(&mut rng);
            let got = fast.find_not(addr, len, byte);
            let want = reference(&mut slow, addr, len, byte);
            assert_eq!(
                got, want,
                "seed {seed} step {step}: find_not({addr:?}, {len}, {byte:#x})"
            );
            assert_eq!(
                fast.tlb_stats(),
                slow.tlb_stats(),
                "seed {seed} step {step}"
            );
            assert_eq!(
                fast.bytes_read(),
                slow.bytes_read(),
                "seed {seed} step {step}"
            );
            match &want {
                Ok(None) => cov.intact += 1,
                Ok(Some(_)) => cov.differs += 1,
                Err(MemFault::GuardTrap { .. }) => cov.guard_trap += 1,
                Err(_) => cov.violation += 1,
            }
            if len == 0 {
                cov.empty += 1;
            }
            let (first, last) = (addr.page(), addr.offset(len.max(1) - 1).page());
            if byte != 0 && want.is_ok() && (first..=last).any(|p| vacant.contains(&p)) {
                cov.vacant_differs += 1;
            }
            // Re-arm one of A's interior pages now and then: the epoch
            // bump invalidates the TLB on both sides alike.
            if step % 97 == 0 {
                let page = Addr(A + rng.random_range(1..A_PAGES - 1) * PAGE);
                let perms = fast.perms_of(page).unwrap();
                fast.protect(page, PAGE, perms).unwrap();
                slow.protect(page, PAGE, perms).unwrap();
            }
        }
    }
    assert!(
        cov.intact > 0
            && cov.differs > 0
            && cov.vacant_differs > 0
            && cov.guard_trap > 0
            && cov.violation > 0
            && cov.empty > 0,
        "queries must reach every outcome class: {cov:?}"
    );
}

#[test]
fn unmaterialized_page_compares_as_zeros() {
    let mut mem = SimMemory::new();
    mem.map(Addr(A), 4 * PAGE, "a").unwrap();
    mem.write_u8(Addr(A + 2 * PAGE + 9), FILL).unwrap();
    assert_eq!(mem.find_not(Addr(A), PAGE, 0).unwrap(), None);
    assert_eq!(
        mem.find_not(Addr(A + 10), 2 * PAGE - 10, FILL).unwrap(),
        Some((0, 2 * PAGE - 10))
    );
    // Two vacant pages match zero; the one nonzero byte after them does not.
    assert_eq!(
        mem.find_not(Addr(A), 2 * PAGE + 10, 0).unwrap(),
        Some((2 * PAGE + 9, 1))
    );
    assert_eq!(mem.resident_pages(), 1, "the compare materializes nothing");
}
