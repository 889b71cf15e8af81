//! Differential property tests: the paged address space (radix walk +
//! TLB) against the retained flat-map oracle.
//!
//! Every generated operation — map/unmap/grow, protect with guard and
//! poison bits, byte-granular reads/writes/fills/copies, page-aligned
//! whole-page fills, in-place compares, snapshot and restore — is applied
//! to both [`SimMemory`] and [`FlatMemory`], and every observable is
//! compared after each step: the operation `Result` (including the exact
//! [`MemFault`]), returned data, mapped bytes, resident and dirty page
//! counts, bytes read and written, per-page effective permissions (with
//! the dynamic COW bit), and snapshot page counts and content digests.
//! The oracle stores every page as bytes, so this also checks
//! `SimMemory`'s uniform pages against their bytes. The vendored proptest
//! shim seeds each case from the test name, so failures replay
//! deterministically.

use proptest::prelude::*;

use fa_mem::{Addr, FlatMemory, MemFault, Perms, RegionId, SimMemory, PAGE_SIZE};

const PAGE: u64 = PAGE_SIZE as u64;
/// Fixed region slots, far enough apart that growth never collides.
const SLOTS: usize = 3;
const SLOT_SPACING: u64 = 0x40_0000; // 4 MiB
/// Largest region extent ops can produce (map ≤ 16 pages, grow ≤ 48).
const MAX_PAGES: u64 = 48;
/// Ops address up to this many pages past a slot base, so out-of-range
/// and cross-boundary accesses are generated too.
const SPAN_PAGES: u64 = 20;
/// Bound on live snapshots (oldest dropped first), so COW sharing both
/// appears and disappears during a run.
const SNAP_CAP: usize = 3;
/// Fill bytes drawn often, so same-byte refills of uniform pages and
/// uniform → partial → COW sequences are common.
const FILL_BYTES: [u8; 3] = [0x00, 0xab, 0x77];

fn base(slot: usize) -> u64 {
    0x4000_0000 + slot as u64 * SLOT_SPACING
}

#[derive(Clone, Debug)]
enum Op {
    Map {
        slot: usize,
        pages: u64,
        guarded: bool,
    },
    Unmap {
        slot: usize,
    },
    Grow {
        slot: usize,
        pages: u64,
    },
    Protect {
        slot: usize,
        first: u64,
        count: u64,
        perms: Perms,
    },
    Write {
        slot: usize,
        off: u64,
        len: u64,
        seed: u8,
    },
    Read {
        slot: usize,
        off: u64,
        len: u64,
    },
    Fill {
        slot: usize,
        off: u64,
        len: u64,
        byte: u8,
    },
    /// A page-aligned fill of whole pages.
    WholeFill {
        slot: usize,
        first: u64,
        pages: u64,
        byte: u8,
    },
    FindNot {
        slot: usize,
        off: u64,
        len: u64,
        byte: u8,
    },
    Copy {
        dslot: usize,
        doff: u64,
        sslot: usize,
        soff: u64,
        len: u64,
    },
    Snapshot,
    Restore,
    TakeDirty,
}

fn perm_strategy() -> impl Strategy<Value = Perms> {
    prop_oneof![
        3 => Just(Perms::RW),
        2 => Just(Perms::GUARD),
        2 => Just(Perms::POISONED),
        1 => Just(Perms::READ),
    ]
}

fn fill_byte() -> impl Strategy<Value = u8> {
    (0..FILL_BYTES.len()).prop_map(|i| FILL_BYTES[i])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let slot = 0..SLOTS;
    let off = 0..SPAN_PAGES * PAGE;
    let len = 0..3 * PAGE + 17;
    prop_oneof![
        2 => (slot.clone(), 1..16u64, any::<bool>())
            .prop_map(|(slot, pages, guarded)| Op::Map { slot, pages, guarded }),
        1 => slot.clone().prop_map(|slot| Op::Unmap { slot }),
        2 => (slot.clone(), 0..MAX_PAGES).prop_map(|(slot, pages)| Op::Grow { slot, pages }),
        3 => (slot.clone(), 0..SPAN_PAGES, 1..4u64, perm_strategy())
            .prop_map(|(slot, first, count, perms)| Op::Protect { slot, first, count, perms }),
        4 => (slot.clone(), off.clone(), len.clone(), any::<u8>())
            .prop_map(|(slot, off, len, seed)| Op::Write { slot, off, len, seed }),
        3 => (slot.clone(), off.clone(), len.clone())
            .prop_map(|(slot, off, len)| Op::Read { slot, off, len }),
        2 => (slot.clone(), off.clone(), len.clone(), prop_oneof![any::<u8>(), fill_byte()])
            .prop_map(|(slot, off, len, byte)| Op::Fill { slot, off, len, byte }),
        3 => (slot.clone(), 0..SPAN_PAGES, 1..4u64, fill_byte())
            .prop_map(|(slot, first, pages, byte)| Op::WholeFill { slot, first, pages, byte }),
        2 => (slot.clone(), off.clone(), len.clone(), fill_byte())
            .prop_map(|(slot, off, len, byte)| Op::FindNot { slot, off, len, byte }),
        2 => (slot.clone(), off.clone(), slot, off, len)
            .prop_map(|(dslot, doff, sslot, soff, len)| Op::Copy { dslot, doff, sslot, soff, len }),
        1 => Just(Op::Snapshot),
        1 => Just(Op::Restore),
        1 => Just(Op::TakeDirty),
    ]
}

fn pattern(seed: u8, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add(i as u8).wrapping_mul(167))
        .collect()
}

/// The reference for [`SimMemory::find_not`]: the oracle's bytes, compared
/// one at a time.
fn find_not_reference(
    flat: &mut FlatMemory,
    addr: Addr,
    len: u64,
    byte: u8,
) -> Result<Option<(u64, u64)>, MemFault> {
    let bytes = flat.read_bytes(addr, len)?;
    let mut differing = (0u64..).zip(bytes).filter(|&(_, b)| b != byte);
    Ok(differing
        .next()
        .map(|(first, _)| (first, 1 + differing.count() as u64)))
}

/// Region ids per slot for each implementation. Ids are assigned from
/// the same deterministic counter on both sides, so they should always
/// agree — the differential comparison on `map` results enforces it.
type Ids = [Option<(RegionId, RegionId)>; SLOTS];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paged_memory_matches_flat_oracle(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut paged = SimMemory::new();
        let mut flat = FlatMemory::new();
        let mut ids: Ids = [None; SLOTS];
        let mut snaps: Vec<(fa_mem::MemSnapshot, fa_mem::FlatSnapshot, Ids)> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match op.clone() {
                Op::Map { slot, pages, guarded } => {
                    let (start, len) = (Addr(base(slot)), pages * PAGE);
                    let (rp, rf) = if guarded {
                        (paged.map_guarded(start, len, "slot"), flat.map_guarded(start, len, "slot"))
                    } else {
                        (paged.map(start, len, "slot"), flat.map(start, len, "slot"))
                    };
                    prop_assert_eq!(&rp, &rf, "map diverged at step {}: {:?}", step, op);
                    if let (Ok(p), Ok(f)) = (rp, rf) {
                        ids[slot] = Some((p, f));
                    }
                }
                Op::Unmap { slot } => {
                    // Stale ids (after a successful unmap or a restore)
                    // are used on purpose: both sides must agree the
                    // region is gone.
                    let Some((p, f)) = ids[slot] else { continue };
                    prop_assert_eq!(paged.unmap(p), flat.unmap(f),
                        "unmap diverged at step {}: {:?}", step, op);
                }
                Op::Grow { slot, pages } => {
                    let Some((p, f)) = ids[slot] else { continue };
                    let new_end = Addr(base(slot) + pages * PAGE);
                    prop_assert_eq!(paged.grow_region(p, new_end), flat.grow_region(f, new_end),
                        "grow diverged at step {}: {:?}", step, op);
                }
                Op::Protect { slot, first, count, perms } => {
                    let addr = Addr(base(slot) + first * PAGE);
                    prop_assert_eq!(
                        paged.protect(addr, count * PAGE, perms),
                        flat.protect(addr, count * PAGE, perms),
                        "protect diverged at step {}: {:?}", step, op
                    );
                }
                Op::Write { slot, off, len, seed } => {
                    let data = pattern(seed, len);
                    prop_assert_eq!(
                        paged.write(Addr(base(slot) + off), &data),
                        flat.write(Addr(base(slot) + off), &data),
                        "write diverged at step {}: {:?}", step, op
                    );
                }
                Op::Read { slot, off, len } => {
                    prop_assert_eq!(
                        paged.read_bytes(Addr(base(slot) + off), len),
                        flat.read_bytes(Addr(base(slot) + off), len),
                        "read diverged at step {}: {:?}", step, op
                    );
                }
                Op::Fill { slot, off, len, byte } => {
                    prop_assert_eq!(
                        paged.fill(Addr(base(slot) + off), len, byte),
                        flat.fill(Addr(base(slot) + off), len, byte),
                        "fill diverged at step {}: {:?}", step, op
                    );
                }
                Op::WholeFill { slot, first, pages, byte } => {
                    let (addr, len) = (Addr(base(slot) + first * PAGE), pages * PAGE);
                    prop_assert_eq!(
                        paged.fill(addr, len, byte),
                        flat.fill(addr, len, byte),
                        "whole-page fill diverged at step {}: {:?}", step, op
                    );
                }
                Op::FindNot { slot, off, len, byte } => {
                    let addr = Addr(base(slot) + off);
                    prop_assert_eq!(
                        paged.find_not(addr, len, byte),
                        find_not_reference(&mut flat, addr, len, byte),
                        "find_not diverged at step {}: {:?}", step, op
                    );
                }
                Op::Copy { dslot, doff, sslot, soff, len } => {
                    let (dst, src) = (Addr(base(dslot) + doff), Addr(base(sslot) + soff));
                    prop_assert_eq!(paged.copy(dst, src, len), flat.copy(dst, src, len),
                        "copy diverged at step {}: {:?}", step, op);
                }
                Op::Snapshot => {
                    let sp = paged.snapshot();
                    let sf = flat.snapshot();
                    prop_assert_eq!(sp.page_count(), sf.page_count(),
                        "snapshot page_count diverged at step {}", step);
                    prop_assert_eq!(sp.content_digest(), sf.content_digest(),
                        "snapshot digest diverged at step {}", step);
                    if snaps.len() == SNAP_CAP {
                        snaps.remove(0);
                    }
                    snaps.push((sp, sf, ids));
                }
                Op::Restore => {
                    let Some((sp, sf, saved)) = snaps.pop() else { continue };
                    paged.restore(&sp);
                    flat.restore(&sf);
                    ids = saved;
                }
                Op::TakeDirty => {
                    prop_assert_eq!(paged.take_dirty_pages(), flat.take_dirty_pages(),
                        "take_dirty_pages diverged at step {}", step);
                }
            }

            // Observable invariants after every operation.
            prop_assert_eq!(paged.mapped_bytes(), flat.mapped_bytes(),
                "mapped_bytes diverged at step {}: {:?}", step, op);
            prop_assert_eq!(paged.resident_pages(), flat.resident_pages(),
                "resident_pages diverged at step {}: {:?}", step, op);
            prop_assert_eq!(paged.dirty_page_count(), flat.dirty_page_count(),
                "dirty_page_count diverged at step {}: {:?}", step, op);
            prop_assert_eq!(paged.bytes_read(), flat.bytes_read(),
                "bytes_read diverged at step {}: {:?}", step, op);
            prop_assert_eq!(paged.bytes_written(), flat.bytes_written(),
                "bytes_written diverged at step {}: {:?}", step, op);
            for s in 0..SLOTS {
                for k in 0..SPAN_PAGES {
                    let a = Addr(base(s) + k * PAGE);
                    prop_assert_eq!(paged.perms_of(a), flat.perms_of(a),
                        "perms_of({:?}) diverged at step {}: {:?}", a, step, op);
                }
            }
        }

        // Final full-content comparison over every mapped slot, plus one
        // last snapshot digest across the whole address space.
        for s in 0..SLOTS {
            let Some(extent) = paged.region_of(Addr(base(s))).map(|r| (r.start, r.len())) else {
                prop_assert!(flat.region_of(Addr(base(s))).is_none(),
                    "slot {} mapped only in the oracle", s);
                continue;
            };
            let (start, len) = extent;
            // A guard or poison page anywhere in the slot makes the bulk
            // read trap; both sides must agree either way.
            prop_assert_eq!(paged.read_bytes(start, len), flat.read_bytes(start, len),
                "final content diverged in slot {}", s);
        }
        prop_assert_eq!(
            paged.snapshot().content_digest(),
            flat.snapshot().content_digest(),
            "final digest diverged"
        );
    }

    /// TLB-focused slice of the differential: repeated single-page hits
    /// with interleaved protects (epoch invalidation) must never serve
    /// stale permissions.
    #[test]
    fn tlb_never_serves_stale_permissions(
        steps in prop::collection::vec((0..8u64, perm_strategy(), any::<u8>()), 1..60),
    ) {
        let mut paged = SimMemory::new();
        let mut flat = FlatMemory::new();
        let start = Addr(base(0));
        paged.map(start, 8 * PAGE, "tlb").unwrap();
        flat.map(start, 8 * PAGE, "tlb").unwrap();

        for (pageno, perms, byte) in steps {
            let addr = Addr(base(0) + pageno * PAGE + u64::from(byte) % PAGE);
            // Warm the TLB on both read and write paths...
            prop_assert_eq!(paged.read_u8(addr), flat.read_u8(addr));
            prop_assert_eq!(paged.write_u8(addr, byte), flat.write_u8(addr, byte));
            // ...then flip permissions and require agreement immediately.
            prop_assert_eq!(
                paged.protect(Addr(base(0) + pageno * PAGE), PAGE, perms),
                flat.protect(Addr(base(0) + pageno * PAGE), PAGE, perms)
            );
            prop_assert_eq!(paged.read_u8(addr), flat.read_u8(addr));
            prop_assert_eq!(paged.write_u8(addr, byte.wrapping_add(1)), flat.write_u8(addr, byte.wrapping_add(1)));
            prop_assert_eq!(paged.perms_of(addr), flat.perms_of(addr));
        }

        let stats = paged.tlb_stats();
        prop_assert!(stats.hits + stats.misses > 0, "TLB was never consulted");
    }
}
