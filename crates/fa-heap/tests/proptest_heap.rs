//! Property-based tests: the allocator must preserve its structural
//! invariants and user data under arbitrary interleavings of malloc, free,
//! and realloc, with and without placement randomization.

use proptest::prelude::*;

use fa_heap::{Heap, HeapError, ALIGN};
use fa_mem::{Addr, SimMemory};

/// A scripted allocator operation.
#[derive(Clone, Debug)]
enum Op {
    Malloc(u16),
    /// Frees the i-th (mod len) live allocation.
    Free(u8),
    /// Reallocs the i-th (mod len) live allocation to a new size.
    Realloc(u8, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u16..2048).prop_map(Op::Malloc),
        2 => any::<u8>().prop_map(Op::Free),
        1 => (any::<u8>(), 1u16..2048).prop_map(|(i, s)| Op::Realloc(i, s)),
    ]
}

/// Runs a script against a fresh heap, checking data integrity for every
/// live object and structural integrity after every operation.
fn run_script(ops: &[Op], seed: Option<u64>) {
    let mut mem = SimMemory::new();
    let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
    if let Some(seed) = seed {
        heap.randomize(seed);
    }
    // live: (user addr, fill byte, len)
    let mut live: Vec<(Addr, u8, u64)> = Vec::new();
    let mut stamp = 0u8;

    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Malloc(req) => {
                let req = u64::from(*req);
                let p = heap.malloc(&mut mem, req).expect("malloc");
                assert!(p.is_aligned(ALIGN));
                stamp = stamp.wrapping_add(1).max(1);
                mem.fill(p, req, stamp).unwrap();
                live.push((p, stamp, req));
            }
            Op::Free(idx) => {
                if live.is_empty() {
                    continue;
                }
                let (p, _, _) = live.swap_remove(*idx as usize % live.len());
                heap.free(&mut mem, p).expect("free of live object");
            }
            Op::Realloc(idx, req) => {
                if live.is_empty() {
                    continue;
                }
                let slot = *idx as usize % live.len();
                let (p, fill, old_len) = live[slot];
                let req = u64::from(*req);
                let q = heap.realloc(&mut mem, p, req).expect("realloc");
                let kept = old_len.min(req);
                let data = mem.read_bytes(q, kept).unwrap();
                assert!(
                    data.iter().all(|&b| b == fill),
                    "realloc must preserve prefix contents"
                );
                stamp = stamp.wrapping_add(1).max(1);
                mem.fill(q, req, stamp).unwrap();
                live[slot] = (q, stamp, req);
            }
        }
        // Every live object must still hold its fill pattern (no overlap,
        // no allocator scribbling into user data).
        for &(p, fill, len) in &live {
            let data = mem.read_bytes(p, len).unwrap();
            assert!(
                data.iter().all(|&b| b == fill),
                "object at {p} corrupted after op {i}"
            );
        }
        heap.check_integrity(&mut mem).unwrap();
    }
    for (p, _, _) in live {
        heap.free(&mut mem, p).unwrap();
    }
    heap.check_integrity(&mut mem).unwrap();
    let chunks = heap.walk(&mut mem).unwrap();
    assert_eq!(chunks.len(), 1, "full free must coalesce into a single top");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_invariants_hold(ops in prop::collection::vec(op_strategy(), 1..120)) {
        run_script(&ops, None);
    }

    #[test]
    fn heap_invariants_hold_randomized(
        ops in prop::collection::vec(op_strategy(), 1..120),
        seed in any::<u64>(),
    ) {
        run_script(&ops, Some(seed));
    }

    #[test]
    fn usable_size_covers_request(req in 1u64..4096) {
        let mut mem = SimMemory::new();
        let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
        let p = heap.malloc(&mut mem, req).unwrap();
        let usable = heap.usable_size(&mut mem, p).unwrap();
        prop_assert!(usable >= req);
        // Writing the full usable size must not corrupt the heap.
        mem.fill(p, usable, 0xcd).unwrap();
        heap.check_integrity(&mut mem).unwrap();
        heap.free(&mut mem, p).unwrap();
    }

    #[test]
    fn one_byte_overflow_is_eventually_detected(
        req in 1u64..512,
        garbage in any::<u8>(),
    ) {
        // Writing past usable size either corrupts the next boundary tag
        // (detected on the next touching operation) — it must never be
        // silently absorbed into a *live* neighbour's data when the
        // neighbour is the top chunk.
        let mut mem = SimMemory::new();
        let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
        let p = heap.malloc(&mut mem, req).unwrap();
        let usable = heap.usable_size(&mut mem, p).unwrap();
        // Overflow the full 16-byte header of the next chunk.
        mem.write(p.offset(usable), &[garbage; 16]).unwrap();
        let r = heap.malloc(&mut mem, 64);
        // Either detected now (top header corrupted) or the write happened
        // to be value-preserving (only possible if garbage bytes encode the
        // same header, which the check below tolerates).
        if let Err(e) = r {
            let corrupt = matches!(e, HeapError::CorruptChunk { .. });
            prop_assert!(corrupt);
        }
    }

    #[test]
    fn snapshot_rollback_restores_heap(
        ops in prop::collection::vec(op_strategy(), 1..60),
        cut in 0usize..60,
    ) {
        // Execute a prefix, snapshot, execute the rest, roll back: the heap
        // must behave identically to never having run the suffix.
        let mut mem = SimMemory::new();
        let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
        let mut live: Vec<Addr> = Vec::new();
        let cut = cut.min(ops.len());
        for op in &ops[..cut] {
            match op {
                Op::Malloc(r) => live.push(heap.malloc(&mut mem, u64::from(*r)).unwrap()),
                Op::Free(i) => {
                    if !live.is_empty() {
                        let p = live.swap_remove(*i as usize % live.len());
                        heap.free(&mut mem, p).unwrap();
                    }
                }
                Op::Realloc(i, r) => {
                    if !live.is_empty() {
                        let slot = *i as usize % live.len();
                        live[slot] = heap.realloc(&mut mem, live[slot], u64::from(*r)).unwrap();
                    }
                }
            }
        }
        let snap_mem = mem.snapshot();
        let snap_heap = heap.clone();
        let live_at_snap = live.clone();
        for op in &ops[cut..] {
            match op {
                Op::Malloc(r) => live.push(heap.malloc(&mut mem, u64::from(*r)).unwrap()),
                Op::Free(i) => {
                    if !live.is_empty() {
                        let p = live.swap_remove(*i as usize % live.len());
                        heap.free(&mut mem, p).unwrap();
                    }
                }
                Op::Realloc(i, r) => {
                    if !live.is_empty() {
                        let slot = *i as usize % live.len();
                        live[slot] = heap.realloc(&mut mem, live[slot], u64::from(*r)).unwrap();
                    }
                }
            }
        }
        mem.restore(&snap_mem);
        let mut heap = snap_heap;
        heap.check_integrity(&mut mem).unwrap();
        // All objects live at the snapshot free cleanly after rollback.
        for p in live_at_snap {
            heap.free(&mut mem, p).unwrap();
        }
        heap.check_integrity(&mut mem).unwrap();
    }
}
