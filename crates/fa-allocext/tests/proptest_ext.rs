//! Property-based tests: the allocator extension must preserve heap
//! integrity, object-table consistency, and application data under
//! arbitrary operation scripts in every mode and under every
//! environmental-change plan.

use proptest::prelude::*;

use fa_allocext::{BugType, ChangePlan, ExtAllocator, Mode, ObjState, Patch, PatchSet};
use fa_heap::Heap;
use fa_mem::{Addr, SimMemory};
use fa_proc::{AllocBackend, CallSite, Clock, SymbolTable};

#[derive(Clone, Debug)]
enum Op {
    Malloc { size: u16, site: u8 },
    Free { idx: u8, site: u8 },
    Write { idx: u8, stamp: u8 },
    Read { idx: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u16..1024, any::<u8>()).prop_map(|(size, site)| Op::Malloc { size, site }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(idx, site)| Op::Free { idx, site }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(idx, stamp)| Op::Write { idx, stamp }),
        1 => any::<u8>().prop_map(|idx| Op::Read { idx }),
    ]
}

fn plan_strategy() -> impl Strategy<Value = ChangePlan> {
    let mode = || prop_oneof![Just(Mode::Off), Just(Mode::Prevent), Just(Mode::Expose),];
    (mode(), mode(), mode(), mode(), mode()).prop_map(
        |(overflow, dangling_read, dangling_write, double_free, uninit_read)| ChangePlan {
            overflow,
            dangling_read,
            dangling_write,
            double_free,
            uninit_read,
            heap_marking: false,
        },
    )
}

fn site(id: u8) -> CallSite {
    CallSite([u64::from(id) + 1, 7, 9])
}

/// Runs a script under a given extension configuration; checks that live
/// objects keep their contents and the heap stays structurally sound.
fn run_script(ops: &[Op], configure: impl FnOnce(&mut ExtAllocator)) {
    let mut mem = SimMemory::new();
    let heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
    let mut ext = ExtAllocator::attach(heap);
    configure(&mut ext);
    let mut clock = Clock::new();
    // live: (user, size, stamp)
    let mut live: Vec<(Addr, u64, u8)> = Vec::new();

    for op in ops {
        match op {
            Op::Malloc { size, site: s } => {
                let size = u64::from(*size);
                let p = ext.malloc(&mut mem, &mut clock, size, site(*s)).unwrap();
                mem.fill(p, size, 0x11).unwrap();
                live.push((p, size, 0x11));
            }
            Op::Free { idx, site: s } => {
                if live.is_empty() {
                    continue;
                }
                let (p, _, _) = live.swap_remove(*idx as usize % live.len());
                ext.free(&mut mem, &mut clock, p, site(*s)).unwrap();
            }
            Op::Write { idx, stamp } => {
                if live.is_empty() {
                    continue;
                }
                let slot = *idx as usize % live.len();
                let (p, size, _) = live[slot];
                ext.observe_access(&mut clock, p, size, fa_mem::AccessKind::Write, site(0))
                    .unwrap();
                mem.fill(p, size, *stamp).unwrap();
                live[slot].2 = *stamp;
            }
            Op::Read { idx } => {
                if live.is_empty() {
                    continue;
                }
                let slot = *idx as usize % live.len();
                let (p, size, stamp) = live[slot];
                ext.observe_access(&mut clock, p, size, fa_mem::AccessKind::Read, site(0))
                    .unwrap();
                let data = mem.read_bytes(p, size).unwrap();
                assert!(
                    data.iter().all(|&b| b == stamp),
                    "live object corrupted by the extension"
                );
            }
        }
        // Invariants after every op.
        for &(p, size, stamp) in &live {
            let data = mem.read_bytes(p, size).unwrap();
            assert!(
                data.iter().all(|&b| b == stamp),
                "object at {p} lost its contents"
            );
            let info = ext.table().get_by_user(p).expect("live object tracked");
            assert_eq!(info.size, size);
            assert!(matches!(ext.table().state(info), ObjState::Live));
        }
    }
    // Quarantined bytes must match the quarantine's accounting.
    let quarantined: u64 = ext
        .table()
        .iter()
        .filter(|o| matches!(ext.table().state(o), ObjState::Quarantined { .. }))
        .map(|o| o.outer_size())
        .sum();
    assert_eq!(quarantined, ext.quarantine().bytes());
    // Structural check of the underlying heap.
    ext.heap().check_integrity(&mut mem).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn normal_mode_preserves_everything(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_script(&ops, |_| {});
    }

    #[test]
    fn diagnostic_mode_preserves_everything(
        ops in prop::collection::vec(op_strategy(), 1..80),
        plan in plan_strategy(),
    ) {
        run_script(&ops, move |ext| ext.set_diagnostic(plan));
    }

    #[test]
    fn validation_mode_preserves_everything(
        ops in prop::collection::vec(op_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        run_script(&ops, move |ext| ext.set_validation(PatchSet::new(), seed));
    }

    #[test]
    fn patched_mode_preserves_everything(
        ops in prop::collection::vec(op_strategy(), 1..80),
        patch_site in any::<u8>(),
    ) {
        let symbols = SymbolTable::new();
        let patches = PatchSet::from_patches([
            Patch::new(BugType::BufferOverflow, site(patch_site), &symbols),
            Patch::new(BugType::DanglingRead, site(patch_site.wrapping_add(1)), &symbols),
            Patch::new(BugType::UninitRead, site(patch_site.wrapping_add(2)), &symbols),
        ]);
        run_script(&ops, move |ext| ext.set_normal(patches));
    }

    #[test]
    fn clone_then_replay_is_identical(ops in prop::collection::vec(op_strategy(), 1..60)) {
        // The extension must be deterministic and checkpoint-safe: a clone
        // receiving the same operations ends in the same state.
        let mut mem_a = SimMemory::new();
        let heap = Heap::new(&mut mem_a, Addr(0x1000_0000), 1 << 26).unwrap();
        let mut a = ExtAllocator::attach(heap);
        let mut mem_b = mem_a.clone();
        let mut b = a.clone();
        let mut clock_a = Clock::new();
        let mut clock_b = Clock::new();
        let mut live_a: Vec<Addr> = Vec::new();
        let mut live_b: Vec<Addr> = Vec::new();
        for op in &ops {
            match op {
                Op::Malloc { size, site: s } => {
                    live_a.push(a.malloc(&mut mem_a, &mut clock_a, u64::from(*size), site(*s)).unwrap());
                    live_b.push(b.malloc(&mut mem_b, &mut clock_b, u64::from(*size), site(*s)).unwrap());
                }
                Op::Free { idx, site: s } if !live_a.is_empty() => {
                    let i = *idx as usize % live_a.len();
                    a.free(&mut mem_a, &mut clock_a, live_a.swap_remove(i), site(*s)).unwrap();
                    b.free(&mut mem_b, &mut clock_b, live_b.swap_remove(i), site(*s)).unwrap();
                }
                _ => {}
            }
        }
        prop_assert_eq!(live_a, live_b, "identical addresses");
        prop_assert_eq!(clock_a.now(), clock_b.now(), "identical virtual time");
        prop_assert_eq!(a.table().len(), b.table().len());
        prop_assert_eq!(a.heap().stats(), b.heap().stats());
    }
}
