//! The paper Fig. 3 scenario: without heap marking, phase 1 can
//! misidentify the checkpoint for patching.
//!
//! Timeline: object B is prematurely freed (the bug-triggering point),
//! *then* a checkpoint C1 is taken, then the freed space is re-allocated
//! to object E, and finally a write through the dangling pointer corrupts
//! E, failing. Re-executed from C1 with preventive changes, E gets padded
//! and lands elsewhere, so the dangling write hits unowned free space and
//! the failure is *accidentally* avoided — unless heap marking canary-fills
//! the free chunks and catches the stray write.

use fa_allocext::{ChangePlan, ExtAllocator};
use fa_checkpoint::{AdaptiveConfig, CheckpointManager};
use fa_mem::Addr;
use first_aid::core::{ReexecOptions, ReplayHarness};
use first_aid::prelude::*;

/// Drives the exact Fig. 3 interleaving via explicit ops:
/// op 0 = setup, op 1 = free B (bug trigger), op 2 = allocate E,
/// op 3 = dangling write + E integrity check, op 4 = no-op filler.
#[derive(Clone, Default)]
struct Fig3App {
    b: Option<Addr>,
    e: Option<Addr>,
}

impl App for Fig3App {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
        ctx.call("dispatch", |ctx| {
            match input.op {
                0 => {
                    let b = ctx.call("alloc_b", |ctx| ctx.malloc(64))?;
                    ctx.fill(b, 64, 0xb0)?;
                    self.b = Some(b);
                    // A guard allocation keeps B away from the top chunk,
                    // so freeing B leaves a binned free chunk (as in the
                    // paper's figure) rather than merging into the top.
                    let g = ctx.call("alloc_guard", |ctx| ctx.malloc(64))?;
                    ctx.fill(g, 64, 0x99)?;
                }
                1 => {
                    // Bug-triggering point: premature free, pointer kept.
                    ctx.call("free_b", |ctx| ctx.free(self.b.unwrap()))?;
                }
                2 => {
                    // E reuses B's chunk (same size, best fit).
                    let e = ctx.call("alloc_e", |ctx| ctx.malloc(64))?;
                    ctx.fill(e, 64, 0)?;
                    self.e = Some(e);
                }
                3 => {
                    // The dangling write corrupts whatever owns the chunk.
                    ctx.call("stale_write", |ctx| {
                        ctx.write_u64(self.b.unwrap().offset(8), 0xbad)
                    })?;
                    let v = ctx.call("check_e", |ctx| ctx.read_u64(self.e.unwrap().offset(8)))?;
                    ctx.check(v == 0, "object E corrupted")?;
                }
                _ => {}
            }
            Ok(Response::bytes(8))
        })
    }

    fn clone_app(&self) -> BoxedApp {
        Box::new(self.clone())
    }
}

fn input(op: u32) -> Input {
    InputBuilder::op(op).gap_us(100).build()
}

/// Builds the scenario: setup, trigger, checkpoint C1, reuse, failure.
/// Returns (process, manager, checkpoint id, success-region end).
fn build() -> (Process, CheckpointManager, u64, usize) {
    let mut ctx = ProcessCtx::new(1 << 26);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    let mut p = Process::launch(Box::new(Fig3App::default()), ctx).unwrap();
    let mut mgr = CheckpointManager::new(AdaptiveConfig::default(), 16);

    assert!(p.feed(input(0)).is_ok()); // alloc B
    assert!(p.feed(input(1)).is_ok()); // premature free (bug trigger)
    let c1 = mgr.force_checkpoint(&mut p); // checkpoint AFTER the trigger
    assert!(p.feed(input(2)).is_ok()); // E reuses B's chunk
    for _ in 0..3 {
        assert!(p.feed(input(4)).is_ok());
    }
    let r = p.feed(input(3)); // dangling write corrupts E
    assert!(!r.is_ok(), "the original run must fail");
    let until = p.log().len();
    (p, mgr, c1, until)
}

#[test]
fn original_failure_reproduces() {
    let (p, _, _, _) = build();
    assert_eq!(p.failure.as_ref().unwrap().fault.class(), "assertion");
}

#[test]
fn without_heap_marking_the_wrong_checkpoint_appears_to_work() {
    let (mut p, mgr, c1, until) = build();
    // Re-execute from the post-trigger checkpoint with all preventive
    // changes but NO heap marking (what a naive phase 1 would do).
    let r = ReplayHarness::reexecute(
        &mut p,
        &mgr,
        c1,
        ChangePlan::all_preventive(),
        &ReexecOptions {
            mark_heap: false,
            timing_seed: 0,
            until_cursor: until,
            integrity_check: false,
        },
    );
    assert!(
        r.passed,
        "padding moves E away from B's chunk, accidentally masking the \
         failure — the Fig. 3 misidentification: {:?}",
        r.failure
    );
}

#[test]
fn heap_marking_exposes_the_pre_checkpoint_trigger() {
    let (mut p, mgr, c1, until) = build();
    let r = ReplayHarness::reexecute(
        &mut p,
        &mgr,
        c1,
        ChangePlan::all_preventive(),
        &ReexecOptions {
            mark_heap: true,
            timing_seed: 0,
            until_cursor: until,
            integrity_check: false,
        },
    );
    // The run may pass, but the stray write into the marked free chunk is
    // caught as canary corruption, so this checkpoint is rejected.
    assert!(
        r.mark_corrupt(),
        "heap marking must catch the dangling write into pre-checkpoint \
         freed space: {:?}",
        r.manifests
    );
}

#[test]
fn full_engine_rejects_post_trigger_checkpoint() {
    // With an additional pre-trigger checkpoint available, the complete
    // engine must pick it, not C1.
    let mut ctx = ProcessCtx::new(1 << 26);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    let mut p = Process::launch(Box::new(Fig3App::default()), ctx).unwrap();
    let mut mgr = CheckpointManager::new(AdaptiveConfig::default(), 16);

    let c0 = mgr.force_checkpoint(&mut p); // BEFORE everything
    assert!(p.feed(input(0)).is_ok());
    assert!(p.feed(input(4)).is_ok());
    let _c_pre = mgr.force_checkpoint(&mut p); // before the trigger
    assert!(p.feed(input(1)).is_ok()); // trigger
    let c1 = mgr.force_checkpoint(&mut p); // after the trigger
    assert!(p.feed(input(2)).is_ok());
    let r = p.feed(input(3));
    assert!(!r.is_ok());

    let engine = first_aid::core::DiagnosisEngine::default();
    match engine.diagnose(&mut p, &mgr) {
        first_aid::core::DiagnosisOutcome::Diagnosed(d) => {
            assert_ne!(
                d.checkpoint_id, c1,
                "the engine must not patch from the post-trigger checkpoint"
            );
            assert!(d.checkpoint_id < c1 && d.checkpoint_id >= c0);
            assert!(
                d.bugs
                    .iter()
                    .any(|b| b.bug == BugType::DanglingWrite || b.bug == BugType::DanglingRead),
                "a dangling bug must be diagnosed: {:?}",
                d.bugs
            );
        }
        other => panic!("expected a diagnosis, got {other:?}"),
    }
}
