//! Negative validation tests (paper §5): a *semantic* bug whose wild
//! write lands just past an allocation looks exactly like a buffer
//! overflow to the diagnosis engine — but its effect is layout-dependent,
//! so the three randomized validation re-executions observe different
//! illegal-access offsets, the consistency check fails, and First-Aid
//! removes the patch rather than mislead developers.

use fa_allocext::{ExtAllocator, PatchSet};
use fa_checkpoint::{AdaptiveConfig, CheckpointManager};
use fa_proc::{App, BoxedApp, Fault, Input, InputBuilder, Process, ProcessCtx, Response};
use first_aid_core::{
    DiagnosisEngine, DiagnosisOutcome, FirstAidConfig, FirstAidRuntime, PatchPool, ValidationEngine,
};

fn config() -> FirstAidConfig {
    FirstAidConfig {
        adaptive: AdaptiveConfig {
            base_interval_ns: 2_000_000,
            ..AdaptiveConfig::default()
        },
        ..FirstAidConfig::default()
    }
}

/// On op == 1, computes a wild pointer whose offset past the buffer
/// depends on the buffer's *address bits* — a stand-in for a semantic bug
/// (e.g. an indexing error through unrelated state) that only looks like
/// an overflow under one particular heap layout.
#[derive(Clone, Default)]
struct SemanticBugApp;

impl App for SemanticBugApp {
    fn name(&self) -> &'static str {
        "semantic-bug"
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
        ctx.call("serve", |ctx| {
            ctx.call("compute", |ctx| {
                let buf = ctx.malloc(64)?;
                let neighbor = ctx.malloc(64)?;
                ctx.fill(buf, 64, 1)?;
                ctx.fill(neighbor, 64, 2)?;
                if input.op == 1 {
                    // Semantic wild write: offset depends on the address.
                    let wild_off = 64 + ((buf.0 >> 4) & 0x3f);
                    ctx.write_u64(buf.offset(wild_off), 0xbad)?;
                }
                ctx.free(neighbor)?;
                ctx.free(buf)?;
                Ok(Response::bytes(64))
            })
        })
    }

    fn clone_app(&self) -> BoxedApp {
        Box::new(self.clone())
    }
}

/// 80 inputs, the 41st triggering the bug.
fn workload() -> Vec<Input> {
    (0..80)
        .map(|i| {
            InputBuilder::op(u32::from(i == 40))
                .a(i)
                .gap_us(100)
                .build()
        })
        .collect()
}

#[test]
fn semantic_bug_patch_is_rejected_by_randomized_validation() {
    let pool = PatchPool::in_memory();
    let mut fa = FirstAidRuntime::launch(Box::new(SemanticBugApp), config(), pool.clone()).unwrap();
    let _ = fa.run(workload(), None);

    let rec = fa
        .recoveries
        .first()
        .expect("the wild write must cause a failure and recovery");
    // The diagnosis plausibly concludes "buffer overflow" — that is the
    // misdiagnosis hazard the paper describes.
    assert!(rec.diagnosis.is_some());
    let v = rec
        .validation
        .as_ref()
        .expect("validation runs after recovery");
    assert!(
        !v.consistent,
        "randomized validation must expose the layout dependence: {:?}",
        v.reason
    );
    assert!(
        v.reason
            .as_deref()
            .is_some_and(|r| r.contains("criterion") || r.contains("failed under randomization")),
        "reason names the violated criterion: {:?}",
        v.reason
    );
    // The patch was withdrawn from the pool.
    assert_eq!(
        pool.len("semantic-bug"),
        0,
        "inconsistent patches must be removed (paper §5)"
    );
}

/// A real overflow's patch, in contrast, validates cleanly on the same
/// harness (control for the test above).
#[derive(Clone, Default)]
struct RealOverflowApp;

impl App for RealOverflowApp {
    fn name(&self) -> &'static str {
        "real-overflow"
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
        ctx.call("serve", |ctx| {
            ctx.call("compute", |ctx| {
                let buf = ctx.malloc(64)?;
                let n = if input.op == 1 { 80 } else { 64 };
                ctx.fill(buf, n, 1)?; // fixed 16-byte overflow
                ctx.free(buf)?;
                Ok(Response::bytes(64))
            })
        })
    }

    fn clone_app(&self) -> BoxedApp {
        Box::new(self.clone())
    }
}

#[test]
fn real_overflow_patch_survives_randomized_validation() {
    let pool = PatchPool::in_memory();
    let mut fa =
        FirstAidRuntime::launch(Box::new(RealOverflowApp), config(), pool.clone()).unwrap();
    let summary = fa.run(workload(), None);
    assert_eq!(summary.failures, 1);
    let v = fa.recoveries[0].validation.as_ref().unwrap();
    assert!(v.consistent, "{:?}", v.reason);
    assert_eq!(pool.len("real-overflow"), 1);
}

/// Runs `app` into its failure under checkpointing, queues the rest of
/// the workload, and diagnoses it. Returns the process, the diagnosis
/// checkpoint's snapshot, the patches, and the validation end cursor.
fn diagnosed(app: BoxedApp) -> (Process, fa_proc::ProcSnapshot, PatchSet, usize) {
    let mut ctx = ProcessCtx::new(1 << 26);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    let mut p = Process::launch(app, ctx).unwrap();
    let mut mgr = CheckpointManager::new(config().adaptive, 16);
    mgr.force_checkpoint(&mut p);
    let mut inputs = workload().into_iter();
    for input in inputs.by_ref() {
        if !p.feed(input).is_ok() {
            break;
        }
        mgr.maybe_checkpoint(&mut p);
    }
    inputs.for_each(|input| p.enqueue(input));
    let DiagnosisOutcome::Diagnosed(d) = DiagnosisEngine::default().diagnose(&mut p, &mgr) else {
        panic!("the failure must be diagnosed");
    };
    let patches = PatchSet::from_patches(d.patches(&p.ctx.symbols));
    let snap = mgr.get(d.checkpoint_id).unwrap().snap.clone();
    (p, snap, patches, d.until_cursor)
}

/// `validate` forks one context and rebinds + restores it for every
/// iteration; no state may leak from one call (or iteration) into the
/// next, whether the iterations pass or one fails under randomization.
#[test]
fn validation_is_repeatable_on_the_same_inputs() {
    let apps: [BoxedApp; 2] = [Box::new(RealOverflowApp), Box::new(SemanticBugApp)];
    for app in apps {
        let name = app.name();
        let (p, snap, patches, until) = diagnosed(app);
        let engine = ValidationEngine::default();
        let first = engine.validate(&p, &snap, &patches, until);
        let second = engine.validate(&p, &snap, &patches, until);
        assert!(first.iterations > 0, "{name}: at least one iteration ran");
        assert_eq!(first.traces, second.traces, "{name}");
        assert_eq!(first.trigger_counts, second.trigger_counts, "{name}");
        assert_eq!(first.validation_ns, second.validation_ns, "{name}");
        assert_eq!(first.unpatched_trace, second.unpatched_trace, "{name}");
        assert_eq!(first.consistent, second.consistent, "{name}");
        // The unpatched reference run reuses the iterations' context; it
        // must match a run on a context no iteration touched.
        let fresh = ValidationEngine::new(0).validate(&p, &snap, &patches, until);
        assert!(
            !fresh.unpatched_trace.is_empty(),
            "{name}: the reference run replays"
        );
        assert_eq!(fresh.unpatched_trace, first.unpatched_trace, "{name}");
    }
}
