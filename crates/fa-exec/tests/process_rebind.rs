//! Regression: a trial context that ran one app and is then rebound to
//! a *different* app must be indistinguishable from a fresh fork of the
//! new app once restored from its snapshot — the reuse pattern of
//! `ValidationEngine::validate`, which forks once and rebinds + restores
//! per iteration.
//!
//! The hazard is stale state surviving the rebind: a page (with its
//! cached content hash) left over from the previous binding that the
//! diff-aware restore fails to replace would skew
//! `CtxSnapshot::digest()`, and a stale replay bound (`high_water`) or
//! delivery counter would change what the replay charges and delivers.

use fa_allocext::ExtAllocator;
use fa_checkpoint::{AdaptiveConfig, CheckpointManager};
use fa_proc::{
    App, BoxedApp, Fault, Input, InputBuilder, ProcSnapshot, Process, ProcessCtx, Response,
};

/// Fills one small buffer with a per-app byte pattern; apps A and B
/// differ in allocation size and fill byte so their heaps (and page
/// contents) diverge thoroughly.
#[derive(Clone)]
struct PatternApp {
    tag: &'static str,
    size: u64,
    fill: u8,
}

impl App for PatternApp {
    fn name(&self) -> &'static str {
        self.tag
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
        ctx.call("serve", |ctx| {
            let p = ctx.malloc(self.size + input.a)?;
            ctx.fill(p, self.size + input.a, self.fill)?;
            ctx.free(p)?;
            Ok(Response::bytes(self.size))
        })
    }

    fn clone_app(&self) -> BoxedApp {
        Box::new(self.clone())
    }
}

fn input(i: u64) -> Input {
    InputBuilder::op(0).a(i * 8).gap_us(50).build()
}

/// Feeds `fed` inputs with a checkpoint after the sixth, then queues
/// three more unexecuted inputs, so a replay from the checkpoint to the
/// end of the log crosses the high-water mark and delivers fresh bytes.
/// Returns the process and the checkpoint snapshot.
fn scenario(app: PatternApp, fed: u64) -> (Process, ProcSnapshot) {
    let mut ctx = ProcessCtx::new(1 << 26);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    let mut proc = Process::launch(Box::new(app), ctx).unwrap();
    let mut mgr = CheckpointManager::new(
        AdaptiveConfig {
            base_interval_ns: 1_000_000,
            ..AdaptiveConfig::default()
        },
        16,
    );
    for i in 0..6 {
        proc.feed(input(i));
    }
    let ckpt = mgr.force_checkpoint(&mut proc);
    for i in 6..fed {
        proc.feed(input(i));
    }
    for i in fed..fed + 3 {
        proc.enqueue(input(i));
    }
    let snap = mgr.get(ckpt).unwrap().snap.clone();
    (proc, snap)
}

/// Restores `trial` from `snap` and replays it to the end of its log.
fn replay(trial: &mut Process, snap: &ProcSnapshot) {
    trial.restore(snap);
    let until = trial.log().len();
    while trial.cursor() < until {
        assert!(trial.step().is_some_and(|r| r.is_ok()), "benign replay");
    }
}

#[test]
fn rebind_across_apps_matches_fresh_fork() {
    let app_a = PatternApp {
        tag: "app-a",
        size: 64,
        fill: 0xaa,
    };
    let app_b = PatternApp {
        tag: "app-b",
        size: 4096,
        fill: 0xbb,
    };

    // App A runs further than B, so a stale high-water mark would turn
    // B's fresh inputs into replays.
    let (proc_a, snap_a) = scenario(app_a, 20);
    let (proc_b, snap_b) = scenario(app_b, 10);

    // A context that ran app A, then rebound to app B.
    let mut reused = proc_a.fork();
    replay(&mut reused, &snap_a);
    let digest_a = reused.snapshot().digest();
    reused.rebind(&proc_b);
    replay(&mut reused, &snap_b);

    // A fresh fork of B is the ground truth.
    let mut fresh = proc_b.fork();
    replay(&mut fresh, &snap_b);

    assert_eq!(reused.cursor(), fresh.cursor());
    assert_eq!(reused.bytes_delivered, fresh.bytes_delivered);
    assert!(
        fresh.bytes_delivered > proc_b.bytes_delivered,
        "the replay must cross the high-water mark and deliver fresh bytes"
    );
    assert_eq!(reused.ctx.clock.now(), fresh.ctx.clock.now());
    let digest_reused = reused.snapshot().digest();
    assert_eq!(digest_reused, fresh.snapshot().digest());
    assert_ne!(
        digest_reused, digest_a,
        "apps A and B must produce different snapshot digests"
    );
}
