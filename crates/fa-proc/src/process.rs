//! A process: application + context + recorded input log.
//!
//! The input log plays the role of the paper's network proxy: every input
//! consumed during normal execution is recorded, and diagnosis
//! re-executions replay the log from a checkpoint's cursor position.
//! Replayed responses are not re-delivered (the proxy suppresses
//! duplicates), so delivered-byte accounting only advances the first time
//! an input is executed.

use std::collections::HashSet;

use fa_mem::MemSnapshot;

use crate::app::{BoxedApp, Response};
use crate::ctx::{self, CtxSnapshot, ProcessCtx};
use crate::fault::Fault;
use crate::input::Input;

/// A failure caught by the error monitor.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// The fault that terminated input handling.
    pub fault: Fault,
    /// Index into the input log of the failing input.
    pub input_index: usize,
    /// Virtual time at which the failure surfaced.
    pub at_ns: u64,
}

/// Outcome of executing one input.
#[derive(Clone, Debug)]
pub enum StepResult {
    /// The input was handled; the response was (or had already been)
    /// delivered.
    Ok(Response),
    /// The process failed while handling the input.
    Failed(FailureRecord),
}

impl StepResult {
    /// Returns `true` for [`StepResult::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, StepResult::Ok(_))
    }
}

/// A checkpointable snapshot of a whole process.
#[derive(Clone)]
pub struct ProcSnapshot {
    app: BoxedApp,
    ctx: CtxSnapshot,
    cursor: usize,
}

impl ProcSnapshot {
    /// Returns the input-log cursor at snapshot time.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// A cheap structural checksum of the snapshot (context digest
    /// mixed with the cursor). Stored alongside checkpoints so that
    /// corruption — simulated storage rot — is detectable on rollback.
    pub fn digest(&self) -> u64 {
        let ctx = &self.ctx;
        digest(&ctx.mem, ctx.clock.now(), ctx.timing_seed, self.cursor)
    }

    /// Returns [`Self::digest`] as a job that owns its inputs, so it can
    /// run on another thread: a copy-on-write share of the memory
    /// snapshot (O(1)) and the scalars the digest mixes in.
    pub fn digest_job(&self) -> DigestJob {
        DigestJob {
            mem: self.ctx.mem.clone(),
            clock_ns: self.ctx.clock.now(),
            timing_seed: self.ctx.timing_seed,
            cursor: self.cursor,
        }
    }

    /// Corrupts one byte of snapshotted page data (CoW-isolated from the
    /// live process). Fault-injection hook for checkpoint-rot detection;
    /// returns `false` if there is no page data to rot.
    pub fn rot_page(&mut self) -> bool {
        self.ctx.rot_page()
    }
}

/// [`ProcSnapshot::digest`] detached from its snapshot; see
/// [`ProcSnapshot::digest_job`].
pub struct DigestJob {
    mem: MemSnapshot,
    clock_ns: u64,
    timing_seed: u64,
    cursor: usize,
}

impl DigestJob {
    /// Computes the digest: the same function, over the same inputs, as
    /// [`ProcSnapshot::digest`] of the snapshot the job was taken from.
    pub fn run(self) -> u64 {
        digest(&self.mem, self.clock_ns, self.timing_seed, self.cursor)
    }
}

/// The one snapshot digest: the context digest mixed with the cursor.
fn digest(mem: &MemSnapshot, clock_ns: u64, timing_seed: u64, cursor: usize) -> u64 {
    ctx::digest(mem, clock_ns, timing_seed)
        .rotate_left(17)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (cursor as u64).wrapping_add(0x94d0_49bb_1331_11eb)
}

/// A simulated process under (or before) First-Aid supervision.
pub struct Process {
    /// The application.
    pub app: BoxedApp,
    /// Its execution context.
    pub ctx: ProcessCtx,
    log: Vec<Input>,
    cursor: usize,
    /// Highest cursor ever executed; inputs below it are replays.
    high_water: usize,
    /// The pending failure, if the process is currently crashed.
    pub failure: Option<FailureRecord>,
    /// Total bytes delivered to clients (first executions only).
    pub bytes_delivered: u64,
    /// Charge arrival gaps for first executions (normal pacing). The
    /// diagnosis and validation engines disable pacing: recorded inputs
    /// replay back-to-back regardless of their original arrival times.
    pacing: bool,
    /// Inputs permanently dropped by recovery (poisoned requests the
    /// proxy answers with an error). Owned by the proxy like the log
    /// itself: rollbacks must NOT resurrect a dropped input, or recovery
    /// would loop crashing on it forever.
    skipped: HashSet<usize>,
}

impl Process {
    /// Launches an application: runs its `init` and returns the process.
    ///
    /// Startup faults are returned as errors; First-Aid only supervises
    /// processes that came up.
    pub fn launch(mut app: BoxedApp, mut ctx: ProcessCtx) -> Result<Process, Fault> {
        ctx.enter("main");
        app.init(&mut ctx)?;
        Ok(Process {
            app,
            ctx,
            log: Vec::new(),
            cursor: 0,
            high_water: 0,
            failure: None,
            bytes_delivered: 0,
            pacing: true,
            skipped: HashSet::new(),
        })
    }

    /// Appends an input to the log without executing it.
    ///
    /// Used when inputs keep arriving while the process is crashed or
    /// being diagnosed; they queue in the proxy.
    pub fn enqueue(&mut self, input: Input) {
        self.log.push(input);
    }

    /// Executes the next logged input, if any.
    ///
    /// First executions charge the input's arrival gap to the clock;
    /// replays (after a rollback) run back-to-back, which is why diagnosis
    /// re-execution is much faster than the original run of the region.
    pub fn step(&mut self) -> Option<StepResult> {
        if self.failure.is_some() {
            return None;
        }
        // Dropped inputs are not delivered to the application at all.
        while self.skipped.contains(&self.cursor) {
            self.cursor += 1;
            self.high_water = self.high_water.max(self.cursor);
        }
        if self.cursor >= self.log.len() {
            return None;
        }
        let idx = self.cursor;
        let input = self.log[idx].clone();
        let fresh = idx >= self.high_water;
        if fresh && self.pacing {
            self.ctx.clock.advance(input.gap_ns);
        }
        self.ctx.clock.advance(self.ctx.costs.input_base);
        let outcome = self.app.handle(&mut self.ctx, &input);
        match outcome {
            Ok(resp) => {
                self.cursor += 1;
                if fresh {
                    self.high_water = self.cursor;
                    self.bytes_delivered += resp.bytes_out;
                }
                Some(StepResult::Ok(resp))
            }
            Err(fault) => {
                let record = FailureRecord {
                    fault,
                    input_index: idx,
                    at_ns: self.ctx.clock.now(),
                };
                self.failure = Some(record.clone());
                Some(StepResult::Failed(record))
            }
        }
    }

    /// Feeds one input: enqueue and execute.
    pub fn feed(&mut self, input: Input) -> StepResult {
        self.enqueue(input);
        self.step().expect("feed always has a pending input")
    }

    /// Returns the number of logged-but-unexecuted inputs.
    pub fn pending(&self) -> usize {
        self.log.len() - self.cursor
    }

    /// Returns the input log.
    pub fn log(&self) -> &[Input] {
        &self.log
    }

    /// Returns the cursor (index of the next input to execute).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Returns the highest input index ever executed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Forks the whole process — app, context, input log, cursor — into an
    /// independent copy.
    ///
    /// The validation engine runs on a fork so it "does not delay the
    /// failure recovery" (paper §2): the original process resumes serving
    /// while the fork re-executes the buggy region.
    pub fn fork(&self) -> Process {
        Process {
            app: self.app.clone(),
            ctx: self.ctx.clone(),
            log: self.log.clone(),
            cursor: self.cursor,
            high_water: self.high_water,
            failure: self.failure.clone(),
            bytes_delivered: self.bytes_delivered,
            pacing: self.pacing,
            skipped: self.skipped.clone(),
        }
    }

    /// Takes a snapshot capturing app state, full context, and cursor.
    ///
    /// The input log itself is *not* part of the snapshot: it belongs to
    /// the proxy, which persists across rollbacks.
    pub fn snapshot(&self) -> ProcSnapshot {
        ProcSnapshot {
            app: self.app.clone(),
            ctx: self.ctx.snapshot(),
            cursor: self.cursor,
        }
    }

    /// Rolls the process back to a snapshot, clearing any failure.
    pub fn restore(&mut self, snap: &ProcSnapshot) {
        self.app = snap.app.clone();
        self.ctx.restore(&snap.ctx);
        self.cursor = snap.cursor;
        self.failure = None;
    }

    /// Rebinds a pooled trial context to stand in for `template`,
    /// adopting its input log, replay bounds, pacing, and drop set — the
    /// proxy-owned state a [`Self::fork`] would copy but a
    /// [`Self::restore`] leaves alone.
    ///
    /// The execution context (app, address space, allocator, clock) is
    /// deliberately *not* reset here: a rebound process is only usable
    /// after a `restore` from a snapshot, which replaces all of it. Until
    /// then the context still holds the previous binding's state —
    /// keeping it lets the diff-aware [`fa_mem::SimMemory::restore`]
    /// reuse pages the pooled context already shares with the snapshot,
    /// which is the entire point of pooling. All page mutation runs
    /// through fa-mem's write paths, so per-page cached content hashes
    /// can never go stale across a rebind.
    pub fn rebind(&mut self, template: &Process) {
        self.log.clone_from(&template.log);
        self.cursor = template.cursor;
        self.high_water = template.high_water;
        self.failure = template.failure.clone();
        self.bytes_delivered = template.bytes_delivered;
        self.pacing = template.pacing;
        self.skipped.clone_from(&template.skipped);
    }

    /// Enables or disables arrival-gap pacing for first executions.
    pub fn set_pacing(&mut self, pacing: bool) {
        self.pacing = pacing;
    }

    /// Raises a failure detected by an external error monitor (e.g. a
    /// periodic heap-integrity sweep), attributed to the most recently
    /// executed input.
    pub fn raise_failure(&mut self, fault: Fault) {
        let record = FailureRecord {
            fault,
            input_index: self.cursor.saturating_sub(1),
            at_ns: self.ctx.clock.now(),
        };
        self.failure = Some(record);
    }

    /// Clears a failure without rolling back — used by the restart
    /// baseline and by recovery logic that decides to skip an input.
    pub fn clear_failure(&mut self) {
        self.failure = None;
    }

    /// Permanently drops the input at the cursor (a poisoned request the
    /// proxy will answer with an error). The drop survives rollbacks.
    pub fn skip_current(&mut self) {
        if self.cursor < self.log.len() {
            self.skipped.insert(self.cursor);
            self.cursor += 1;
            self.high_water = self.high_water.max(self.cursor);
        }
    }

    /// Returns the number of permanently dropped inputs.
    pub fn skipped_count(&self) -> usize {
        self.skipped.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::App;
    use crate::input::InputBuilder;
    use fa_mem::Addr;

    /// Allocates a buffer per request; fails on op == 99 by reading
    /// unmapped memory.
    #[derive(Clone, Default)]
    struct Worker {
        served: u64,
    }

    impl App for Worker {
        fn name(&self) -> &'static str {
            "worker"
        }

        fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
            ctx.call("serve", |ctx| {
                if input.op == 99 {
                    let _ = ctx.read_u64(Addr(0x10))?; // crash
                }
                let p = ctx.malloc(input.a.max(16))?;
                ctx.fill(p, input.a.max(16), 0x42)?;
                ctx.free(p)?;
                self.served += 1;
                Ok(Response::bytes(input.a))
            })
        }

        fn clone_app(&self) -> BoxedApp {
            Box::new(self.clone())
        }
    }

    fn launch() -> Process {
        Process::launch(Box::new(Worker::default()), ProcessCtx::new(1 << 26)).unwrap()
    }

    #[test]
    fn feed_delivers_and_accounts_bytes() {
        let mut p = launch();
        let r = p.feed(InputBuilder::op(1).a(100).build());
        assert!(r.is_ok());
        assert_eq!(p.bytes_delivered, 100);
        assert_eq!(p.cursor(), 1);
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn failure_freezes_process() {
        let mut p = launch();
        p.feed(InputBuilder::op(1).a(10).build());
        let r = p.feed(InputBuilder::op(99).build());
        assert!(!r.is_ok());
        assert!(p.failure.is_some());
        // Further stepping does nothing while crashed.
        p.enqueue(InputBuilder::op(1).a(10).build());
        assert!(p.step().is_none());
        assert_eq!(p.pending(), 2); // failing input + queued one
    }

    #[test]
    fn rollback_and_replay() {
        let mut p = launch();
        p.feed(InputBuilder::op(1).a(10).build());
        let snap = p.snapshot();
        let delivered_at_snap = p.bytes_delivered;
        p.feed(InputBuilder::op(1).a(20).build());
        p.feed(InputBuilder::op(99).build());
        assert!(p.failure.is_some());
        p.restore(&snap);
        assert!(p.failure.is_none());
        assert_eq!(p.cursor(), 1);
        // Replay: the a=20 input re-executes but bytes are not re-counted.
        let r = p.step().unwrap();
        assert!(r.is_ok());
        assert_eq!(p.bytes_delivered, delivered_at_snap + 20);
        // The poisoned input fails again deterministically.
        let r = p.step().unwrap();
        assert!(!r.is_ok());
    }

    #[test]
    fn replay_skips_arrival_gaps() {
        let mut p = launch();
        p.feed(InputBuilder::op(1).a(10).gap_us(1_000).build());
        let snap_start = p.snapshot();
        let t_before = p.ctx.clock.now();
        p.feed(InputBuilder::op(1).a(10).gap_us(100_000).build());
        let normal_duration = p.ctx.clock.now() - t_before;
        p.restore(&snap_start);
        let t_before = p.ctx.clock.now();
        p.step().unwrap();
        let replay_duration = p.ctx.clock.now() - t_before;
        assert!(
            replay_duration < normal_duration / 10,
            "replay ({replay_duration} ns) must skip the 100 ms arrival gap \
             ({normal_duration} ns)"
        );
    }

    #[test]
    fn skip_current_drops_poisoned_input() {
        let mut p = launch();
        let r = p.feed(InputBuilder::op(99).build());
        assert!(!r.is_ok());
        p.clear_failure();
        p.skip_current();
        let r = p.feed(InputBuilder::op(1).a(5).build());
        assert!(r.is_ok());
    }

    #[test]
    fn rebind_then_restore_matches_fresh_fork() {
        let mut template = launch();
        template.feed(InputBuilder::op(1).a(10).build());
        let snap = template.snapshot();
        template.enqueue(InputBuilder::op(1).a(20).build());
        template.enqueue(InputBuilder::op(1).a(30).build());

        // A pooled context that previously ran someone else's trial.
        let mut pooled = launch();
        pooled.feed(InputBuilder::op(1).a(500).build());
        pooled.set_pacing(false);

        pooled.rebind(&template);
        pooled.restore(&snap);
        let mut fresh = template.fork();
        fresh.restore(&snap);

        assert_eq!(pooled.snapshot().digest(), fresh.snapshot().digest());
        assert_eq!(pooled.cursor(), fresh.cursor());
        assert_eq!(pooled.high_water(), fresh.high_water());
        assert_eq!(pooled.bytes_delivered, fresh.bytes_delivered);
        while let (Some(a), Some(b)) = (pooled.step(), fresh.step()) {
            assert_eq!(a.is_ok(), b.is_ok());
        }
        assert_eq!(pooled.cursor(), fresh.cursor());
        assert_eq!(pooled.bytes_delivered, fresh.bytes_delivered);
    }

    #[test]
    fn deterministic_replay_reaches_same_failure() {
        let mut p = launch();
        for i in 0..10 {
            p.feed(InputBuilder::op(1).a(i * 8).build());
        }
        let snap = p.snapshot();
        p.feed(InputBuilder::op(1).a(64).build());
        let r = p.feed(InputBuilder::op(99).build());
        let first_idx = match r {
            StepResult::Failed(f) => f.input_index,
            _ => panic!("expected failure"),
        };
        for _ in 0..3 {
            p.restore(&snap);
            let mut last = None;
            while let Some(r) = p.step() {
                last = Some(r);
            }
            match last {
                Some(StepResult::Failed(f)) => assert_eq!(f.input_index, first_idx),
                other => panic!("expected deterministic failure, got {other:?}"),
            }
        }
    }
}
