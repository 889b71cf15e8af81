//! The First-Aid supervisor runtime.
//!
//! Wraps a simulated process with the full pipeline of paper Fig. 1:
//! periodic checkpoints during normal execution; on failure, diagnosis →
//! patch generation → patch application → resumed execution; then patch
//! validation on a fork and bug-report generation.
//!
//! The module splits along the pipeline's two regimes: this file holds
//! normal execution (launch, feed/run loops, patch-pool sync, health),
//! `recover` holds the failure path (trap consumption, health monitor,
//! diagnosis, patched replay, validation), and `ladder` holds the
//! degradation rungs the failure path descends when precise diagnosis is
//! not available.

mod ladder;
mod recover;

use std::collections::HashMap;

use fa_allocext::{ExtAllocator, Patch, PatchSet, SentryConfig, SentryMetrics};
use fa_checkpoint::{AdaptiveConfig, CheckpointManager, CheckpointStats};
use fa_exec::expect_ext;
use fa_faults::{FaultPlan, FaultStage};
use fa_proc::{BoxedApp, CallSite, Fault, Input, Process, ProcessCtx, StepResult};

use crate::diagnose::{Diagnosis, EngineConfig};
use crate::metrics::{DegradationMetrics, ThroughputSampler};
use crate::patchpool::{EpochSignal, PatchPool};
use crate::report::BugReport;
use crate::validate::ValidationOutcome;

/// Quarantine budget while program-wide generic patches are active:
/// best-effort delay-free quarantines *every* free, so it needs a far
/// larger window to span the same error-propagation distance.
const GENERIC_QUARANTINE_BYTES: u64 = 16 << 20;

/// Health monitor: after how many failures with the same bug signature
/// the installed patches are revoked as ineffective and the ladder
/// descends one rung (the first failure of a signature is what
/// *creates* its patches).
const PATCH_RECURRENCE_LIMIT: u32 = 2;

/// Configuration of the First-Aid runtime.
#[derive(Clone, Debug)]
pub struct FirstAidConfig {
    /// Simulated heap size limit.
    pub heap_limit: u64,
    /// Checkpointing configuration (interval 200 ms by default, adaptive).
    pub adaptive: AdaptiveConfig,
    /// Maximum retained checkpoints.
    pub max_checkpoints: usize,
    /// Diagnosis engine tunables.
    pub engine: EngineConfig,
    /// Randomized validation iterations (0 disables validation).
    pub validation_iterations: usize,
    /// Delay-free quarantine byte budget (1 MB in the paper).
    pub quarantine_bytes: u64,
    /// Run the heap-integrity error monitor every N served inputs
    /// (0 disables it). A stronger monitor catches metadata corruption
    /// closer to the bug-triggering point, shortening error-propagation
    /// distance (paper §3 invites deploying such detectors).
    pub integrity_check_every: usize,
    /// Fault plan injected into the pipeline's own stages (checkpoint
    /// corruption, flaky/wedged diagnosis, validation-fork death).
    /// Journal I/O faults ride on the pool's `Wal` instead
    /// (`Wal::with_faults`). [`FaultPlan::none`] in production.
    pub faults: FaultPlan,
    /// Declare the runtime restart-worthy after this many consecutive
    /// dropped inputs (rung 4; fleet workers relaunch on it; 0 never).
    pub restart_after_drops: usize,
    /// Always-on sampling sentry tier: redirect ~1/rate allocations into
    /// guarded slots that trap memory bugs at the faulting access and
    /// feed the fast diagnosis path. `None` disables the tier.
    pub sentry: Option<SentryConfig>,
}

impl Default for FirstAidConfig {
    fn default() -> Self {
        FirstAidConfig {
            heap_limit: 1 << 30,
            adaptive: AdaptiveConfig::default(),
            max_checkpoints: 50,
            engine: EngineConfig::default(),
            validation_iterations: 3,
            quarantine_bytes: fa_allocext::DEFAULT_QUARANTINE_BYTES,
            integrity_check_every: 0,
            faults: FaultPlan::none(),
            restart_after_drops: 4,
            sentry: None,
        }
    }
}

/// How one recovery concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Bugs diagnosed; runtime patches installed; execution resumed.
    Patched,
    /// Precise diagnosis failed, but the program-wide best-effort
    /// patches carried the poisoned input through (ladder rung 2).
    GenericPatched,
    /// The failure did not reproduce under timing changes; execution
    /// simply continued.
    NonDeterministic,
    /// Diagnosis gave up; the poisoned input was dropped and execution
    /// continued (ladder rung 3, or the crash-loop fast path).
    Dropped,
}

/// Health-monitor state for one bug signature: how often it recurred
/// and which patch sites its last recovery installed (the revocation
/// targets if it keeps recurring).
#[derive(Default)]
struct SigState {
    count: u32,
    sites: Vec<CallSite>,
}

/// Everything produced by one recovery.
#[derive(Debug)]
pub struct RecoveryRecord {
    /// How the recovery concluded.
    pub kind: RecoveryKind,
    /// The diagnosis, when one completed.
    pub diagnosis: Option<Diagnosis>,
    /// The patches installed by this recovery.
    pub patches: Vec<Patch>,
    /// Wall (virtual) time from failure catch to back-to-normal.
    pub recovery_ns: u64,
    /// The validation outcome, when validation ran.
    pub validation: Option<ValidationOutcome>,
    /// The assembled bug report, when validation ran.
    pub report: Option<BugReport>,
}

/// Outcome of feeding one input through the supervised process.
#[derive(Clone, Debug)]
pub struct FeedOutcome {
    /// The input was ultimately served (possibly after a recovery).
    pub served: bool,
    /// A failure occurred while first handling this input.
    pub failed: bool,
    /// Index into [`FirstAidRuntime::recoveries`] if a recovery ran.
    pub recovery: Option<usize>,
}

/// Summary of a full workload run.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Inputs served successfully.
    pub served: usize,
    /// Failures caught by the error monitor.
    pub failures: usize,
    /// Recoveries performed.
    pub recoveries: usize,
    /// Inputs dropped (non-patchable path).
    pub dropped: usize,
    /// Final wall time.
    pub wall_ns: u64,
    /// Total bytes delivered.
    pub bytes_delivered: u64,
    /// Degradation-ladder counters accumulated over the run.
    pub degradation: DegradationMetrics,
    /// Sentry-tier counters accumulated over the run.
    pub sentry: SentryMetrics,
}

/// A point-in-time health summary of one supervised runtime, cheap to
/// read from a fleet supervisor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Total recoveries performed so far.
    pub recoveries: usize,
    /// Recoveries that ended with the input dropped (the degraded path).
    pub dropped: usize,
    /// Recoveries that installed patches.
    pub patched: usize,
    /// Inputs not yet consumed from the replay log.
    pub backlog: usize,
    /// Patch-pool epoch this runtime last synchronized to.
    pub pool_epoch: u64,
    /// Consecutive dropped inputs (resets on any non-dropped recovery);
    /// feeds the rung-4 restart decision.
    pub drop_streak: usize,
}

/// The First-Aid supervisor.
pub struct FirstAidRuntime {
    process: Process,
    manager: CheckpointManager,
    pool: PatchPool,
    config: FirstAidConfig,
    program: String,
    wall_ns: u64,
    last_proc_clock: u64,
    /// Pool epoch for *this* program at the last patch sync.
    pool_epoch_seen: u64,
    /// This program's epoch as the pool publishes it, read without the
    /// pool lock before each input.
    pool_signal: EpochSignal,
    /// Input index of the most recent failure, for crash-loop detection.
    last_failure_index: Option<usize>,
    /// Degradation-ladder counters (core stages; pool I/O counters are
    /// read live from the pool's journal by
    /// [`FirstAidRuntime::degradation`]).
    degradation: DegradationMetrics,
    /// Patch health monitor: recurrence count and installed patch sites
    /// per bug signature.
    monitor: HashMap<String, SigState>,
    /// Consecutive dropped inputs; rung-4 restart trigger.
    drop_streak: usize,
    /// Runtime-side sentry counters (fast-path/full-ladder split, false
    /// traps); the allocator extension keeps the sampling-side counters.
    sentry_counters: SentryMetrics,
    /// Trials that degraded to failed runs instead of aborting recovery,
    /// accumulated across recoveries.
    trial_errors: usize,
    /// All recoveries performed, in order.
    pub recoveries: Vec<RecoveryRecord>,
}

impl FirstAidRuntime {
    /// Launches an application under First-Aid supervision.
    ///
    /// Installs the allocator extension (with any patches already in the
    /// pool for this program) and takes checkpoint 0.
    pub fn launch(
        app: BoxedApp,
        mut config: FirstAidConfig,
        pool: PatchPool,
    ) -> Result<FirstAidRuntime, Fault> {
        // Re-execution must use the same error monitors as normal
        // execution, or monitor-caught failures would not reproduce.
        config.engine.integrity_check = config.integrity_check_every > 0;
        let program = app.name().to_owned();
        let mut ctx = ProcessCtx::new(config.heap_limit);
        let pool_signal = pool.epoch_signal(&program);
        let (patches, pool_epoch_seen) = pool.get_with_epoch(&program);
        let quarantine = config.quarantine_bytes;
        let sentry_cfg = config.sentry.clone();
        ctx.swap_alloc(|old| {
            let mut ext = ExtAllocator::attach(old.heap().clone());
            ext.set_quarantine_threshold(quarantine);
            if let Some(cfg) = sentry_cfg {
                ext.enable_sentry(cfg);
            }
            ext.set_normal(patches);
            Box::new(ext)
        });
        let mut process = Process::launch(app, ctx)?;
        let mut manager = CheckpointManager::new(config.adaptive, config.max_checkpoints);
        manager.force_checkpoint(&mut process);
        let last_proc_clock = process.ctx.clock.now();
        Ok(FirstAidRuntime {
            process,
            manager,
            pool,
            config,
            program,
            wall_ns: last_proc_clock,
            last_proc_clock,
            pool_epoch_seen,
            pool_signal,
            last_failure_index: None,
            degradation: DegradationMetrics::default(),
            monitor: HashMap::new(),
            drop_streak: 0,
            sentry_counters: SentryMetrics::default(),
            trial_errors: 0,
            recoveries: Vec::new(),
        })
    }

    /// Returns the supervised process.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Returns the supervised process mutably (experiment harness use).
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.process
    }

    /// Returns the wall (virtual) time, which only moves forward even
    /// across rollbacks.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Returns the program name (patch-pool key).
    pub fn program(&self) -> &str {
        &self.program
    }

    /// Returns checkpointing statistics (paper Table 7).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.manager.stats()
    }

    /// Returns the shared patch pool.
    pub fn pool(&self) -> &PatchPool {
        &self.pool
    }

    /// Diagnosis trials that errored and degraded to failed runs instead
    /// of aborting the supervisor, accumulated over all recoveries.
    pub fn trial_errors(&self) -> usize {
        self.trial_errors
    }

    /// Re-reads this program's published patches and their epoch from
    /// the pool in one locked read and updates the sync marker. The
    /// returned Arc is the pool's own set — no patch is copied.
    fn sync_pool_patches(&mut self) -> std::sync::Arc<fa_allocext::PatchSet> {
        let (patches, epoch) = self.pool.get_with_epoch(&self.program);
        self.pool_epoch_seen = epoch;
        patches
    }

    /// Picks up patches other processes added to the shared pool since
    /// this runtime last looked, without re-launching (paper §3: patches
    /// are "available to all the processes that are running the same
    /// program").
    ///
    /// The quiet path is one atomic load of this program's
    /// [`EpochSignal`], compared with the epoch last synced, so fleet
    /// workers can call this before every input. Only a moved epoch
    /// takes the pool lock, to read the set together with its epoch.
    /// Another program's pool traffic leaves this program's epoch, and
    /// so this runtime's installed set, untouched. Returns `true` if the
    /// installed set was replaced.
    pub fn refresh_patches(&mut self) -> bool {
        if !self.pool_signal.moved(self.pool_epoch_seen) {
            return false;
        }
        let patches = self.sync_pool_patches();
        self.install_patchset(patches);
        true
    }

    /// Installs a patch set on the live allocator, widening the
    /// delay-free quarantine when program-wide generic patches are
    /// active (they quarantine *every* free, so the production budget
    /// would recycle poisoned blocks far too early). The allocator
    /// re-derives the sentry sampler's suppression set from the
    /// installed patches.
    fn install_patchset(&mut self, patches: std::sync::Arc<PatchSet>) {
        let threshold = if patches.has_generic() {
            self.config.quarantine_bytes.max(GENERIC_QUARANTINE_BYTES)
        } else {
            self.config.quarantine_bytes
        };
        self.process.ctx.with_alloc_and_mem(|alloc, _mem| {
            let ext = expect_ext(alloc);
            ext.set_quarantine_threshold(threshold);
            ext.set_normal(patches);
        });
    }

    /// Fault-injection hook: after a checkpoint is taken, the plan may
    /// silently rot it. The damage is discovered (via checksum) only
    /// when a later recovery goes looking for a rollback target.
    fn maybe_corrupt_checkpoint(&mut self) {
        if self
            .config
            .faults
            .should_fail(FaultStage::CheckpointCorrupt)
        {
            self.manager.corrupt_newest();
        }
    }

    /// Returns the sentry-tier counters: the allocator extension's
    /// sampling/trap side merged with the runtime's diagnosis-path side.
    pub fn sentry_metrics(&mut self) -> SentryMetrics {
        let mut m = self.with_ext(|ext| ext.sentry_metrics().cloned().unwrap_or_default());
        m.merge(&self.sentry_counters);
        m
    }

    /// Returns the degradation-ladder counters, with the pool journal's
    /// I/O health folded in (zero and `false` for an in-memory pool).
    pub fn degradation(&self) -> DegradationMetrics {
        let mut d = self.degradation.clone();
        if let Some(wal) = self.pool.journal() {
            d.pool_io_errors = wal.io_errors();
            d.pool_degraded = wal.is_degraded();
        }
        d
    }

    /// Rung 4 trigger: too many consecutive dropped inputs means even
    /// the generic rung is not holding; a supervisor should fold this
    /// runtime's results and relaunch it from scratch.
    pub fn needs_restart(&self) -> bool {
        self.config.restart_after_drops > 0 && self.drop_streak >= self.config.restart_after_drops
    }

    /// Files a recovery record, maintaining the drop streak and making
    /// sure a checkpoint survives (corruption sweeps can empty the ring;
    /// every later recovery assumes a rollback target exists).
    fn push_record(&mut self, record: RecoveryRecord) -> usize {
        if record.kind == RecoveryKind::Dropped {
            self.drop_streak += 1;
        } else {
            self.drop_streak = 0;
        }
        if self.manager.is_empty() {
            self.manager.force_checkpoint(&mut self.process);
            self.sync_wall();
        }
        self.recoveries.push(record);
        self.recoveries.len() - 1
    }

    /// Returns the number of inputs enqueued but not yet consumed.
    pub fn backlog(&self) -> usize {
        self.process.pending()
    }

    /// Returns a point-in-time health summary (fleet supervision).
    pub fn health(&self) -> RuntimeHealth {
        RuntimeHealth {
            recoveries: self.recoveries.len(),
            dropped: self
                .recoveries
                .iter()
                .filter(|r| r.kind == RecoveryKind::Dropped)
                .count(),
            patched: self
                .recoveries
                .iter()
                .filter(|r| r.kind == RecoveryKind::Patched)
                .count(),
            backlog: self.process.pending(),
            pool_epoch: self.pool_epoch_seen,
            drop_streak: self.drop_streak,
        }
    }

    /// Runs a closure over the allocator extension (counters, tables).
    pub fn with_ext<R>(&mut self, f: impl FnOnce(&mut ExtAllocator) -> R) -> R {
        self.process
            .ctx
            .with_alloc_and_mem(|alloc, _mem| f(expect_ext(alloc)))
    }

    fn sync_wall(&mut self) {
        let now = self.process.ctx.clock.now();
        if now > self.last_proc_clock {
            self.wall_ns += now - self.last_proc_clock;
        }
        self.last_proc_clock = now;
    }

    fn resync_without_credit(&mut self) {
        self.last_proc_clock = self.process.ctx.clock.now();
    }

    /// Feeds one input; recovers on failure.
    pub fn feed(&mut self, input: Input) -> FeedOutcome {
        let r = self.process.feed(input);
        self.sync_wall();
        match r {
            StepResult::Ok(_) => {
                self.drop_streak = 0;
                if self.manager.maybe_checkpoint(&mut self.process).is_some() {
                    self.sync_wall();
                    self.maybe_corrupt_checkpoint();
                }
                FeedOutcome {
                    served: true,
                    failed: false,
                    recovery: None,
                }
            }
            StepResult::Failed(_) => {
                let skipped_before = self.process.skipped_count();
                let idx = self.recover();
                // After recovery the failing input either succeeded during
                // the (possibly generic-)patched replay or was skipped.
                let served = self.process.skipped_count() == skipped_before;
                FeedOutcome {
                    served,
                    failed: true,
                    recovery: Some(idx),
                }
            }
        }
    }

    /// Runs a whole recorded workload, recovering as needed; optionally
    /// samples throughput for Fig. 4-style series.
    pub fn run(
        &mut self,
        workload: impl IntoIterator<Item = Input>,
        mut sampler: Option<&mut ThroughputSampler>,
    ) -> RunSummary {
        let mut summary = RunSummary::default();
        let mut enqueued = 0usize;
        for input in workload {
            self.process.enqueue(input);
            enqueued += 1;
        }
        let skipped_at_entry = self.process.skipped_count();
        let mut ok_steps = 0usize;
        loop {
            match self.process.step() {
                None => {
                    if self.process.pending() == 0 {
                        break;
                    }
                    // A pending failure without a step means recover; if
                    // the process is wedged with neither progress nor a
                    // failure, bail out rather than spin.
                    if self.try_recover().is_err() {
                        break;
                    }
                    summary.recoveries += 1;
                }
                Some(StepResult::Ok(_)) => {
                    ok_steps += 1;
                    self.drop_streak = 0;
                    self.sync_wall();
                    if self.manager.maybe_checkpoint(&mut self.process).is_some() {
                        self.sync_wall();
                        self.maybe_corrupt_checkpoint();
                    }
                    let every = self.config.integrity_check_every;
                    if every > 0 && ok_steps.is_multiple_of(every) {
                        let verdict = self
                            .process
                            .ctx
                            .with_alloc_and_mem(|alloc, mem| alloc.heap().check_integrity(mem));
                        if let Err(e) = verdict {
                            self.process.raise_failure(Fault::Heap(e));
                            summary.failures += 1;
                            self.sync_wall();
                            self.recover();
                            summary.recoveries += 1;
                        }
                    }
                }
                Some(StepResult::Failed(_)) => {
                    summary.failures += 1;
                    self.sync_wall();
                    self.recover();
                    summary.recoveries += 1;
                }
            }
            if let Some(s) = sampler.as_deref_mut() {
                s.record(self.wall_ns, self.process.bytes_delivered);
            }
        }
        // Conservation: every enqueued input was either served (possibly
        // during a patched replay inside a recovery) or skipped. This is
        // what the liveness property tests check under fault injection.
        summary.dropped = self.process.skipped_count() - skipped_at_entry;
        summary.served = enqueued.saturating_sub(summary.dropped);
        summary.wall_ns = self.wall_ns;
        summary.bytes_delivered = self.process.bytes_delivered;
        summary.degradation = self.degradation();
        summary.sentry = self.sentry_metrics();
        summary
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use fa_proc::{App, Response};

    use super::*;

    #[derive(Clone)]
    struct Idle;

    impl App for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }

        fn handle(&mut self, _ctx: &mut ProcessCtx, _input: &Input) -> Result<Response, Fault> {
            Ok(Response::bytes(0))
        }

        fn clone_app(&self) -> BoxedApp {
            Box::new(self.clone())
        }
    }

    #[test]
    fn a_quiet_refresh_takes_no_pool_lock() {
        let pool = PatchPool::in_memory();
        let mut rt =
            FirstAidRuntime::launch(Box::new(Idle), FirstAidConfig::default(), pool.clone())
                .expect("launch");
        // The test thread holds the pool mutex while a second thread
        // refreshes: a quiet path that took the lock would block until
        // the timeout.
        let quiet = std::thread::scope(|s| {
            let held = pool.hold_lock();
            let (tx, rx) = mpsc::channel();
            s.spawn(move || tx.send(rt.refresh_patches()));
            let quiet = rx.recv_timeout(Duration::from_secs(10));
            drop(held);
            quiet
        });
        assert_eq!(quiet, Ok(false), "nothing published, no lock taken");
    }
}
