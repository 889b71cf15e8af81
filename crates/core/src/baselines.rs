//! The comparison systems of the paper's evaluation (§7.3, Fig. 4,
//! Table 4): Rx-style checkpoint recovery and whole-process restart.

use fa_allocext::{ChangePlan, ExtAllocator, PatchSet};
use fa_checkpoint::{AdaptiveConfig, CheckpointManager};
use fa_exec::{expect_ext, ReexecOptions, ReplayHarness};
use fa_proc::{BoxedApp, Fault, Input, Process, ProcessCtx, StepResult};

use crate::diagnose::{MARGIN_INTERVALS, MAX_CHECKPOINT_TRIES};
use crate::log;
use crate::metrics::ThroughputSampler;
use crate::runtime::RunSummary;

/// One Rx recovery (for Table 4 accounting).
#[derive(Clone, Debug)]
pub struct RxRecovery {
    /// Wall time from failure to resumed normal execution.
    pub recovery_ns: u64,
    /// Rollback iterations used.
    pub rollbacks: usize,
    /// Objects the environmental changes touched in the buggy region.
    pub changed_objects: u64,
    /// Distinct call-sites the changes touched in the buggy region.
    pub changed_sites: usize,
}

/// Rx (SOSP'05): survive by re-executing from a checkpoint with
/// environmental changes applied to **all** memory objects, then disable
/// the changes once past the failure region.
///
/// Because the changes are disabled after recovery (they are too heavy to
/// leave on for every object), the same deterministic bug fails again on
/// the next triggering input — the sawtooth of paper Fig. 4.
pub struct RxRuntime {
    process: Process,
    manager: CheckpointManager,
    wall_ns: u64,
    last_proc_clock: u64,
    /// All recoveries performed.
    pub recoveries: Vec<RxRecovery>,
}

impl RxRuntime {
    /// Launches an application under Rx supervision.
    pub fn launch(
        app: BoxedApp,
        adaptive: AdaptiveConfig,
        heap_limit: u64,
    ) -> Result<RxRuntime, Fault> {
        let mut ctx = ProcessCtx::new(heap_limit);
        ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
        let mut process = Process::launch(app, ctx)?;
        let mut manager = CheckpointManager::new(adaptive, 50);
        manager.force_checkpoint(&mut process);
        let last_proc_clock = process.ctx.clock.now();
        Ok(RxRuntime {
            process,
            manager,
            wall_ns: last_proc_clock,
            last_proc_clock,
            recoveries: Vec::new(),
        })
    }

    /// Returns the wall (virtual) time.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Returns the supervised process.
    pub fn process(&self) -> &Process {
        &self.process
    }

    fn sync_wall(&mut self) {
        let now = self.process.ctx.clock.now();
        if now > self.last_proc_clock {
            self.wall_ns += now - self.last_proc_clock;
        }
        self.last_proc_clock = now;
    }

    /// Runs a workload, recovering Rx-style on failures.
    pub fn run(
        &mut self,
        workload: impl IntoIterator<Item = Input>,
        mut sampler: Option<&mut ThroughputSampler>,
    ) -> RunSummary {
        let mut summary = RunSummary::default();
        for input in workload {
            self.process.enqueue(input);
        }
        loop {
            match self.process.step() {
                None => {
                    if self.process.pending() == 0 {
                        break;
                    }
                    self.recover(&mut summary);
                }
                Some(StepResult::Ok(_)) => {
                    summary.served += 1;
                    self.sync_wall();
                    if self.manager.maybe_checkpoint(&mut self.process).is_some() {
                        self.sync_wall();
                    }
                }
                Some(StepResult::Failed(_)) => {
                    summary.failures += 1;
                    self.sync_wall();
                    self.recover(&mut summary);
                }
            }
            if let Some(s) = sampler.as_deref_mut() {
                s.record(self.wall_ns, self.process.bytes_delivered);
            }
        }
        summary.wall_ns = self.wall_ns;
        summary.bytes_delivered = self.process.bytes_delivered;
        summary
    }

    fn recover(&mut self, summary: &mut RunSummary) {
        let Some(failure) = self.process.failure.clone() else {
            // A stray call with nothing pending is not a recovery.
            return;
        };
        let wall_start = self.wall_ns;
        let margin_ns = MARGIN_INTERVALS * self.manager.interval_ns();
        let until =
            ReplayHarness::success_end_cursor(&self.process, failure.input_index, margin_ns);
        let mut rollbacks = 0usize;
        let mut survived = false;
        #[allow(clippy::explicit_counter_loop)] // rollbacks counts work, not iterations reached
        for k in 0..MAX_CHECKPOINT_TRIES {
            let Some(ckpt) = self.manager.nth_newest(k) else {
                break;
            };
            let id = ckpt.id;
            // Rx applies all preventive changes to ALL objects — no
            // in-depth diagnosis, no heap marking.
            let r = ReplayHarness::reexecute(
                &mut self.process,
                &self.manager,
                id,
                ChangePlan::all_preventive(),
                &ReexecOptions {
                    mark_heap: false,
                    timing_seed: 0,
                    until_cursor: until,
                    integrity_check: false,
                },
            );
            rollbacks += 1;
            self.wall_ns += r.elapsed_ns;
            if r.passed {
                // Survived: record the footprint of the global changes in
                // the buggy region (Table 4), then DISABLE the changes —
                // Rx cannot afford them during normal execution.
                self.recoveries.push(RxRecovery {
                    recovery_ns: self.wall_ns - wall_start,
                    rollbacks,
                    changed_objects: r.changed_objects,
                    changed_sites: r.changed_sites,
                });
                self.process.ctx.with_alloc_and_mem(|alloc, mem| {
                    let ext = expect_ext(alloc);
                    ext.set_normal(PatchSet::new());
                    // Delay-freed objects drain back to the heap.
                    let _ = ext.flush_quarantine(mem);
                });
                self.manager.truncate_after(id);
                self.manager.rearm(&self.process);
                self.last_proc_clock = self.process.ctx.clock.now();
                survived = true;
                summary.recoveries += 1;
                break;
            }
        }
        if !survived {
            // Give up on the input: replay to it in normal mode and drop.
            let Some(newest) = self.manager.nth_newest(0).map(|c| c.id) else {
                // The ring is empty (launch normally guarantees a
                // checkpoint): drop the poisoned input in place.
                self.process.clear_failure();
                self.process.skip_current();
                self.last_proc_clock = self.process.ctx.clock.now();
                self.manager.rearm(&self.process);
                summary.dropped += 1;
                return;
            };
            self.manager.rollback_to(&mut self.process, newest);
            self.process.ctx.with_alloc_and_mem(|alloc, _mem| {
                expect_ext(alloc).set_normal(PatchSet::new());
            });
            self.process.replay_until(failure.input_index);
            self.process.clear_failure();
            self.process.skip_current();
            self.last_proc_clock = self.process.ctx.clock.now();
            self.manager.rearm(&self.process);
            summary.dropped += 1;
        }
    }
}

/// The classic restart approach: on failure, restart the whole process.
///
/// Restart loses all in-memory state, pays a fixed downtime, drops the
/// poisoned request, and — the bug being deterministic — fails again on
/// every future triggering input (paper Fig. 4, bottom rows).
pub struct RestartRuntime {
    process: Process,
    template: BoxedApp,
    heap_limit: u64,
    restart_cost_ns: u64,
    wall_ns: u64,
    last_proc_clock: u64,
    bytes_delivered_past: u64,
    /// Number of restarts performed.
    pub restarts: usize,
}

impl RestartRuntime {
    /// Launches an application with restart-on-failure supervision.
    ///
    /// `restart_cost_ns` is the downtime charged per restart (process
    /// teardown + exec + init; server restarts are of the order of a
    /// second).
    pub fn launch(
        app: BoxedApp,
        heap_limit: u64,
        restart_cost_ns: u64,
    ) -> Result<RestartRuntime, Fault> {
        let template = app.clone();
        let mut ctx = ProcessCtx::new(heap_limit);
        ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
        let process = Process::launch(app, ctx)?;
        let last_proc_clock = process.ctx.clock.now();
        Ok(RestartRuntime {
            process,
            template,
            heap_limit,
            restart_cost_ns,
            wall_ns: last_proc_clock,
            last_proc_clock,
            bytes_delivered_past: 0,
            restarts: 0,
        })
    }

    /// Returns the wall (virtual) time.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Total bytes delivered across all incarnations.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered_past + self.process.bytes_delivered
    }

    fn sync_wall(&mut self) {
        let now = self.process.ctx.clock.now();
        if now > self.last_proc_clock {
            self.wall_ns += now - self.last_proc_clock;
        }
        self.last_proc_clock = now;
    }

    /// Runs a workload, restarting on every failure.
    pub fn run(
        &mut self,
        workload: impl IntoIterator<Item = Input>,
        mut sampler: Option<&mut ThroughputSampler>,
    ) -> RunSummary {
        let mut summary = RunSummary::default();
        for input in workload {
            let r = self.process.feed(input);
            self.sync_wall();
            match r {
                StepResult::Ok(_) => summary.served += 1,
                StepResult::Failed(_) => {
                    summary.failures += 1;
                    summary.dropped += 1;
                    self.restart();
                    summary.recoveries += 1;
                }
            }
            if let Some(s) = sampler.as_deref_mut() {
                s.record(self.wall_ns, self.bytes_delivered());
            }
        }
        summary.wall_ns = self.wall_ns;
        summary.bytes_delivered = self.bytes_delivered();
        summary
    }

    fn restart(&mut self) {
        self.restarts += 1;
        self.wall_ns += self.restart_cost_ns;
        self.bytes_delivered_past += self.process.bytes_delivered;
        let mut ctx = ProcessCtx::new(self.heap_limit);
        ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
        let app = self.template.clone();
        match Process::launch(app, ctx) {
            Ok(p) => {
                self.process = p;
                self.last_proc_clock = self.process.ctx.clock.now();
                self.wall_ns += self.last_proc_clock; // init work of the new process
            }
            Err(e) => {
                // The relaunch itself died in app init; keep serving on
                // the old incarnation (with the poisoned input dropped)
                // rather than aborting the supervisor.
                log::warn(format!(
                    "restart: relaunch failed ({e}); continuing on the old process"
                ));
                self.process.clear_failure();
                self.process.skip_current();
                self.last_proc_clock = self.process.ctx.clock.now();
            }
        }
    }
}
