//! One diagnosis trial: fault gate, re-execution, watchdog, ledger charge.
//!
//! Trials run one at a time on the supervised process, rolled back
//! through the checkpoint ring (paper §4). On a nondeterminism verdict the
//! runtime keeps the re-executed state, so phase 0 must run here and not
//! on a fork. A trial is the harness's own triple: a checkpoint, a
//! [`ChangePlan`] and [`ReexecOptions`]; this module adds the engine's
//! policy around it — the flaky-retry gate before, the hung-trial
//! watchdog after, and the virtual-clock charge.

use fa_allocext::ChangePlan;
use fa_checkpoint::{CheckpointManager, ROLLBACK_COST_NS};
use fa_exec::{ReexecOptions, ReplayHarness, RunReport};
use fa_faults::{Backoff, FaultStage};
use fa_proc::Process;

use super::{
    DiagnosedBug, Diagnosis, DiagnosisEngine, DiagnosisOutcome, DEADLINE_NS, MARGIN_INTERVALS,
    REEXEC_RETRIES, RETRY_BACKOFF_NS, TRIAL_DEADLINE_NS,
};

/// Mixed into the fault-plan seed so watchdog jitter decorrelates from
/// other consumers of the same seed.
const WATCHDOG_SEED_SALT: u64 = 0x57a7_c4d0_9bad_d093;

/// One diagnosis in progress: the process it re-executes, the
/// checkpoint ring it rolls back through, the replay options its trials
/// share, and the virtual-clock account of the trials run so far.
pub(super) struct Ledger<'a> {
    engine: &'a DiagnosisEngine,
    process: &'a mut Process,
    manager: &'a CheckpointManager,
    /// The success horizon and the deployment's integrity monitor, with
    /// no heap marking and the default timing.
    pub(super) opts: ReexecOptions,
    /// Trials run.
    pub(super) rollbacks: usize,
    /// Virtual time charged.
    pub(super) elapsed_ns: u64,
    /// Human-readable diagnosis trail.
    pub(super) log: Vec<String>,
    /// The diagnosis deadline cut the search short.
    timed_out: bool,
}

impl<'a> Ledger<'a> {
    /// Opens the ledger for a diagnosis of the failure at input
    /// `failure_index`: every trial must replay `MARGIN_INTERVALS`
    /// checkpoint intervals past it to pass (paper §4.1).
    pub(super) fn open(
        engine: &'a DiagnosisEngine,
        process: &'a mut Process,
        manager: &'a CheckpointManager,
        failure_index: usize,
    ) -> Self {
        let margin_ns = MARGIN_INTERVALS * manager.interval_ns();
        let until = ReplayHarness::success_end_cursor(process, failure_index, margin_ns);
        Ledger {
            engine,
            process,
            manager,
            opts: ReexecOptions {
                mark_heap: false,
                timing_seed: 0,
                until_cursor: until,
                integrity_check: engine.config.integrity_check,
            },
            rollbacks: 0,
            elapsed_ns: 0,
            log: Vec::new(),
            timed_out: false,
        }
    }

    /// True once the trials have consumed the diagnosis deadline.
    pub(super) fn past_deadline(&self) -> bool {
        self.elapsed_ns >= DEADLINE_NS
    }

    /// Logs that the diagnosis deadline cut the search short; a
    /// non-patchable outcome then counts as a diagnosis timeout.
    pub(super) fn deadline_exceeded(&mut self, line: impl Into<String>) {
        self.timed_out = true;
        self.log.push(line.into());
    }

    /// One re-execution of `plan` from checkpoint `ckpt_id`, charged to
    /// the ledger. The engine's fault gate resolves before it and its
    /// watchdog after it; a trial either of them writes off, or one the
    /// harness cannot run (lost or corrupt checkpoint, foreign
    /// allocator), comes back as a failed run, so one flaky, wedged or
    /// errored trial cannot stall diagnosis.
    pub(super) fn run(&mut self, ckpt_id: u64, plan: ChangePlan, opts: ReexecOptions) -> RunReport {
        let r = match self.engine.gate() {
            Err(penalty) => lost(penalty),
            Ok(penalty) => {
                let mut r =
                    ReplayHarness::try_reexecute(self.process, self.manager, ckpt_id, plan, &opts)
                        .unwrap_or_else(|e| {
                            let errors = &self.engine.trial_errors;
                            errors.set(errors.get() + 1);
                            crate::log::warn(format!("trial degraded to failed run ({e})"));
                            lost(0)
                        });
                match self.engine.watchdog(r.elapsed_ns) {
                    Ok(wd) => {
                        r.elapsed_ns += penalty + wd;
                        r
                    }
                    Err(wd) => lost(penalty + wd),
                }
            }
        };
        self.rollbacks += 1;
        self.elapsed_ns += r.elapsed_ns;
        r
    }

    /// Closes the ledger as a concluded diagnosis.
    pub(super) fn diagnosis(self, bugs: Vec<DiagnosedBug>, checkpoint_id: u64) -> Diagnosis {
        Diagnosis {
            bugs,
            checkpoint_id,
            rollbacks: self.rollbacks,
            elapsed_ns: self.elapsed_ns,
            log: self.log,
            until_cursor: self.opts.until_cursor,
        }
    }

    /// Closes the ledger as a non-deterministic failure.
    pub(super) fn non_deterministic(self) -> DiagnosisOutcome {
        DiagnosisOutcome::NonDeterministic {
            rollbacks: self.rollbacks,
            elapsed_ns: self.elapsed_ns,
            log: self.log,
        }
    }

    /// Closes the ledger as a non-patchable failure.
    pub(super) fn non_patchable(self) -> DiagnosisOutcome {
        DiagnosisOutcome::NonPatchable {
            rollbacks: self.rollbacks,
            elapsed_ns: self.elapsed_ns,
            log: self.log,
            timed_out: self.timed_out,
        }
    }
}

/// The report of a trial that never produced a result: a failed run
/// costing `penalty_ns` plus the rollback.
fn lost(penalty_ns: u64) -> RunReport {
    RunReport {
        passed: false,
        elapsed_ns: penalty_ns + ROLLBACK_COST_NS,
        ..RunReport::default()
    }
}

impl DiagnosisEngine {
    /// The flaky-re-execution gate, resolved once before each trial in
    /// trial order, so a seeded plan injects the same schedule on every
    /// run. Each injected `ReexecFlaky` fault costs an exponentially
    /// backed-off penalty and one of `REEXEC_RETRIES` retries.
    /// `Ok(penalty_ns)`: the trial runs after `penalty_ns` of retry cost;
    /// `Err(penalty_ns)`: the retries ran out and the trial is lost.
    fn gate(&self) -> Result<u64, u64> {
        // Unjittered: the k-th retry costs base << k, capped at base << 16.
        let mut backoff = Backoff::new(RETRY_BACKOFF_NS, RETRY_BACKOFF_NS.saturating_mul(1 << 16));
        let mut penalty_ns = 0u64;
        while self.faults.should_fail(FaultStage::ReexecFlaky) {
            penalty_ns = penalty_ns.saturating_add(backoff.next_delay_ns());
            if backoff.attempts() > REEXEC_RETRIES {
                return Err(penalty_ns);
            }
            self.retries.set(self.retries.get() + 1);
        }
        Ok(penalty_ns)
    }

    /// The hung-trial watchdog, resolved once after each trial that ran
    /// for `trial_elapsed_ns` of virtual time. A trial past
    /// `TRIAL_DEADLINE_NS`, or wedged by an injected `TrialHang`, is
    /// reaped: it burned its whole deadline, plus a jittered backoff.
    /// Injected hangs retry up to `REEXEC_RETRIES` times; a genuine
    /// overrun is deterministic, so it is lost at once. `Ok(penalty_ns)`:
    /// the trial's report stands after `penalty_ns` of reap-and-retry
    /// cost; `Err(penalty_ns)`: the trial is lost and diagnosis moves on
    /// instead of waiting forever.
    fn watchdog(&self, trial_elapsed_ns: u64) -> Result<u64, u64> {
        let overdue = trial_elapsed_ns > TRIAL_DEADLINE_NS;
        let mut backoff = Backoff::seeded(
            RETRY_BACKOFF_NS,
            RETRY_BACKOFF_NS.saturating_mul(1 << 10),
            self.faults.seed() ^ WATCHDOG_SEED_SALT,
        );
        let mut penalty_ns = 0u64;
        while self.faults.should_fail(FaultStage::TrialHang) || overdue {
            self.trial_hangs.set(self.trial_hangs.get() + 1);
            penalty_ns = penalty_ns
                .saturating_add(TRIAL_DEADLINE_NS)
                .saturating_add(backoff.next_delay_ns());
            if overdue || backoff.attempts() > REEXEC_RETRIES {
                return Err(penalty_ns);
            }
        }
        Ok(penalty_ns)
    }
}

#[cfg(test)]
mod tests {
    use fa_faults::{FaultPlan, Injection};

    use super::*;
    use crate::diagnose::EngineConfig;

    fn engine(stage: FaultStage, injection: Injection) -> DiagnosisEngine {
        let plan = FaultPlan::builder(3).inject(stage, injection).build();
        DiagnosisEngine::with_faults(EngineConfig::default(), plan)
    }

    #[test]
    fn quiet_trials_pass_the_watchdog_for_free() {
        let engine = DiagnosisEngine::default();
        assert_eq!(engine.watchdog(TRIAL_DEADLINE_NS / 2), Ok(0));
        assert_eq!(engine.trial_hangs(), 0);
    }

    #[test]
    fn genuinely_overdue_trials_are_lost_immediately() {
        let engine = DiagnosisEngine::default();
        let penalty = engine.watchdog(TRIAL_DEADLINE_NS + 1).unwrap_err();
        assert!(penalty >= TRIAL_DEADLINE_NS, "charged the burned deadline");
        assert_eq!(engine.trial_hangs(), 1, "no retries for an overrun");
    }

    #[test]
    fn injected_hangs_retry_then_pass() {
        // The first occurrence hangs, the second is clean: one reap.
        let engine = engine(FaultStage::TrialHang, Injection::Nth(vec![0]));
        let penalty = engine.watchdog(TRIAL_DEADLINE_NS / 2).unwrap();
        assert!(penalty >= TRIAL_DEADLINE_NS);
        assert_eq!(engine.trial_hangs(), 1);
    }

    #[test]
    fn persistent_injected_hangs_exhaust_retries() {
        let engine = engine(FaultStage::TrialHang, Injection::EveryNth(1));
        let penalty = engine.watchdog(TRIAL_DEADLINE_NS / 2).unwrap_err();
        assert!(penalty >= 3 * TRIAL_DEADLINE_NS, "three reaps");
        assert_eq!(engine.trial_hangs(), 3, "initial attempt + two retries");
    }

    #[test]
    fn flaky_trials_retry_on_a_doubling_penalty_then_are_lost() {
        let once = engine(FaultStage::ReexecFlaky, Injection::Nth(vec![0]));
        assert_eq!(once.gate(), Ok(RETRY_BACKOFF_NS));
        assert_eq!(once.retries_used(), 1);
        let always = engine(FaultStage::ReexecFlaky, Injection::EveryNth(1));
        assert_eq!(always.gate(), Err(7 * RETRY_BACKOFF_NS), "1 + 2 + 4");
        assert_eq!(always.retries_used(), 2);
    }
}
