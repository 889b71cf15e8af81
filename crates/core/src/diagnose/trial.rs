//! One diagnosis trial: fault gate, re-execution, watchdog, ledger charge.
//!
//! Trials run one at a time on the supervised process, rolled back
//! through the checkpoint ring (paper §4). On a nondeterminism verdict the
//! runtime keeps the re-executed state, so phase 0 must run here and not
//! on a fork.

use fa_checkpoint::CheckpointManager;
use fa_exec::{
    FaultGate, ReplayHarness, RunReport, TrialLedger as Ledger, TrialSpec, Watchdog,
    ROLLBACK_COST_NS,
};
use fa_proc::Process;

use super::{DiagnosisEngine, REEXEC_RETRIES, RETRY_BACKOFF_NS, TRIAL_DEADLINE_NS};

impl DiagnosisEngine {
    /// One re-execution of `spec`, charged to `ledger`, with bounded
    /// retry-with-backoff against flaky iterations: if the fault plan
    /// declares this re-execution flaky (it dies for reasons unrelated to
    /// the bug), the engine charges an exponentially growing backoff and
    /// retries up to `REEXEC_RETRIES` times before writing the iteration
    /// off as a failed run. A trial the watchdog reaps likewise degrades
    /// to a failed run, so one wedged trial cannot stall diagnosis.
    pub(super) fn run(
        &self,
        process: &mut Process,
        manager: &CheckpointManager,
        ledger: &mut Ledger,
        spec: &TrialSpec,
    ) -> RunReport {
        let r = match self.gate().resolve() {
            Err(penalty) => Self::lost(penalty),
            Ok(penalty) => {
                let mut r = self.execute(process, manager, spec);
                match self.watchdog().judge(r.elapsed_ns) {
                    Ok(wd) => {
                        r.elapsed_ns += penalty + wd;
                        r
                    }
                    Err(wd) => Self::lost(penalty + wd),
                }
            }
        };
        ledger.charge(&r);
        r
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

    /// One re-execution of `spec` on the supervised process. An errored
    /// trial (lost or corrupt checkpoint) is reported as a failed run —
    /// the ladder then treats it like any other insufficient checkpoint —
    /// rather than aborting the supervisor.
    fn execute(
        &self,
        process: &mut Process,
        manager: &CheckpointManager,
        spec: &TrialSpec,
    ) -> RunReport {
        let opts = spec.options(self.config.integrity_check);
        match ReplayHarness::try_reexecute(process, manager, spec.ckpt_id, spec.plan.clone(), &opts)
        {
            Ok(r) => r,
            Err(e) => {
                self.trial_errors.set(self.trial_errors.get() + 1);
                crate::log::warn(format!("trial degraded to failed run ({e}): {spec:?}"));
                Self::lost(0)
            }
        }
    }

    /// The flaky-re-execution fault gate over this engine's plan and
    /// retry budget.
    fn gate(&self) -> FaultGate<'_> {
        FaultGate::new(
            &self.faults,
            REEXEC_RETRIES,
            RETRY_BACKOFF_NS,
            &self.retries,
        )
    }

    /// The hung-trial watchdog over this engine's plan, deadline, and
    /// retry budget. It resolves once per trial, after the gate.
    fn watchdog(&self) -> Watchdog<'_> {
        Watchdog::new(
            &self.faults,
            TRIAL_DEADLINE_NS,
            REEXEC_RETRIES,
            RETRY_BACKOFF_NS,
            &self.trial_hangs,
        )
    }
}
