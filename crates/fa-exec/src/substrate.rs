//! What every trial path shares besides the replay itself: the fault
//! gate that resolves injected flakiness, and the virtual-clock ledger.
//!
//! Only the core crate drives re-execution trials: its diagnosis engine
//! (including the sentry-seeded fast path), the recovery path and the
//! Rx baseline. A trial is a [`crate::TrialSpec`] replayed through
//! [`crate::ReplayHarness`]; everything above chooses *which* trials to
//! run, never *how*.

use std::cell::Cell;

use fa_faults::{FaultPlan, FaultStage};

use crate::backoff::Backoff;
use crate::harness::RunReport;

/// The flaky-re-execution fault gate.
///
/// Before a trial runs, injected `ReexecFlaky` faults are resolved: each
/// flaky iteration costs an exponentially backed-off virtual-time penalty
/// and a bounded number of retries. The gate consults the (stateful)
/// fault plan once per trial, in trial order, so a seeded plan injects
/// the same schedule on every run.
pub struct FaultGate<'a> {
    plan: &'a FaultPlan,
    retries: u32,
    backoff_ns: u64,
    consumed: &'a Cell<usize>,
}

impl<'a> FaultGate<'a> {
    /// Builds a gate over the engine's fault plan. `consumed` accumulates
    /// the number of retries burned across the whole diagnosis.
    pub fn new(
        plan: &'a FaultPlan,
        retries: u32,
        backoff_ns: u64,
        consumed: &'a Cell<usize>,
    ) -> Self {
        FaultGate {
            plan,
            retries,
            backoff_ns,
            consumed,
        }
    }

    /// Resolves the gate for one trial. `Ok(penalty_ns)` means
    /// the trial's report stands after `penalty_ns` of retry cost;
    /// `Err(penalty_ns)` means retries were exhausted and the trial is
    /// lost (the caller reports it as a failed run).
    pub fn resolve(&self) -> Result<u64, u64> {
        // Unjittered shared policy: the k-th retry costs base << k, capped
        // at base << 16 (the pre-Backoff schedule, kept byte-identical so
        // virtual-time-sensitive fault tests are unaffected).
        let mut backoff = Backoff::new(self.backoff_ns, self.backoff_ns.saturating_mul(1 << 16));
        let mut penalty_ns = 0u64;
        loop {
            if self.plan.should_fail(FaultStage::ReexecFlaky) {
                let attempt = backoff.attempts();
                penalty_ns = penalty_ns.saturating_add(backoff.next_delay_ns());
                if attempt < self.retries {
                    self.consumed.set(self.consumed.get() + 1);
                    continue;
                }
                return Err(penalty_ns);
            }
            return Ok(penalty_ns);
        }
    }
}

/// Virtual-clock accounting for one diagnosis: how many rollbacks ran,
/// how much virtual time they consumed, and the human-readable trail.
#[derive(Debug, Default)]
pub struct TrialLedger {
    /// Number of trials run.
    pub rollbacks: usize,
    /// Total virtual time charged.
    pub elapsed_ns: u64,
    /// Human-readable diagnosis trail.
    pub log: Vec<String>,
}

impl TrialLedger {
    /// Starts a ledger with an opening log line.
    pub fn new(first_line: String) -> Self {
        TrialLedger {
            rollbacks: 0,
            elapsed_ns: 0,
            log: vec![first_line],
        }
    }

    /// Charges one trial to the ledger.
    pub fn charge(&mut self, report: &RunReport) {
        self.rollbacks += 1;
        self.elapsed_ns += report.elapsed_ns;
    }
}
