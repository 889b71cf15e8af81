//! The hung-trial watchdog: per-trial virtual-time deadlines.
//!
//! A diagnostic re-execution can wedge — in the simulation either via an
//! injected [`FaultStage::TrialHang`] or by genuinely overrunning its
//! virtual-time deadline. Without supervision a single wedged trial
//! stalls the entire diagnosis. The watchdog judges each trial once,
//! right after it runs (in trial order, like [`crate::FaultGate`], so a
//! seeded plan injects the same schedule on every run), charges the
//! burned deadline plus a jittered retry backoff to the virtual clock,
//! and after bounded retries declares the trial lost so the caller can
//! degrade — in the core runtime that means descending the ladder
//! instead of wedging.

use std::cell::Cell;

use fa_faults::{FaultPlan, FaultStage};

use crate::backoff::Backoff;

/// Mixed into the fault-plan seed so watchdog jitter decorrelates from
/// other consumers of the same seed.
const WATCHDOG_SEED_SALT: u64 = 0x57a7_c4d0_9bad_d093;

/// Judges trials against a per-trial virtual-time deadline.
pub struct Watchdog<'a> {
    plan: &'a FaultPlan,
    deadline_ns: u64,
    retries: u32,
    backoff_base_ns: u64,
    hangs: &'a Cell<usize>,
}

impl<'a> Watchdog<'a> {
    /// Builds a watchdog over the engine's fault plan; `hangs`
    /// accumulates reaped-trial counts across the diagnosis.
    pub fn new(
        plan: &'a FaultPlan,
        deadline_ns: u64,
        retries: u32,
        backoff_base_ns: u64,
        hangs: &'a Cell<usize>,
    ) -> Self {
        Watchdog {
            plan,
            deadline_ns,
            retries,
            backoff_base_ns,
            hangs,
        }
    }

    /// Resolves the watchdog for one trial that ran for
    /// `trial_elapsed_ns` of virtual time. `Ok(penalty_ns)` means the
    /// trial's report stands after `penalty_ns` of reap-and-retry cost;
    /// `Err(penalty_ns)` means the trial is lost (genuinely overdue, or
    /// injected hangs exhausted the retries) and the caller must degrade
    /// instead of waiting forever.
    pub fn judge(&self, trial_elapsed_ns: u64) -> Result<u64, u64> {
        let overdue = trial_elapsed_ns > self.deadline_ns;
        let mut backoff = Backoff::seeded(
            self.backoff_base_ns,
            self.backoff_base_ns.saturating_mul(1 << 10),
            self.plan.seed() ^ WATCHDOG_SEED_SALT,
        );
        let mut penalty_ns = 0u64;
        let mut attempt: u32 = 0;
        loop {
            let injected = self.plan.should_fail(FaultStage::TrialHang);
            if !injected && !overdue {
                return Ok(penalty_ns);
            }
            self.hangs.set(self.hangs.get() + 1);
            // The wedged trial burned its whole deadline before the reap.
            penalty_ns = penalty_ns
                .saturating_add(self.deadline_ns)
                .saturating_add(backoff.next_delay_ns());
            if overdue || attempt >= self.retries {
                // A genuine overrun is deterministic — retrying cannot
                // clear it, so escalate immediately.
                return Err(penalty_ns);
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_faults::Injection;

    #[test]
    fn quiet_trials_pass_for_free() {
        let plan = FaultPlan::none();
        let hangs = Cell::new(0);
        let dog = Watchdog::new(&plan, 1_000, 2, 10, &hangs);
        assert_eq!(dog.judge(500), Ok(0));
        assert_eq!(hangs.get(), 0);
    }

    #[test]
    fn genuinely_overdue_trials_are_lost_immediately() {
        let plan = FaultPlan::none();
        let hangs = Cell::new(0);
        let dog = Watchdog::new(&plan, 1_000, 5, 10, &hangs);
        let penalty = dog.judge(1_500).unwrap_err();
        assert!(penalty >= 1_000, "charged at least the burned deadline");
        assert_eq!(hangs.get(), 1, "no retries for a deterministic overrun");
    }

    #[test]
    fn injected_hangs_retry_then_pass() {
        // First occurrence hangs, second is clean: one reap, then Ok.
        let plan = FaultPlan::builder(3)
            .inject(FaultStage::TrialHang, Injection::Nth(vec![0]))
            .build();
        let hangs = Cell::new(0);
        let dog = Watchdog::new(&plan, 1_000, 2, 10, &hangs);
        let penalty = dog.judge(100).unwrap();
        assert!(penalty >= 1_000);
        assert_eq!(hangs.get(), 1);
    }

    #[test]
    fn persistent_injected_hangs_exhaust_retries() {
        let plan = FaultPlan::builder(3)
            .inject(FaultStage::TrialHang, Injection::EveryNth(1))
            .build();
        let hangs = Cell::new(0);
        let dog = Watchdog::new(&plan, 1_000, 2, 10, &hangs);
        let penalty = dog.judge(100).unwrap_err();
        assert!(penalty >= 3_000, "three reaps charged three deadlines");
        assert_eq!(hangs.get(), 3, "initial attempt + two retries");
    }
}
