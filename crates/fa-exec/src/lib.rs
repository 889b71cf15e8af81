//! # fa-exec — the unified trial-execution substrate
//!
//! First-Aid's diagnosis loop is *re-execution under environmental
//! changes* (paper §3.3): roll the crashed process back to a checkpoint,
//! perturb the allocator's behaviour, replay the logged inputs, and see
//! whether the failure moves. Four subsystems drive that loop — the core
//! runtime's recovery path and degradation ladder, the diagnosis engine,
//! fa-sentry's fast path, and fa-fleet workers. This crate is the one
//! place the loop is implemented:
//!
//! * [`ReplayHarness`] — rollback through the checkpoint ring +
//!   [`ChangePlan`](fa_allocext::ChangePlan) + replay + scan, with
//!   panicking and fallible (`try_`) entry points;
//! * [`TrialSpec`] — a trial as a pure value;
//! * [`FaultGate`] / [`Watchdog`] / [`TrialLedger`] — injected-flakiness
//!   resolution and hung-trial reaping, once per trial in trial order,
//!   and virtual-clock accounting;
//! * [`FaError`] — typed failures, so a poisoned trial degrades instead
//!   of aborting the supervisor.

mod backoff;
mod error;
mod harness;
mod spec;
mod substrate;
mod watchdog;

pub use backoff::Backoff;
pub use error::{FaError, FaResult};
pub use fa_checkpoint::ROLLBACK_COST_NS;
pub use harness::{expect_ext, try_ext, ReexecOptions, ReplayHarness, RunReport};
pub use spec::TrialSpec;
pub use substrate::{FaultGate, TrialLedger};
pub use watchdog::Watchdog;
