//! # fa-exec — the unified trial-execution substrate
//!
//! First-Aid's diagnosis loop is *re-execution under environmental
//! changes* (paper §3.3): roll the crashed process back to a checkpoint,
//! perturb the allocator's behaviour, replay the logged inputs, and see
//! whether the failure moves. Only `first-aid-core` drives that loop:
//! its diagnosis engine (the full search and the fast path that sentry
//! traps seed), the recovery path and degradation ladder around it, and
//! the Rx baseline. fa-fleet uses only [`Backoff`]. This crate
//! is the one place the loop is implemented:
//!
//! * [`ReplayHarness`] — rollback through the checkpoint ring +
//!   [`ChangePlan`](fa_allocext::ChangePlan) + replay + scan, with
//!   panicking and fallible (`try_`) entry points;
//! * [`TrialSpec`] — a trial as a pure value;
//! * [`FaultGate`] / [`Watchdog`] / [`TrialLedger`] — injected-flakiness
//!   resolution and hung-trial reaping, once per trial in trial order,
//!   and virtual-clock accounting;
//! * [`FaError`] — typed failures, so a trial that cannot run degrades
//!   instead of aborting the supervisor.
//!
//! A trial runs inside the supervisor, so this crate's code holds no
//! `unwrap`/`expect` outside tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

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
