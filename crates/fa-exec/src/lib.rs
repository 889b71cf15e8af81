//! # fa-exec — the replay harness
//!
//! First-Aid's diagnosis loop is *re-execution under environmental
//! changes* (paper §3.3): roll the crashed process back to a checkpoint,
//! perturb the allocator's behaviour, replay the logged inputs, and see
//! whether the failure moves. This crate runs one such trial on the
//! supervised process; which trials to run, and what a lost or hung one
//! costs, is the diagnosis engine's policy in `first-aid-core`:
//!
//! * [`ReplayHarness`] — rollback through the checkpoint ring +
//!   [`ChangePlan`](fa_allocext::ChangePlan) + replay with the
//!   deployment's integrity monitor + final canary scan, as a
//!   [`RunReport`], with panicking and fallible (`try_`) entry points;
//! * [`FaError`] — typed failures, so a trial that cannot run degrades
//!   instead of aborting the supervisor.
//!
//! A trial runs inside the supervisor, so this crate's code holds no
//! `unwrap`/`expect` outside tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod error;
mod harness;

pub use error::{FaError, FaResult};
pub use harness::{expect_ext, try_ext, ReexecOptions, ReplayHarness, RunReport};
