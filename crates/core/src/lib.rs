//! **First-Aid** — surviving and preventing memory management bugs during
//! production runs (EuroSys 2009 reproduction).
//!
//! First-Aid is a lightweight runtime system that, upon a failure caused by
//! a common memory management bug (buffer overflow, dangling pointer
//! read/write, double free, uninitialized read):
//!
//! 1. **diagnoses** the bug type and the memory objects that trigger it by
//!    rolling the program back to previous checkpoints and re-executing it
//!    under combinations of *preventive* and *exposing* environmental
//!    changes ([`DiagnosisEngine`], paper §4);
//! 2. **generates and applies runtime patches** — preventive changes bound
//!    to allocation/deallocation call-sites — that both recover the current
//!    execution and prevent future failures from the same bug
//!    ([`Patch`], [`PatchPool`], paper §2);
//! 3. **validates** that the patches have consistent effects under memory
//!    layout randomization, in parallel on a fork of the process
//!    ([`ValidationEngine`], paper §5);
//! 4. **reports** — produces an on-site diagnostic report with the bug
//!    type, the triggering call-sites, allocation/deallocation traces, and
//!    the illegal accesses the patch neutralizes ([`BugReport`],
//!    paper Fig. 5).
//!
//! The [`FirstAidRuntime`] ties everything together as a supervisor for a
//! simulated process. [`baselines`] provides the two comparison systems of
//! the paper's evaluation: Rx-style recovery (survives but does not
//! prevent) and whole-process restart.
//!
//! # Examples
//!
//! ```
//! use fa_proc::{App, BoxedApp, Fault, Input, ProcessCtx, Response};
//! use first_aid_core::{FirstAidConfig, FirstAidRuntime, PatchPool};
//!
//! #[derive(Clone, Default)]
//! struct Demo;
//! impl App for Demo {
//!     fn name(&self) -> &'static str { "demo" }
//!     fn handle(&mut self, ctx: &mut ProcessCtx, i: &Input) -> Result<Response, Fault> {
//!         let p = ctx.malloc(i.a.max(8))?;
//!         ctx.fill(p, i.a.max(8), 1)?;
//!         ctx.free(p)?;
//!         Ok(Response::bytes(i.a))
//!     }
//!     fn clone_app(&self) -> BoxedApp { Box::new(self.clone()) }
//! }
//!
//! let pool = PatchPool::in_memory();
//! let mut fa = FirstAidRuntime::launch(
//!     Box::new(Demo),
//!     FirstAidConfig::default(),
//!     pool,
//! ).unwrap();
//! let out = fa.feed(fa_proc::InputBuilder::op(0).a(64).build());
//! assert!(out.served);
//! ```

// Supervision code must not be what crashes: no `unwrap`/`expect`
// outside tests, except at sites whose `#[allow]` says why.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod baselines;
pub mod diagnose;
pub mod log;
pub mod metrics;
pub mod patchpool;
pub mod report;
pub mod runtime;
pub mod validate;

pub use baselines::{RestartRuntime, RxRuntime};
pub use diagnose::{
    trap_bug_type, trap_seed_site, DiagnosedBug, Diagnosis, DiagnosisEngine, DiagnosisOutcome,
    EngineConfig,
};
pub use metrics::{DegradationMetrics, ThroughputSampler};
pub use patchpool::{EpochSignal, PatchPool, QuarantinePolicy};
pub use report::BugReport;
pub use runtime::{
    FeedOutcome, FirstAidConfig, FirstAidRuntime, RecoveryKind, RecoveryRecord, RunSummary,
    RuntimeHealth,
};
pub use validate::{ValidationEngine, ValidationOutcome};

// Re-export the replay harness so tests and benches can run a trial
// without depending on fa-exec directly.
pub use fa_exec::{FaError, FaResult, ReexecOptions, ReplayHarness, RunReport};

// Re-export the patch and bug-type vocabulary for downstream users.
pub use fa_allocext::{BugType, Patch, PatchSet, PreventiveChange, GENERIC_SITE};
// Re-export the sentry-tier vocabulary (configs, metrics, trap records)
// so supervisors and benches need not depend on fa-sentry directly.
pub use fa_allocext::{SentryConfig, SentryMetrics, TrapKind, TrapRecord};
// Re-export the fault-injection vocabulary so harnesses need not depend
// on fa-faults directly.
pub use fa_faults::{FaultPlan, FaultPlanBuilder, FaultStage, Injection, KillPoint, KillSchedule};
// Re-export the pool journal so benches and tests can open one, arm
// kill points and cut its records without depending on fa-wal directly.
pub use fa_wal::{parse_prefix, truncate_to_records, Wal};

/// Locks `mutex`, ignoring poison: a thread that panicked while holding
/// the pool or the log sink must not turn every later lock of it into a
/// second panic.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
