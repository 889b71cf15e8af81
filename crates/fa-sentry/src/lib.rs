//! The **sentry tier**: sampling-based, always-on heap sentries.
//!
//! First-Aid (EuroSys 2009) is reactive — it diagnoses a bug only after a
//! failure, by rolling back and re-executing under environmental changes.
//! This crate adds the proactive tier the paper's successors pioneered:
//! like GWP-ASan, a deterministic seeded sampler redirects roughly one in
//! `N` allocations into **guarded slots** in a dedicated arena, where
//!
//! * trap-on-access **guard pages** on both sides turn overflows and
//!   underflows that run past the slot into immediate faults,
//! * freed slots are **poisoned** (trap-on-access) with delayed reuse, so
//!   dangling reads/writes and double frees of a sampled object trap at
//!   the first touch,
//! * 16-byte **canary slack** inside the slot, verified on free, catches
//!   silent small overflows DoubleTake-style (evidence, not a crash).
//!
//! Every trap carries the exact allocation/deallocation call-site, which
//! lets the diagnosis engine skip most of its rollback ladder (the
//! fast-path entry in `first-aid-core`). Sampling is **adaptive per
//! call-site**: never-sampled sites get a first-occurrence boost, hot
//! sites are cooled so one allocation loop cannot monopolize the slot
//! budget, and sites already immunized by a patch are suppressed — fleet
//! wide, via the patch-pool epoch mechanism.
//!
//! Everything here is deterministic given the allocation trace and the
//! seed, and `Clone`, so sentry state rides inside checkpoints and
//! replays identically during diagnosis re-execution.

#![forbid(unsafe_code)]

pub mod engine;
pub mod metrics;
pub mod sampler;
pub mod trap;

pub use engine::{SentryConfig, SentryEngine, SlotPlacement, SLOT_SLACK};
pub use metrics::SentryMetrics;
pub use sampler::Sampler;
pub use trap::{TrapKind, TrapRecord};
