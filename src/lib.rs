//! # First-Aid
//!
//! A Rust reproduction of *"First-Aid: Surviving and Preventing Memory
//! Management Bugs during Production Runs"* (Gao, Zhang, Tang, Qin —
//! EuroSys 2009).
//!
//! First-Aid is a lightweight runtime that survives failures caused by
//! common memory management bugs — buffer overflow, dangling pointer
//! read/write, double free, uninitialized read — and *prevents their
//! reoccurrence* with call-site-targeted runtime patches. Upon a failure
//! it rolls the program back to checkpoints and re-executes it under
//! combinations of **exposing** and **preventive** environmental changes
//! to identify the bug type and the triggering memory objects, then
//! generates, applies, validates, and persists runtime patches, and
//! produces an on-site diagnostic bug report.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`mem`] — simulated paged memory with COW snapshots ([`fa_mem`]),
//! * [`heap`] — a Lea-style allocator with in-band boundary tags
//!   ([`fa_heap`]),
//! * [`proc`] — the deterministic process substrate: apps, call stacks,
//!   input replay, virtual time ([`fa_proc`]),
//! * [`allocext`] — the memory allocator extension: canary, padding,
//!   delay-free quarantine, patches, traces ([`fa_allocext`]),
//! * [`checkpoint`] — checkpoint ring + adaptive interval controller
//!   ([`fa_checkpoint`]),
//! * [`exec`] — the replay harness: one diagnosis trial (rollback,
//!   change plan, replay, canary scan) on the supervised process
//!   ([`fa_exec`]),
//! * [`core`] — the diagnosis engine, patch pool, validation engine, bug
//!   reports, supervisor runtime, and the Rx/restart baselines
//!   ([`first_aid_core`]),
//! * [`apps`] — the seven evaluated applications and benchmark profiles
//!   ([`fa_apps`]),
//! * [`fleet`] — the concurrent fleet supervisor: N supervised processes
//!   of one program sharing a patch pool, so a single diagnosis
//!   immunizes the whole fleet ([`fa_fleet`]).
//!
//! # Quick start
//!
//! ```
//! use first_aid::prelude::*;
//!
//! // A tiny app with an overflow bug on op == 1.
//! #[derive(Clone, Default)]
//! struct Demo;
//! impl App for Demo {
//!     fn name(&self) -> &'static str { "demo" }
//!     fn handle(&mut self, ctx: &mut ProcessCtx, i: &Input) -> Result<Response, Fault> {
//!         ctx.call("serve", |ctx| {
//!             let buf = ctx.malloc(64)?;
//!             let n = if i.op == 1 { 96 } else { 64 }; // bug!
//!             ctx.fill(buf, n, 0x41)?;
//!             ctx.free(buf)?;
//!             Ok(Response::bytes(64))
//!         })
//!     }
//!     fn clone_app(&self) -> BoxedApp { Box::new(self.clone()) }
//! }
//!
//! let pool = PatchPool::in_memory();
//! let mut fa = FirstAidRuntime::launch(Box::new(Demo), FirstAidConfig::default(), pool).unwrap();
//! for k in 0..50u32 {
//!     let input = InputBuilder::op(u32::from(k == 25)).gap_us(500).build();
//!     let out = fa.feed(input);
//!     assert!(out.served);
//! }
//! // One failure, one recovery, a buffer-overflow patch installed.
//! assert_eq!(fa.recoveries.len(), 1);
//! assert_eq!(fa.recoveries[0].patches[0].bug, BugType::BufferOverflow);
//! ```

#![forbid(unsafe_code)]

pub use fa_allocext as allocext;
pub use fa_apps as apps;
pub use fa_checkpoint as checkpoint;
pub use fa_exec as exec;
pub use fa_fleet as fleet;
pub use fa_heap as heap;
pub use fa_mem as mem;
pub use fa_proc as proc;
pub use first_aid_core as core;

/// The most commonly used items in one import.
pub mod prelude {
    pub use fa_allocext::{BugType, ExtAllocator, Patch, PatchSet, PreventiveChange};
    pub use fa_fleet::{
        CellTopology, Fleet, FleetConfig, FleetReport, PoolSharing, ScaleConfig, ScaleFleet,
        WorkerReport,
    };
    pub use fa_mem::{Addr, SimMemory};
    pub use fa_proc::{App, BoxedApp, Fault, Input, InputBuilder, Process, ProcessCtx, Response};
    pub use first_aid_core::{
        BugReport, FirstAidConfig, FirstAidRuntime, PatchPool, QuarantinePolicy, RestartRuntime,
        RxRuntime, SentryConfig, SentryMetrics, TrapKind, TrapRecord,
    };
}
