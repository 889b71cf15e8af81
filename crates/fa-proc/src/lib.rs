//! Deterministic process substrate for the First-Aid reproduction.
//!
//! First-Aid (EuroSys 2009) wraps a *native* process: it interposes on the
//! allocator, checkpoints the address space, records network input through a
//! proxy, and replays it during diagnosis re-executions. This crate provides
//! the equivalent process abstraction over the simulated memory and heap:
//!
//! * [`App`] — a deterministic, cloneable application that handles
//!   [`Input`]s through a [`ProcessCtx`]; determinism given the input log
//!   is what makes checkpoint/re-execution diagnosis sound;
//! * [`ProcessCtx`] — the "libc + MMU" seen by applications: `malloc`,
//!   `free`, typed loads/stores (every access is observable, standing in
//!   for Pin-style instrumentation), an explicit call stack producing
//!   multi-level allocation call-sites, a simulated file table, and a
//!   virtual clock with calibrated operation costs;
//! * [`AllocBackend`] — the allocator interposition point implemented by
//!   the plain heap here and by the First-Aid memory allocator extension
//!   in `fa-allocext`;
//! * [`Process`] — an app plus its context plus the recorded input log
//!   (the network-proxy analog) with snapshot/restore and replay;
//! * [`Fault`] — what the error monitors catch: memory access violations,
//!   allocator aborts, and application assertion failures.

#![forbid(unsafe_code)]

pub mod alloc_api;
pub mod app;
pub mod callsite;
pub mod clock;
pub mod ctx;
pub mod fault;
pub mod files;
pub mod input;
pub mod process;

pub use alloc_api::{AllocBackend, PlainAllocator};
pub use app::{App, BoxedApp, Response};
pub use callsite::{CallSite, CallStack, SymbolTable, NO_SITE};
pub use clock::{Clock, Costs};
pub use ctx::{CtxSnapshot, ProcessCtx, DEFAULT_HEAP_BASE};
pub use fault::Fault;
pub use files::FileTable;
pub use input::{Input, InputBuilder};
pub use process::{DigestJob, FailureRecord, ProcSnapshot, Process, StepResult};
