//! The First-Aid **memory allocator extension** (paper §3).
//!
//! This crate implements the component that sits between the application
//! and the underlying Lea-style allocator. It operates in one of three
//! modes:
//!
//! * **normal mode** — on every allocation/deallocation, the extension
//!   checks whether the current call-site matches a runtime patch and, if
//!   so, applies the patch's preventive change (padding, delay-free, or
//!   zero-fill). This is the mode production processes run in, and its
//!   cost is the "allocator" overhead of paper Fig. 6;
//! * **diagnostic mode** — during checkpoint re-execution, the extension
//!   applies *preventive* and/or *exposing* environmental changes
//!   ([`ChangePlan`]) to all or a subset of call-sites, collects
//!   multi-level call-site information, and checks deallocation parameters
//!   for double frees;
//! * **validation mode** — re-execution with randomized allocation; the
//!   extension keeps full traces of memory management operations, patch
//!   triggering, and illegal accesses (paper §5).
//!
//! The environmental-change machinery implements paper Table 1:
//!
//! | bug type            | preventive change      | exposing change             |
//! |---------------------|------------------------|-----------------------------|
//! | buffer overflow     | pad objects            | canary-filled padding       |
//! | dangling ptr read   | delay free             | canary-fill delayed objects |
//! | dangling ptr write  | delay free             | canary-fill delayed objects |
//! | double free         | delay free + param chk | parameter check             |
//! | uninitialized read  | zero-fill new objects  | canary-fill new objects     |

#![forbid(unsafe_code)]

pub mod bugtype;
pub mod canary;
pub mod changes;
pub mod events;
pub mod ext;
pub mod heapmark;
pub mod intervals;
pub mod objtable;
pub mod patch;
pub mod quarantine;

pub use bugtype::BugType;
pub use canary::{check_canary, fill_canary, CANARY_BYTE};
pub use changes::{ChangePlan, Mode};
pub use events::{IllegalKind, Manifestation, TraceEvent};
pub use ext::{ExtAllocator, ExtCounters, ExtMode, PAD_EACH_SIDE};
pub use intervals::IntervalSet;
pub use objtable::{ObjState, ObjectInfo, ObjectTable, PadInfo};
pub use patch::{Patch, PatchSet, PreventiveChange, GENERIC_SITE};
pub use quarantine::{Quarantine, DEFAULT_QUARANTINE_BYTES};

// The sentry tier (sampling-based guarded slots) plugs into the
// extension as an environmental-change peer; re-export its surface so
// downstream crates need not depend on `fa-sentry` directly.
pub use fa_sentry::{SentryConfig, SentryEngine, SentryMetrics, TrapKind, TrapRecord, SLOT_SLACK};
