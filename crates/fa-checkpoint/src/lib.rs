//! Lightweight checkpointing and rollback (paper §3).
//!
//! First-Aid "takes in-memory checkpoints using a fork-like operation and
//! rolls back the program by reinstating the saved task state", leveraging
//! the Rx/Flashback runtime. This crate reproduces that component over the
//! simulated process substrate:
//!
//! * [`CheckpointManager`] keeps a bounded ring of process snapshots
//!   ([`fa_proc::ProcSnapshot`] — COW memory snapshot, heap and
//!   allocator-extension state with the extension's object table shared
//!   leaf by leaf, app state, file table, input cursor);
//! * checkpoint *cost* is charged in virtual time proportional to the
//!   pages dirtied in the elapsed interval, modelling fork-COW page
//!   replication — the checkpointing overhead of paper Fig. 6; a
//!   rollback charges the fixed [`ROLLBACK_COST_NS`];
//! * the **adaptive interval controller** monitors the COW page rate and
//!   widens the checkpoint interval when the estimated overhead exceeds
//!   the user's target `T_overhead`, up to `T_checkpoint` (paper §3) —
//!   this is what keeps checkpoint space overhead per *second* flat for
//!   large-working-set programs (paper Table 7).

pub mod adaptive;
pub mod manager;

pub use adaptive::{AdaptiveConfig, AdaptiveInterval};
pub use manager::{Checkpoint, CheckpointManager, CheckpointStats, ROLLBACK_COST_NS};
