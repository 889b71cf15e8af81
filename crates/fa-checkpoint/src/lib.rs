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
//!   large-working-set programs (paper Table 7);
//! * each checkpoint records a content checksum of its snapshot, which
//!   recovery verifies before rolling back to it. A checkpoint that
//!   dirtied many pages computes it on a helper thread (see
//!   [`Checkpoint`]), so the digest does not pause the serving thread.
//!
//! Checkpoints are taken and verified inside the supervisor, so this
//! crate's code holds no `unwrap`/`expect` outside tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod manager;

pub use adaptive::{AdaptiveConfig, AdaptiveInterval};
pub use manager::{Checkpoint, CheckpointManager, CheckpointStats, ROLLBACK_COST_NS};
