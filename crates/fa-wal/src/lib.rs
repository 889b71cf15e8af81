//! # fa-wal — the crash-safe supervision journal
//!
//! First-Aid's value proposition is that production runs survive their
//! bugs, but the supervisor itself used to be the weakest link: if the
//! fleet supervisor or a worker's runtime died mid-diagnosis, every
//! in-flight patch epoch, quarantine counter, sentry suppression, and
//! checkpoint registration evaporated — the "immunize once, survive
//! forever" guarantee reset to zero. This crate makes all of that
//! supervision state durable:
//!
//! * [`WalOp`] / [`WalRecord`] — the record vocabulary: patch-pool
//!   publish/revoke/tombstone epochs, quarantine and canary
//!   transitions, checkpoint registration/pruning, sentry
//!   suppressions, ladder descents, fleet worker membership;
//! * [`Wal`] — the append-only, checksummed, torn-write-safe journal
//!   with snapshot compaction ([`PoolSnapshot`], written by a
//!   torn-write-safe temp + fsync + rename) and built-in crash
//!   injection ([`Wal::arm_kill`] takes a
//!   [`KillPoint`](fa_faults::KillPoint) from the supervisor-kill
//!   schedule, [`FaultStage::WalAppendIo`](fa_faults::FaultStage)
//!   injects append I/O errors);
//! * [`parse_prefix`] / [`truncate_to_records`] — byte-level replay
//!   plumbing for recovery and for the kill-point acceptance sweep.
//!
//! Replay is *prefix-closed*: any truncation of the log (including a
//! torn final record) decodes to a valid earlier state, never a
//! corrupt one. Consumers replay with a sequence-number watermark,
//! which makes recovery idempotent — replaying twice is the same as
//! replaying once.
//!
//! The journal is the patch pool's one durable format, so its own code
//! holds no `unwrap`/`expect`: every failure is counted and degrades.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod atomic;
mod journal;
mod record;

pub use journal::{digest, parse_prefix, truncate_to_records, Wal, WAL_MAGIC};
pub use record::{
    CanaryOp, CheckpointOp, DenyOp, LadderOp, PoolSnapshot, ProgramSnapshot, PublishOp,
    QuarantineEntry, RevokeOp, SentryOp, SiteOp, WalOp, WalRecord, WorkerOp,
};
