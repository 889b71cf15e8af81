//! # fa-wal — the patch pool's crash-safe journal
//!
//! The paper keeps one thing across runs: each program's patch pool, so
//! later runs and other processes of the program start protected. This
//! crate makes that pool durable, so a supervisor that dies
//! mid-diagnosis loses no patch epoch:
//!
//! * [`WalOp`] / [`WalRecord`] — the record vocabulary: the pool's
//!   publish/revoke/remove transitions, quarantine denials and canary
//!   moves, plus a compaction snapshot of the whole pool;
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
#![forbid(unsafe_code)]

mod atomic;
mod journal;
mod record;

pub use journal::{digest, parse_prefix, truncate_to_records, Wal, WAL_MAGIC};
pub use record::{
    CanaryOp, DenyOp, PoolSnapshot, ProgramSnapshot, PublishOp, QuarantineEntry, RevokeOp, SiteOp,
    WalOp, WalRecord,
};
