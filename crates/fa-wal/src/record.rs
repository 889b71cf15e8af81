//! The journal record vocabulary.
//!
//! The journal holds the patch pool and nothing else: each [`WalOp`] is
//! one pool transition (seven kinds) or a compaction [`PoolSnapshot`],
//! and a [`WalRecord`] is an op stamped with its journal sequence
//! number. A crash destroys the checkpoints, a launch recomputes the
//! sentry suppressions from the recovered patches, the generic ladder
//! rung's patches are pool records themselves, and fleet membership is
//! the fleet's configuration, so none of them is journaled.
//!
//! Ops are externally-tagged JSON enums with newtype payloads
//! (named-field structs), so the on-disk format is self-describing:
//! `{"PatchPublish":{"program":...,"patches":[...]}}`.
//!
//! Replay contract: the patch pool changes its state only by applying
//! these records, through one function. A live mutation applies the
//! records it journals and replay applies the records it reads, so
//! replay lands on the live state by construction. Each *epoch-bumping*
//! op (`PatchPublish`, `PatchRevoke`, `PatchRemove`, `CanaryAdmit`,
//! `CanaryPromote`) advances its program's patch epoch by exactly one.
//! Quarantine records carry their resulting counters (`flaps`,
//! `window`, `denials`) rather than the inputs that produced them, so
//! applying one needs no policy, live or replayed.

use fa_allocext::Patch;
use fa_proc::CallSite;
use serde::{Deserialize, Serialize};

/// A patch set published (added) for a program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PublishOp {
    /// Program executable name.
    pub program: String,
    /// The patches admitted by this mutation (deduplicated).
    pub patches: Vec<Patch>,
}

/// A call-site revocation (tombstone + patch removal), with the
/// flap-quarantine counters *after* the revoke.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RevokeOp {
    /// Program executable name.
    pub program: String,
    /// The revoked call-site.
    pub site: CallSite,
    /// Fleet-wide revocations of this site so far (0 = quarantine
    /// policy disabled at append time).
    pub flaps: u32,
    /// Denial window before the next re-admission attempt is accepted.
    pub window: u32,
    /// Whether the site is now quarantined (canary-only re-admission).
    pub quarantined: bool,
}

/// A simple per-site op (patch removal, canary promote/reject target).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SiteOp {
    /// Program executable name.
    pub program: String,
    /// The call-site concerned.
    pub site: CallSite,
}

/// A refused re-admission attempt inside the denial window. Not an
/// epoch bump (a refused add is not a mutation of the patch set), but
/// journaled so recovered denial counters match the live pool exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DenyOp {
    /// Program executable name.
    pub program: String,
    /// The site whose re-admission was refused.
    pub site: CallSite,
    /// Denials recorded so far in the current window.
    pub denials: u32,
}

/// A quarantined site's canary admission on a single worker.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CanaryOp {
    /// Program executable name.
    pub program: String,
    /// The quarantined call-site under canary.
    pub site: CallSite,
    /// The worker the canary is scoped to.
    pub worker: u64,
    /// The candidate patches, visible only to that worker until
    /// promoted.
    pub patches: Vec<Patch>,
}

/// Quarantine bookkeeping for one site, as carried by snapshots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The tracked call-site.
    pub site: CallSite,
    /// Fleet-wide revocations of this site.
    pub flaps: u32,
    /// Current denial window (doubles per flap).
    pub window: u32,
    /// Denials recorded in the current window.
    pub denials: u32,
    /// Whether the site is quarantined.
    pub quarantined: bool,
    /// Canary worker, if a canary is in flight.
    pub canary_worker: Option<u64>,
    /// The canary's candidate patches.
    pub canary_patches: Vec<Patch>,
}

/// One program's full pool state, as carried by snapshots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgramSnapshot {
    /// Program executable name.
    pub program: String,
    /// Patch epoch at snapshot time.
    pub epoch: u64,
    /// Published patches.
    pub patches: Vec<Patch>,
    /// Tombstoned call-sites.
    pub revoked: Vec<CallSite>,
    /// Quarantine bookkeeping, sorted by site.
    pub quarantine: Vec<QuarantineEntry>,
}

/// A compaction snapshot: the entire pool state at one journal
/// sequence point. Replay of a snapshot replaces all prior state; any
/// records after it apply incrementally. (`Vec`-based rather than
/// map-based so it round-trips through the vendored serde derive.)
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct PoolSnapshot {
    /// Per-program state, sorted by program name.
    pub programs: Vec<ProgramSnapshot>,
}

/// One journaled patch-pool transition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// Patches published for a program (epoch bump).
    PatchPublish(PublishOp),
    /// A call-site revoked: tombstone + removal (epoch bump).
    PatchRevoke(RevokeOp),
    /// A site's patches removed without tombstoning (epoch bump).
    PatchRemove(SiteOp),
    /// A re-admission attempt refused inside the denial window.
    SiteDenied(DenyOp),
    /// A quarantined site admitted a canary on one worker (epoch bump —
    /// the canary worker's view changes).
    CanaryAdmit(CanaryOp),
    /// A canary validated: its patches published fleet-wide, tombstone
    /// cleared (epoch bump).
    CanaryPromote(SiteOp),
    /// A canary revoked before validation; the denial window doubles.
    CanaryReject(SiteOp),
    /// A compaction snapshot of the entire pool state.
    Snapshot(PoolSnapshot),
}

impl WalOp {
    /// Stable label for logs and debugging.
    pub fn label(&self) -> &'static str {
        match self {
            WalOp::PatchPublish(_) => "patch-publish",
            WalOp::PatchRevoke(_) => "patch-revoke",
            WalOp::PatchRemove(_) => "patch-remove",
            WalOp::SiteDenied(_) => "site-denied",
            WalOp::CanaryAdmit(_) => "canary-admit",
            WalOp::CanaryPromote(_) => "canary-promote",
            WalOp::CanaryReject(_) => "canary-reject",
            WalOp::Snapshot(_) => "snapshot",
        }
    }
}

/// A journal record: an op stamped with its sequence number.
///
/// Sequence numbers are strictly increasing within a journal; replay
/// stops at the first gap, checksum mismatch, or non-monotone record
/// (whichever comes first), which is what makes recovery prefix-closed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Strictly-increasing journal sequence number (1-based).
    pub seq: u64,
    /// The journaled transition.
    pub op: WalOp,
}
