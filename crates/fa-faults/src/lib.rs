//! # fa-faults — deterministic fault injection for First-Aid itself
//!
//! First-Aid is a recovery system, so the interesting failures are
//! failures *of its own stages*: a checkpoint whose pages rotted on
//! disk, a re-execution that wedges or flakes, a validation fork that
//! dies, a journal append that hits a full disk. A [`FaultPlan`] is a
//! seeded, deterministic schedule of such failures. The pipeline asks
//! [`FaultPlan::should_fail`] at each injection point; the plan counts
//! the occurrence and answers from its schedule, so the same seed
//! always produces the same fault sequence — which is what makes the
//! degradation ladder in `first-aid-core` testable at all.
//!
//! The crate is dependency-free on purpose: every other crate in the
//! workspace can thread a plan through without a cycle. Clones of a
//! `FaultPlan` share their occurrence counters (the plan is one global
//! schedule, not a per-component one), so handing the same plan to the
//! checkpoint manager, the diagnosis engine, and the patch pool's
//! journal (`fa_wal::Wal::with_faults`) keeps a single consistent
//! timeline.
//!
//! [`Backoff`], the seeded exponential backoff that fleet crash-loops
//! and the diagnosis engine's retry penalties share, lives here beside
//! [`splitmix64`], the jitter mixer it is built on.

#![forbid(unsafe_code)]

mod backoff;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use backoff::Backoff;

/// Number of injectable pipeline stages.
pub const STAGES: usize = 6;

/// An injectable stage of the First-Aid pipeline.
///
/// The explicit discriminants are each stage's fixed salt for
/// [`Injection::PerMille`] decisions. They are decoupled from the dense
/// [`FaultStage::index`], so adding or removing a stage never shifts
/// another stage's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultStage {
    /// A checkpoint's snapshot no longer matches its checksum
    /// (simulated storage rot / partial write).
    CheckpointCorrupt = 0,
    /// A diagnostic re-execution fails for reasons unrelated to the
    /// bug (scheduling noise, resource exhaustion) and must be retried.
    ReexecFlaky = 1,
    /// Diagnosis wedges and blows its deadline outright.
    DiagnosisTimeout = 2,
    /// A validation fork dies before producing a verdict.
    ValidationFork = 3,
    /// A journal append in `fa-wal` returns an I/O error (full disk,
    /// EIO) and must be retried or degraded around.
    WalAppendIo = 5,
    /// A diagnostic trial wedges past its virtual-time deadline and has
    /// to be reaped by the hung-trial watchdog.
    TrialHang = 6,
}

impl FaultStage {
    /// All stages, in `index()` order.
    pub const ALL: [FaultStage; STAGES] = [
        FaultStage::CheckpointCorrupt,
        FaultStage::ReexecFlaky,
        FaultStage::DiagnosisTimeout,
        FaultStage::ValidationFork,
        FaultStage::WalAppendIo,
        FaultStage::TrialHang,
    ];

    /// Dense index of this stage (position in [`FaultStage::ALL`]).
    pub fn index(self) -> usize {
        match self {
            FaultStage::CheckpointCorrupt => 0,
            FaultStage::ReexecFlaky => 1,
            FaultStage::DiagnosisTimeout => 2,
            FaultStage::ValidationFork => 3,
            FaultStage::WalAppendIo => 4,
            FaultStage::TrialHang => 5,
        }
    }

    /// Stable human-readable label (used in logs and bench output).
    pub fn label(self) -> &'static str {
        match self {
            FaultStage::CheckpointCorrupt => "checkpoint-corrupt",
            FaultStage::ReexecFlaky => "reexec-flaky",
            FaultStage::DiagnosisTimeout => "diagnosis-timeout",
            FaultStage::ValidationFork => "validation-fork",
            FaultStage::WalAppendIo => "wal-append-io",
            FaultStage::TrialHang => "trial-hang",
        }
    }
}

impl fmt::Display for FaultStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// When a stage should fail, as a function of its occurrence counter
/// `k` (0-based: the k-th time the pipeline reaches that stage).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Injection {
    /// Never fail (the default).
    #[default]
    Off,
    /// Fail exactly on the listed occurrences.
    Nth(Vec<u64>),
    /// Fail every n-th occurrence (the n-1st, 2n-1st, ... so the first
    /// occurrence survives unless `n == 1`). `EveryNth(0)` is `Off`.
    EveryNth(u64),
    /// Fail a deterministic pseudo-random `p`/1000 of occurrences,
    /// derived from the plan seed (no global RNG state).
    PerMille(u32),
}

impl Injection {
    fn decide(&self, seed: u64, salt: u64, k: u64) -> bool {
        match self {
            Injection::Off => false,
            Injection::Nth(list) => list.contains(&k),
            Injection::EveryNth(n) => *n != 0 && (k + 1).is_multiple_of(*n),
            Injection::PerMille(pm) => {
                let x = splitmix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k);
                x % 1000 < u64::from((*pm).min(1000))
            }
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer. Also
/// used by the checkpoint checksums in `fa-proc`/`fa-checkpoint`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    specs: [Injection; STAGES],
    occurrences: [AtomicU64; STAGES],
    fired: [AtomicU64; STAGES],
}

/// A seeded, deterministic schedule of pipeline-stage failures.
///
/// Clones share state: occurrence counters advance globally across all
/// holders, and `fired()` totals are plan-wide. A plan with every stage
/// [`Injection::Off`] is a noop and is what [`FaultPlan::none`] (and
/// `Default`) returns.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn none() -> Self {
        Self::builder(0).build()
    }

    /// Start building a plan with the given seed (the seed only
    /// matters for [`Injection::PerMille`] schedules).
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            specs: Default::default(),
        }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// True if no stage can ever fire.
    pub fn is_noop(&self) -> bool {
        self.inner.specs.iter().all(|s| matches!(s, Injection::Off))
    }

    /// Record one occurrence of `stage` and answer whether it should
    /// fail. This is the single injection-point entry used throughout
    /// the pipeline.
    pub fn should_fail(&self, stage: FaultStage) -> bool {
        let i = stage.index();
        let k = self.inner.occurrences[i].fetch_add(1, Ordering::Relaxed);
        let hit = self.inner.specs[i].decide(self.inner.seed, stage as u64, k);
        if hit {
            self.inner.fired[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// How many times `stage` has been reached so far.
    pub fn occurrences(&self, stage: FaultStage) -> u64 {
        self.inner.occurrences[stage.index()].load(Ordering::Relaxed)
    }

    /// How many times `stage` actually failed so far.
    pub fn fired(&self, stage: FaultStage) -> u64 {
        self.inner.fired[stage.index()].load(Ordering::Relaxed)
    }

    /// Total injected failures across all stages.
    pub fn fired_total(&self) -> u64 {
        FaultStage::ALL.iter().map(|&s| self.fired(s)).sum()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FaultPlan");
        d.field("seed", &self.inner.seed);
        for stage in FaultStage::ALL {
            let spec = &self.inner.specs[stage.index()];
            if !matches!(spec, Injection::Off) {
                d.field(stage.label(), spec);
            }
        }
        d.field("fired", &self.fired_total());
        d.finish()
    }
}

/// Builder for [`FaultPlan`].
pub struct FaultPlanBuilder {
    seed: u64,
    specs: [Injection; STAGES],
}

impl FaultPlanBuilder {
    /// Set the injection schedule for one stage.
    pub fn inject(mut self, stage: FaultStage, spec: Injection) -> Self {
        self.specs[stage.index()] = spec;
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(Inner {
                seed: self.seed,
                specs: self.specs,
                occurrences: Default::default(),
                fired: Default::default(),
            }),
        }
    }
}

/// A supervisor kill point: the journal dies after `after_appends`
/// successful appends, optionally mid-append (leaving a torn final
/// record on disk instead of a clean prefix).
///
/// `after_appends == 0, torn == false` kills the supervisor before it
/// journals anything; `torn == true` always writes *part* of record
/// `after_appends` before dying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillPoint {
    /// Complete appends to allow before dying.
    pub after_appends: u64,
    /// Die mid-append, leaving a torn (checksum-invalid) final record.
    pub torn: bool,
}

impl KillPoint {
    /// A clean kill after `n` complete appends.
    pub fn clean(n: u64) -> KillPoint {
        KillPoint {
            after_appends: n,
            torn: false,
        }
    }

    /// A torn kill: `n` complete appends plus a half-written record.
    pub fn torn(n: u64) -> KillPoint {
        KillPoint {
            after_appends: n,
            torn: true,
        }
    }
}

/// A deterministic schedule of supervisor kill points, used by the
/// crash-safety acceptance sweep to kill a fleet between (and inside)
/// every pair of journal appends.
#[derive(Clone, Debug, Default)]
pub struct KillSchedule {
    points: Vec<KillPoint>,
}

impl KillSchedule {
    /// Every kill point for a journal of `appends` records: a clean and
    /// a torn kill at each boundary `0..appends`. The torn kill at
    /// boundary `k` half-writes record `k` after `k` complete appends.
    pub fn exhaustive(appends: u64) -> KillSchedule {
        let mut points = Vec::with_capacity(2 * appends as usize);
        for k in 0..appends {
            points.push(KillPoint::clean(k));
            points.push(KillPoint::torn(k));
        }
        KillSchedule { points }
    }

    /// The kill points, in schedule order.
    pub fn points(&self) -> &[KillPoint] {
        &self.points
    }

    /// Number of kill points in the schedule.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the schedule contains no kill points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl IntoIterator for KillSchedule {
    type Item = KillPoint;
    type IntoIter = std::vec::IntoIter<KillPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_never_fires_but_still_counts() {
        let plan = FaultPlan::none();
        assert!(plan.is_noop());
        for _ in 0..10 {
            assert!(!plan.should_fail(FaultStage::ReexecFlaky));
        }
        assert_eq!(plan.occurrences(FaultStage::ReexecFlaky), 10);
        assert_eq!(plan.fired_total(), 0);
    }

    #[test]
    fn nth_fires_exactly_on_listed_occurrences() {
        let plan = FaultPlan::builder(1)
            .inject(FaultStage::DiagnosisTimeout, Injection::Nth(vec![0, 3]))
            .build();
        let hits: Vec<bool> = (0..6)
            .map(|_| plan.should_fail(FaultStage::DiagnosisTimeout))
            .collect();
        assert_eq!(hits, vec![true, false, false, true, false, false]);
        assert_eq!(plan.fired(FaultStage::DiagnosisTimeout), 2);
    }

    #[test]
    fn every_nth_spares_the_first_occurrences() {
        let plan = FaultPlan::builder(1)
            .inject(FaultStage::CheckpointCorrupt, Injection::EveryNth(3))
            .build();
        let hits: Vec<bool> = (0..9)
            .map(|_| plan.should_fail(FaultStage::CheckpointCorrupt))
            .collect();
        assert_eq!(
            hits,
            vec![false, false, true, false, false, true, false, false, true]
        );
        // EveryNth(0) is Off, not divide-by-zero.
        let zero = FaultPlan::builder(1)
            .inject(FaultStage::WalAppendIo, Injection::EveryNth(0))
            .build();
        assert!(!zero.should_fail(FaultStage::WalAppendIo));
    }

    #[test]
    fn per_mille_is_deterministic_and_roughly_calibrated() {
        let mk = || {
            FaultPlan::builder(0xfa17)
                .inject(FaultStage::ReexecFlaky, Injection::PerMille(250))
                .build()
        };
        let (a, b) = (mk(), mk());
        let sa: Vec<bool> = (0..2000)
            .map(|_| a.should_fail(FaultStage::ReexecFlaky))
            .collect();
        let sb: Vec<bool> = (0..2000)
            .map(|_| b.should_fail(FaultStage::ReexecFlaky))
            .collect();
        assert_eq!(sa, sb, "same seed, same schedule");
        let rate = sa.iter().filter(|&&h| h).count();
        assert!((300..700).contains(&rate), "~25% of 2000, got {rate}");
        // A different seed gives a different schedule.
        let c = FaultPlan::builder(0xdead)
            .inject(FaultStage::ReexecFlaky, Injection::PerMille(250))
            .build();
        let sc: Vec<bool> = (0..2000)
            .map(|_| c.should_fail(FaultStage::ReexecFlaky))
            .collect();
        assert_ne!(sa, sc);
    }

    #[test]
    fn per_mille_salt_is_fixed_per_stage_not_dense_index() {
        // Deleting a stage must not shift a surviving stage's schedule:
        // the salt is a fixed per-stage number, not the ALL position.
        let plan = FaultPlan::builder(0xfa017)
            .inject(FaultStage::TrialHang, Injection::PerMille(250))
            .build();
        for k in 0..64u64 {
            let x = splitmix64(0xfa017 ^ 6u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k);
            assert_eq!(plan.should_fail(FaultStage::TrialHang), x % 1000 < 250);
        }
    }

    #[test]
    fn clones_share_occurrence_counters() {
        let plan = FaultPlan::builder(7)
            .inject(FaultStage::WalAppendIo, Injection::Nth(vec![1]))
            .build();
        let clone = plan.clone();
        assert!(!plan.should_fail(FaultStage::WalAppendIo)); // k = 0
        assert!(clone.should_fail(FaultStage::WalAppendIo)); // k = 1: shared counter
        assert_eq!(plan.occurrences(FaultStage::WalAppendIo), 2);
        assert_eq!(plan.fired(FaultStage::WalAppendIo), 1);
    }

    #[test]
    fn exhaustive_kill_schedule_covers_every_boundary_twice() {
        let sched = KillSchedule::exhaustive(3);
        assert_eq!(sched.len(), 6);
        for k in 0..3 {
            assert!(sched.points().contains(&KillPoint::clean(k)));
            assert!(sched.points().contains(&KillPoint::torn(k)));
        }
        assert!(KillSchedule::exhaustive(0).is_empty());
    }

    #[test]
    fn stages_are_independently_counted() {
        let plan = FaultPlan::builder(3)
            .inject(FaultStage::ValidationFork, Injection::EveryNth(1))
            .build();
        assert!(plan.should_fail(FaultStage::ValidationFork));
        assert!(!plan.should_fail(FaultStage::CheckpointCorrupt));
        assert_eq!(plan.occurrences(FaultStage::ValidationFork), 1);
        assert_eq!(plan.occurrences(FaultStage::CheckpointCorrupt), 1);
        assert_eq!(plan.fired_total(), 1);
    }
}
