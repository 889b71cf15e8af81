//! Trial specifications: the unit of work the substrate executes.

use fa_allocext::ChangePlan;

use crate::harness::ReexecOptions;

/// One fully-specified re-execution trial.
///
/// A trial is a pure function of its spec (given the frozen input log):
/// roll back to `ckpt_id`, install `plan` on the allocator extension,
/// optionally heap-mark, perturb timing with `timing_seed`, and replay
/// until `until`.
#[derive(Clone, Debug)]
pub struct TrialSpec {
    /// Checkpoint to roll back to.
    pub ckpt_id: u64,
    /// Environmental changes to install for the replay.
    pub plan: ChangePlan,
    /// Apply heap marking after rollback (phase 1, Fig. 3 defence).
    pub mark: bool,
    /// Timing seed for the replay ("timing-based change", paper §4.1).
    pub timing_seed: u64,
    /// Replay until the cursor reaches this index (exclusive).
    pub until: usize,
}

impl TrialSpec {
    /// Lowers the spec into harness options. `integrity_check` comes from
    /// the engine configuration, not the spec: it is a property of the
    /// deployment's error monitors, identical for every trial.
    pub fn options(&self, integrity_check: bool) -> ReexecOptions {
        ReexecOptions {
            mark_heap: self.mark,
            timing_seed: self.timing_seed,
            until_cursor: self.until,
            integrity_check,
        }
    }
}
