//! Patch validation (paper §5).
//!
//! A diagnosis can, rarely, blame a memory bug for what is really a
//! layout-dependent semantic bug. To rule that out, First-Aid re-executes
//! the buggy region several times under **randomized allocation** and
//! checks that the patch's effect is *consistent*:
//!
//! (a) the patch is triggered the same number of times;
//! (b) the same number of illegal accesses is neutralized;
//! (c) each illegal access is made by the same instruction at the same
//!     offset in the corresponding memory object (the object's *address*
//!     differs run to run — objects correspond by allocation order).
//!
//! Validation runs on a fork of the process, so it does not delay
//! recovery; [`ValidationEngine::validate_parallel`] actually runs it on a
//! separate thread.

use std::collections::HashMap;

use fa_allocext::{PatchSet, TraceEvent};
use fa_exec::expect_ext;
use fa_proc::{ProcSnapshot, Process};

/// The result of validating a patch set.
#[derive(Clone, Debug)]
pub struct ValidationOutcome {
    /// The patches passed all consistency criteria.
    pub consistent: bool,
    /// Why validation failed, if it did.
    pub reason: Option<String>,
    /// Number of randomized iterations executed.
    pub iterations: usize,
    /// Virtual time the validation consumed (on the fork's clock).
    pub validation_ns: u64,
    /// Full trace of each iteration (feeds the bug report).
    pub traces: Vec<Vec<TraceEvent>>,
    /// Patch trigger counts per iteration.
    pub trigger_counts: Vec<HashMap<usize, u64>>,
    /// Reference trace of a run *without* patches (for the report's
    /// allocation/deallocation diff); truncated at its failure.
    pub unpatched_trace: Vec<TraceEvent>,
}

/// Canonical form of an illegal access for cross-run comparison:
/// `(kind, read/write, access site, object allocation seq, offset)`.
type IllegalKey = (u8, bool, fa_proc::CallSite, u64, u64);

/// Re-executes the buggy region under randomization and checks patch
/// consistency.
pub struct ValidationEngine {
    /// Number of randomized iterations (the paper uses 3).
    pub iterations: usize,
}

impl Default for ValidationEngine {
    fn default() -> Self {
        ValidationEngine { iterations: 3 }
    }
}

impl ValidationEngine {
    /// Creates an engine running `iterations` randomized re-executions.
    pub fn new(iterations: usize) -> Self {
        ValidationEngine { iterations }
    }

    /// Fault-aware wrapper around [`ValidationEngine::validate`]: asks
    /// the plan whether the validation fork dies before producing a
    /// verdict. `None` means the fork failed — the caller keeps the
    /// patches (they already survived diagnosis) but gets no
    /// consistency verdict and no report traces.
    pub fn try_validate(
        &self,
        faults: &fa_faults::FaultPlan,
        process: &Process,
        snap: &ProcSnapshot,
        patches: &PatchSet,
        until_cursor: usize,
    ) -> Option<ValidationOutcome> {
        if faults.should_fail(fa_faults::FaultStage::ValidationFork) {
            return None;
        }
        Some(self.validate(process, snap, patches, until_cursor))
    }

    /// Validates `patches` on a fork of `process` rolled back to `snap`.
    pub fn validate(
        &self,
        process: &Process,
        snap: &ProcSnapshot,
        patches: &PatchSet,
        until_cursor: usize,
    ) -> ValidationOutcome {
        let mut traces: Vec<Vec<TraceEvent>> = Vec::new();
        let mut trigger_counts: Vec<HashMap<usize, u64>> = Vec::new();
        let mut validation_ns = 0u64;
        let mut failure_reason: Option<String> = None;
        // One forked context serves every iteration: each later loop
        // rebinds it to `process` and restores it from `snap`, which only
        // rewrites the pages the previous iteration diverged.
        let mut fork = process.fork();

        for seed in 1..=self.iterations as u64 {
            if seed > 1 {
                fork.rebind(process);
            }
            fork.restore(snap);
            fork.set_pacing(false);
            let t0 = fork.ctx.clock.now();
            fork.ctx.with_alloc_and_mem(|alloc, _mem| {
                expect_ext(alloc).set_validation(patches.clone(), seed);
            });
            fork.replay_until(until_cursor);
            validation_ns += fork.ctx.clock.now().saturating_sub(t0);
            if let Some(f) = &fork.failure {
                failure_reason = Some(format!(
                    "iteration {seed}: program failed under randomization: {}",
                    f.fault
                ));
                break;
            }
            let (trace, triggers) = fork.ctx.with_alloc_and_mem(|alloc, _mem| {
                let ext = expect_ext(alloc);
                (ext.take_trace(), ext.counters().patch_triggers.clone())
            });
            traces.push(trace);
            trigger_counts.push(triggers);
        }

        // Reference run without patches, for the report diff. Failure here
        // is expected (it is the original bug) and simply truncates the
        // trace.
        let unpatched_trace = {
            fork.rebind(process);
            fork.restore(snap);
            fork.set_pacing(false);
            fork.ctx.with_alloc_and_mem(|alloc, _mem| {
                expect_ext(alloc).set_validation(PatchSet::new(), 0);
            });
            fork.replay_until(until_cursor);
            fork.ctx
                .with_alloc_and_mem(|alloc, _mem| expect_ext(alloc).take_trace())
        };

        let (consistent, reason) = match failure_reason {
            Some(r) => (false, Some(r)),
            None => Self::check_consistency(&traces, &trigger_counts),
        };
        ValidationOutcome {
            consistent,
            reason,
            iterations: traces.len(),
            validation_ns,
            traces,
            trigger_counts,
            unpatched_trace,
        }
    }

    /// Spawns validation on a separate thread — "in parallel on a
    /// different processor core based on a snapshot of the program"
    /// (paper §2).
    pub fn validate_parallel(
        &self,
        process: &Process,
        snap: &ProcSnapshot,
        patches: &PatchSet,
        until_cursor: usize,
    ) -> std::thread::JoinHandle<ValidationOutcome> {
        let fork = process.fork();
        let snap = snap.clone();
        let patches = patches.clone();
        let iterations = self.iterations;
        std::thread::spawn(move || {
            ValidationEngine::new(iterations).validate(&fork, &snap, &patches, until_cursor)
        })
    }

    fn check_consistency(
        traces: &[Vec<TraceEvent>],
        trigger_counts: &[HashMap<usize, u64>],
    ) -> (bool, Option<String>) {
        if traces.len() < 2 {
            return (true, None);
        }
        // Criterion (a): identical trigger counts.
        for (i, counts) in trigger_counts.iter().enumerate().skip(1) {
            if counts != &trigger_counts[0] {
                return (
                    false,
                    Some(format!(
                        "criterion (a): patch trigger counts differ between iterations 1 and {}",
                        i + 1
                    )),
                );
            }
        }
        // Criteria (b) + (c): identical multiset of canonical illegal
        // accesses.
        let keys: Vec<Vec<IllegalKey>> = traces.iter().map(|t| Self::illegal_keys(t)).collect();
        for (i, k) in keys.iter().enumerate().skip(1) {
            if k.len() != keys[0].len() {
                return (
                    false,
                    Some(format!(
                        "criterion (b): {} illegal accesses in iteration 1 vs {} in iteration {}",
                        keys[0].len(),
                        k.len(),
                        i + 1
                    )),
                );
            }
            if k != &keys[0] {
                return (
                    false,
                    Some(format!(
                        "criterion (c): illegal access sites/offsets differ between iterations \
                         1 and {}",
                        i + 1
                    )),
                );
            }
        }
        (true, None)
    }

    fn illegal_keys(trace: &[TraceEvent]) -> Vec<IllegalKey> {
        let mut keys: Vec<IllegalKey> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Illegal {
                    kind,
                    access,
                    access_site,
                    obj_seq,
                    offset,
                    ..
                } => Some((
                    *kind as u8,
                    matches!(access, fa_mem::AccessKind::Write),
                    *access_site,
                    *obj_seq,
                    *offset,
                )),
                _ => None,
            })
            .collect();
        keys.sort();
        keys
    }
}
