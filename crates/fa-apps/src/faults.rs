//! Named fault-injection scenarios for the benchmark harnesses.
//!
//! Each scenario is a seeded [`FaultPlan`] targeting one (or all) of the
//! pipeline's own stages, so experiments and CI can ask for e.g.
//! `"checkpoint-corruption"` by name and get the same deterministic
//! schedule every run.

use fa_faults::{FaultPlan, FaultStage, Injection};

/// The scenario names [`fault_scenario`] understands, in severity order.
pub const FAULT_SCENARIOS: &[&str] = &[
    "none",
    "checkpoint-corruption",
    "diagnosis-timeout",
    "flaky-reexec",
    "trial-hang",
    "validation-fork",
    "wal-io",
    "kitchen-sink",
];

/// Builds the named fault scenario with the given seed.
///
/// Returns `None` for an unknown name. `"none"` is the identity plan
/// (production behavior); `"kitchen-sink"` arms every stage at once, so
/// one run combines whichever of them fire. The liveness property test
/// (`fa-faults/tests/liveness.rs`) builds its own random plans instead.
pub fn fault_scenario(name: &str, seed: u64) -> Option<FaultPlan> {
    let plan = match name {
        "none" => FaultPlan::none(),
        // Every third checkpoint silently rots; recoveries must fall
        // back to older intact ones.
        "checkpoint-corruption" => FaultPlan::builder(seed)
            .inject(FaultStage::CheckpointCorrupt, Injection::EveryNth(3))
            .build(),
        // The first diagnosis wedges past its deadline; the ladder must
        // carry the stream from there.
        "diagnosis-timeout" => FaultPlan::builder(seed)
            .inject(FaultStage::DiagnosisTimeout, Injection::Nth(vec![0]))
            .build(),
        // ~30% of diagnosis re-executions fail transiently and must be
        // retried with backoff.
        "flaky-reexec" => FaultPlan::builder(seed)
            .inject(FaultStage::ReexecFlaky, Injection::PerMille(300))
            .build(),
        // ~25% of diagnosis trials wedge; the watchdog must reap and
        // retry them (and escalate, never stall diagnosis).
        "trial-hang" => FaultPlan::builder(seed)
            .inject(FaultStage::TrialHang, Injection::PerMille(250))
            .build(),
        // Every validation fork dies; patches stay installed unvalidated.
        "validation-fork" => FaultPlan::builder(seed)
            .inject(FaultStage::ValidationFork, Injection::EveryNth(1))
            .build(),
        // Every journal append errors; the Wal must retry, then degrade
        // (journaling off, the pool and supervision continue in-memory).
        "wal-io" => FaultPlan::builder(seed)
            .inject(FaultStage::WalAppendIo, Injection::EveryNth(1))
            .build(),
        // Everything at once: the pipeline stages probabilistically, and
        // the first journal append once. A run journals only its pool
        // transitions, often a single append, so a per-mille schedule
        // would seldom reach one; this fails the first attempt and lets
        // the retry through, without degrading the pool as `wal-io` does.
        "kitchen-sink" => FaultPlan::builder(seed)
            .inject(FaultStage::CheckpointCorrupt, Injection::PerMille(200))
            .inject(FaultStage::ReexecFlaky, Injection::PerMille(200))
            .inject(FaultStage::DiagnosisTimeout, Injection::PerMille(150))
            .inject(FaultStage::TrialHang, Injection::PerMille(150))
            .inject(FaultStage::ValidationFork, Injection::PerMille(300))
            .inject(FaultStage::WalAppendIo, Injection::Nth(vec![0]))
            .build(),
        _ => return None,
    };
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_scenario_builds() {
        for name in FAULT_SCENARIOS {
            let plan = fault_scenario(name, 7).expect("listed scenario builds");
            assert_eq!(plan.is_noop(), *name == "none", "{name}");
        }
        assert!(fault_scenario("no-such-scenario", 7).is_none());
    }

    #[test]
    fn kitchen_sink_fails_the_first_journal_append_at_the_bench_seed() {
        let plan = fault_scenario("kitchen-sink", 0xfa017).unwrap();
        assert!(plan.should_fail(FaultStage::WalAppendIo), "first attempt");
        assert!(!plan.should_fail(FaultStage::WalAppendIo), "its retry");
        assert!(!plan.should_fail(FaultStage::WalAppendIo));
    }

    #[test]
    fn scenarios_are_deterministic_in_the_seed() {
        let a = fault_scenario("kitchen-sink", 11).unwrap();
        let b = fault_scenario("kitchen-sink", 11).unwrap();
        for _ in 0..200 {
            assert_eq!(
                a.should_fail(FaultStage::CheckpointCorrupt),
                b.should_fail(FaultStage::CheckpointCorrupt)
            );
            assert_eq!(
                a.should_fail(FaultStage::WalAppendIo),
                b.should_fail(FaultStage::WalAppendIo)
            );
        }
        for &stage in FaultStage::ALL.iter() {
            assert_eq!(a.fired(stage), b.fired(stage));
        }
    }
}
