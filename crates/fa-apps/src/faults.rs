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
    "pool-io",
    "wal-io",
    "kitchen-sink",
];

/// Builds the named fault scenario with the given seed.
///
/// Returns `None` for an unknown name. `"none"` is the identity plan
/// (production behavior); `"kitchen-sink"` hits every stage
/// probabilistically and is what the liveness property tests lean on.
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
        // Every pool persistence write errors; the pool must retry, log,
        // and degrade to in-memory operation.
        "pool-io" => FaultPlan::builder(seed)
            .inject(FaultStage::PoolPersistIo, Injection::EveryNth(1))
            .build(),
        // Every journal append errors; the Wal must retry, then degrade
        // (journaling off, supervision continues in-memory).
        "wal-io" => FaultPlan::builder(seed)
            .inject(FaultStage::WalAppendIo, Injection::EveryNth(1))
            .build(),
        // Everything at once, probabilistically.
        "kitchen-sink" => FaultPlan::builder(seed)
            .inject(FaultStage::CheckpointCorrupt, Injection::PerMille(200))
            .inject(FaultStage::ReexecFlaky, Injection::PerMille(200))
            .inject(FaultStage::DiagnosisTimeout, Injection::PerMille(150))
            .inject(FaultStage::TrialHang, Injection::PerMille(150))
            .inject(FaultStage::ValidationFork, Injection::PerMille(300))
            .inject(FaultStage::PoolPersistIo, Injection::PerMille(500))
            .inject(FaultStage::WalAppendIo, Injection::PerMille(200))
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
    fn scenarios_are_deterministic_in_the_seed() {
        let a = fault_scenario("kitchen-sink", 11).unwrap();
        let b = fault_scenario("kitchen-sink", 11).unwrap();
        for _ in 0..200 {
            assert_eq!(
                a.should_fail(FaultStage::CheckpointCorrupt),
                b.should_fail(FaultStage::CheckpointCorrupt)
            );
            assert_eq!(
                a.should_fail(FaultStage::PoolPersistIo),
                b.should_fail(FaultStage::PoolPersistIo)
            );
        }
        for &stage in FaultStage::ALL.iter() {
            assert_eq!(a.fired(stage), b.fired(stage));
        }
    }
}
