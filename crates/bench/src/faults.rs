//! Fault-injection experiment: seeded failures in First-Aid's *own*
//! pipeline stages (checkpoint corruption, flaky/wedged diagnosis,
//! validation-fork death, journal append I/O) and what the degradation
//! ladder makes of them.
//!
//! The headline claim is liveness: whatever the plan injects, the
//! runtime neither panics nor loses accounting — every offered input is
//! either served or deliberately dropped, and the `DegradationMetrics`
//! say which rung did the work.

use fa_apps::{AppSpec, WorkloadSpec};
use fa_faults::FaultStage;
use first_aid_core::{DegradationMetrics, FirstAidRuntime, PatchPool, RunSummary, Wal};
use serde::Serialize;

/// One (application, scenario) cell of the experiment.
#[derive(Debug, Serialize)]
pub struct FaultsExperiment {
    /// Application display name.
    pub app: String,
    /// Fault scenario name (see [`fa_apps::FAULT_SCENARIOS`]).
    pub scenario: String,
    /// Fault-plan seed.
    pub seed: u64,
    /// Inputs offered to the runtime.
    pub offered: usize,
    /// Inputs served (possibly through a degraded rung).
    pub served: usize,
    /// Inputs deliberately dropped.
    pub dropped: usize,
    /// Failures caught by the error monitor.
    pub failures: usize,
    /// Recoveries performed.
    pub recoveries: usize,
    /// Final virtual wall time.
    pub wall_ns: u64,
    /// Injected faults that actually fired, per stage label.
    pub fired: Vec<(String, u64)>,
    /// Ladder and resilience counters.
    pub degradation: DegradationMetrics,
}

/// Runs one application under one named fault scenario.
///
/// # Panics
///
/// Panics if the scenario name is unknown, launch fails, or input
/// conservation is violated (served + dropped != offered) — the latter
/// being exactly the liveness property this experiment exists to check.
pub fn run_case(
    spec: &AppSpec,
    scenario: &str,
    seed: u64,
    n: usize,
    triggers: &[usize],
) -> FaultsExperiment {
    let plan = fa_apps::fault_scenario(scenario, seed)
        .unwrap_or_else(|| panic!("unknown fault scenario {scenario}"));
    // Paper-scale checkpointing (as in table3/fig4) so that under the
    // "none" scenario every app — including Apache, whose ~250-input
    // error-propagation distance needs a deep checkpoint horizon — is
    // precisely patched and the degraded rungs stay at zero.
    let mut config = crate::paper_config();
    config.faults = plan.clone();
    // A journaled pool (in a scratch dir) whose journal carries the plan,
    // so the WalAppendIo stage has real appends to fail; fall back to
    // in-memory if the dir is unusable.
    let dir = std::env::temp_dir().join(format!("fa-faults-bench-{}-{scenario}-{seed}", spec.key));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = Wal::open(dir.join("pool.wal"))
        .map(|wal| PatchPool::with_journal(wal.with_faults(plan.clone())))
        .unwrap_or_else(|_| PatchPool::in_memory());
    let mut runtime =
        FirstAidRuntime::launch((spec.build)(), config, pool).expect("faults bench launch");
    let workload = (spec.workload)(&WorkloadSpec::new(n, triggers));
    let offered = workload.len();
    let summary: RunSummary = runtime.run(workload, None);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        summary.served + summary.dropped,
        offered,
        "{}/{scenario}: input conservation violated",
        spec.key
    );
    let fired = FaultStage::ALL
        .iter()
        .map(|&stage| (stage.label().to_owned(), plan.fired(stage)))
        .filter(|&(_, count)| count > 0)
        .collect();
    FaultsExperiment {
        app: spec.display.to_owned(),
        scenario: scenario.to_owned(),
        seed,
        offered,
        served: summary.served,
        dropped: summary.dropped,
        failures: summary.failures,
        recoveries: summary.recoveries,
        wall_ns: summary.wall_ns,
        fired,
        degradation: summary.degradation,
    }
}

/// Renders one experiment row for the console.
pub fn render(exp: &FaultsExperiment) -> String {
    let d = &exp.degradation;
    format!(
        "{:<10} {:<22} served {:>4}/{:<4} dropped {:>3}  rungs p/g/d/r {}/{}/{}/{}  \
         revoked {} cksum-miss {} timeouts {} retries {} fork-fail {} wal-io {}{}",
        exp.app,
        exp.scenario,
        exp.served,
        exp.offered,
        exp.dropped,
        d.precise_patches,
        d.generic_patches,
        d.rollback_drops,
        d.restarts,
        d.patch_revocations,
        d.checkpoint_checksum_misses,
        d.diagnosis_timeouts,
        d.reexec_retries,
        d.validation_fork_failures,
        d.pool_io_errors,
        if d.pool_degraded {
            " (pool degraded)"
        } else {
            ""
        },
    )
}
