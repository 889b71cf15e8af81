//! Crash-safe supervision experiment: what a supervisor crash costs.
//!
//! For each application, a fleet runs over a journaled patch pool and
//! is then "killed" (dropped, in-memory state lost). The experiment
//! measures what a restarted supervisor pays to get back to the exact
//! pre-crash patch pool by replaying the journal, against the cost of
//! the cold start that built that pool in the first place — and
//! verifies nothing was lost: the recovered pool must be byte-identical
//! (`export_state`) at the same patch epoch, and a post-recovery
//! workload must run already immunized.

use std::time::Instant;

use fa_apps::{fleet::sharded_stream, AppSpec};
use fa_fleet::{Fleet, FleetConfig};
use first_aid_core::PatchPool;
use serde::{Deserialize, Serialize};

/// One application's crash-recovery measurements.
#[derive(Debug, Serialize, Deserialize)]
pub struct CrashExperiment {
    /// Application display name.
    pub app: String,
    /// Patch-pool program key.
    pub program: String,
    /// Journal records surviving the run (post-compaction).
    pub journal_records: usize,
    /// Journal appends performed by the cold run.
    pub appends: u64,
    /// Patch epoch at the crash.
    pub pool_epoch: u64,
    /// Patch epoch after journal recovery.
    pub recovered_epoch: u64,
    /// Epochs the crash lost (the gate requires zero).
    pub lost_epochs: u64,
    /// Recovered pool state matches the pre-crash state byte for byte.
    pub reconverged: bool,
    /// Wall-clock cost of the cold fleet start (launch + immunization).
    pub cold_start_ns: u64,
    /// Wall-clock cost of journal recovery (reopen + replay + fleet
    /// re-construction).
    pub recovery_ns: u64,
    /// `recovery_ns / cold_start_ns`.
    pub recovery_fraction: f64,
    /// Failures in a post-recovery workload (zero: still immunized).
    pub warm_failures: usize,
}

/// Everything the crash bench writes to `results/crash.json`.
#[derive(Debug, Serialize, Deserialize)]
pub struct CrashReport {
    /// One row per application.
    pub experiments: Vec<CrashExperiment>,
}

/// Runs the crash-recovery measurement for one application.
///
/// # Panics
///
/// Panics if a fleet worker cannot be launched, or if the fleet fails
/// to diagnose during the cold run (there is then no pool state worth
/// recovering).
pub fn run_case(
    spec: &AppSpec,
    workers: usize,
    per_shard: usize,
    trigger: usize,
) -> CrashExperiment {
    let dir = std::env::temp_dir().join(format!(
        "fa-crash-bench-{}-{}",
        spec.key,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let program = (spec.build)().name().to_owned();
    let config = FleetConfig {
        workers,
        // Paper-scale checkpointing: Apache's ~250-input error-
        // propagation distance needs the deep checkpoint horizon.
        runtime: crate::paper_config(),
        ..FleetConfig::default()
    };
    let shards: Vec<Vec<usize>> = (0..workers)
        .map(|w| if w == 0 { vec![trigger] } else { Vec::new() })
        .collect();

    // Cold start: an empty journal, a fresh fleet, one diagnosis.
    let t0 = Instant::now();
    let pool = PatchPool::journaled(&dir).expect("scratch journal dir");
    let fleet = Fleet::new(spec.build, config.clone()).with_pool(pool.clone());
    let cold = sharded_stream(spec, &shards, per_shard, 0xc0 + trigger as u64);
    let r = fleet.run(cold).expect("cold fleet launches");
    let cold_start_ns = (t0.elapsed().as_nanos() as u64).max(1);
    assert!(r.patched >= 1, "{}: cold run must diagnose", spec.key);
    let pool_epoch = pool.epoch(&program);
    let export = pool.export_state(&program);
    let appends = pool.journal().expect("journaled pool").appends();
    drop(fleet);
    drop(pool); // the crash: every in-memory structure is gone

    // Recovery: reopen the journal, replay, rebuild the fleet.
    let t1 = Instant::now();
    let recovered = PatchPool::journaled(&dir).expect("journal reopens");
    let fleet = Fleet::new(spec.build, config).with_pool(recovered.clone());
    let recovery_ns = t1.elapsed().as_nanos() as u64;
    let journal_records = recovered.journal().expect("journaled pool").replay().len();
    let recovered_epoch = recovered.epoch(&program);
    let reconverged = recovered.export_state(&program) == export;

    // The recovered fleet serves a triggered workload already immunized.
    let warm = sharded_stream(spec, &shards, per_shard, 0xd0 + trigger as u64);
    let warm = fleet.run(warm).expect("recovered fleet launches");
    let _ = std::fs::remove_dir_all(&dir);

    CrashExperiment {
        app: spec.display.to_owned(),
        program,
        journal_records,
        appends,
        pool_epoch,
        recovered_epoch,
        lost_epochs: pool_epoch.saturating_sub(recovered_epoch),
        reconverged,
        cold_start_ns,
        recovery_ns,
        recovery_fraction: recovery_ns as f64 / cold_start_ns as f64,
        warm_failures: warm.failures,
    }
}

/// Renders one experiment row for the console.
pub fn render(exp: &CrashExperiment) -> String {
    format!(
        "{:<12} journal {:>3} rec ({:>4} appends)  epoch {}->{} lost {}  \
         cold {:>8.2}ms  recover {:>6.3}ms ({})  warm-failures {}{}",
        exp.app,
        exp.journal_records,
        exp.appends,
        exp.pool_epoch,
        exp.recovered_epoch,
        exp.lost_epochs,
        exp.cold_start_ns as f64 / 1e6,
        exp.recovery_ns as f64 / 1e6,
        crate::pct(exp.recovery_fraction),
        exp.warm_failures,
        if exp.reconverged {
            ""
        } else {
            "  STATE DIVERGED"
        },
    )
}

/// The CI gate: recovery must cost under 5% of a cold fleet start, lose
/// zero patch epochs, re-converge byte-identically, and leave the fleet
/// immunized, and the journal must hold one record per patch epoch (the
/// runs have no revocation or canary traffic, so every pool record
/// bumps the epoch and any other record is one the pool never reads).
/// Returns human-readable violations (empty = pass).
pub fn check(report: &CrashReport) -> Vec<String> {
    let mut violations = Vec::new();
    for e in &report.experiments {
        if e.recovery_fraction >= 0.05 {
            violations.push(format!(
                "{}: journal recovery cost {} of a cold start (gate: < 5%)",
                e.app,
                crate::pct(e.recovery_fraction)
            ));
        }
        if e.journal_records as u64 != e.recovered_epoch {
            violations.push(format!(
                "{}: journal holds {} record(s) for {} patch epoch(s) (gate: one per epoch)",
                e.app, e.journal_records, e.recovered_epoch
            ));
        }
        if e.lost_epochs > 0 {
            violations.push(format!(
                "{}: crash lost {} patch epoch(s) (gate: zero)",
                e.app, e.lost_epochs
            ));
        }
        if !e.reconverged {
            violations.push(format!(
                "{}: recovered pool state diverged from the pre-crash state",
                e.app
            ));
        }
        if e.warm_failures > 0 {
            violations.push(format!(
                "{}: {} failure(s) after recovery (gate: fleet stays immunized)",
                e.app, e.warm_failures
            ));
        }
    }
    violations
}
