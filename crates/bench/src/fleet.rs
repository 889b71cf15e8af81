//! Fleet immunization experiment: N workers, shared patch pool vs the
//! no-sharing ablation.
//!
//! A Fig. 4-style timeline per worker, but the variable is not the
//! recovery system — every worker runs full First-Aid — it is whether
//! the workers share one patch pool. With sharing, the first worker to
//! hit the bug pays the diagnosis and every worker whose trigger comes
//! after the publish picks the patch up from the pool; without sharing,
//! every worker re-diagnoses the same bug and the fleet throughput dips
//! once per worker.

use fa_apps::AppSpec;
use fa_fleet::{Fleet, FleetConfig, FleetReport, PoolSharing};
use serde::Serialize;

use crate::paper_config;

/// One application's shared-vs-ablation comparison.
#[derive(Debug, Serialize)]
pub struct FleetExperiment {
    /// Application display name.
    pub app: String,
    /// Fleet size.
    pub workers: usize,
    /// Inputs per worker shard.
    pub per_shard: usize,
    /// Shared-pool fleet run.
    pub shared: FleetReport,
    /// Per-worker-pool ablation run.
    pub per_worker: FleetReport,
}

/// Runs the experiment for one application: the same periodic trigger
/// stream through a shared-pool fleet and a per-worker-pool fleet.
///
/// `stagger` offsets each worker's triggers. For sharing to spare a
/// sibling its own diagnosis, the stagger must exceed the bug's
/// error-propagation distance plus the diagnosis time, both counted in
/// inputs: a sibling installs the patch only once its own clock reaches
/// the instant the patch was published.
///
/// # Panics
///
/// Panics if a worker's process cannot be launched.
pub fn run_app(
    spec: &AppSpec,
    workers: usize,
    per_shard: usize,
    warmup: usize,
    period: usize,
    stagger: usize,
) -> FleetExperiment {
    let stream =
        || fa_apps::fleet::periodic_stream(spec, workers, per_shard, warmup, period, stagger, 42);
    let run = |sharing| {
        let config = FleetConfig {
            workers,
            sharing,
            runtime: paper_config(),
        };
        let report = Fleet::new(spec.build, config).run(stream());
        report.expect("fleet workers launch")
    };
    FleetExperiment {
        app: spec.display.to_owned(),
        workers,
        per_shard,
        shared: run(PoolSharing::Shared),
        per_worker: run(PoolSharing::PerWorker),
    }
}

fn sparkline(points: &[(f64, f64)], max: f64) -> String {
    points
        .iter()
        .map(|&(_, v)| {
            const LEVELS: [char; 6] = [' ', '.', ':', '-', '=', '#'];
            LEVELS[((v / max) * 5.0).round() as usize]
        })
        .collect()
}

fn render_report(label: &str, report: &FleetReport, out: &mut String) {
    let max = report
        .workers
        .iter()
        .flat_map(|w| w.series.iter().map(|p| p.1))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    out.push_str(&format!("-- {label} --\n"));
    for w in &report.workers {
        let immunized = match w.immunized_at_ns {
            Some(ns) => format!("immunized at {:.2} s", ns as f64 / 1e9),
            None => "never immunized".to_owned(),
        };
        out.push_str(&format!(
            "worker {} |{}| {} failure(s), {} diagnosis(es), {} patch hit(s), {}\n",
            w.worker,
            sparkline(&w.series, max),
            w.failures,
            w.patched,
            w.patch_hits,
            immunized,
        ));
    }
    let immunity = match report.time_to_fleet_immunity_ns {
        Some(ns) => format!("{:.2} s", ns as f64 / 1e9),
        None => "never".to_owned(),
    };
    out.push_str(&format!(
        "fleet: mean {:.2} MB/s, {} stalled window(s), {} diagnoses, {} rollbacks, fleet immunity at {}\n",
        report.mean_mbps(),
        report.stall_windows(),
        report.patched,
        report.rollbacks,
        immunity,
    ));
}

/// Renders both runs as per-worker ASCII timelines plus the summary.
pub fn render(exp: &FleetExperiment) -> String {
    let mut out = format!(
        "Fleet immunization: {} x{} workers, {} inputs/worker\n",
        exp.app, exp.workers, exp.per_shard
    );
    render_report("shared pool", &exp.shared, &mut out);
    render_report("per-worker pools (ablation)", &exp.per_worker, &mut out);
    out
}
