//! Fleet scale benchmark: the lock-free patch plane at 10²–10⁵ workers.
//!
//! Three measurements, one report (`results/fleet_scale.json`):
//!
//! 1. **Diagnosis phase** — each of the 9 applications runs under a
//!    real `FirstAidRuntime` until its bug triggers, producing the
//!    actual patches and the virtual diagnosis cost (`recovery_ns`)
//!    that seed the scale model ([`fa_fleet::AppPlan`]).
//! 2. **Scale points** — a [`fa_fleet::ScaleFleet`] at 10², 10³, 10⁴
//!    and 10⁵ workers on the mixed 9-app traffic profile, each run
//!    [`REPEATS`] times in one process. Virtual-time outputs
//!    (time-to-fleet-immunity, patch hits, failures, checksum) are
//!    deterministic: every repetition must agree, and they are gated
//!    *exactly*. Wall-clock throughput of the real threaded query phase
//!    is the fastest repetition's, gated with slack.
//! 3. **Query latency** — the retired locked read (`get_locked`:
//!    mutex + full `PatchSet` clone) vs the lock-free plane (`get`)
//!    under multi-threaded contention; the `--check` gate requires the
//!    lock-free path to be ≥ [`SPEEDUP_GATE`]× faster.
//!
//! The sublinearity gate: from one scale point to the next (10× the
//! workers), time-to-fleet-immunity may grow by at most √10× — gossip
//! propagation is logarithmic in cells, so real growth is far smaller,
//! but the gate still fails any accidental return to per-worker
//! (linear) propagation.

use fa_apps::{all_specs, WorkloadSpec};
use fa_fleet::{measure_query_latency, AppPlan, ScaleConfig, ScaleFleet, ScaleOutcome};
use first_aid_core::{FirstAidRuntime, PatchPool};
use serde::{Deserialize, Serialize};

use crate::paper_config;

/// Fleet sizes measured (the acceptance range 10²–10⁵).
pub const SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// Required lock-free speedup over the locked baseline.
pub const SPEEDUP_GATE: f64 = 5.0;

/// Per-step immunity growth cap for 10× workers (√10).
pub const SUBLINEAR_FACTOR: f64 = 3.163;

/// Wall-clock throughput may drop to this fraction of the committed
/// baseline before the gate fires. Both sides are the fastest of
/// [`REPEATS`] runs. On a shared 2-vCPU machine the slowest unchanged
/// runs read 0.78 of the committed baseline, while a 2× per-query
/// slowdown mostly reads below 0.7 and a 3× one always does. The ratio
/// depends on how fast the machine was when the baseline was written, so
/// re-check it whenever the baseline is regenerated.
pub const THROUGHPUT_SLACK: f64 = 0.7;

/// Runs of each scale point; the fastest query phase is reported. The
/// first run of a point pays thread start-up and cold caches, so a
/// single run's throughput says more about the machine than the code.
pub const REPEATS: usize = 5;

/// One application's diagnosis-phase result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleApp {
    /// Program executable name (pool key).
    pub app: String,
    /// Patches the diagnosis published.
    pub patches: usize,
    /// Virtual diagnosis cost, in milliseconds.
    pub recovery_ms: f64,
}

/// One fleet-size measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalePoint {
    pub workers: usize,
    pub cells: usize,
    pub gossip_rounds: u32,
    /// Simulated inputs = real hot-path queries performed.
    pub inputs: u64,
    /// Deterministic virtual time-to-fleet-immunity.
    pub immunity_ns: u64,
    /// Deterministic virtual time of the slowest patch publication.
    pub last_publish_ns: u64,
    /// Deterministic: triggers neutralized by an installed patch.
    pub patch_hits: u64,
    /// Deterministic: triggers that beat the patch to the worker.
    pub failures: u64,
    /// Deterministic digest of every query result.
    pub checksum: u64,
    /// Wall-clock of the threaded query phase, milliseconds.
    pub elapsed_ms: f64,
    /// Real aggregate throughput of the query phase.
    pub inputs_per_sec: f64,
}

impl ScalePoint {
    fn from_outcome(o: ScaleOutcome) -> ScalePoint {
        ScalePoint {
            workers: o.workers,
            cells: o.cells,
            gossip_rounds: o.gossip_rounds,
            inputs: o.inputs,
            immunity_ns: o.immunity_ns,
            last_publish_ns: o.last_publish_ns,
            patch_hits: o.patch_hits,
            failures: o.failures,
            checksum: o.checksum,
            elapsed_ms: o.elapsed_ns as f64 / 1e6,
            inputs_per_sec: o.inputs_per_sec,
        }
    }

    /// The virtual-time fields, which every run of one configuration
    /// must reproduce exactly.
    fn deterministic(&self) -> (usize, u32, u64, u64, u64, u64, u64, u64) {
        (
            self.cells,
            self.gossip_rounds,
            self.inputs,
            self.immunity_ns,
            self.last_publish_ns,
            self.patch_hits,
            self.failures,
            self.checksum,
        )
    }
}

/// Locked-vs-lock-free query latency under contention.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyPoint {
    pub threads: usize,
    pub iters_per_thread: u64,
    pub locked_ns: f64,
    pub lockfree_ns: f64,
    pub speedup: f64,
}

/// The full report (`results/fleet_scale.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetScaleReport {
    pub apps: Vec<ScaleApp>,
    pub latency: LatencyPoint,
    pub points: Vec<ScalePoint>,
}

/// Diagnosis phase: run every app's bug through a real runtime once,
/// harvesting the published patches and the virtual diagnosis cost.
pub fn diagnose_plans() -> Vec<AppPlan> {
    all_specs()
        .iter()
        .filter_map(|spec| {
            let pool = PatchPool::in_memory();
            let mut fa =
                FirstAidRuntime::launch((spec.build)(), paper_config(), pool.clone()).ok()?;
            let w = (spec.workload)(&WorkloadSpec::new(450, &[150]));
            fa.run(w, None);
            let rec = fa.recoveries.first()?;
            let program = fa.program().to_owned();
            let patches = pool.get(&program).patches().to_vec();
            if patches.is_empty() {
                return None;
            }
            Some(AppPlan {
                program,
                patches,
                recovery_ns: rec.recovery_ns,
            })
        })
        .collect()
}

fn scale_config(workers: usize) -> ScaleConfig {
    ScaleConfig {
        workers,
        seed: 42,
        ..ScaleConfig::default()
    }
}

/// Runs `fleet` [`REPEATS`] times and keeps the fastest run. Appends a
/// violation to `drift` for each run whose deterministic fields differ
/// from the first run's.
fn fastest_of_repeats(fleet: &ScaleFleet, drift: &mut Vec<String>) -> ScalePoint {
    let mut best = ScalePoint::from_outcome(fleet.run());
    let first = best.deterministic();
    for _ in 1..REPEATS {
        let point = ScalePoint::from_outcome(fleet.run());
        if point.deterministic() != first {
            drift.push(format!(
                "repetitions disagree at {} workers: {:?} vs first run {first:?}",
                point.workers,
                point.deterministic()
            ));
        }
        if point.inputs_per_sec > best.inputs_per_sec {
            best = point;
        }
    }
    best
}

/// Runs the full benchmark and returns the report together with any
/// repetition drift (see [`fastest_of_repeats`]). `check` trims the
/// latency iteration count (a wall-clock-only measurement); every
/// deterministic quantity uses identical parameters in both modes so the
/// exact-equality gates hold.
pub fn measure(check: bool) -> (FleetScaleReport, Vec<String>) {
    let plans = diagnose_plans();
    let apps = plans
        .iter()
        .map(|p| ScaleApp {
            app: p.program.clone(),
            patches: p.patches.len(),
            recovery_ms: p.recovery_ns as f64 / 1e6,
        })
        .collect();

    let mut points = Vec::new();
    let mut drift = Vec::new();
    let mut last_fleet: Option<ScaleFleet> = None;
    for workers in SIZES {
        let fleet = ScaleFleet::new(scale_config(workers), plans.clone());
        points.push(fastest_of_repeats(&fleet, &mut drift));
        last_fleet = Some(fleet);
    }

    // Latency duel on the 10⁵-warmed pool (same patches any size holds).
    let fleet = last_fleet.expect("at least one scale point");
    let programs: Vec<String> = plans.iter().map(|p| p.program.clone()).collect();
    let threads = fa_fleet::scale::default_threads();
    let iters = if check { 60_000 } else { 150_000 };
    let lat = measure_query_latency(fleet.pool(), &programs, threads, iters);
    let report = FleetScaleReport {
        apps,
        latency: LatencyPoint {
            threads: lat.threads,
            iters_per_thread: lat.iters_per_thread,
            locked_ns: lat.locked_ns,
            lockfree_ns: lat.lockfree_ns,
            speedup: lat.speedup,
        },
        points,
    };
    (report, drift)
}

/// Paper-style text rendering.
pub fn render(report: &FleetScaleReport) -> String {
    let mut out = String::new();
    out.push_str("Fleet scale: lock-free patch plane, gossip propagation\n");
    out.push_str("=====================================================\n\n");
    out.push_str("Diagnosis phase (real runtimes, virtual time):\n");
    for a in &report.apps {
        out.push_str(&format!(
            "  {:<12} {:>2} patch(es)  recovery {:>9.1} ms\n",
            a.app, a.patches, a.recovery_ms
        ));
    }
    let l = &report.latency;
    out.push_str(&format!(
        "\nPer-allocation patch query ({} threads, {} iters/thread):\n  \
         locked {:>7.1} ns   lock-free {:>6.1} ns   speedup {:>5.1}x\n\n",
        l.threads, l.iters_per_thread, l.locked_ns, l.lockfree_ns, l.speedup
    ));
    out.push_str(
        "workers     cells  rounds  immunity(ms)  publish(ms)  hits    failures  Minputs/s\n",
    );
    for p in &report.points {
        out.push_str(&format!(
            "{:>7}  {:>6}  {:>6}  {:>12.1}  {:>11.1}  {:>7}  {:>8}  {:>9.2}\n",
            p.workers,
            p.cells,
            p.gossip_rounds,
            p.immunity_ns as f64 / 1e6,
            p.last_publish_ns as f64 / 1e6,
            p.patch_hits,
            p.failures,
            p.inputs_per_sec / 1e6,
        ));
    }
    out
}

/// The CI gate. Absolute gates (speedup, sublinearity, coverage) apply
/// to the fresh measurement; baseline gates (determinism equality,
/// throughput slack) additionally apply when a readable baseline
/// exists.
pub fn check(baseline: Option<&FleetScaleReport>, current: &FleetScaleReport) -> Vec<String> {
    let mut violations = Vec::new();

    if current.latency.speedup < SPEEDUP_GATE {
        violations.push(format!(
            "lock-free query speedup {:.1}x under the {SPEEDUP_GATE}x gate \
             (locked {:.1} ns vs lock-free {:.1} ns)",
            current.latency.speedup, current.latency.locked_ns, current.latency.lockfree_ns
        ));
    }

    if current.points.iter().map(|p| p.workers).max().unwrap_or(0) < 100_000 {
        violations.push("no 10^5-worker scale point measured".into());
    }

    for pair in current.points.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let worker_ratio = b.workers as f64 / a.workers.max(1) as f64;
        let immunity_ratio = b.immunity_ns as f64 / a.immunity_ns.max(1) as f64;
        if immunity_ratio > worker_ratio.sqrt().max(SUBLINEAR_FACTOR) {
            violations.push(format!(
                "time-to-fleet-immunity grew {immunity_ratio:.2}x from {} to {} workers \
                 (sublinear cap {:.2}x)",
                a.workers,
                b.workers,
                worker_ratio.sqrt().max(SUBLINEAR_FACTOR)
            ));
        }
    }

    let Some(base) = baseline else {
        return violations;
    };
    for cur in &current.points {
        let Some(b) = base.points.iter().find(|p| p.workers == cur.workers) else {
            violations.push(format!("baseline lacks the {}-worker point", cur.workers));
            continue;
        };
        // Virtual-time quantities are deterministic: exact equality.
        let (det_cur, det_base) = (cur.deterministic(), b.deterministic());
        if det_cur != det_base {
            violations.push(format!(
                "deterministic drift at {} workers: current {det_cur:?} vs baseline {det_base:?}",
                cur.workers
            ));
        }
        // Wall-clock throughput, fastest of REPEATS runs on both sides.
        if cur.inputs_per_sec < b.inputs_per_sec * THROUGHPUT_SLACK {
            violations.push(format!(
                "query-phase throughput at {} workers fell to {:.2} Minputs/s \
                 (baseline {:.2}, floor {:.0}%)",
                cur.workers,
                cur.inputs_per_sec / 1e6,
                b.inputs_per_sec / 1e6,
                THROUGHPUT_SLACK * 100.0
            ));
        }
    }
    violations
}
