//! Fig. 4: throughput under repeatedly triggered bugs — First-Aid vs Rx
//! vs restart, for Apache (dangling read) and Squid (overflow).
//!
//! The qualitative shape the reproduction must preserve: First-Aid dips
//! once (the first trigger's recovery) and then holds steady; Rx dips on
//! *every* trigger (it survives but disables its changes); restart dips
//! on every trigger and pays full downtime.

use fa_apps::{AppSpec, WorkloadSpec};
use fa_checkpoint::AdaptiveConfig;
use first_aid_core::{FirstAidRuntime, PatchPool, RestartRuntime, RxRuntime, ThroughputSampler};
use serde::Serialize;

use crate::paper_config;

/// Sampling window (250 ms).
pub const WINDOW_NS: u64 = 250_000_000;

/// One system's throughput series.
#[derive(Clone, Debug, Serialize)]
pub struct Series {
    /// System name ("First-Aid", "Rx", "Restart").
    pub system: String,
    /// `(window start s, MB/s)` samples.
    pub points: Vec<(f64, f64)>,
    /// Failures observed over the run.
    pub failures: usize,
    /// Total bytes delivered.
    pub bytes: u64,
}

impl Series {
    /// Mean throughput over the run.
    pub fn mean_mbps(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
    }

    /// Number of windows with (near-)zero throughput — service outages.
    pub fn stall_windows(&self) -> usize {
        self.points.iter().filter(|p| p.1 < 0.05).count()
    }
}

/// The figure for one application: three series.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4 {
    /// Application name.
    pub app: String,
    /// First-Aid, Rx, Restart series.
    pub series: Vec<Series>,
}

/// Builds the periodic-trigger workload of the experiment: normal traffic
/// with the bug triggered every `period` inputs after a warmup.
pub fn periodic_workload(spec: &AppSpec, n: usize, period: usize) -> Vec<fa_proc::Input> {
    let triggers: Vec<usize> = (1..)
        .map(|k| 1_000 + k * period)
        .take_while(|&i| i + 400 < n)
        .collect();
    (spec.workload)(&WorkloadSpec::new(n, &triggers))
}

/// Runs the three systems over the same workload.
pub fn run_app(spec: &AppSpec, n: usize, period: usize) -> Fig4 {
    let workload = periodic_workload(spec, n, period);

    let first_aid = {
        let mut sampler = ThroughputSampler::new(WINDOW_NS);
        let pool = PatchPool::in_memory();
        let mut fa = FirstAidRuntime::launch((spec.build)(), paper_config(), pool).unwrap();
        let summary = fa.run(workload.clone(), Some(&mut sampler));
        Series {
            system: "First-Aid".into(),
            points: sampler.series(),
            failures: summary.failures,
            bytes: summary.bytes_delivered,
        }
    };

    let rx = {
        let mut sampler = ThroughputSampler::new(WINDOW_NS);
        let mut rx = RxRuntime::launch((spec.build)(), AdaptiveConfig::default(), 1 << 30).unwrap();
        let summary = rx.run(workload.clone(), Some(&mut sampler));
        Series {
            system: "Rx".into(),
            points: sampler.series(),
            failures: summary.failures,
            bytes: summary.bytes_delivered,
        }
    };

    let restart = {
        let mut sampler = ThroughputSampler::new(WINDOW_NS);
        let mut rs = RestartRuntime::launch((spec.build)(), 1 << 30).unwrap();
        let summary = rs.run(workload, Some(&mut sampler));
        Series {
            system: "Restart".into(),
            points: sampler.series(),
            failures: summary.failures,
            bytes: summary.bytes_delivered,
        }
    };

    Fig4 {
        app: spec.display.to_owned(),
        series: vec![first_aid, rx, restart],
    }
}

/// Renders a series as an ASCII sparkline plus summary numbers.
pub fn render(fig: &Fig4) -> String {
    let mut out = format!("Figure 4: throughput for {}\n", fig.app);
    let max = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for s in &fig.series {
        let bars: String = s
            .points
            .iter()
            .map(|&(_, v)| {
                const LEVELS: [char; 6] = [' ', '.', ':', '-', '=', '#'];
                LEVELS[((v / max) * 5.0).round() as usize]
            })
            .collect();
        out.push_str(&format!(
            "{:<10} |{}| mean {:>6.2} MB/s, {} failure(s), {} stalled window(s)\n",
            s.system,
            bars,
            s.mean_mbps(),
            s.failures,
            s.stall_windows(),
        ));
    }
    out
}
