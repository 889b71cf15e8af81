//! Fleet metrics: per-worker reports and the fleet-wide aggregate.

use first_aid_core::{DegradationMetrics, SentryMetrics};
use serde::Serialize;

/// Everything one worker measured over a fleet run.
///
/// Counters are cumulative across drop-and-restart relaunches; the
/// throughput series is on the worker's own virtual clock (monotone
/// across relaunches, with restart cost and crash-loop backoff charged
/// as idle time).
#[derive(Clone, Debug, Default, Serialize)]
pub struct WorkerReport {
    /// Worker index within the fleet.
    pub worker: usize,
    /// Inputs served successfully (possibly after a recovery).
    pub served: usize,
    /// Inputs whose first execution failed.
    pub failures: usize,
    /// Recoveries performed (diagnosis attempts).
    pub recoveries: usize,
    /// Recoveries that installed patches (diagnosis paid by this worker).
    pub patched: usize,
    /// Recoveries that ended with the input dropped.
    pub dropped: usize,
    /// Rollback/re-execution iterations summed over all diagnoses.
    pub rollbacks: usize,
    /// Bug-triggering inputs that sailed through without failing —
    /// neutralized by an installed patch.
    pub patch_hits: usize,
    /// Drop-and-restart relaunches after the recovery budget ran out.
    pub restarts: usize,
    /// Virtual time spent in crash-loop backoff pauses.
    pub backoff_ns: u64,
    /// Virtual time at which this worker first held patches (via its own
    /// diagnosis, a pool refresh, or launch from a warm pool).
    pub immunized_at_ns: Option<u64>,
    /// Final virtual wall time.
    pub wall_ns: u64,
    /// Total bytes delivered.
    pub bytes: u64,
    /// Degradation-ladder counters, cumulative across relaunches (pool
    /// journal health is reported fleet-wide, not per worker).
    pub degradation: DegradationMetrics,
    /// Sentry-tier counters, cumulative across relaunches.
    pub sentry: SentryMetrics,
    /// `(window start s, MB/s)` throughput series.
    pub series: Vec<(f64, f64)>,
}

/// The aggregate a [`Fleet::run`](crate::Fleet::run) returns.
#[derive(Clone, Debug, Default, Serialize)]
pub struct FleetReport {
    /// Per-worker reports, in worker order.
    pub workers: Vec<WorkerReport>,
    /// Fleet-wide `(window start s, MB/s)` series: per-window sum of the
    /// worker series.
    pub fleet_series: Vec<(f64, f64)>,
    /// Sum of worker `served`.
    pub served: usize,
    /// Sum of worker `failures`.
    pub failures: usize,
    /// Sum of worker `recoveries`.
    pub recoveries: usize,
    /// Sum of worker `patched` — diagnoses actually paid. With a shared
    /// pool this stays at one per bug regardless of fleet size.
    pub patched: usize,
    /// Sum of worker `dropped`.
    pub dropped: usize,
    /// Sum of worker `rollbacks`.
    pub rollbacks: usize,
    /// Sum of worker `patch_hits`.
    pub patch_hits: usize,
    /// Sum of worker `restarts`.
    pub restarts: usize,
    /// Sum of worker `backoff_ns`.
    pub backoff_ns: u64,
    /// Latest per-worker immunization time, once *every* worker holds
    /// patches; `None` if any worker never did.
    pub time_to_fleet_immunity_ns: Option<u64>,
    /// Sum of worker `bytes`.
    pub bytes: u64,
    /// Merged degradation-ladder counters; the supervisor overlays the
    /// shared pool's journal health after aggregation.
    pub degradation: DegradationMetrics,
    /// Merged sentry-tier counters across workers.
    pub sentry: SentryMetrics,
}

impl FleetReport {
    /// Mean fleet throughput over the run, MB/s.
    pub fn mean_mbps(&self) -> f64 {
        if self.fleet_series.is_empty() {
            return 0.0;
        }
        self.fleet_series.iter().map(|p| p.1).sum::<f64>() / self.fleet_series.len() as f64
    }

    /// Windows in which the whole fleet delivered (near-)zero bytes.
    pub fn stall_windows(&self) -> usize {
        self.fleet_series.iter().filter(|p| p.1 < 0.05).count()
    }
}

/// Folds [`WorkerReport`]s into a [`FleetReport`].
///
/// All workers sample on the same window width, so the fleet timeline is
/// the per-window sum of the worker timelines.
#[derive(Debug, Default)]
pub struct FleetMetrics {
    workers: Vec<WorkerReport>,
}

impl FleetMetrics {
    /// Starts an empty aggregate.
    pub fn new() -> FleetMetrics {
        FleetMetrics::default()
    }

    /// Adds one worker's report.
    pub fn push(&mut self, report: WorkerReport) {
        self.workers.push(report);
    }

    /// Computes the fleet-wide throughput series (per-window sum).
    pub fn fleet_series(&self) -> Vec<(f64, f64)> {
        // Window starts are identical across workers (same window width,
        // same index); take them from the longest series.
        let Some(longest) = self.workers.iter().max_by_key(|w| w.series.len()) else {
            return Vec::new();
        };
        let len = longest.series.len();
        if len == 0 {
            return Vec::new();
        }
        (0..len)
            .map(|i| {
                let total: f64 = self
                    .workers
                    .iter()
                    .filter_map(|w| w.series.get(i))
                    .map(|p| p.1)
                    .sum();
                (longest.series[i].0, total)
            })
            .collect()
    }

    /// Finishes the aggregate.
    pub fn finish(mut self) -> FleetReport {
        self.workers.sort_by_key(|w| w.worker);
        let fleet_series = self.fleet_series();
        let all_immunized =
            !self.workers.is_empty() && self.workers.iter().all(|w| w.immunized_at_ns.is_some());
        let time_to_fleet_immunity_ns = if all_immunized {
            self.workers.iter().filter_map(|w| w.immunized_at_ns).max()
        } else {
            None
        };
        let sum = |f: fn(&WorkerReport) -> usize| self.workers.iter().map(f).sum();
        let mut degradation = DegradationMetrics::default();
        let mut sentry = SentryMetrics::default();
        for w in &self.workers {
            degradation.merge(&w.degradation);
            sentry.merge(&w.sentry);
        }
        FleetReport {
            degradation,
            sentry,
            served: sum(|w| w.served),
            failures: sum(|w| w.failures),
            recoveries: sum(|w| w.recoveries),
            patched: sum(|w| w.patched),
            dropped: sum(|w| w.dropped),
            rollbacks: sum(|w| w.rollbacks),
            patch_hits: sum(|w| w.patch_hits),
            restarts: sum(|w| w.restarts),
            backoff_ns: self.workers.iter().map(|w| w.backoff_ns).sum(),
            bytes: self.workers.iter().map(|w| w.bytes).sum(),
            time_to_fleet_immunity_ns,
            fleet_series,
            workers: self.workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(id: usize, series: Vec<(f64, f64)>, immunized: Option<u64>) -> WorkerReport {
        WorkerReport {
            worker: id,
            served: 10,
            immunized_at_ns: immunized,
            series,
            ..WorkerReport::default()
        }
    }

    #[test]
    fn fleet_series_sums_by_window() {
        let mut m = FleetMetrics::new();
        m.push(worker(0, vec![(0.0, 1.0), (0.25, 2.0)], Some(5)));
        m.push(worker(1, vec![(0.0, 3.0)], Some(9)));
        let r = m.finish();
        assert_eq!(r.fleet_series, vec![(0.0, 4.0), (0.25, 2.0)]);
        assert_eq!(r.served, 20);
        assert_eq!(r.time_to_fleet_immunity_ns, Some(9));
    }

    #[test]
    fn immunity_requires_every_worker() {
        let mut m = FleetMetrics::new();
        m.push(worker(0, vec![], Some(5)));
        m.push(worker(1, vec![], None));
        assert_eq!(m.finish().time_to_fleet_immunity_ns, None);
    }
}
