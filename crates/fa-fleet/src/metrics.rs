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
    /// Bug-triggering inputs fed while this worker held patches that
    /// sailed through without failing — neutralized by a patch.
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
    /// pool, a worker diagnoses only a trigger it runs before the first
    /// diagnosis of the same bug has published its patch.
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
    /// Merged degradation-ladder counters, with the shared pool's
    /// journal health.
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

    /// Folds the worker reports, in worker order, into the fleet report.
    /// All workers sample on the same window width, so the fleet series
    /// is the per-window sum of the worker series, on the window starts
    /// of the longest one.
    pub(crate) fn from_workers(workers: Vec<WorkerReport>) -> FleetReport {
        let longest = workers
            .iter()
            .map(|w| w.series.as_slice())
            .max_by_key(|s| s.len());
        let fleet_series = longest
            .unwrap_or_default()
            .iter()
            .enumerate()
            .map(|(i, &(start, _))| {
                let total = workers.iter().filter_map(|w| w.series.get(i)).map(|p| p.1);
                (start, total.sum())
            })
            .collect();
        // `None` as soon as one worker never held patches.
        let immunized: Option<Vec<u64>> = workers.iter().map(|w| w.immunized_at_ns).collect();
        let mut report = FleetReport {
            fleet_series,
            time_to_fleet_immunity_ns: immunized.and_then(|at| at.into_iter().max()),
            ..FleetReport::default()
        };
        for w in &workers {
            report.served += w.served;
            report.failures += w.failures;
            report.recoveries += w.recoveries;
            report.patched += w.patched;
            report.dropped += w.dropped;
            report.rollbacks += w.rollbacks;
            report.patch_hits += w.patch_hits;
            report.restarts += w.restarts;
            report.backoff_ns += w.backoff_ns;
            report.bytes += w.bytes;
            report.degradation.merge(&w.degradation);
            report.sentry.merge(&w.sentry);
        }
        report.workers = workers;
        report
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
        let r = FleetReport::from_workers(vec![
            worker(0, vec![(0.0, 1.0), (0.25, 2.0)], Some(5)),
            worker(1, vec![(0.0, 3.0)], Some(9)),
        ]);
        assert_eq!(r.fleet_series, vec![(0.0, 4.0), (0.25, 2.0)]);
        assert_eq!(r.served, 20);
        assert_eq!(r.time_to_fleet_immunity_ns, Some(9));
    }

    #[test]
    fn immunity_requires_every_worker() {
        let r =
            FleetReport::from_workers(vec![worker(0, vec![], Some(5)), worker(1, vec![], None)]);
        assert_eq!(r.time_to_fleet_immunity_ns, None);
    }
}
