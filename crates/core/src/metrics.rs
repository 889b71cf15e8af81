//! Throughput sampling for the Fig. 4 experiments, plus the
//! degradation-ladder counters.

use serde::Serialize;

/// Counters for the degradation ladder and the pipeline's own failures.
///
/// One instance rides on [`RunSummary`](crate::RunSummary) (per
/// runtime) and on the fleet reports (merged across workers). Each
/// rung of the ladder — precise patch → generic best-effort patch →
/// rollback-and-drop → drop-and-restart — has a counter, alongside the
/// injected/observed faults of the pipeline stages themselves.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct DegradationMetrics {
    /// Rung 1: recoveries that installed a precise call-site patch.
    pub precise_patches: usize,
    /// Rung 2: recoveries served through the generic program-wide patch.
    pub generic_patches: usize,
    /// Rung 3: recoveries that rolled back and dropped the input.
    pub rollback_drops: usize,
    /// Rung 4: process restarts (fleet workers relaunching a runtime).
    pub restarts: usize,
    /// Failures diagnosed as nondeterministic (no rung descended).
    pub nondeterministic: usize,
    /// Patches revoked by the health monitor as ineffective.
    pub patch_revocations: usize,
    /// Checkpoints discarded because their checksum no longer matched.
    pub checkpoint_checksum_misses: usize,
    /// Diagnoses abandoned because the deadline was exceeded.
    pub diagnosis_timeouts: usize,
    /// Flaky re-executions retried by the diagnosis engine.
    pub reexec_retries: usize,
    /// Hung diagnosis trials reaped by the watchdog (injected hangs and
    /// genuine per-trial deadline overruns).
    pub trial_hangs: usize,
    /// Validation forks that died before producing a verdict.
    pub validation_fork_failures: usize,
    /// Patch-pool persistence I/O errors absorbed (retried or degraded).
    pub pool_io_errors: u64,
    /// True if the patch pool gave up on persistence and went in-memory.
    pub pool_degraded: bool,
}

impl DegradationMetrics {
    /// Accumulates `other` into `self` (fleet aggregation).
    pub fn merge(&mut self, other: &DegradationMetrics) {
        self.precise_patches += other.precise_patches;
        self.generic_patches += other.generic_patches;
        self.rollback_drops += other.rollback_drops;
        self.restarts += other.restarts;
        self.nondeterministic += other.nondeterministic;
        self.patch_revocations += other.patch_revocations;
        self.checkpoint_checksum_misses += other.checkpoint_checksum_misses;
        self.diagnosis_timeouts += other.diagnosis_timeouts;
        self.reexec_retries += other.reexec_retries;
        self.trial_hangs += other.trial_hangs;
        self.validation_fork_failures += other.validation_fork_failures;
        self.pool_io_errors += other.pool_io_errors;
        self.pool_degraded |= other.pool_degraded;
    }

    /// Total recoveries that descended past the precise rung.
    pub fn degraded_recoveries(&self) -> usize {
        self.generic_patches + self.rollback_drops + self.restarts
    }
}

/// Buckets delivered bytes into fixed wall-clock windows, producing the
/// MB/s-over-time series of paper Fig. 4.
#[derive(Clone, Debug)]
pub struct ThroughputSampler {
    window_ns: u64,
    /// Delivered bytes per window.
    buckets: Vec<u64>,
    last_bytes: u64,
}

impl ThroughputSampler {
    /// Creates a sampler with the given window width.
    pub fn new(window_ns: u64) -> Self {
        ThroughputSampler {
            window_ns,
            buckets: Vec::new(),
            last_bytes: 0,
        }
    }

    /// Records the cumulative delivered byte count at wall time `wall_ns`.
    pub fn record(&mut self, wall_ns: u64, delivered_bytes: u64) {
        let idx = (wall_ns / self.window_ns) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        let delta = delivered_bytes.saturating_sub(self.last_bytes);
        self.last_bytes = delivered_bytes;
        self.buckets[idx] += delta;
    }

    /// Returns `(window_start_seconds, MB/s)` series.
    pub fn series(&self) -> Vec<(f64, f64)> {
        let window_s = self.window_ns as f64 / 1e9;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &bytes)| (i as f64 * window_s, bytes as f64 / 1_048_576.0 / window_s))
            .collect()
    }

    /// Returns the window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_deltas() {
        let mut s = ThroughputSampler::new(1_000_000_000); // 1 s
        s.record(100_000_000, 1_048_576); // 1 MB in window 0
        s.record(1_500_000_000, 3_145_728); // +2 MB in window 1
        let series = s.series();
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 1.0).abs() < 1e-9);
        assert!((series[1].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degradation_merge_sums_counters_and_ors_flags() {
        let mut a = DegradationMetrics {
            precise_patches: 1,
            generic_patches: 2,
            pool_io_errors: 3,
            ..DegradationMetrics::default()
        };
        let b = DegradationMetrics {
            generic_patches: 1,
            rollback_drops: 4,
            pool_degraded: true,
            ..DegradationMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.precise_patches, 1);
        assert_eq!(a.generic_patches, 3);
        assert_eq!(a.rollback_drops, 4);
        assert_eq!(a.pool_io_errors, 3);
        assert!(a.pool_degraded);
        assert_eq!(a.degraded_recoveries(), 7);
    }

    #[test]
    fn idle_windows_are_zero() {
        let mut s = ThroughputSampler::new(1_000_000_000);
        s.record(100_000_000, 1_048_576);
        s.record(3_100_000_000, 1_048_576); // no new bytes
        let series = s.series();
        assert_eq!(series.len(), 4);
        assert_eq!(series[1].1, 0.0);
        assert_eq!(series[2].1, 0.0);
    }
}
