//! The fleet supervisor: spawn workers, dispatch inputs, join reports.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use fa_proc::{BoxedApp, Input};
use fa_wal::WorkerOp;
use first_aid_core::{FirstAidConfig, PatchPool, QuarantinePolicy, WalOp};

use crate::metrics::{FleetMetrics, FleetReport, WorkerReport};
use crate::worker::{self, WorkerParams};

/// Builds a fresh application instance for one worker (or relaunch).
///
/// `AppSpec::build` function pointers coerce into this directly:
/// `Fleet::new(spec.build, config)`.
pub type AppFactory = Arc<dyn Fn() -> BoxedApp + Send + Sync>;

/// How the supervisor picks a worker for the next input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Strict rotation: input `i` goes to worker `i % N`. Deterministic;
    /// pairs with sharded streams so each worker sees its own shard.
    #[default]
    RoundRobin,
    /// Send to the worker with the fewest queued inputs (live backlog
    /// counters), rotating among ties. Keeps healthy workers loaded while
    /// a sibling is stuck in diagnosis.
    LeastBacklog,
}

/// Whether workers share one patch pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolSharing {
    /// One pool for the whole fleet: the first diagnosis immunizes
    /// everyone (the paper's central per-program pool).
    #[default]
    Shared,
    /// Each worker gets a private in-memory pool — the no-sharing
    /// ablation, where every worker must diagnose the bug itself.
    PerWorker,
}

/// Exponential crash-loop backoff, charged as virtual idle time.
///
/// The first failure in a row is free (recovery itself already costs
/// virtual time); the `k`-th consecutive failure pauses the worker for
/// `base_ns << (k - 2)`, capped at `max_ns`.
#[derive(Clone, Copy, Debug)]
pub struct BackoffConfig {
    /// First pause length.
    pub base_ns: u64,
    /// Pause ceiling.
    pub max_ns: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_ns: 50_000_000,   // 50 ms
            max_ns: 2_000_000_000, // 2 s
        }
    }
}

/// Fleet-level configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of workers (processes of the same program).
    pub workers: usize,
    /// Input dispatch policy.
    pub policy: DispatchPolicy,
    /// Patch-pool sharing mode.
    pub sharing: PoolSharing,
    /// Per-worker First-Aid runtime configuration.
    pub runtime: FirstAidConfig,
    /// Throughput sampling window (250 ms, as in Fig. 4).
    pub window_ns: u64,
    /// Bounded per-worker queue depth. Backpressure couples the fleet's
    /// real-time progress (as a load balancer would): while one worker is
    /// stuck in diagnosis, its siblings cannot race arbitrarily far
    /// ahead, so a shared patch still lands *before* their own triggers.
    pub queue_depth: usize,
    /// Recoveries a worker may perform before it is degraded to
    /// drop-and-restart (0 = unlimited).
    pub recovery_budget: usize,
    /// Virtual downtime charged per drop-and-restart relaunch.
    pub restart_cost_ns: u64,
    /// Crash-loop backoff tuning.
    pub backoff: BackoffConfig,
    /// Flap quarantine for revoked call-sites: a site revoked this many
    /// times fleet-wide is quarantined, and re-admission goes through an
    /// exponentially-paced single-worker canary instead of a fleet-wide
    /// re-publish. `None` keeps tombstones permanent (the plain pool
    /// semantics).
    pub quarantine: Option<QuarantinePolicy>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            policy: DispatchPolicy::default(),
            sharing: PoolSharing::default(),
            runtime: FirstAidConfig::default(),
            window_ns: 250_000_000,
            queue_depth: 8,
            recovery_budget: 16,
            restart_cost_ns: 1_500_000_000,
            backoff: BackoffConfig::default(),
            quarantine: Some(QuarantinePolicy::default()),
        }
    }
}

/// A fleet of First-Aid-supervised processes of one program.
///
/// The pool outlives each [`Fleet::run`] call, so a second run starts
/// with every worker already immunized by the first (same as processes
/// launched after the patches were journaled).
pub struct Fleet {
    factory: AppFactory,
    config: FleetConfig,
    pool: PatchPool,
}

struct WorkerHandle {
    sender: SyncSender<Input>,
    backlog: Arc<AtomicUsize>,
    thread: JoinHandle<WorkerReport>,
}

impl Fleet {
    /// Creates a fleet with a fresh in-memory shared pool.
    pub fn new(
        factory: impl Fn() -> BoxedApp + Send + Sync + 'static,
        config: FleetConfig,
    ) -> Fleet {
        Fleet {
            factory: Arc::new(factory),
            config,
            pool: PatchPool::in_memory(),
        }
    }

    /// Replaces the shared pool (e.g. with a [`PatchPool::journaled`]
    /// one, so patches outlive this fleet).
    pub fn with_pool(mut self, pool: PatchPool) -> Fleet {
        self.pool = pool;
        self
    }

    /// The shared patch pool (meaningful under [`PoolSharing::Shared`]).
    pub fn pool(&self) -> &PatchPool {
        &self.pool
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Recovers the shared pool from its supervision journal (crash-safe
    /// restart of the whole fleet supervisor). Returns the number of
    /// journal records applied; idempotent — a second call applies
    /// nothing and returns 0. A fleet whose pool was built with
    /// [`PatchPool::journaled`] recovers automatically at construction;
    /// this re-entry point exists for supervisors that crash *between*
    /// runs and re-open the same journal handle.
    pub fn recover_from_journal(&self) -> usize {
        self.pool.recover_from_journal()
    }

    /// Runs the fleet over one input stream: spawns the workers,
    /// dispatches every input, closes the queues, joins, aggregates.
    pub fn run(&self, inputs: impl IntoIterator<Item = Input>) -> FleetReport {
        let n = self.config.workers.max(1);
        if let Some(policy) = self.config.quarantine {
            self.pool.enable_quarantine(policy);
        }
        // Membership records are no-ops on an in-memory pool.
        let mut handles: Vec<WorkerHandle> = (0..n)
            .map(|id| {
                self.pool
                    .journal_append(WalOp::WorkerJoin(WorkerOp { worker: id as u64 }));
                let (sender, receiver) = mpsc::sync_channel(self.config.queue_depth.max(1));
                let backlog = Arc::new(AtomicUsize::new(0));
                let params = WorkerParams {
                    id,
                    factory: self.factory.clone(),
                    runtime: self.config.runtime.clone(),
                    pool: match self.config.sharing {
                        // Worker-scoped clone: this worker additionally
                        // sees canary patches admitted for it.
                        PoolSharing::Shared => self.pool.for_worker(id as u64),
                        PoolSharing::PerWorker => PatchPool::in_memory(),
                    },
                    window_ns: self.config.window_ns,
                    recovery_budget: self.config.recovery_budget,
                    restart_cost_ns: self.config.restart_cost_ns,
                    backoff: self.config.backoff,
                };
                let worker_backlog = backlog.clone();
                let thread =
                    std::thread::spawn(move || worker::run(params, receiver, worker_backlog));
                WorkerHandle {
                    sender,
                    backlog,
                    thread,
                }
            })
            .collect();

        for (cursor, input) in inputs.into_iter().enumerate() {
            let target = match self.config.policy {
                DispatchPolicy::RoundRobin => cursor % n,
                DispatchPolicy::LeastBacklog => {
                    // Min backlog; ties rotate with the cursor so idle
                    // workers take turns instead of worker 0 soaking up
                    // every quiet period.
                    //
                    // All backlog accesses are Relaxed: the counter is
                    // an advisory heuristic, not a synchronization
                    // point. The inputs themselves synchronize through
                    // the mpsc channel (send happens-before recv), and
                    // a momentarily stale count only means a slightly
                    // less balanced pick — never a lost or reordered
                    // input.
                    (0..n)
                        .min_by_key(|&i| {
                            (
                                handles[i].backlog.load(Ordering::Relaxed),
                                (i + n - cursor % n) % n,
                            )
                        })
                        // `n >= 1`, so a minimum always exists.
                        .unwrap_or(0)
                }
            };
            handles[target].backlog.fetch_add(1, Ordering::Relaxed);
            if handles[target].sender.send(input).is_err() {
                // Worker thread died (panicked); its report is lost but
                // the rest of the fleet keeps serving.
                handles[target].backlog.fetch_sub(1, Ordering::Relaxed);
            }
        }

        let mut metrics = FleetMetrics::new();
        for (id, handle) in handles.drain(..).enumerate() {
            let WorkerHandle { sender, thread, .. } = handle;
            drop(sender); // close the queue so the worker's recv() ends
            if let Ok(report) = thread.join() {
                metrics.push(report);
            }
            self.pool
                .journal_append(WalOp::WorkerLeave(WorkerOp { worker: id as u64 }));
        }
        let mut report = metrics.finish();
        // Journal I/O health lives on the shared pool's journal, not on
        // any one worker; overlay it after aggregation.
        if let Some(wal) = self.pool.journal() {
            report.degradation.pool_io_errors = wal.io_errors();
            report.degradation.pool_degraded = wal.is_degraded();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_apps::spec_by_key;

    #[test]
    fn round_robin_shards_evenly() {
        let spec = spec_by_key("squid").unwrap();
        let fleet = Fleet::new(
            spec.build,
            FleetConfig {
                workers: 3,
                ..FleetConfig::default()
            },
        );
        let stream = fa_apps::fleet::sharded_stream(&spec, &[vec![], vec![], vec![]], 30, 1);
        let report = fleet.run(stream);
        assert_eq!(report.served, 90);
        assert_eq!(report.failures, 0);
        for w in &report.workers {
            assert_eq!(w.served, 30, "worker {} took its shard", w.worker);
        }
    }

    #[test]
    fn least_backlog_serves_everything() {
        let spec = spec_by_key("apache").unwrap();
        let fleet = Fleet::new(
            spec.build,
            FleetConfig {
                workers: 2,
                policy: DispatchPolicy::LeastBacklog,
                ..FleetConfig::default()
            },
        );
        let stream = fa_apps::fleet::sharded_stream(&spec, &[vec![], vec![]], 40, 3);
        let report = fleet.run(stream);
        assert_eq!(report.served, 80);
        assert!(report.workers.iter().all(|w| w.served > 0));
    }

    #[test]
    fn shared_pool_single_diagnosis_immunizes() {
        // Squid's overflow fails at the triggering request itself, so a
        // short stream suffices (Apache's dangling read needs ~250
        // follow-up requests to trip — see the root integration test).
        let spec = spec_by_key("squid").unwrap();
        let fleet = Fleet::new(
            spec.build,
            FleetConfig {
                workers: 2,
                ..FleetConfig::default()
            },
        );
        // Phase 1: only shard 0 carries a trigger.
        let phase1 = fa_apps::fleet::sharded_stream(&spec, &[vec![30], vec![]], 60, 11);
        let r1 = fleet.run(phase1);
        assert_eq!(r1.patched, 1, "one worker pays the diagnosis");
        // Phase 2: both shards trigger — the warm pool neutralizes all.
        let phase2 = fa_apps::fleet::sharded_stream(&spec, &[vec![10], vec![10]], 40, 12);
        let r2 = fleet.run(phase2);
        assert_eq!(r2.failures, 0, "fleet is immunized");
        assert_eq!(r2.patch_hits, 2);
        // Workers launch from the warm pool: immunized from the start.
        assert!(r2.time_to_fleet_immunity_ns.unwrap() < 50_000_000);
    }
}
