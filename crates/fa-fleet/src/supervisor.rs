//! The fleet supervisor: one loop steps every worker in virtual-time
//! order.

use std::collections::VecDeque;

use fa_proc::{BoxedApp, Fault, Input};
use first_aid_core::{FirstAidConfig, PatchPool, QuarantinePolicy};

use crate::metrics::FleetReport;
use crate::worker::Worker;

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

/// Fleet-level configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of workers (processes of the same program).
    pub workers: usize,
    /// Patch-pool sharing mode.
    pub sharing: PoolSharing,
    /// Per-worker First-Aid runtime configuration.
    pub runtime: FirstAidConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            sharing: PoolSharing::default(),
            runtime: FirstAidConfig::default(),
        }
    }
}

/// A fleet of First-Aid-supervised processes of one program.
///
/// The pool outlives each [`Fleet::run`] call, so a second run starts
/// with every worker already immunized by the first (same as processes
/// launched after the patches were journaled).
pub struct Fleet {
    factory: Box<dyn Fn() -> BoxedApp>,
    config: FleetConfig,
    pool: PatchPool,
}

impl Fleet {
    /// Creates a fleet with a fresh in-memory shared pool. `factory`
    /// builds each worker's application (and every relaunch's);
    /// `AppSpec::build` function pointers coerce into it directly.
    pub fn new(factory: impl Fn() -> BoxedApp + 'static, config: FleetConfig) -> Fleet {
        Fleet {
            factory: Box::new(factory),
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

    /// Runs the fleet over one input stream, on the caller's thread.
    ///
    /// Input `i` goes to worker `i % N`, so each worker of a sharded
    /// stream sees its own shard. The loop always feeds the worker with
    /// the smallest virtual clock (the lowest id on ties). A step that
    /// moves the shared pool's epoch (a publish, revoke, canary admission
    /// or promotion) ends at or after the virtual instant of the change,
    /// and a worker refreshes its patches only once its own clock has
    /// reached the end of the latest such step, so no worker installs a
    /// change before it was made.
    ///
    /// The shared pool runs with the default flap quarantine: a site
    /// revoked three times fleet-wide is re-admitted only through a
    /// single-worker canary. Fails if a worker's process cannot be
    /// launched or relaunched.
    pub fn run(&self, inputs: impl IntoIterator<Item = Input>) -> Result<FleetReport, Fault> {
        let n = self.config.workers.max(1);
        self.pool.enable_quarantine(QuarantinePolicy::default());
        let mut shards = vec![VecDeque::new(); n];
        for (i, input) in inputs.into_iter().enumerate() {
            shards[i % n].push_back(input);
        }
        let mut workers = shards
            .into_iter()
            .enumerate()
            .map(|(id, shard)| {
                let pool = match self.config.sharing {
                    // Worker-scoped clone: this worker additionally sees
                    // canary patches admitted for it.
                    PoolSharing::Shared => self.pool.for_worker(id as u64),
                    PoolSharing::PerWorker => PatchPool::in_memory(),
                };
                Worker::launch(id, &*self.factory, self.config.runtime.clone(), pool, shard)
            })
            .collect::<Result<Vec<_>, Fault>>()?;

        // Only the shared pool carries changes between workers; under
        // `PerWorker` its epoch never moves and every refresh is allowed.
        let signal = self.pool.epoch_signal(workers[0].program());
        let mut epoch = signal.get();
        let mut visible_at = 0u64;
        // `min_by_key` keeps the first of equal clocks: the lowest id.
        while let Some(worker) = workers
            .iter_mut()
            .filter(|w| !w.inputs.is_empty())
            .min_by_key(|w| w.clock())
        {
            worker.step(worker.clock() >= visible_at)?;
            if signal.moved(epoch) {
                epoch = signal.get();
                visible_at = visible_at.max(worker.clock());
            }
        }

        let mut report =
            FleetReport::from_workers(workers.into_iter().map(Worker::finish).collect());
        // Journal I/O health lives on the shared pool's journal, not on
        // any one worker.
        if let Some(wal) = self.pool.journal() {
            report.degradation.pool_io_errors = wal.io_errors();
            report.degradation.pool_degraded = wal.is_degraded();
        }
        Ok(report)
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
        let report = fleet.run(stream).unwrap();
        assert_eq!(report.served, 90);
        assert_eq!(report.failures, 0);
        for w in &report.workers {
            assert_eq!(w.served, 30, "worker {} took its shard", w.worker);
        }
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
        let r1 = fleet.run(phase1).unwrap();
        assert_eq!(r1.patched, 1, "one worker pays the diagnosis");
        // Phase 2: both shards trigger — the warm pool neutralizes all.
        let phase2 = fa_apps::fleet::sharded_stream(&spec, &[vec![10], vec![10]], 40, 12);
        let r2 = fleet.run(phase2).unwrap();
        assert_eq!(r2.failures, 0, "fleet is immunized");
        assert_eq!(r2.patch_hits, 2);
        // Workers launch from the warm pool: immunized from the start.
        assert!(r2.time_to_fleet_immunity_ns.unwrap() < 50_000_000);
    }

    #[test]
    fn a_trigger_that_fails_later_is_not_a_patch_hit() {
        // Apache's dangling read fails ~250 requests after its trigger,
        // which the worker fed holding no patch.
        let spec = spec_by_key("apache").unwrap();
        let fleet = Fleet::new(
            spec.build,
            FleetConfig {
                workers: 1,
                ..FleetConfig::default()
            },
        );
        let stream = fa_apps::fleet::sharded_stream(&spec, &[vec![30]], 400, 5);
        let report = fleet.run(stream).unwrap();
        assert_eq!(report.failures, 1, "the trigger failed later");
        assert_eq!(report.patch_hits, 0);
    }
}
