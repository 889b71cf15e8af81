//! One fleet worker: a supervised process, its shard of the stream, and
//! the report it accumulates.

use std::collections::VecDeque;

use fa_faults::Backoff;
use fa_proc::{BoxedApp, Fault, Input};
use first_aid_core::{
    FirstAidConfig, FirstAidRuntime, PatchPool, ThroughputSampler, RESTART_COST_NS,
};

use crate::metrics::WorkerReport;

/// Throughput sampling window (250 ms, as in Fig. 4).
const WINDOW_NS: u64 = 250_000_000;

/// Recoveries a worker may perform before it is degraded to
/// drop-and-restart.
const RECOVERY_BUDGET: usize = 16;

/// Crash-loop backoff: the first failure in a row is free (recovery
/// itself already costs virtual time); the `k`-th consecutive failure
/// pauses the worker for `BACKOFF_BASE_NS << (k - 2)`, capped at
/// `BACKOFF_MAX_NS`, charged as virtual idle time.
const BACKOFF_BASE_NS: u64 = 50_000_000;
const BACKOFF_MAX_NS: u64 = 2_000_000_000;

/// One supervised process of the fleet.
///
/// Patch propagation runs on the pool's per-program epoch: before an
/// input the worker may call `refresh_patches`, one atomic load of its
/// program's epoch signal, which re-installs the published patch set
/// only when that epoch moved. `launch` reads the set and its epoch in
/// one locked read, so no publish can slip between the install and the
/// first refresh. An epoch also moves when a sibling's canary is admitted
/// or a revocation empties the set, so a refresh counts toward immunity
/// only if the installed set then holds a patch. The worker's clock is
/// kept monotone across relaunches via `wall_base`; crash-loop backoff
/// and restart cost are charged to it as idle time.
pub(crate) struct Worker<'f> {
    app: &'f dyn Fn() -> BoxedApp,
    config: FirstAidConfig,
    runtime: FirstAidRuntime,
    /// This worker's shard of the stream, in arrival order.
    pub(crate) inputs: VecDeque<Input>,
    sampler: ThroughputSampler,
    report: WorkerReport,
    /// Virtual time and bytes of the processes already thrown away.
    wall_base: u64,
    bytes_base: u64,
    consecutive_failures: u32,
    crash_backoff: Backoff,
}

impl<'f> Worker<'f> {
    /// Launches worker `id` over `pool` with its shard `inputs`.
    pub(crate) fn launch(
        id: usize,
        app: &'f dyn Fn() -> BoxedApp,
        config: FirstAidConfig,
        pool: PatchPool,
        inputs: VecDeque<Input>,
    ) -> Result<Worker<'f>, Fault> {
        let runtime = FirstAidRuntime::launch(app(), config.clone(), pool)?;
        // Launching from a warm pool (earlier run, journaled dir) counts
        // as immunized from the start.
        let immunized_at_ns =
            (!runtime.pool().is_empty(runtime.program())).then(|| runtime.wall_ns());
        Ok(Worker {
            app,
            config,
            runtime,
            inputs,
            sampler: ThroughputSampler::new(WINDOW_NS),
            report: WorkerReport {
                worker: id,
                immunized_at_ns,
                ..WorkerReport::default()
            },
            wall_base: 0,
            bytes_base: 0,
            consecutive_failures: 0,
            // Seeded jitter decorrelates crash-looping siblings, so they
            // do not resume in lockstep.
            crash_backoff: Backoff::seeded(
                BACKOFF_BASE_NS,
                BACKOFF_MAX_NS,
                0xf1ee_7bac_0ff5_eed5 ^ id as u64,
            ),
        })
    }

    /// The worker's virtual clock, monotone across relaunches.
    pub(crate) fn clock(&self) -> u64 {
        self.wall_base + self.runtime.wall_ns()
    }

    /// The program this worker runs (its patch-pool key).
    pub(crate) fn program(&self) -> &str {
        self.runtime.program()
    }

    fn holds_patches(&mut self) -> bool {
        self.runtime.with_ext(|ext| !ext.patches().is_empty())
    }

    /// Feeds the next input of the shard, first picking up pool changes
    /// if `refresh` says they are visible at this worker's clock. Fails
    /// only if a drop-and-restart relaunch fails.
    pub(crate) fn step(&mut self, refresh: bool) -> Result<(), Fault> {
        let Some(input) = self.inputs.pop_front() else {
            return Ok(());
        };
        if refresh
            && self.runtime.refresh_patches()
            && self.report.immunized_at_ns.is_none()
            && self.holds_patches()
        {
            self.report.immunized_at_ns = Some(self.clock());
        }
        // Only a trigger fed under installed patches can have been
        // neutralized by one: Apache's dangling read fails hundreds of
        // inputs after its trigger, so "did not fail here" is not a hit.
        let guarded = input.buggy && self.holds_patches();
        let outcome = self.runtime.feed(input);

        if outcome.served {
            self.report.served += 1;
        }
        if outcome.failed {
            self.report.failures += 1;
            self.consecutive_failures += 1;
            if self.consecutive_failures > 1 {
                // Crash-looping: back off exponentially before taking more
                // traffic, so a hot bug cannot monopolize the worker.
                let pause = self.crash_backoff.next_delay_ns();
                self.wall_base += pause;
                self.report.backoff_ns += pause;
            }
        } else {
            self.consecutive_failures = 0;
            self.crash_backoff.reset();
            if guarded {
                self.report.patch_hits += 1;
                // A neutralized trigger is exactly the evidence a canary
                // re-admission is waiting for: if this worker is flying
                // a canary for a quarantined site, promote it fleet-wide.
                self.runtime.pool().confirm_canary(self.runtime.program());
            }
        }
        if self.report.immunized_at_ns.is_none() && self.runtime.health().patched > 0 {
            self.report.immunized_at_ns = Some(self.clock());
        }

        if self.runtime.health().recoveries >= RECOVERY_BUDGET || self.runtime.needs_restart() {
            // Degraded fallback (ladder rung 4, drop-and-restart): either
            // this process has spent its recovery budget, or its drop
            // streak shows that even the generic rung is not holding.
            // Throw the process away and relaunch it wholesale (the
            // restart baseline as last resort). Patches it contributed
            // stay in the pool and are re-installed at launch; revoked
            // sites stay tombstoned.
            self.fold();
            self.wall_base += self.runtime.wall_ns() + RESTART_COST_NS;
            self.bytes_base += self.runtime.process().bytes_delivered;
            let pool = self.runtime.pool().clone();
            self.runtime = FirstAidRuntime::launch((self.app)(), self.config.clone(), pool)?;
            self.report.restarts += 1;
            self.report.degradation.restarts += 1;
            self.consecutive_failures = 0;
            self.crash_backoff.reset();
        }

        self.sampler.record(
            self.clock(),
            self.bytes_base + self.runtime.process().bytes_delivered,
        );
        Ok(())
    }

    /// Adds the counters of the current process to the report, before it
    /// is replaced or when the stream ends.
    fn fold(&mut self) {
        let h = self.runtime.health();
        let report = &mut self.report;
        report.recoveries += h.recoveries;
        report.patched += h.patched;
        report.dropped += h.dropped;
        report.rollbacks += self
            .runtime
            .recoveries
            .iter()
            .filter_map(|r| r.diagnosis.as_ref())
            .map(|d| d.rollbacks)
            .sum::<usize>();
        // Pool journal health is fleet-wide (the pool is shared), so the
        // supervisor reports it instead of summing it per worker.
        let mut d = self.runtime.degradation();
        d.pool_io_errors = 0;
        d.pool_degraded = false;
        report.degradation.merge(&d);
        report.sentry.merge(&self.runtime.sentry_metrics());
    }

    /// Ends the worker: its report, with the live process folded in.
    pub(crate) fn finish(mut self) -> WorkerReport {
        self.fold();
        self.report.wall_ns = self.clock();
        self.report.bytes = self.bytes_base + self.runtime.process().bytes_delivered;
        self.report.series = self.sampler.series();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fa_allocext::{BugType, Patch};
    use fa_proc::{App, CallSite, InputBuilder, ProcessCtx, Response, SymbolTable};
    use first_aid_core::QuarantinePolicy;

    use super::*;

    const PROGRAM: &str = "hooked";
    const SITE: CallSite = CallSite([1, 0, 0]);

    fn patch() -> Patch {
        Patch::new(BugType::BufferOverflow, SITE, &SymbolTable::new())
    }

    /// Serves every input; input op 1 first runs the test's pool
    /// mutation, so it lands after that input's refresh and before the
    /// next input's.
    #[derive(Clone)]
    struct Hooked(Arc<dyn Fn() + Send + Sync>);

    impl App for Hooked {
        fn name(&self) -> &'static str {
            PROGRAM
        }
        fn handle(&mut self, _ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
            if input.op == 1 {
                (self.0)();
            }
            Ok(Response::bytes(0))
        }
        fn clone_app(&self) -> BoxedApp {
            Box::new(self.clone())
        }
    }

    /// Runs worker 0 of `pool` over one mutating input and three benign
    /// ones, refreshing before each as a lone worker does.
    fn serve(
        pool: &PatchPool,
        mutate: impl Fn(&PatchPool) + Send + Sync + 'static,
    ) -> WorkerReport {
        let hook: Arc<dyn Fn() + Send + Sync> = {
            let pool = pool.clone();
            Arc::new(move || mutate(&pool))
        };
        let app = move || Box::new(Hooked(Arc::clone(&hook))) as BoxedApp;
        let inputs = [1, 0, 0, 0].map(|op| InputBuilder::op(op).build());
        let mut worker = Worker::launch(
            0,
            &app,
            FirstAidConfig::default(),
            pool.for_worker(0),
            inputs.into(),
        )
        .unwrap();
        while !worker.inputs.is_empty() {
            worker.step(true).unwrap();
        }
        let report = worker.finish();
        assert_eq!(report.served, 4);
        report
    }

    #[test]
    fn an_epoch_move_that_installs_no_patch_is_not_immunity() {
        // A sibling's canary moves the shared epoch, but worker 0 still
        // holds nothing.
        let quarantined = PatchPool::in_memory().with_quarantine(QuarantinePolicy {
            quarantine_after: 1,
            ..QuarantinePolicy::default()
        });
        quarantined.add(PROGRAM, [patch()]);
        assert!(quarantined.revoke(PROGRAM, SITE));
        let report = serve(&quarantined, |pool| {
            let worker1 = pool.for_worker(1);
            while !pool.has_canary(PROGRAM, SITE) {
                worker1.add(PROGRAM, [patch()]);
            }
        });
        assert_eq!(report.immunized_at_ns, None, "a sibling's canary");

        // A publish and its revocation land between two inputs: the
        // epoch moved twice and the set is empty again.
        let report = serve(&PatchPool::in_memory(), |pool| {
            pool.add(PROGRAM, [patch()]);
            pool.revoke(PROGRAM, SITE);
        });
        assert_eq!(report.immunized_at_ns, None, "a revoked publish");

        // A publish that stays is picked up by the next input's refresh.
        let report = serve(&PatchPool::in_memory(), |pool| {
            pool.add(PROGRAM, [patch()]);
        });
        assert!(report.immunized_at_ns.is_some(), "a kept publish");
    }
}
