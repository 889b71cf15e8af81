//! The per-worker loop: one supervised process draining its job queue.

use std::sync::mpsc::Receiver;

use fa_faults::Backoff;
use fa_proc::Input;
use first_aid_core::{FirstAidConfig, FirstAidRuntime, PatchPool, ThroughputSampler};

use first_aid_core::{DegradationMetrics, SentryMetrics};

use crate::metrics::WorkerReport;

/// Throughput sampling window (250 ms, as in Fig. 4).
const WINDOW_NS: u64 = 250_000_000;

/// Recoveries a worker may perform before it is degraded to
/// drop-and-restart.
const RECOVERY_BUDGET: usize = 16;

/// Virtual downtime charged per drop-and-restart relaunch.
const RESTART_COST_NS: u64 = 1_500_000_000;

/// Crash-loop backoff: the first failure in a row is free (recovery
/// itself already costs virtual time); the `k`-th consecutive failure
/// pauses the worker for `BACKOFF_BASE_NS << (k - 2)`, capped at
/// `BACKOFF_MAX_NS`, charged as virtual idle time.
const BACKOFF_BASE_NS: u64 = 50_000_000;
const BACKOFF_MAX_NS: u64 = 2_000_000_000;

/// Everything a worker thread needs, moved into it at spawn.
pub(crate) struct WorkerParams {
    pub id: usize,
    pub factory: crate::supervisor::AppFactory,
    pub runtime: FirstAidConfig,
    pub pool: PatchPool,
}

/// Counters folded out of a runtime before it is replaced (drop-and-
/// restart) or when the stream ends.
#[derive(Default)]
struct Folded {
    recoveries: usize,
    patched: usize,
    dropped: usize,
    rollbacks: usize,
    degradation: DegradationMetrics,
    sentry: SentryMetrics,
}

fn fold(runtime: &mut FirstAidRuntime, into: &mut Folded) {
    let h = runtime.health();
    into.recoveries += h.recoveries;
    into.patched += h.patched;
    into.dropped += h.dropped;
    into.rollbacks += runtime
        .recoveries
        .iter()
        .filter_map(|r| r.diagnosis.as_ref())
        .map(|d| d.rollbacks)
        .sum::<usize>();
    // Pool journal health is fleet-wide (the pool is shared), so it is
    // overlaid by the supervisor instead of summed per worker.
    let mut d = runtime.degradation();
    d.pool_io_errors = 0;
    d.pool_degraded = false;
    into.degradation.merge(&d);
    into.sentry.merge(&runtime.sentry_metrics());
}

/// Drains `jobs` through one supervised process until the channel closes.
///
/// Patch propagation runs on the pool's per-program epoch: before each
/// input the worker calls `refresh_patches`, one atomic load of its
/// program's epoch signal, and re-installs the published patch set only
/// when that epoch moved (a sibling program's patch traffic costs
/// nothing). `launch` reads the set and its epoch in one locked read, so
/// no publish can slip between the install and the first refresh. An
/// epoch also moves when a sibling's canary is admitted or a revocation
/// empties the set, so a refresh counts toward immunity only if the
/// installed set then holds a patch. Virtual time is kept monotone across
/// relaunches via `wall_base`; crash-loop backoff and restart cost are
/// charged to it as idle time.
pub(crate) fn run(params: WorkerParams, jobs: Receiver<Input>) -> WorkerReport {
    // A program that cannot launch has nothing to serve: the panic ends
    // only this worker's thread, and `Fleet::run` drops it at join.
    #[allow(clippy::expect_used)]
    let launch = || {
        FirstAidRuntime::launch(
            (params.factory)(),
            params.runtime.clone(),
            params.pool.clone(),
        )
        .expect("fleet worker launch")
    };
    let mut runtime = launch();
    let mut sampler = ThroughputSampler::new(WINDOW_NS);
    let mut report = WorkerReport {
        worker: params.id,
        ..WorkerReport::default()
    };
    let mut folded = Folded::default();
    // Offsets carried across drop-and-restart relaunches.
    let mut wall_base = 0u64;
    let mut bytes_base = 0u64;
    let mut consecutive_failures = 0u32;
    // Shared seeded-jitter backoff helper: the schedule is the classic
    // exponential (base << k, capped), decorrelated across workers by
    // the per-worker seed so crash-looping siblings do not resume in
    // lockstep.
    let mut crash_backoff = Backoff::seeded(
        BACKOFF_BASE_NS,
        BACKOFF_MAX_NS,
        0xf1ee_7bac_0ff5_eed5 ^ params.id as u64,
    );

    // Launching from a warm pool (earlier run, journaled dir) counts as
    // immunized from the start.
    if !runtime.pool().is_empty(runtime.program()) {
        report.immunized_at_ns = Some(runtime.wall_ns());
    }

    while let Ok(input) = jobs.recv() {
        if runtime.refresh_patches()
            && report.immunized_at_ns.is_none()
            && runtime.with_ext(|ext| !ext.patches().is_empty())
        {
            report.immunized_at_ns = Some(wall_base + runtime.wall_ns());
        }
        let buggy = input.buggy;
        let outcome = runtime.feed(input);

        if outcome.served {
            report.served += 1;
        }
        if outcome.failed {
            report.failures += 1;
            consecutive_failures += 1;
            if consecutive_failures > 1 {
                // Crash-looping: back off exponentially before taking more
                // traffic, so a hot bug cannot monopolize the worker. The
                // first failure in a row is free (recovery itself already
                // cost virtual time).
                let pause = crash_backoff.next_delay_ns();
                wall_base += pause;
                report.backoff_ns += pause;
            }
        } else {
            consecutive_failures = 0;
            crash_backoff.reset();
            if buggy {
                // A trigger that did not fail was neutralized by a patch.
                report.patch_hits += 1;
                // A neutralized trigger is exactly the evidence a canary
                // re-admission is waiting for: if this worker is flying
                // a canary for a quarantined site, promote it fleet-wide.
                runtime.pool().confirm_canary(runtime.program());
            }
        }
        if report.immunized_at_ns.is_none() && runtime.health().patched > 0 {
            report.immunized_at_ns = Some(wall_base + runtime.wall_ns());
        }

        if runtime.health().recoveries >= RECOVERY_BUDGET || runtime.needs_restart() {
            // Degraded fallback (ladder rung 4, drop-and-restart): either
            // this process has spent its recovery budget, or its drop
            // streak shows that even the generic rung is not holding.
            // Throw the process away and relaunch it wholesale (the
            // restart baseline as last resort). Patches it contributed
            // stay in the pool and are re-installed at launch; revoked
            // sites stay tombstoned.
            fold(&mut runtime, &mut folded);
            wall_base += runtime.wall_ns() + RESTART_COST_NS;
            bytes_base += runtime.process().bytes_delivered;
            runtime = launch();
            report.restarts += 1;
            folded.degradation.restarts += 1;
            consecutive_failures = 0;
            crash_backoff.reset();
        }

        sampler.record(
            wall_base + runtime.wall_ns(),
            bytes_base + runtime.process().bytes_delivered,
        );
    }

    fold(&mut runtime, &mut folded);
    report.recoveries = folded.recoveries;
    report.patched = folded.patched;
    report.dropped = folded.dropped;
    report.rollbacks = folded.rollbacks;
    report.degradation = folded.degradation;
    report.sentry = folded.sentry;
    report.wall_ns = wall_base + runtime.wall_ns();
    report.bytes = bytes_base + runtime.process().bytes_delivered;
    report.series = sampler.series();
    report
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::sync::Arc;

    use fa_allocext::{BugType, Patch};
    use fa_proc::{
        App, BoxedApp, CallSite, Fault, InputBuilder, ProcessCtx, Response, SymbolTable,
    };
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
    /// ones, on this thread.
    fn serve(
        pool: &PatchPool,
        mutate: impl Fn(&PatchPool) + Send + Sync + 'static,
    ) -> WorkerReport {
        let hook: Arc<dyn Fn() + Send + Sync> = {
            let pool = pool.clone();
            Arc::new(move || mutate(&pool))
        };
        let (jobs, rx) = mpsc::channel();
        for op in [1, 0, 0, 0] {
            jobs.send(InputBuilder::op(op).build()).unwrap();
        }
        drop(jobs);
        let params = WorkerParams {
            id: 0,
            factory: Arc::new(move || Box::new(Hooked(Arc::clone(&hook))) as BoxedApp),
            runtime: FirstAidConfig::default(),
            pool: pool.for_worker(0),
        };
        let report = run(params, rx);
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
