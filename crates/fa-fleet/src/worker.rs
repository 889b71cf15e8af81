//! The per-worker loop: one supervised process draining its job queue.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use fa_exec::Backoff;
use fa_proc::Input;
use first_aid_core::{EventPoll, FirstAidConfig, FirstAidRuntime, PatchPool, ThroughputSampler};

use first_aid_core::{DegradationMetrics, SentryMetrics};

use crate::metrics::WorkerReport;
use crate::supervisor::BackoffConfig;

/// Everything a worker thread needs, moved into it at spawn.
pub(crate) struct WorkerParams {
    pub id: usize,
    pub factory: crate::supervisor::AppFactory,
    pub runtime: FirstAidConfig,
    pub pool: PatchPool,
    pub window_ns: u64,
    pub recovery_budget: usize,
    pub restart_cost_ns: u64,
    pub backoff: BackoffConfig,
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
/// Patch propagation is event-driven: the worker subscribes to the
/// pool's event log before launching (so no mutation can slip between
/// the launch-time install and the first poll) and, per input, does one
/// quiet-path atomic load. Only when an event names *this worker's
/// program* (or the subscriber lagged the bounded ring) does it re-read
/// the published patch set — a sibling program's patch traffic no
/// longer costs this worker anything. Virtual time is kept monotone
/// across relaunches via `wall_base`; crash-loop backoff and restart
/// cost are charged to it as idle time.
pub(crate) fn run(
    params: WorkerParams,
    jobs: Receiver<Input>,
    backlog: Arc<AtomicUsize>,
) -> WorkerReport {
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
    // Subscribe before the launch-time patch install: events published
    // after this point are seen by the cursor, events published before
    // it are already reflected in the state `launch` reads. Either way
    // nothing is missed; at worst an event raced between subscribe and
    // launch costs one redundant (cheap, lock-free) refresh.
    let mut events = params.pool.events().subscribe();
    let mut runtime = launch();
    let program = runtime.program().to_owned();
    let mut sampler = ThroughputSampler::new(params.window_ns);
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
        params.backoff.base_ns,
        params.backoff.max_ns,
        0xf1ee_7bac_0ff5_eed5 ^ params.id as u64,
    );

    // Launching from a warm pool (earlier run, journaled dir) counts as
    // immunized from the start.
    if !runtime.pool().is_empty(runtime.program()) {
        report.immunized_at_ns = Some(runtime.wall_ns());
    }

    while let Ok(input) = jobs.recv() {
        // Event-driven refresh: Quiet is one atomic load and no lock;
        // only events for this worker's program (or a lagged ring,
        // where dropped events force the conservative full refresh)
        // reach `refresh_patches`.
        let moved = match params.pool.events().poll(&mut events) {
            EventPoll::Quiet => false,
            EventPoll::Lagged => true,
            EventPoll::Events(batch) => batch.iter().any(|e| e.program == program),
        };
        if moved && runtime.refresh_patches() && report.immunized_at_ns.is_none() {
            report.immunized_at_ns = Some(wall_base + runtime.wall_ns());
        }
        let buggy = input.buggy;
        let outcome = runtime.feed(input);
        // Relaxed: the counter is an advisory load gauge for the
        // dispatcher's LeastBacklog heuristic. The input itself travels
        // through the mpsc channel, whose send/recv pair already
        // provides the happens-before edge; no memory is published via
        // this counter, so no Acquire/Release pairing is needed.
        backlog.fetch_sub(1, Ordering::Relaxed);

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

        let budget_spent =
            params.recovery_budget > 0 && runtime.health().recoveries >= params.recovery_budget;
        if budget_spent || runtime.needs_restart() {
            // Degraded fallback (ladder rung 4, drop-and-restart): either
            // this process has spent its recovery budget, or its drop
            // streak shows that even the generic rung is not holding.
            // Throw the process away and relaunch it wholesale (the
            // restart baseline as last resort). Patches it contributed
            // stay in the pool and are re-installed at launch; revoked
            // sites stay tombstoned.
            fold(&mut runtime, &mut folded);
            wall_base += runtime.wall_ns() + params.restart_cost_ns;
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
