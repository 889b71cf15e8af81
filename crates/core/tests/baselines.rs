//! Direct tests of the comparison systems (Rx and restart) and of the
//! optional heap-integrity error monitor.

use fa_checkpoint::AdaptiveConfig;
use fa_mem::Addr;
use fa_proc::{App, BoxedApp, Fault, Input, InputBuilder, ProcessCtx, Response};
use first_aid_core::{
    FirstAidConfig, FirstAidRuntime, PatchPool, RestartRuntime, RxRuntime, RESTART_COST_NS,
};

fn adaptive() -> AdaptiveConfig {
    AdaptiveConfig {
        base_interval_ns: 2_000_000,
        ..AdaptiveConfig::default()
    }
}

/// Deterministic overflow on op == 1; also keeps a per-process request
/// counter so restarts visibly lose state.
#[derive(Clone, Default)]
struct Flaky {
    served_since_boot: u64,
}

impl App for Flaky {
    fn name(&self) -> &'static str {
        "flaky-baseline"
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
        ctx.call("serve", |ctx| {
            let buf = ctx.malloc(64)?;
            let n = if input.op == 1 { 96 } else { 64 };
            ctx.fill(buf, n, 7)?;
            ctx.free(buf)?;
            self.served_since_boot += 1;
            Ok(Response::bytes(64))
        })
    }

    fn clone_app(&self) -> BoxedApp {
        Box::new(self.clone())
    }
}

fn workload(n: usize, period: usize) -> Vec<Input> {
    (0..n)
        .map(|i| {
            InputBuilder::op(u32::from(i > 0 && i % period == 0))
                .gap_us(200)
                .build()
        })
        .collect()
}

#[test]
fn rx_survives_every_failure_but_prevents_none() {
    let mut rx = RxRuntime::launch(Box::new(Flaky::default()), adaptive(), 1 << 26).unwrap();
    let summary = rx.run(workload(500, 100), None);
    // 4 triggers; at least 3 fail (heap-layout drift after a recovery can
    // accidentally mask one trigger) and none is prevented for good.
    assert!(summary.failures >= 3, "no prevention: {summary:?}");
    assert_eq!(
        summary.recoveries, summary.failures,
        "Rx must survive each failure"
    );
    assert_eq!(summary.dropped, 0);
    assert_eq!(rx.recoveries.len(), summary.failures);
    for rec in &rx.recoveries {
        assert!(rec.rollbacks >= 1);
        assert!(
            rec.changed_objects > 10,
            "Rx changes every object in the region: {rec:?}"
        );
    }
}

#[test]
fn rx_recovery_is_faster_than_first_aid_diagnosis() {
    // Rx intentionally skips in-depth diagnosis, so a single recovery is
    // cheaper than First-Aid's (paper §4.3 / Fig. 4 discussion).
    let mut rx = RxRuntime::launch(Box::new(Flaky::default()), adaptive(), 1 << 26).unwrap();
    let _ = rx.run(workload(200, 100), None);
    let rx_ns = rx.recoveries[0].recovery_ns;

    let config = FirstAidConfig {
        adaptive: adaptive(),
        ..FirstAidConfig::default()
    };
    let pool = PatchPool::in_memory();
    let mut fa = FirstAidRuntime::launch(Box::new(Flaky::default()), config, pool).unwrap();
    let _ = fa.run(workload(200, 100), None);
    let fa_ns = fa.recoveries[0].recovery_ns;
    assert!(
        rx_ns < fa_ns,
        "Rx ({rx_ns} ns) must recover faster than First-Aid ({fa_ns} ns)"
    );
}

#[test]
fn restart_pays_downtime_and_loses_state() {
    let mut rs = RestartRuntime::launch(Box::new(Flaky::default()), 1 << 26).unwrap();
    let w = workload(300, 100);
    let wall_estimate_without_failures: u64 = w.iter().map(|i| i.gap_ns).sum();
    let summary = rs.run(w, None);
    assert_eq!(summary.failures, 2, "two triggers in 300 inputs");
    assert_eq!(rs.restarts, 2);
    assert_eq!(summary.dropped, 2, "poisoned requests are lost");
    assert!(
        summary.wall_ns > wall_estimate_without_failures + 2 * RESTART_COST_NS,
        "each restart must cost its full downtime"
    );
}

// ---------------------------------------------------------------------
// Integrity monitor
// ---------------------------------------------------------------------

/// An overflow whose corruption would surface only much later: the
/// config block overflows into the adjacent *license* block's boundary
/// tag, and the license block is only freed at op == 2 — nothing else
/// ever touches its header.
#[derive(Clone, Default)]
struct SilentCorruptor {
    config_block: Option<Addr>,
    license_block: Option<Addr>,
}

impl App for SilentCorruptor {
    fn name(&self) -> &'static str {
        "silent-corruptor"
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
        ctx.call("serve", |ctx| {
            match input.op {
                1 => {
                    // Reload config: a fresh config block with the license
                    // block right after it. The config parser overflows
                    // into the license block's boundary tag — no fault
                    // now, and nothing reads that header until op 2.
                    let c = ctx.call("config_alloc", |ctx| ctx.malloc(64))?;
                    let l = ctx.call("license_alloc", |ctx| ctx.malloc(64))?;
                    ctx.fill(l, 64, 2)?;
                    ctx.fill(c, 88, 1)?; // BUG: writes 24 bytes past
                    self.config_block = Some(c);
                    self.license_block = Some(l);
                }
                2 => {
                    // Much later: freeing the license block trips the
                    // corrupted tag.
                    if let Some(l) = self.license_block.take() {
                        ctx.call("license_free", |ctx| ctx.free(l))?;
                    }
                }
                _ => {
                    let p = ctx.malloc(32)?;
                    ctx.fill(p, 32, 9)?;
                    ctx.free(p)?;
                }
            }
            Ok(Response::bytes(32))
        })
    }

    fn clone_app(&self) -> BoxedApp {
        Box::new(self.clone())
    }
}

fn corruptor_workload() -> Vec<Input> {
    (0..400)
        .map(|i| {
            let op = match i {
                100 => 1, // corruption
                300 => 2, // natural detection point, 200 inputs later
                _ => 0,
            };
            InputBuilder::op(op).gap_us(200).build()
        })
        .collect()
}

#[test]
fn integrity_monitor_catches_corruption_early() {
    let base = FirstAidConfig {
        adaptive: adaptive(),
        ..FirstAidConfig::default()
    };

    // Without the monitor the failure surfaces only at input 300 — 200
    // inputs after the bug-triggering write, beyond phase 1's checkpoint
    // horizon. That is exactly the "latent bug" case the paper admits it
    // cannot handle (§6): diagnosis gives up and the input is dropped.
    let pool = PatchPool::in_memory();
    let mut without = FirstAidRuntime::launch(
        Box::new(SilentCorruptor::default()),
        base.clone(),
        pool.clone(),
    )
    .unwrap();
    let _ = without.run(corruptor_workload(), None);
    let first = without.recoveries.first().expect("a failure occurred");
    // A latent corruption 200 inputs old is non-patchable *precisely*:
    // diagnosis gives up and the degradation ladder falls back to the
    // program-wide generic rung (or drops the input outright). Either
    // way, no precise patch is ever learned.
    assert_ne!(
        first.kind,
        first_aid_core::runtime::RecoveryKind::Patched,
        "no precise diagnosis for a latent corruption"
    );
    assert!(
        first.patches.iter().all(fa_allocext::Patch::is_generic),
        "only generic best-effort patches: {:?}",
        first.patches
    );
    assert!(
        pool.get("silent-corruptor")
            .patches()
            .iter()
            .all(fa_allocext::Patch::is_generic),
        "no precise patch is pooled"
    );

    // With the monitor sweeping every 20 inputs: caught within 20 inputs
    // of the bug-triggering write.
    let config = FirstAidConfig {
        integrity_check_every: 20,
        ..base
    };
    let pool = PatchPool::in_memory();
    let mut with =
        FirstAidRuntime::launch(Box::new(SilentCorruptor::default()), config, pool).unwrap();
    let _ = with.run(corruptor_workload(), None);
    let early_idx = with
        .recoveries
        .first()
        .and_then(|r| r.diagnosis.as_ref())
        .map(|d| d.log[0].clone())
        .unwrap_or_default();
    let idx: usize = early_idx
        .split("input #")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("diagnosis log names the input");
    assert!(
        (100..=120).contains(&idx),
        "the monitor shortens error-propagation distance: caught at #{idx}"
    );
    // And the diagnosis still identifies the overflow and patches it.
    let rec = &with.recoveries[0];
    assert!(rec
        .patches
        .iter()
        .any(|p| p.bug == fa_allocext::BugType::BufferOverflow));
}
