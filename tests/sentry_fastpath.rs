//! End-to-end tests of the sentry tier: sampled guarded slots trap the
//! paper's bugs at the faulting access, the fast diagnosis path seeded
//! with the trapped call-site reaches the *same* diagnosis as the full
//! rollback ladder, and pipeline self-faults degrade the fast path to
//! the full ladder instead of wedging.

use fa_apps::{all_specs, spec_by_key, WorkloadSpec};
use fa_proc::CallSite;
use first_aid::core::{FaultPlan, FaultStage, Injection};
use first_aid::prelude::*;

const INPUTS: usize = 900;
const TRIGGER: usize = 400;

/// Sample every allocation and never cool a site, so the bug-triggering
/// object is deterministically redirected into a guarded slot.
fn always_on_sentry() -> SentryConfig {
    SentryConfig {
        rate: 1,
        max_slots: 512,
        hot_threshold: u64::MAX,
        ..SentryConfig::default()
    }
}

/// Distilled recovery outcome for cross-path comparison: the diagnosed
/// bug type, the sorted triggering call-sites, and the sorted patches.
struct Outcome {
    bug: BugType,
    sites: Vec<CallSite>,
    patches: Vec<Patch>,
    summary: first_aid::core::runtime::RunSummary,
    detection: Option<String>,
}

fn run_app(key: &str, config: FirstAidConfig) -> (FirstAidRuntime, Outcome) {
    let spec = spec_by_key(key).unwrap_or_else(|| panic!("{key} registered"));
    let pool = PatchPool::in_memory();
    let mut fa = FirstAidRuntime::launch((spec.build)(), config, pool).unwrap();
    let w = (spec.workload)(&WorkloadSpec::new(INPUTS, &[TRIGGER]));
    let summary = fa.run(w, None);
    let rec = fa
        .recoveries
        .first()
        .unwrap_or_else(|| panic!("{key}: a recovery must have run"));
    let diag = rec
        .diagnosis
        .as_ref()
        .unwrap_or_else(|| panic!("{key}: diagnosis must complete"));
    assert_eq!(diag.bugs.len(), 1, "{key}: exactly one bug expected");
    let mut sites = diag.bugs[0].sites.clone();
    sites.sort();
    let mut patches = rec.patches.clone();
    patches.sort_by_key(|p| (p.site, p.bug as u8));
    let outcome = Outcome {
        bug: diag.bugs[0].bug,
        sites,
        patches,
        detection: rec.report.as_ref().map(|r| r.detection.clone()),
        summary,
    };
    (fa, outcome)
}

/// Acceptance: for every paper app, a sentry-caught bug yields the same
/// diagnosis (bug type + call-sites + patches) as the full rollback
/// ladder reaches without sentries.
#[test]
fn fast_path_matches_full_ladder_on_every_app() {
    for spec in all_specs() {
        let (_, ladder) = run_app(spec.key, FirstAidConfig::default());
        let sentry_cfg = FirstAidConfig {
            sentry: Some(always_on_sentry()),
            ..FirstAidConfig::default()
        };
        let (_, fast) = run_app(spec.key, sentry_cfg);

        assert_eq!(ladder.bug, spec.expect_bug, "{}: ladder bug type", spec.key);
        assert_eq!(fast.bug, ladder.bug, "{}: fast-path bug type", spec.key);
        assert_eq!(
            fast.sites, ladder.sites,
            "{}: fast path must identify the same call-sites",
            spec.key
        );
        assert_eq!(
            fast.patches, ladder.patches,
            "{}: fast path must generate the same patches",
            spec.key
        );
        assert_eq!(
            fast.summary.dropped, 0,
            "{}: nothing dropped on the fast path",
            spec.key
        );

        let m = &fast.summary.sentry;
        assert!(m.samples > 0, "{}: allocations were sampled", spec.key);
        assert!(
            m.traps >= 1,
            "{}: the sentry must trap the bug (metrics: {m:?})",
            spec.key
        );
        assert_eq!(
            m.fast_path_diagnoses, 1,
            "{}: the trap must feed the fast path (metrics: {m:?})",
            spec.key
        );
        if let Some(d) = &fast.detection {
            assert!(
                d == "sentry-trap" || d == "canary-on-free",
                "{}: report must record the sentry detection tier, got {d}",
                spec.key
            );
        }
        assert_eq!(
            ladder.summary.sentry.samples, 0,
            "{}: the baseline run must be sentry-free",
            spec.key
        );
    }
}

/// Under an injected diagnosis-stage fault, the fast path steps aside
/// and the full ladder finishes the job: no wedge, same patches.
#[test]
fn fast_path_degrades_to_full_ladder_under_faults() {
    let (_, ladder) = run_app("apache", FirstAidConfig::default());
    let config = FirstAidConfig {
        sentry: Some(always_on_sentry()),
        faults: FaultPlan::builder(7)
            .inject(FaultStage::DiagnosisTimeout, Injection::Nth(vec![0]))
            .build(),
        ..FirstAidConfig::default()
    };
    let (fa, fast) = run_app("apache", config);

    assert_eq!(
        fa.recoveries[0].kind,
        first_aid::core::runtime::RecoveryKind::Patched,
        "recovery still concludes with patches"
    );
    assert_eq!(fast.sites, ladder.sites, "degraded path, same call-sites");
    assert_eq!(fast.patches, ladder.patches, "degraded path, same patches");
    let m = &fast.summary.sentry;
    assert_eq!(
        m.fast_path_diagnoses, 0,
        "the wedged fast path must not claim the diagnosis"
    );
    assert!(
        m.full_ladder_diagnoses >= 1,
        "the full ladder must have taken over (metrics: {m:?})"
    );
}

/// The fleet merges sentry metrics across workers, and a site immunized
/// anywhere stops being sampled everywhere: post-patch triggers are
/// neutralized without any further trap.
#[test]
fn fleet_merges_sentry_metrics_and_suppresses_patched_sites() {
    use first_aid::apps::fleet::sharded_stream;

    let spec = spec_by_key("squid").unwrap();
    let fleet = first_aid::fleet::Fleet::new(
        spec.build,
        first_aid::fleet::FleetConfig {
            workers: 3,
            runtime: FirstAidConfig {
                sentry: Some(always_on_sentry()),
                ..FirstAidConfig::default()
            },
            ..first_aid::fleet::FleetConfig::default()
        },
    );

    // Phase 1: one worker's shard carries the trigger; its sentry traps
    // the bug and the diagnosis lands in the shared pool.
    let r1 = fleet
        .run(sharded_stream(&spec, &[vec![30], vec![], vec![]], 80, 21))
        .unwrap();
    assert_eq!(r1.failures, 1, "only the triggered worker fails");
    assert!(r1.sentry.samples > 0, "workers sampled allocations");
    assert!(r1.sentry.traps >= 1, "the trigger was trapped by a sentry");
    assert_eq!(r1.sentry.fast_path_diagnoses, 1, "trap fed the fast path");

    // Phase 2: every worker sees a trigger, but the pooled patch (synced
    // via the pool epoch) both neutralizes it and suppresses sampling of
    // the patched site fleet-wide — no new traps anywhere.
    let traps_before = r1.sentry.traps;
    let r2 = fleet
        .run(sharded_stream(
            &spec,
            &[vec![15], vec![15], vec![15]],
            50,
            22,
        ))
        .unwrap();
    assert_eq!(r2.failures, 0, "no worker fails post-patch");
    assert_eq!(
        r2.sentry.traps, 0,
        "patched sites are suppressed fleet-wide, so no further traps \
         (phase 1 had {traps_before})"
    );
    assert_eq!(r2.patch_hits, 3, "each worker's trigger was neutralized");
}
