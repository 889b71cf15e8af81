//! Crash-safe supervision acceptance tests.
//!
//! The tentpole guarantees, end to end:
//!
//! * a supervisor killed at any kill point of its journal —
//!   including mid-append, leaving a torn final record — restarts,
//!   recovers the journal's valid prefix, and *re-converges* to the
//!   same patch-pool state (byte-identical `export_state`) and the
//!   same diagnosis output as an uninterrupted run, on all nine
//!   evaluated applications;
//! * any truncation of the journal recovers to a valid earlier epoch,
//!   never a corrupt state, and recovery is idempotent;
//! * injected hung trials never wedge diagnosis — the watchdog
//!   reaps them and the run conserves its inputs;
//! * a flapping (repeatedly revoked) patch is quarantined and
//!   re-admitted via a single-worker canary that must neutralize the
//!   bug before the patch re-propagates fleet-wide.

use fa_apps::fleet::sharded_stream;
use fa_apps::{all_specs, fault_scenario, spec_by_key, AppSpec, WorkloadSpec};
use first_aid::core::KillSchedule;
use first_aid::prelude::*;

const WORKLOAD: usize = 450;
const TRIGGER: usize = 150;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fa-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_once(spec: &AppSpec, pool: PatchPool) -> (FirstAidRuntime, usize) {
    let mut fa = FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool)
        .expect("runtime launches");
    let w = (spec.workload)(&WorkloadSpec::new(WORKLOAD, &[TRIGGER]));
    let summary = fa.run(w, None);
    (fa, summary.failures)
}

/// Canonical summary of every completed diagnosis: bug types and
/// patched call-site names, order-independent.
fn diagnosis_output(fa: &FirstAidRuntime) -> Vec<String> {
    fa.recoveries
        .iter()
        .filter_map(|r| {
            r.diagnosis.as_ref().map(|d| {
                let mut bugs: Vec<String> = d.bugs.iter().map(|b| format!("{:?}", b.bug)).collect();
                bugs.sort();
                let mut sites: Vec<&str> = r
                    .patches
                    .iter()
                    .flat_map(|p| p.site_names.iter().map(String::as_str))
                    .collect();
                sites.sort();
                format!("{bugs:?} @ {sites:?}")
            })
        })
        .collect()
}

/// The acceptance sweep: for every app, a supervisor killed at every
/// kill point of its journal — cleanly before each append and torn
/// mid-way through each record — restarts, recovers, re-runs, and lands
/// on the byte-identical pool state and identical diagnosis output of
/// the uninterrupted run.
#[test]
fn killed_supervisor_reconverges_on_every_app() {
    for spec in all_specs() {
        // Uninterrupted reference run on a journaled pool.
        let ref_dir = scratch(&format!("ref-{}", spec.key));
        let ref_pool = PatchPool::journaled(&ref_dir).unwrap();
        let (ref_fa, ref_failures) = run_once(&spec, ref_pool.clone());
        let program = ref_fa.program().to_string();
        let ref_export = ref_pool.export_state(&program);
        let ref_diag = diagnosis_output(&ref_fa);
        assert!(
            !ref_diag.is_empty(),
            "{}: reference run diagnoses",
            spec.key
        );
        // The journal holds the pool and nothing else: with no
        // revocation or canary traffic, one record per patch epoch.
        let appends = ref_pool.journal().unwrap().appends();
        assert_eq!(appends, ref_pool.epoch(&program), "{}", spec.key);

        for (i, kp) in KillSchedule::exhaustive(appends).into_iter().enumerate() {
            let dir = scratch(&format!("kill-{}-{i}", spec.key));
            // Doomed run: the journal dies at the kill point (the
            // supervisor crash); everything in memory is then lost.
            let crashed_diag = {
                let pool = PatchPool::journaled(&dir).unwrap();
                pool.journal().unwrap().arm_kill(kp);
                let (fa, _) = run_once(&spec, pool.clone());
                assert!(
                    pool.journal().unwrap().is_dead(),
                    "{}: kill point {kp:?} fires within the run",
                    spec.key
                );
                diagnosis_output(&fa)
            };

            // Restart: reopen the journal (repairing any torn tail),
            // recover, and re-run the same workload.
            let pool = PatchPool::journaled(&dir).unwrap();
            let (fa, failures) = run_once(&spec, pool.clone());
            let rerun_diag = diagnosis_output(&fa);
            assert_eq!(
                pool.export_state(&program),
                ref_export,
                "{}: kill {kp:?} re-converges to the reference pool state",
                spec.key
            );
            assert!(
                failures <= ref_failures,
                "{}: recovery never costs extra failures",
                spec.key
            );
            // Whichever lifecycle phase diagnosed (pre-crash, post-
            // restart, or both), the output is the reference output.
            for diag in [&crashed_diag, &rerun_diag] {
                if !diag.is_empty() {
                    assert_eq!(diag, &ref_diag, "{}: kill {kp:?}", spec.key);
                }
            }
            assert!(
                !crashed_diag.is_empty() || !rerun_diag.is_empty(),
                "{}: some phase diagnosed the bug",
                spec.key
            );

            // Recovery is idempotent: replaying the journal onto the
            // live, already-recovered pool applies nothing and leaves the
            // state untouched.
            assert_eq!(pool.recover_from_journal(), 0, "{}", spec.key);
            assert_eq!(pool.export_state(&program), ref_export, "{}", spec.key);

            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&ref_dir);
    }
}

/// Prefix-closure at the pool level: every record-boundary truncation
/// of a real run's journal (plus a garbage tail on top of each) recovers
/// to a valid state at an epoch no later than the final one, epochs are
/// monotone in the prefix length, and a second recovery applies nothing.
#[test]
fn journal_truncation_recovers_a_valid_earlier_epoch_never_corrupt() {
    let spec = spec_by_key("squid").unwrap();
    let dir = scratch("truncate");
    let pool = PatchPool::journaled(&dir).unwrap();
    let (fa, _) = run_once(&spec, pool.clone());
    let program = fa.program().to_string();
    // Every other pool transition after the run's publish: the site
    // flaps three times (revoke, denial window, re-publish through
    // worker 0), is quarantined, and re-enters as worker 0's canary,
    // which is then promoted.
    pool.enable_quarantine(QuarantinePolicy::default());
    let patches: Vec<Patch> = pool.get(&program).patches().to_vec();
    let site = patches[0].site;
    let worker0 = pool.for_worker(0);
    for flap in 1..=3 {
        assert!(pool.revoke(&program, site), "flap {flap} revokes");
        while pool.is_revoked(&program, site) && !pool.has_canary(&program, site) {
            worker0.add(&program, patches.clone());
        }
    }
    assert_eq!(worker0.confirm_canary(&program), 1);
    let final_epoch = pool.epoch(&program);
    assert!(final_epoch >= 1, "the run published at least one epoch");
    let journal_path = pool.journal().unwrap().path();
    let bytes = std::fs::read(&journal_path).unwrap();
    let records = first_aid::core::parse_prefix(&bytes).0.len();
    assert!(records > 1);

    let mut last_epoch = 0u64;
    for n in 0..=records {
        let img = first_aid::core::truncate_to_records(&bytes, n);
        for tail in [&b""[..], &b"fawal1 0123456789abcdef {\"seq\":"[..]] {
            let cut_dir = scratch(&format!("truncate-{n}-{}", tail.len()));
            std::fs::create_dir_all(&cut_dir).unwrap();
            let mut image = img.clone();
            image.extend_from_slice(tail);
            std::fs::write(cut_dir.join("pool.wal"), &image).unwrap();
            let recovered = PatchPool::journaled(&cut_dir).unwrap();
            let epoch = recovered.epoch(&program);
            assert!(
                epoch <= final_epoch,
                "prefix of {n} records is an earlier epoch ({epoch} <= {final_epoch})"
            );
            // The recovered state is well-formed (canonical export
            // serializes and parses) and recovery is idempotent.
            let export = recovered.export_state(&program);
            assert!(serde_json::from_str::<serde_json::Value>(&export).is_ok());
            assert_eq!(recovered.recover_from_journal(), 0);
            assert_eq!(recovered.export_state(&program), export);
            if tail.is_empty() {
                assert!(epoch >= last_epoch, "epochs are monotone in the prefix");
                last_epoch = epoch;
            }
            let _ = std::fs::remove_dir_all(&cut_dir);
        }
    }
    assert_eq!(
        last_epoch, final_epoch,
        "the full log recovers the final epoch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Canonical, order-insensitive digest of a patch set (for comparing
/// the published sets against the locked oracle).
fn digest(set: &PatchSet) -> Vec<String> {
    let mut rows: Vec<String> = set.patches().iter().map(|p| format!("{p:?}")).collect();
    rows.sort();
    rows
}

/// Journal/replay equivalence for the published patch sets: a pool
/// recovered from a (possibly torn) journal rebuilds its published
/// entries to exactly the state the locked oracle rebuilds from the
/// writer side — same epoch, same patches — both right after recovery
/// and after re-running the workload to convergence, where it must also
/// match the uninterrupted reference run's set.
#[test]
fn recovered_read_plane_matches_locked_oracle_and_reference() {
    let spec = spec_by_key("squid").unwrap();
    let ref_dir = scratch("plane-ref");
    let ref_pool = PatchPool::journaled(&ref_dir).unwrap();
    let (ref_fa, _) = run_once(&spec, ref_pool.clone());
    let program = ref_fa.program().to_string();
    let (ref_set, ref_epoch) = ref_pool.get_with_epoch(&program);
    let ref_digest = digest(&ref_set);
    assert!(ref_epoch >= 1, "reference run published");
    let appends = ref_pool.journal().unwrap().appends();

    for (i, kp) in KillSchedule::exhaustive(appends).into_iter().enumerate() {
        let dir = scratch(&format!("plane-kill-{i}"));
        {
            let pool = PatchPool::journaled(&dir).unwrap();
            pool.journal().unwrap().arm_kill(kp);
            let _ = run_once(&spec, pool.clone());
            assert!(pool.journal().unwrap().is_dead(), "kill {kp:?} fires");
        }

        // Restart: recovery replays the journal's valid prefix and must
        // republish every entry — before any new traffic, the published
        // view already equals the locked oracle.
        let pool = PatchPool::journaled(&dir).unwrap();
        let (fast, fast_epoch) = pool.get_with_epoch(&program);
        let (locked, locked_epoch) = pool.get_locked_with_epoch(&program);
        assert_eq!(fast_epoch, locked_epoch, "kill {kp:?}: post-recovery epoch");
        assert_eq!(
            digest(&fast),
            digest(&locked),
            "kill {kp:?}: post-recovery published set vs locked oracle"
        );

        // Re-run to convergence: the published set tracks every replayed
        // and newly-published epoch and lands on the reference snapshot.
        let _ = run_once(&spec, pool.clone());
        let (fast, fast_epoch) = pool.get_with_epoch(&program);
        let (locked, locked_epoch) = pool.get_locked_with_epoch(&program);
        assert_eq!(fast_epoch, locked_epoch, "kill {kp:?}: converged epoch");
        assert_eq!(digest(&fast), digest(&locked), "kill {kp:?}");
        assert_eq!(
            fast_epoch, ref_epoch,
            "kill {kp:?}: re-converges to the reference epoch"
        );
        assert_eq!(
            digest(&fast),
            ref_digest,
            "kill {kp:?}: re-converges to the reference snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Hung-trial injection never wedges diagnosis: the watchdog reaps wedged
/// trials (charging their deadline as virtual time), diagnosis still
/// converges or descends the ladder, and no input is lost untracked.
#[test]
fn hung_trials_never_wedge_a_diagnosis_wave() {
    for seed in [7u64, 23, 71] {
        let spec = spec_by_key("squid").unwrap();
        let config = FirstAidConfig {
            faults: fault_scenario("trial-hang", seed).unwrap(),
            ..FirstAidConfig::default()
        };
        let mut fa = FirstAidRuntime::launch((spec.build)(), config, PatchPool::in_memory())
            .expect("runtime launches");
        let w = (spec.workload)(&WorkloadSpec::new(400, &[100, 250]));
        let summary = fa.run(w, None);
        assert_eq!(
            summary.served + summary.dropped,
            400,
            "seed {seed}: every input is accounted for — nothing wedged"
        );
        assert!(
            summary.degradation.trial_hangs > 0,
            "seed {seed}: the 25% hang plan really fired"
        );
        assert!(
            summary.recoveries > 0,
            "seed {seed}: recovery still completes under hangs"
        );
    }
}

/// Flap quarantine end to end: a patch revoked three times fleet-wide is
/// quarantined; re-admission is denied through an exponential window,
/// then admitted as a canary visible to a single worker only; the
/// canary neutralizing a real trigger promotes it fleet-wide.
#[test]
fn flapping_patch_readmits_via_single_worker_canary() {
    let spec = spec_by_key("squid").unwrap();
    let fleet = Fleet::new(
        spec.build,
        FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        },
    );

    // Phase 1: one worker diagnoses the bug; the patch is pooled.
    let r1 = fleet
        .run(sharded_stream(&spec, &[vec![20], vec![]], 50, 81))
        .unwrap();
    assert_eq!(r1.patched, 1);
    let pool = fleet.pool().clone();
    let patches: Vec<Patch> = pool.get("squid").patches().to_vec();
    assert_eq!(patches.len(), 1);
    let site = patches[0].site;

    // The patch flaps: the health monitor revokes it, re-diagnosis
    // re-admits it after its denial window, and it is revoked again —
    // three flaps and the site is quarantined.
    for flap in 1..=3u32 {
        assert!(pool.revoke("squid", site), "flap {flap} revokes");
        if flap < 3 {
            let worker0 = pool.for_worker(0);
            while pool.is_revoked("squid", site) {
                worker0.add("squid", patches.clone());
            }
        }
    }
    assert!(pool.is_quarantined("squid", site));
    assert_eq!(pool.flap_count("squid", site), 3);
    assert!(pool.get("squid").is_empty());

    // Fleet-wide re-publication of a quarantined site is refused flat.
    assert_eq!(pool.add("squid", patches.clone()), 0);
    assert!(pool.get("squid").is_empty());

    // Worker-scoped re-admission serves the (doubled) denial window,
    // then admits the patch as a canary on that worker alone: the rest
    // of the fleet must not see it until it is validated.
    let worker0 = pool.for_worker(0);
    let mut denials = 0;
    while !pool.has_canary("squid", site) {
        assert!(denials < 64, "denial window is finite");
        worker0.add("squid", patches.clone());
        denials += 1;
    }
    assert!(
        denials > 1,
        "quarantine denial window really paced re-admission"
    );
    assert_eq!(worker0.get("squid").len(), 1, "canary visible to worker 0");
    assert!(
        pool.get("squid").is_empty(),
        "unscoped view: not re-propagated"
    );
    assert!(
        pool.for_worker(1).get("squid").is_empty(),
        "worker 1: not re-propagated"
    );

    // Phase 2: worker 0's canary neutralizes a real trigger (patch hit
    // -> the worker confirms the canary); the promoted patch then
    // protects worker 1's much later trigger. No failures anywhere.
    let r2 = fleet
        .run(sharded_stream(&spec, &[vec![2], vec![45]], 50, 82))
        .unwrap();
    assert_eq!(r2.failures, 0, "canary neutralized both triggers");
    assert_eq!(r2.patch_hits, 2, "both workers hit the patch");
    assert!(
        !pool.is_quarantined("squid", site),
        "promotion lifts quarantine"
    );
    assert!(
        !pool.is_revoked("squid", site),
        "promotion lifts the tombstone"
    );
    assert!(!pool.has_canary("squid", site), "canary resolved");
    assert_eq!(pool.get("squid").len(), 1, "patch is fleet-wide again");
}
