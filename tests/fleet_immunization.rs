//! Fleet immunization end-to-end: with a shared patch pool, one worker's
//! diagnosis protects the whole fleet; without sharing, every worker
//! pays for its own.

use first_aid::apps::fleet::{periodic_stream, sharded_stream};
use first_aid::apps::spec_by_key;
use first_aid::fleet::{Fleet, FleetConfig, PoolSharing};

const WORKERS: usize = 3;

fn fleet(sharing: PoolSharing) -> Fleet {
    let spec = spec_by_key("squid").unwrap();
    Fleet::new(
        spec.build,
        FleetConfig {
            workers: WORKERS,
            sharing,
            ..FleetConfig::default()
        },
    )
}

#[test]
fn shared_pool_one_diagnosis_immunizes_the_fleet() {
    let spec = spec_by_key("squid").unwrap();
    let fleet = fleet(PoolSharing::Shared);

    // Phase 1: only worker 0's shard carries a trigger.
    let phase1 = sharded_stream(&spec, &[vec![30], vec![], vec![]], 80, 21);
    let r1 = fleet.run(phase1).unwrap();
    assert_eq!(r1.failures, 1, "only the triggered worker fails");
    assert_eq!(r1.patched, 1, "exactly one worker pays the diagnosis");
    assert!(r1.rollbacks > 0, "diagnosis rolled back and re-executed");
    assert_eq!(fleet.pool().len("squid"), 1, "the patch is pooled");

    // Phase 2: every worker's first post-patch trigger. The pool already
    // holds the patch, so the whole fleet neutralizes its trigger with
    // no failure, no recovery, and zero rollbacks.
    let phase2 = sharded_stream(&spec, &[vec![15], vec![15], vec![15]], 50, 22);
    let r2 = fleet.run(phase2).unwrap();
    assert_eq!(r2.failures, 0, "no worker fails post-patch");
    assert_eq!(r2.recoveries, 0, "no diagnosis needed");
    assert_eq!(r2.rollbacks, 0, "prevention costs zero rollbacks");
    assert_eq!(
        r2.patch_hits, WORKERS,
        "each worker's trigger was neutralized by the shared patch"
    );
    assert_eq!(r2.served, WORKERS * 50, "every input served");
    assert!(
        r2.time_to_fleet_immunity_ns.is_some(),
        "fleet immunity is reached (at launch, from the warm pool)"
    );
    for w in &r2.workers {
        assert_eq!(w.failures, 0, "worker {} is immunized", w.worker);
        assert_eq!(
            w.patch_hits, 1,
            "worker {} neutralized its trigger",
            w.worker
        );
    }
}

#[test]
fn per_worker_pools_force_independent_diagnoses() {
    let spec = spec_by_key("squid").unwrap();
    let fleet = fleet(PoolSharing::PerWorker);

    // Every shard triggers once: with private pools there is nobody to
    // learn from, so every worker diagnoses the same bug itself.
    let stream = sharded_stream(&spec, &[vec![30], vec![30], vec![30]], 80, 23);
    let report = fleet.run(stream).unwrap();
    assert_eq!(report.failures, WORKERS, "every worker fails once");
    assert_eq!(
        report.patched, WORKERS,
        "every worker pays its own diagnosis"
    );
    for w in &report.workers {
        assert_eq!(w.patched, 1, "worker {} diagnosed independently", w.worker);
        assert!(w.rollbacks > 0, "worker {} paid rollbacks", w.worker);
        assert!(w.immunized_at_ns.is_some());
    }
    // The shared pool the Fleet owns was never used: nothing in it.
    assert!(fleet.pool().is_empty("squid"));
}

#[test]
fn fleet_patches_persist_through_a_shared_persistent_pool() {
    use first_aid::core::PatchPool;

    let spec = spec_by_key("squid").unwrap();
    let dir = std::env::temp_dir().join(format!("fa-fleet-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    {
        let fleet = fleet(PoolSharing::Shared).with_pool(PatchPool::journaled(&dir).unwrap());
        let stream = sharded_stream(&spec, &[vec![30], vec![], vec![]], 80, 31);
        let r = fleet.run(stream).unwrap();
        assert_eq!(r.patched, 1);
    }

    // A brand-new fleet (a later deployment) starts immunized from the
    // journal on disk.
    {
        let fleet = fleet(PoolSharing::Shared).with_pool(PatchPool::journaled(&dir).unwrap());
        let stream = sharded_stream(&spec, &[vec![10], vec![10], vec![10]], 40, 32);
        let r = fleet.run(stream).unwrap();
        assert_eq!(r.failures, 0);
        assert_eq!(r.patch_hits, WORKERS);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// No worker installs a shared patch before the virtual instant it was
/// published: every worker that did not diagnose is immunized at or
/// after the earliest immunity of a worker that did, which is that
/// worker's publish.
#[test]
fn no_sibling_is_immunized_before_the_first_publish() {
    let spec = spec_by_key("apache").unwrap();
    let fleet = Fleet::new(spec.build, FleetConfig::default());
    let report = fleet
        .run(periodic_stream(&spec, 4, 1200, 400, 1600, 350, 42))
        .unwrap();
    let first_publish = report
        .workers
        .iter()
        .filter(|w| w.patched > 0)
        .filter_map(|w| w.immunized_at_ns)
        .min()
        .expect("a worker diagnosed and published");
    for w in report.workers.iter().filter(|w| w.patched == 0) {
        let at = w.immunized_at_ns;
        assert!(
            at.is_some_and(|at| at >= first_publish),
            "worker {} immunized at {at:?}, first publish at {first_publish}",
            w.worker
        );
    }
}
