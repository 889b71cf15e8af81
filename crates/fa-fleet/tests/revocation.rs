//! Revocation propagation: a patch revoked as ineffective is tombstoned
//! in the shared pool, uninstalled by sibling workers at their next
//! refresh, and can never re-propagate to the fleet.

use fa_apps::{spec_by_key, WorkloadSpec};
use first_aid_core::{FirstAidConfig, FirstAidRuntime, PatchPool, RecoveryKind};

#[test]
fn revoked_patch_never_repropagates_to_siblings() {
    let spec = spec_by_key("squid").unwrap();
    let pool = PatchPool::in_memory();

    // Worker A diagnoses the bug and contributes the patch to the pool.
    let mut a = FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool.clone())
        .expect("launch worker A");
    let workload = (spec.workload)(&WorkloadSpec::new(80, &[30]));
    let summary = a.run(workload, None);
    assert_eq!(summary.failures, 1);
    assert!(a.recoveries.iter().any(|r| r.kind == RecoveryKind::Patched));
    let patches: Vec<_> = a
        .recoveries
        .iter()
        .flat_map(|r| r.patches.iter().cloned())
        .collect();
    assert!(!patches.is_empty());
    assert_eq!(pool.len("squid"), patches.len());

    // Worker B launches from the warm pool: patches installed, epoch seen.
    let mut b = FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool.clone())
        .expect("launch worker B");
    assert!(!b.refresh_patches(), "B is already current");
    let epoch_before = b.health().pool_epoch;

    // The health monitor revokes the sites (this is exactly the call the
    // runtime makes when a signature keeps recurring under its patches).
    for p in &patches {
        assert!(pool.revoke("squid", p.site), "revocation takes effect");
        assert!(pool.is_revoked("squid", p.site));
    }
    assert_eq!(pool.len("squid"), 0, "revoked patches leave the pool");

    // B's next poll sees the revocation epoch and uninstalls the patch.
    assert!(b.refresh_patches(), "revocation epoch propagates to B");
    assert!(b.health().pool_epoch > epoch_before);

    // A sibling re-deriving the same diagnosis cannot re-admit it: the
    // tombstone blocks the add, the pool version does not move, and no
    // worker ever sees the revoked patch again.
    assert_eq!(pool.add("squid", patches.iter().cloned()), 0);
    assert_eq!(pool.len("squid"), 0);
    assert!(!b.refresh_patches(), "nothing new to propagate");
}

#[test]
fn a_foreign_program_publish_leaves_the_installed_set_untouched() {
    use std::sync::Arc;

    use first_aid_core::{BugType, Patch, PatchSet};

    let patch = |id| {
        Patch::new(
            BugType::BufferOverflow,
            fa_proc::CallSite([id, 0, 0]),
            &fa_proc::SymbolTable::new(),
        )
    };
    let spec = spec_by_key("squid").unwrap();
    let pool = PatchPool::in_memory();
    assert_eq!(pool.add("squid", [patch(1)]), 1);
    let mut a = FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool.clone())
        .expect("launch worker A");
    let installed = |rt: &mut FirstAidRuntime| rt.with_ext(|ext| ext.patches() as *const PatchSet);
    let before = installed(&mut a);
    assert_eq!(
        before,
        Arc::as_ptr(&pool.get("squid")),
        "A runs the pool's set"
    );

    // Program B publishes on the same pool: its epoch moves, A's does not.
    assert_eq!(pool.add("apache", [patch(2)]), 1);
    assert_eq!((pool.epoch("apache"), pool.epoch("squid")), (1, 1));
    assert!(!a.refresh_patches(), "a foreign publish is not A's change");
    assert_eq!(
        installed(&mut a),
        before,
        "A's installed set is the same Arc"
    );
}

#[test]
fn a_scoped_canary_travels_by_epoch_alone() {
    use fa_proc::{CallSite, SymbolTable};
    use first_aid_core::{BugType, Patch, QuarantinePolicy};

    let site = CallSite([1, 0, 0]);
    let patch = || Patch::new(BugType::BufferOverflow, site, &SymbolTable::new());
    let matches_site =
        |rt: &mut FirstAidRuntime| rt.with_ext(|ext| ext.patches().match_alloc(site).is_some());

    let dir = std::env::temp_dir().join(format!("fa-fleet-epoch-only-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = PatchPool::journaled(&dir)
        .expect("journal dir")
        .with_quarantine(QuarantinePolicy {
            quarantine_after: 1,
            ..QuarantinePolicy::default()
        });
    assert_eq!(pool.add("squid", [patch()]), 1);

    // Two workers run while the pool changes under them.
    let spec = spec_by_key("squid").unwrap();
    let launch = |worker| {
        FirstAidRuntime::launch(
            (spec.build)(),
            FirstAidConfig::default(),
            pool.for_worker(worker),
        )
        .expect("launch worker")
    };
    let (mut rt0, mut rt1) = (launch(0), launch(1));
    assert!(matches_site(&mut rt0) && matches_site(&mut rt1));

    // The site flaps once and is quarantined; worker 0 re-adds it until
    // the pool admits it as worker 0's canary.
    assert!(pool.revoke("squid", site));
    assert!(pool.is_quarantined("squid", site));
    assert!(rt0.refresh_patches() && rt1.refresh_patches());
    assert!(!matches_site(&mut rt0) && !matches_site(&mut rt1));
    let w0 = pool.for_worker(0);
    let mut attempts = 0;
    while !pool.has_canary("squid", site) {
        w0.add("squid", [patch()]);
        attempts += 1;
        assert!(attempts <= 4, "the canary is admitted within the window");
    }

    // Both runtimes see the epoch move; only worker 0 installs the canary.
    assert!(rt0.refresh_patches(), "worker 0 picks up its canary");
    assert!(
        rt1.refresh_patches(),
        "the admission moves the shared epoch"
    );
    assert!(
        matches_site(&mut rt0),
        "the canary is installed on worker 0"
    );
    assert!(!matches_site(&mut rt1), "and not on worker 1");

    // The canary is confirmed: promotion reaches worker 1 by epoch.
    assert_eq!(w0.confirm_canary("squid"), 1);
    assert!(
        rt1.refresh_patches(),
        "the promotion propagates to worker 1"
    );
    assert!(
        matches_site(&mut rt1),
        "worker 1 now runs the promoted patch"
    );
    assert!(rt0.refresh_patches());
    assert!(matches_site(&mut rt0));
    let _ = std::fs::remove_dir_all(&dir);
}
