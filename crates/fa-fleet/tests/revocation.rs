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
