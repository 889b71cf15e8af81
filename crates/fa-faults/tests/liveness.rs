//! Property: *any* seeded fault plan leaves the runtime live. Whatever
//! combination of pipeline-stage failures is injected, the run neither
//! panics nor loses accounting — served + dropped == offered.

use std::sync::atomic::{AtomicUsize, Ordering};

use fa_apps::{spec_by_key, WorkloadSpec};
use fa_checkpoint::AdaptiveConfig;
use fa_faults::{FaultPlan, FaultStage, Injection};
use first_aid_core::{FirstAidConfig, FirstAidRuntime, PatchPool, Wal};
use proptest::prelude::*;

/// A journaled pool in a fresh scratch directory whose journal carries
/// `plan`, so the `WalAppendIo` stage has real appends to fail.
fn journaled_pool(plan: &FaultPlan) -> (PatchPool, std::path::PathBuf) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fa-faults-liveness-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Wal::open(dir.join("pool.wal")).expect("open scratch journal");
    (PatchPool::with_journal(wal.with_faults(plan.clone())), dir)
}

fn injection() -> impl Strategy<Value = Injection> {
    prop_oneof![
        Just(Injection::Off),
        (1u64..6).prop_map(Injection::EveryNth),
        (0u32..700).prop_map(Injection::PerMille),
        prop::collection::vec(0u64..8, 0..3).prop_map(Injection::Nth),
    ]
}

fn plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        injection(),
        injection(),
        injection(),
        injection(),
        injection(),
    )
        .prop_map(|(seed, ckpt, reexec, timeout, fork, wal)| {
            FaultPlan::builder(seed)
                .inject(FaultStage::CheckpointCorrupt, ckpt)
                .inject(FaultStage::ReexecFlaky, reexec)
                .inject(FaultStage::DiagnosisTimeout, timeout)
                .inject(FaultStage::ValidationFork, fork)
                .inject(FaultStage::WalAppendIo, wal)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_fault_plan_leaves_the_runtime_live(plan in plan()) {
        let spec = spec_by_key("squid").unwrap();
        let config = FirstAidConfig {
            adaptive: AdaptiveConfig {
                base_interval_ns: 20_000_000,
                max_interval_ns: 320_000_000,
                ..AdaptiveConfig::default()
            },
            max_checkpoints: 200,
            faults: plan.clone(),
            ..FirstAidConfig::default()
        };
        let (pool, dir) = journaled_pool(&plan);
        let mut runtime =
            FirstAidRuntime::launch((spec.build)(), config, pool).expect("launch");
        let workload = (spec.workload)(&WorkloadSpec::new(120, &[20, 60]));
        let offered = workload.len();
        let summary = runtime.run(workload, None);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            summary.served + summary.dropped,
            offered,
            "input conservation violated: {:?}",
            summary
        );
        prop_assert!(summary.recoveries >= summary.failures);
    }
}
