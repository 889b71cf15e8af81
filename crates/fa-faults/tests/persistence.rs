//! Journal I/O failure on a journaled patch pool: with every append
//! failing, mutations still land in memory, the runtime reports the pool
//! degraded, and reopening the directory recovers exactly the state
//! journaled before the degradation.

use fa_allocext::{BugType, Patch};
use fa_apps::spec_by_key;
use fa_faults::{FaultPlan, FaultStage, Injection};
use fa_proc::{CallSite, SymbolTable};
use first_aid_core::{FirstAidConfig, FirstAidRuntime, PatchPool, Wal};

fn patch(id: u64) -> Patch {
    Patch::new(
        BugType::BufferOverflow,
        CallSite([id, 0, 0]),
        &SymbolTable::new(),
    )
}

#[test]
fn journal_io_failures_degrade_in_memory_and_keep_the_journaled_state() {
    let dir = std::env::temp_dir().join(format!("fa-faults-journal-io-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A healthy journal records patch #1.
    let journaled = {
        let pool = PatchPool::journaled(&dir).expect("create pool dir");
        assert_eq!(pool.add("squid", [patch(1)]), 1);
        pool.export_state("squid")
    };

    // Reopen with every journal append failing. Adding patch #2 still
    // succeeds in memory; the journal retries, gives up and degrades.
    let faults = FaultPlan::builder(3)
        .inject(FaultStage::WalAppendIo, Injection::EveryNth(1))
        .build();
    let wal = Wal::open(dir.join("pool.wal"))
        .expect("reopen journal")
        .with_faults(faults.clone());
    let pool = PatchPool::with_journal(wal);
    assert_eq!(pool.export_state("squid"), journaled, "replayed patch #1");
    assert_eq!(pool.add("squid", [patch(2)]), 1);
    assert_eq!(pool.len("squid"), 2, "in-memory state is complete");
    assert_eq!(
        faults.fired(FaultStage::WalAppendIo),
        3,
        "every attempt failed"
    );

    let spec = spec_by_key("squid").unwrap();
    let runtime = FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool)
        .expect("launch on a degraded pool");
    let health = runtime.degradation();
    assert!(
        health.pool_degraded,
        "the runtime reports the degraded journal"
    );
    assert_eq!(
        health.pool_io_errors, 3,
        "a degraded journal stops appending"
    );

    // A fresh reopen sees exactly what was journaled before degrading.
    let reopened = PatchPool::journaled(&dir).expect("final reopen");
    assert_eq!(reopened.export_state("squid"), journaled);
    assert_eq!(reopened.len("squid"), 1, "the degraded append never landed");
    let _ = std::fs::remove_dir_all(&dir);
}
