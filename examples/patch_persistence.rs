//! Patch persistence: "First-Aid stores the generated patches persistently
//! to prevent the bug from occurring on subsequent runs or on other
//! processes running the same program" (paper §1.2).
//!
//! This example runs the Squid overflow case twice against an on-disk,
//! journaled patch pool: the first run fails once and learns the patch;
//! the second run — a fresh "process" of the same executable — replays
//! the journal and is protected from its very first request.
//!
//! Run with: `cargo run --release --example patch_persistence`

use fa_apps::{spec_by_key, WorkloadSpec};
use first_aid::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("first-aid-example-pool");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = spec_by_key("squid").expect("squid registered");

    println!("patch pool directory: {}\n", dir.display());

    // ---- first run: the bug is new ----
    {
        let pool = PatchPool::journaled(&dir).expect("create pool");
        let mut fa =
            FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool.clone())
                .unwrap();
        let w = (spec.workload)(&WorkloadSpec::new(1_200, &[400, 800]));
        let summary = fa.run(w, None);
        println!(
            "run 1: failures={} recoveries={}",
            summary.failures, summary.recoveries
        );
        assert_eq!(summary.failures, 1);
        let journal = pool.journal().expect("journaled pool");
        println!(
            "run 1: journaled {} record(s) to {}\n",
            journal.replay().len(),
            journal.path().display()
        );
    }

    // ---- second run: protected from the start ----
    {
        let pool = PatchPool::journaled(&dir).expect("reopen pool");
        println!("run 2: loaded {} patch(es) from disk", pool.len("squid"));
        let mut fa =
            FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool).unwrap();
        // Trigger the bug immediately and repeatedly.
        let w = (spec.workload)(&WorkloadSpec::new(1_200, &[10, 300, 600, 900]));
        let summary = fa.run(w, None);
        println!(
            "run 2: failures={} recoveries={} (4 triggers, all neutralized)",
            summary.failures, summary.recoveries
        );
        assert_eq!(
            summary.failures, 0,
            "persisted patch must prevent everything"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nThe same pool protects other concurrent processes of the program:");
    println!("PatchPool clones share state, so a patch learned by one process");
    println!("is applied by every supervised process of the same executable.");
}
