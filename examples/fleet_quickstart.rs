//! Fleet quickstart: three Squid processes, one shared patch pool.
//!
//! The first worker to hit the `ftpBuildTitleUrl` overflow diagnoses it
//! and pools the patch; the other workers pick it up without ever
//! failing. Run with:
//!
//! ```sh
//! cargo run --example fleet_quickstart
//! ```

use first_aid::apps::{fleet::sharded_stream, spec_by_key};
use first_aid::fleet::{Fleet, FleetConfig};
use first_aid::proc::Fault;

fn main() -> Result<(), Fault> {
    let spec = spec_by_key("squid").unwrap();
    let fleet = Fleet::new(
        spec.build,
        FleetConfig {
            workers: 3,
            ..FleetConfig::default()
        },
    );

    // Wave 1: only worker 0's traffic carries the bug trigger.
    let wave1 = sharded_stream(&spec, &[vec![40], vec![], vec![]], 120, 7);
    let r1 = fleet.run(wave1)?;
    println!(
        "wave 1: {} failure(s), {} diagnosis(es), pool now holds {} patch(es)",
        r1.failures,
        r1.patched,
        fleet.pool().len("squid"),
    );

    // Wave 2: every worker gets a trigger — all neutralized by the
    // patch the first diagnosis left in the shared pool.
    let wave2 = sharded_stream(&spec, &[vec![20], vec![20], vec![20]], 60, 8);
    let r2 = fleet.run(wave2)?;
    println!(
        "wave 2: {} failure(s), {} recoveries, {} patch hit(s) — fleet immunized",
        r2.failures, r2.recoveries, r2.patch_hits,
    );
    for w in &r2.workers {
        println!(
            "  worker {}: {} served, {} failed, immunized at {:.2} s",
            w.worker,
            w.served,
            w.failures,
            w.immunized_at_ns.unwrap_or(0) as f64 / 1e9,
        );
    }
    Ok(())
}
