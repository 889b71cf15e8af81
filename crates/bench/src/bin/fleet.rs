//! Fleet immunization experiment: shared patch pool vs per-worker pools
//! on Apache and Squid. Prints the per-worker timelines and writes the
//! machine-readable report to `results/fleet.json`.

use fa_apps::spec_by_key;
use fa_bench::{fleet, gate};
use serde::Serialize;

#[derive(Serialize)]
struct Results {
    experiments: Vec<fleet::FleetExperiment>,
}

fn main() {
    let mut results = Results {
        experiments: Vec::new(),
    };
    // Apache's dangling read needs ~250 follow-up requests to manifest,
    // so its triggers are staggered wider than that propagation distance;
    // Squid's overflow fails at the trigger itself.
    for (key, per_shard, warmup, period, stagger) in [
        ("apache", 3_000, 400, 1_600, 350),
        ("squid", 3_000, 400, 1_600, 350),
    ] {
        let spec = spec_by_key(key).unwrap();
        let exp = fleet::run_app(&spec, 4, per_shard, warmup, period, stagger);
        println!("{}", fleet::render(&exp));
        results.experiments.push(exp);
    }
    gate::write_results("fleet", &results);
}
