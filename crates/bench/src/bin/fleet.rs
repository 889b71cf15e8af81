//! Fleet immunization experiment: shared patch pool vs per-worker pools
//! on Apache and Squid. Prints the per-worker timelines and writes the
//! machine-readable report to `results/fleet.json`.
//!
//! `--check` runs the same two experiments and writes nothing — the CI
//! mode: the fleet steps its workers on one thread in virtual-time
//! order, so every field, throughput samples included, must equal the
//! committed `results/fleet.json`.

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
    // Squid's overflow fails at the trigger itself and is diagnosed in
    // a few inputs' time, so the stagger spares every sibling. Apache's
    // dangling read needs ~250 follow-up requests to manifest and then
    // ~0.8 s of diagnosis, more than the stagger: worker 1 runs its
    // trigger before worker 0's patch is published.
    for (key, per_shard, warmup, period, stagger) in [
        ("apache", 3_000, 400, 1_600, 350),
        ("squid", 3_000, 400, 1_600, 350),
    ] {
        let spec = spec_by_key(key).unwrap();
        let exp = fleet::run_app(&spec, 4, per_shard, warmup, period, stagger);
        println!("{}", fleet::render(&exp));
        results.experiments.push(exp);
    }
    gate::check_or_write("fleet", &results);
}
