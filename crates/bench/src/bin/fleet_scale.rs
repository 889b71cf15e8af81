//! Fleet-scale benchmark for the lock-free patch plane. Writes
//! `results/fleet_scale.json`.
//!
//! `--check` is the CI regression gate: it re-runs the measurements,
//! compares the deterministic virtual-time quantities (immunity,
//! hits/failures, checksum) *exactly* against the committed baseline,
//! enforces the ≥5× lock-free query speedup and sublinear
//! time-to-fleet-immunity absolutely, and exits nonzero on any
//! violation (or on a baseline that exists but does not parse) without
//! touching the baseline. In either mode, repetitions of one scale
//! point that disagree on a deterministic field exit nonzero, so such a
//! report never becomes the baseline.

use fa_bench::{fleet_scale, gate};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (report, mut violations) = fleet_scale::measure(check);
    println!("{}", fleet_scale::render(&report));
    if check {
        let baseline: Option<fleet_scale::FleetScaleReport> = gate::baseline("fleet_scale");
        violations.extend(fleet_scale::check(baseline.as_ref(), &report));
        gate::enforce("fleet_scale", &violations);
        return;
    }
    if !violations.is_empty() {
        gate::enforce("fleet_scale", &violations);
    }
    gate::write_results("fleet_scale", &report);
}
