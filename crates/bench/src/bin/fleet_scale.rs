//! Fleet-scale benchmark for the patch pool's per-input path. Writes
//! `results/fleet_scale.json`.
//!
//! `--check` is the CI regression gate: it re-runs the measurements,
//! compares the deterministic virtual-time quantities (immunity,
//! hits/failures, checksum) *exactly* against the committed baseline,
//! enforces the ≥5× quiet-path query speedup and sublinear
//! time-to-fleet-immunity absolutely, holds the signal path's throughput
//! relative to the same run's unchecked reference to 70% of the
//! baseline's, and exits nonzero on any violation (or on a baseline
//! that is missing or does not parse) without touching the baseline.
//! In either mode, repetitions of one scale point that disagree on a
//! deterministic field exit nonzero, so such a report never becomes the
//! baseline.

use fa_bench::{fleet_scale, gate};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let baseline: Option<fleet_scale::FleetScaleReport> =
        check.then(|| gate::baseline("fleet_scale"));
    let (report, mut violations) = fleet_scale::measure(check);
    println!("{}", fleet_scale::render(&report));
    if let Some(base) = baseline {
        violations.extend(fleet_scale::check(&base, &report));
        gate::enforce("fleet_scale", &violations);
        return;
    }
    if !violations.is_empty() {
        gate::enforce("fleet_scale", &violations);
    }
    gate::write_results("fleet_scale", &report);
}
