//! Wall-clock performance benchmark. Writes `results/perf.json`.
//!
//! `--check` is the CI regression gate: it re-runs the measurements
//! (scaled-down throughput), compares them against the committed
//! baseline in `results/perf.json`, and exits nonzero on any violation
//! (or on a baseline that exists but does not parse) without touching
//! the baseline.

use fa_bench::{gate, perf};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let report = perf::measure(check);
    println!("{}", perf::render(&report));
    if check {
        let baseline: Option<perf::PerfReport> = gate::baseline("perf");
        gate::enforce("perf", &perf::check(baseline.as_ref(), &report));
        return;
    }
    gate::write_results("perf", &report);
}
