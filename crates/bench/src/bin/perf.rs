//! Wall-clock performance benchmark. Writes `results/perf.json`.
//!
//! `--check` is the CI regression gate: it re-runs the measurements
//! (scaled-down throughput), compares them against the committed
//! baseline in `results/perf.json`, and exits nonzero on any violation
//! (or on a baseline that is missing or does not parse) without
//! touching the baseline.

use fa_bench::{gate, perf};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let baseline: Option<perf::PerfReport> = check.then(|| gate::baseline("perf"));
    let report = perf::measure(check);
    println!("{}", perf::render(&report));
    match baseline {
        Some(base) => gate::enforce("perf", &perf::check(&base, &report)),
        None => gate::write_results("perf", &report),
    }
}
