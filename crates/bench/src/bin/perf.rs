//! Wall-clock performance benchmark. Writes `results/perf.json`.
//!
//! `--check` is the CI regression gate: it re-runs the measurements
//! (scaled-down throughput), compares them against the committed
//! baseline in `results/perf.json`, and exits nonzero on any violation
//! (or on a baseline that exists but does not parse) without touching
//! the baseline.

use std::path::Path;

use fa_bench::perf;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let report = perf::measure(check);
    println!("{}", perf::render(&report));
    if check {
        let baseline = match perf::load_baseline(Path::new("results/perf.json")) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perf baseline: {e}");
                std::process::exit(1);
            }
        };
        if baseline.is_none() {
            eprintln!("warning: no baseline at results/perf.json; only absolute gates apply");
        }
        let violations = perf::check(baseline.as_ref(), &report);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("perf regression: {v}");
            }
            std::process::exit(1);
        }
        println!("perf bench --check: no regressions");
        return;
    }
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            std::fs::create_dir_all("results").ok();
            match std::fs::write("results/perf.json", json) {
                Ok(()) => println!("wrote results/perf.json"),
                Err(e) => eprintln!("failed to write results/perf.json: {e}"),
            }
        }
        Err(e) => eprintln!("failed to serialize results: {e}"),
    }
}
