//! Crash-safe supervision benchmark. Writes `results/crash.json`.
//!
//! `--check` is the CI gate: it re-runs a scaled-down matrix and
//! enforces the crash-safety invariants directly — journal recovery
//! under 5% of a cold fleet start, one journal record per patch epoch,
//! zero lost patch epochs, byte-identical re-convergence, and an
//! immunized post-recovery fleet — exiting nonzero on any violation
//! without touching the baseline.

use fa_apps::{all_specs, spec_by_key};
use fa_bench::{crash, gate};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (keys, per_shard, trigger): (Vec<&str>, usize, usize) = if check {
        (vec!["squid", "cvs", "m4"], 120, 30)
    } else {
        (all_specs().iter().map(|s| s.key).collect(), 450, 60)
    };
    let mut report = crash::CrashReport {
        experiments: Vec::new(),
    };
    for key in keys {
        let spec = spec_by_key(key).unwrap();
        let exp = crash::run_case(&spec, 3, per_shard, trigger);
        println!("{}", crash::render(&exp));
        report.experiments.push(exp);
    }
    let violations = crash::check(&report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("crash-safety violation: {v}");
        }
        std::process::exit(1);
    }
    if check {
        println!("crash bench --check: supervision is crash-safe");
        return;
    }
    gate::write_results("crash", &report);
}
