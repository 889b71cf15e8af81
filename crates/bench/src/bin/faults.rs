//! Fault-injection experiment: every named scenario against Apache and
//! Squid. Prints one row per (app, scenario) cell and writes the
//! machine-readable report to `results/faults.json`.
//!
//! `--check` runs a scaled-down matrix and writes nothing — the CI mode:
//! it only proves the ladder keeps the runtime live under every
//! scenario (input conservation is asserted inside `run_case`).

use fa_apps::{spec_by_key, FAULT_SCENARIOS};
use fa_bench::{faults, gate};
use serde::Serialize;

#[derive(Serialize)]
struct Results {
    experiments: Vec<faults::FaultsExperiment>,
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (n, triggers): (usize, &[usize]) = if check {
        (400, &[30, 120])
    } else {
        (2_000, &[100, 600, 1_200])
    };
    let mut results = Results {
        experiments: Vec::new(),
    };
    for key in ["apache", "squid"] {
        let spec = spec_by_key(key).unwrap();
        for scenario in FAULT_SCENARIOS {
            let exp = faults::run_case(&spec, scenario, 0xfa017, n, triggers);
            println!("{}", faults::render(&exp));
            results.experiments.push(exp);
        }
    }
    if check {
        println!("faults bench --check: all scenarios live");
        return;
    }
    gate::write_results("faults", &results);
}
