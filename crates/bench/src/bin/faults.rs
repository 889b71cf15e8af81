//! Fault-injection experiment: every named scenario against Apache and
//! Squid. Prints one row per (app, scenario) cell and writes the
//! machine-readable report to `results/faults.json`.
//!
//! `--check` runs the same 16-case matrix and writes nothing — the CI
//! mode: every field must equal the committed `results/faults.json`
//! (all of them are on the virtual clock), and input conservation is
//! asserted inside `run_case`.

use fa_apps::{spec_by_key, FAULT_SCENARIOS};
use fa_bench::{faults, gate};
use serde::Serialize;

#[derive(Serialize)]
struct Results {
    experiments: Vec<faults::FaultsExperiment>,
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut results = Results {
        experiments: Vec::new(),
    };
    for key in ["apache", "squid"] {
        let spec = spec_by_key(key).unwrap();
        for scenario in FAULT_SCENARIOS {
            let exp = faults::run_case(&spec, scenario, 0xfa017, 2_000, &[100, 600, 1_200]);
            println!("{}", faults::render(&exp));
            results.experiments.push(exp);
        }
    }
    if check {
        let baseline: Option<serde_json::Value> = gate::baseline("faults");
        gate::enforce(
            "faults",
            &faults::check(baseline.as_ref(), &results.to_value()),
        );
        return;
    }
    gate::write_results("faults", &results);
}
