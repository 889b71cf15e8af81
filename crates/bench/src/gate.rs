//! Plumbing shared by the bench binaries: loading the committed baseline
//! a `--check` gate compares against, enforcing a gate's violations, and
//! writing a report to `results/`.

use std::path::Path;

use serde::{Deserialize, Serialize};

/// Loads the committed baseline at `path`. A missing file is `Ok(None)`
/// (only the absolute gates apply); a file that exists but cannot be read
/// or parsed is an error, so a schema change cannot silently disable the
/// baseline gates.
pub fn load_baseline<T: Deserialize>(path: &Path) -> Result<Option<T>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Loads `results/<name>.json` for the `name` gate. A missing baseline
/// warns (only absolute gates apply); an unreadable or unparseable one
/// exits nonzero.
pub fn baseline<T: Deserialize>(name: &str) -> Option<T> {
    let path = format!("results/{name}.json");
    match load_baseline(Path::new(&path)) {
        Ok(Some(base)) => Some(base),
        Ok(None) => {
            eprintln!("warning: no baseline at {path}; only absolute gates apply");
            None
        }
        Err(e) => {
            eprintln!("{name} baseline: {e}");
            std::process::exit(1);
        }
    }
}

/// Reports the `name` gate's violations and exits nonzero if there are
/// any.
pub fn enforce(name: &str, violations: &[String]) {
    if violations.is_empty() {
        println!("{name} bench --check: no regressions");
        return;
    }
    for v in violations {
        eprintln!("{name} regression: {v}");
    }
    std::process::exit(1);
}

/// Writes `report` to `results/<name>.json` (relative to the working
/// directory, which is created if missing) and says where it went.
pub fn write_results<T: Serialize>(name: &str, report: &T) {
    let path = format!("results/{name}.json");
    match serde_json::to_string_pretty(report) {
        Ok(json) => {
            std::fs::create_dir_all("results").ok();
            match std::fs::write(&path, json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
        Err(e) => eprintln!("failed to serialize results: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fleet_scale::FleetScaleReport, perf::PerfReport, sentry::SentryReport};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fa-gate-{}-{name}", std::process::id()))
    }

    fn committed<T: Deserialize>(name: &str) -> T {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(format!("{name}.json"));
        load_baseline(&path)
            .unwrap()
            .unwrap_or_else(|| panic!("results/{name}.json is committed"))
    }

    #[test]
    fn missing_baseline_is_none() {
        let path = temp_path("missing.json");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(load_baseline::<PerfReport>(&path), Ok(None)));
    }

    #[test]
    fn unparseable_baseline_is_an_error() {
        // A baseline in another schema must fail the gate, not disable it.
        let path = temp_path("stale.json");
        std::fs::write(&path, r#"{"throughput": [], "diagnosis": 3}"#).unwrap();
        let result = load_baseline::<PerfReport>(&path);
        std::fs::remove_file(&path).unwrap();
        let err = result.unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
    }

    #[test]
    fn committed_baselines_parse() {
        assert_eq!(committed::<PerfReport>("perf").diagnosis.len(), 2);
        assert!(!committed::<SentryReport>("sentry").rates.is_empty());
        assert!(!committed::<FleetScaleReport>("fleet_scale")
            .points
            .is_empty());
    }

    #[test]
    fn committed_faults_cover_every_scenario_on_both_apps() {
        let faults: serde_json::Value = committed("faults");
        let rows: Vec<(&str, &str)> = faults["experiments"]
            .as_array()
            .expect("experiments array")
            .iter()
            .map(|e| {
                (
                    e["app"].as_str().expect("app"),
                    e["scenario"].as_str().expect("scenario"),
                )
            })
            .collect();
        let expected: Vec<(&str, &str)> = ["Apache", "Squid"]
            .iter()
            .flat_map(|&app| fa_apps::FAULT_SCENARIOS.iter().map(move |&s| (app, s)))
            .collect();
        assert_eq!(rows, expected);
    }
}
