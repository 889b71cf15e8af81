//! Plumbing shared by the bench binaries: where the committed results
//! live, loading the baseline a `--check` gate compares against,
//! comparing a report with it field by field, enforcing a gate's
//! violations, and writing a file to `results/`.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The committed `results/` directory at the repository root. Every
/// reader and writer resolves it from this crate's own location, so a
/// gate run from any working directory compares the committed files.
pub fn results_dir() -> PathBuf {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench
        .ancestors()
        .nth(2)
        .expect("fa-bench sits at crates/bench");
    root.join("results")
}

/// Reads the committed file at `path`. A missing file is an error like
/// an unreadable one: a gate without its baseline would check nothing.
pub(crate) fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => format!("{} is missing", path.display()),
        _ => format!("cannot read {}: {e}", path.display()),
    })
}

/// Loads the committed baseline at `path`. A file that cannot be read
/// or parsed is an error, so a schema change cannot silently disable the
/// gate.
pub fn load_baseline<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = read(path)?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Loads `results/<name>.json` for the `name` gate, exiting nonzero if
/// it is missing or cannot be read or parsed.
pub fn baseline<T: Deserialize>(name: &str) -> T {
    load_baseline(&results_dir().join(format!("{name}.json"))).unwrap_or_else(|e| {
        eprintln!("{name} baseline: {e}");
        std::process::exit(1);
    })
}

/// Compares a fresh report with the committed `baseline`, field by
/// field, returning one violation per differing field.
///
/// Every field of the reports `repro` writes is on the virtual clock, so
/// the comparison is exact: a changed retry gate, watchdog, ledger
/// penalty or fleet schedule moves a counter, an instant or a
/// throughput sample and fails it. The `serde_json` shim prints each
/// `f64` with `{}`, which parses back to the same value, so float
/// fields compare as values too.
pub(crate) fn check(baseline: &Value, current: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    diff(String::new(), baseline, current, &mut violations);
    violations
}

/// Appends a violation for each leaf where `base` and `cur` differ. An
/// array element that names an `app` is labelled by it, and by its
/// `scenario` when it has one, so a violation reads
/// `experiments[Squid/kitchen-sink].wall_ns` or
/// `experiments[Apache].shared.patched`.
fn diff(path: String, base: &Value, cur: &Value, out: &mut Vec<String>) {
    match (base, cur) {
        (Value::Object(b), Value::Object(c)) => {
            for (key, bv) in b {
                match cur.get_field(key) {
                    Some(cv) => diff(format!("{path}.{key}"), bv, cv, out),
                    None => out.push(format!("{path}.{key}: missing")),
                }
            }
            for (key, _) in c {
                if base.get_field(key).is_none() {
                    out.push(format!("{path}.{key}: not in the baseline"));
                }
            }
        }
        (Value::Array(b), Value::Array(c)) if b.len() == c.len() => {
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                let row = match (cv["app"].as_str(), cv["scenario"].as_str()) {
                    (Some(app), Some(scenario)) => format!("{app}/{scenario}"),
                    (Some(app), None) => app.to_owned(),
                    _ => i.to_string(),
                };
                diff(format!("{path}[{row}]"), bv, cv, out);
            }
        }
        _ if base != cur => out.push(format!(
            "{}: baseline {}, now {}",
            path.trim_start_matches('.'),
            serde_json::to_string(base).unwrap_or_default(),
            serde_json::to_string(cur).unwrap_or_default()
        )),
        _ => {}
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

/// Writes `contents` to `results/<file>` and says where it went,
/// exiting nonzero if it cannot.
pub fn write(file: &str, contents: &str) {
    let dir = results_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents));
    if let Err(e) = written {
        eprintln!("failed to write results/{file}: {e}");
        std::process::exit(1);
    }
    println!("wrote results/{file}");
}

/// Writes `report` to `results/<name>.json`, exiting nonzero if it
/// cannot.
pub fn write_results<T: Serialize>(name: &str, report: &T) {
    match serde_json::to_string_pretty(report) {
        Ok(json) => write(&format!("{name}.json"), &json),
        Err(e) => {
            eprintln!("failed to serialize {name}: {e}");
            std::process::exit(1);
        }
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
        load_baseline(&results_dir().join(format!("{name}.json"))).unwrap()
    }

    #[test]
    fn missing_baseline_is_an_error() {
        // A gate whose baseline is gone must fail, not pass on its
        // absolute rules alone.
        let path = temp_path("missing.json");
        let _ = std::fs::remove_file(&path);
        let err = load_baseline::<PerfReport>(&path).unwrap_err();
        assert!(err.ends_with("missing.json is missing"), "{err}");
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

    fn faults_report(kitchen_sink_io_errors: u64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"experiments": [
                {{"app": "Squid", "scenario": "none", "wall_ns": 7, "fired": []}},
                {{"app": "Squid", "scenario": "kitchen-sink", "wall_ns": 9,
                  "fired": [["wal-append-io", 1]],
                  "degradation": {{"pool_io_errors": {kitchen_sink_io_errors}}}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn check_names_each_field_that_moved() {
        let base = faults_report(1);
        assert!(check(&base, &faults_report(1)).is_empty());
        assert_eq!(
            check(&base, &faults_report(2)),
            ["experiments[Squid/kitchen-sink].degradation.pool_io_errors: baseline 1, now 2"]
        );
        let mut fewer = faults_report(1);
        if let Value::Object(members) = &mut fewer {
            if let Value::Array(rows) = &mut members[0].1 {
                rows.pop();
            }
        }
        assert_eq!(check(&base, &fewer).len(), 1, "a lost row fails");
    }

    #[test]
    fn check_labels_scenario_free_rows_by_app_and_compares_floats_exactly() {
        // A fleet-shaped report: rows name an app but no scenario, and a
        // throughput sample moved by one unit in the last place.
        let report = |mbps: f64| {
            let json = format!(
                r#"{{"experiments": [{{"app": "Apache", "shared":
                    {{"patched": 1, "fleet_series": [[0.0, {}]]}}}}]}}"#,
                mbps
            );
            serde_json::from_str::<Value>(&json).unwrap()
        };
        let mbps = 18.3_f64;
        let next = f64::from_bits(mbps.to_bits() + 1);
        let base = report(mbps);
        assert!(check(&base, &report(mbps)).is_empty());
        let moved = check(&base, &report(next));
        assert_eq!(moved.len(), 1, "{moved:?}");
        assert_eq!(
            moved[0],
            format!("experiments[Apache].shared.fleet_series[0][1]: baseline {mbps}, now {next}")
        );
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
