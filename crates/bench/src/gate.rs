//! Plumbing shared by the bench binaries: loading the committed baseline
//! a `--check` gate compares against, comparing a report with it field by
//! field, enforcing a gate's violations, and writing a report to
//! `results/`.

use std::path::Path;

use serde::{Deserialize, Serialize};
use serde_json::Value;

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

/// The exact gate of a bench whose every field is deterministic: with
/// `--check` on the command line, compares `report` with the committed
/// `results/<name>.json` field by field and exits nonzero on any
/// difference; otherwise writes `report` there.
pub fn check_or_write<T: Serialize>(name: &str, report: &T) {
    if std::env::args().any(|a| a == "--check") {
        let base: Option<Value> = baseline(name);
        enforce(name, &check(base.as_ref(), &report.to_value()));
    } else {
        write_results(name, report);
    }
}

/// Compares a fresh report with the committed `baseline`, field by
/// field, returning one violation per differing field.
///
/// For a report whose every field is on the virtual clock (`faults`,
/// `fleet`) the comparison is exact: a changed retry gate, watchdog,
/// ledger penalty or fleet schedule moves a counter, an instant or a
/// throughput sample and fails it. The `serde_json` shim prints each
/// `f64` with `{}`, which parses back to the same value, so float
/// fields compare as values too.
pub(crate) fn check(baseline: Option<&Value>, current: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(base) = baseline {
        diff(String::new(), base, current, &mut violations);
    }
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
        assert!(check(Some(&base), &faults_report(1)).is_empty());
        assert!(
            check(None, &faults_report(2)).is_empty(),
            "no baseline, no diff"
        );
        assert_eq!(
            check(Some(&base), &faults_report(2)),
            ["experiments[Squid/kitchen-sink].degradation.pool_io_errors: baseline 1, now 2"]
        );
        let mut fewer = faults_report(1);
        if let Value::Object(members) = &mut fewer {
            if let Value::Array(rows) = &mut members[0].1 {
                rows.pop();
            }
        }
        assert_eq!(check(Some(&base), &fewer).len(), 1, "a lost row fails");
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
        assert!(check(Some(&base), &report(mbps)).is_empty());
        let moved = check(Some(&base), &report(next));
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
