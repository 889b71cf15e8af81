//! The `repro` binary: writes and checks every deterministic result
//! file.
//!
//! `OUTPUTS` lists the outputs whose every byte comes from the virtual
//! clock: the paper's Tables 2–7, Figs. 4–6 and the ablations, plus the
//! fleet, fault-injection and sentry extensions. Each renders, in
//! memory, the text committed as `results/<name>.txt`. `fig4`, `fleet`,
//! `faults` and `sentry` also render the report committed as
//! `results/<name>.json`, and their text ends with a line naming it.
//!
//! `repro [NAME...]` writes the files of the named outputs, or of all of
//! them. `repro --check [NAME...]` compares them with the committed
//! files instead: text by its first differing line, JSON field by field
//! (`gate::check`). It reports every difference and missing file, then
//! exits nonzero if there was one.

use std::path::Path;
use std::process::ExitCode;

use fa_apps::{spec_by_key, AppSpec, FAULT_SCENARIOS};
use serde::Serialize;
use serde_json::Value;

use crate::{
    ablation, faults, fig4, fig5, fig6, fleet, gate, sentry, table2, table3, table4, table5,
    table6, table7,
};
use Output::{Report, Text};

/// One deterministic output of the evaluation, by name: it writes
/// `results/<name>.txt`, and a report also writes `results/<name>.json`.
pub(crate) enum Output {
    /// Text only.
    Text(&'static str, fn() -> String),
    /// Text and a JSON report, or the violations of the bench's absolute
    /// rules: an output that breaks one fails in either mode and is not
    /// written.
    Report(&'static str, fn() -> Rendered),
}

type Rendered = Result<(String, Value), Vec<String>>;

/// Every output, in the order `repro` renders them.
pub(crate) static OUTPUTS: [Output; 13] = [
    Text("table2", table2::render),
    Text("table3", || table3::render(&table3::rows())),
    Text("table4", || table4::render(&table4::rows())),
    Text("table5", || table5::render(&table5::rows())),
    Text("table6", || table6::render(&table6::rows())),
    Text("table7", || table7::render(&table7::rows())),
    Report("fig4", fig4_report),
    Text("fig5", fig5::render),
    Text("fig6", || fig6::render(&fig6::rows())),
    Text("ablation", ablation::render),
    Report("fleet", fleet_report),
    Report("faults", faults_report),
    Report("sentry", sentry_report),
];

fn spec(key: &str) -> AppSpec {
    spec_by_key(key).expect("the app is registered")
}

/// The rows' text, each row rendered and followed by a line break, and
/// the report that holds them as its one `field`.
fn report<T: Serialize>(field: &str, rows: Vec<T>, render: impl Fn(&T) -> String) -> Rendered {
    let json = Value::Object(vec![(field.to_owned(), rows.to_value())]);
    Ok((rows.iter().map(|row| render(row) + "\n").collect(), json))
}

/// Fig. 4 on Apache and Squid, each figure followed by its systems' raw
/// series.
fn fig4_report() -> Rendered {
    let figures = ["apache", "squid"].map(|key| fig4::run_app(&spec(key), 14_000, 2_500));
    report("figures", figures.into(), |fig| {
        let mut text = fig4::render(fig);
        for s in &fig.series {
            text.push_str(&format!("\n# {} raw series (s, MB/s):\n", s.system));
            for (t, v) in &s.points {
                text.push_str(&format!("{t:.2}\t{v:.3}\n"));
            }
        }
        text
    })
}

/// Fleet immunization on Apache and Squid: 4 workers, 3,000 inputs
/// each. Squid's overflow fails at the trigger itself and is diagnosed
/// in a few inputs' time, so the 350-input stagger spares every sibling.
/// Apache's dangling read needs ~250 follow-up requests to manifest and
/// then ~0.8 s of diagnosis, more than the stagger: worker 1 runs its
/// trigger before worker 0's patch is published.
fn fleet_report() -> Rendered {
    let experiments =
        ["apache", "squid"].map(|key| fleet::run_app(&spec(key), 4, 3_000, 400, 1_600, 350));
    report("experiments", experiments.into(), fleet::render)
}

/// Every fault scenario on Apache and Squid: 2,000 inputs, three bug
/// triggers, one fault-plan seed.
fn faults_report() -> Rendered {
    let cases = ["apache", "squid"].into_iter().flat_map(|key| {
        FAULT_SCENARIOS.iter().map(move |scenario| {
            faults::run_case(&spec(key), scenario, 0xfa017, 2_000, &[100, 600, 1_200])
        })
    });
    report("experiments", cases.collect(), faults::render)
}

/// The sentry sweep, held to its two absolute rules at rate 1/64.
fn sentry_report() -> Rendered {
    let sweep = sentry::measure();
    let violations = sentry::check(&sweep);
    if !violations.is_empty() {
        return Err(violations);
    }
    Ok((sentry::render(&sweep) + "\n", sweep.to_value()))
}

/// The outputs `names` selects, all of them if it is empty. An unknown
/// name is an error, so a typo cannot pass a check that ran nothing.
fn select(names: &[String]) -> Result<Vec<&'static Output>, String> {
    if names.is_empty() {
        return Ok(OUTPUTS.iter().collect());
    }
    let known: Vec<&str> = OUTPUTS.iter().map(Output::name).collect();
    let find = |name: &String| OUTPUTS.iter().find(|o| o.name() == name);
    let unknown = |name| format!("unknown output {name:?}; known: {}", known.join(" "));
    names
        .iter()
        .map(|name| find(name).ok_or_else(|| unknown(name)))
        .collect()
}

/// Where `current` first differs from `committed`: the line number and
/// both lines, quoted (a file that ends first reads `end of file`).
fn first_difference(committed: &str, current: &str) -> Option<String> {
    fn lines(text: &str) -> impl Iterator<Item = Option<&str>> {
        text.split('\n').map(Some).chain(std::iter::repeat(None))
    }
    let mut pairs = lines(committed).zip(lines(current)).enumerate();
    let (i, (a, b)) = pairs.find(|(_, (a, b))| a != b || a.is_none())?;
    let show = |line: Option<&str>| line.map_or("end of file".to_owned(), |l| format!("{l:?}"));
    let (a, b) = (show(a), show(b));
    (a != b).then(|| format!("{}:\n  committed: {a}\n  now:       {b}", i + 1))
}

/// Compares one rendered output with its committed files in `dir`,
/// returning one line per difference; a missing file is one.
fn compare(dir: &Path, name: &str, text: &str, json: Option<&Value>) -> Vec<String> {
    let mut diffs = Vec::new();
    let path = dir.join(format!("{name}.txt"));
    match gate::read(&path) {
        Ok(committed) => diffs
            .extend(first_difference(&committed, text).map(|d| format!("{}:{d}", path.display()))),
        Err(e) => diffs.push(e),
    }
    if let Some(json) = json {
        let path = dir.join(format!("{name}.json"));
        match gate::load_baseline::<Value>(&path) {
            Ok(base) => diffs.extend(
                gate::check(&base, json)
                    .into_iter()
                    .map(|v| format!("{}: {v}", path.display())),
            ),
            Err(e) => diffs.push(e),
        }
    }
    diffs
}

impl Output {
    /// The output's name.
    pub(crate) fn name(&self) -> &'static str {
        match *self {
            Text(name, _) | Report(name, _) => name,
        }
    }

    /// Renders the output, then writes its files or, with `check`,
    /// compares them with the committed ones. Returns what failed.
    fn run(&self, check: bool) -> Vec<String> {
        let name = self.name();
        let (text, json) = match *self {
            Text(_, render) => (render(), None),
            Report(_, render) => match render() {
                Ok((text, json)) => (text + &format!("wrote results/{name}.json\n"), Some(json)),
                Err(violations) => {
                    return violations.iter().map(|v| format!("{name}: {v}")).collect()
                }
            },
        };
        if check {
            return compare(&gate::results_dir(), name, &text, json.as_ref());
        }
        gate::write(&format!("{name}.txt"), &text);
        if let Some(json) = json {
            gate::write_results(name, &json);
        }
        Vec::new()
    }
}

/// The `repro` command line: `[--check] [NAME...]`.
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) = args.into_iter().partition(|a| a == "--check");
    let outputs = match select(&names) {
        Ok(outputs) => outputs,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0;
    for output in &outputs {
        let failures = output.run(!flags.is_empty());
        for f in &failures {
            eprintln!("{f}");
        }
        failed += usize::from(!failures.is_empty());
    }
    if failed > 0 {
        eprintln!("repro: {failed} of {} outputs failed", outputs.len());
        return ExitCode::FAILURE;
    }
    let done = if flags.is_empty() {
        "written"
    } else {
        "match the committed files"
    };
    println!("repro: {} outputs {done}", outputs.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fa-repro-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const TEXT: &str = "Table 5. Patch space overhead.\nSquid  508\nApache  0\n";

    fn report_json() -> Value {
        serde_json::from_str(r#"{"experiments": [{"app": "Squid", "wall_ns": 7}]}"#).unwrap()
    }

    fn commit(dir: &Path, text: &str) {
        std::fs::write(dir.join("x.txt"), text).unwrap();
        let json = serde_json::to_string_pretty(&report_json()).unwrap();
        std::fs::write(dir.join("x.json"), json).unwrap();
    }

    #[test]
    fn identical_files_pass() {
        let dir = temp_dir("identical");
        commit(&dir, TEXT);
        let diffs = compare(&dir, "x", TEXT, Some(&report_json()));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn one_changed_line_fails_naming_the_file_and_the_line() {
        let dir = temp_dir("changed");
        commit(&dir, TEXT);
        let diffs = compare(&dir, "x", &TEXT.replace("508", "512"), Some(&report_json()));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        let expected = format!(
            "{}:2:\n  committed: \"Squid  508\"\n  now:       \"Squid  512\"",
            dir.join("x.txt").display()
        );
        assert_eq!(diffs[0], expected);
    }

    #[test]
    fn a_lost_or_extra_last_line_fails() {
        assert_eq!(
            first_difference("a\nb\n", "a\n").as_deref(),
            Some("2:\n  committed: \"b\"\n  now:       \"\"")
        );
        assert_eq!(
            first_difference("a\n", "a").as_deref(),
            Some("2:\n  committed: \"\"\n  now:       end of file")
        );
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    }

    #[test]
    fn a_changed_json_field_fails_naming_the_file_and_the_field() {
        let dir = temp_dir("json");
        commit(&dir, TEXT);
        let moved: Value =
            serde_json::from_str(r#"{"experiments": [{"app": "Squid", "wall_ns": 8}]}"#).unwrap();
        let diffs = compare(&dir, "x", TEXT, Some(&moved));
        std::fs::remove_dir_all(&dir).unwrap();
        let expected = format!(
            "{}: experiments[Squid].wall_ns: baseline 7, now 8",
            dir.join("x.json").display()
        );
        assert_eq!(diffs, [expected]);
    }

    #[test]
    fn a_missing_file_fails() {
        let dir = temp_dir("missing");
        commit(&dir, TEXT);
        std::fs::remove_file(dir.join("x.json")).unwrap();
        let no_json = compare(&dir, "x", TEXT, Some(&report_json()));
        std::fs::remove_file(dir.join("x.txt")).unwrap();
        let no_text = compare(&dir, "x", TEXT, None);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(no_json.len(), 1, "{no_json:?}");
        assert!(no_json[0].ends_with("x.json is missing"), "{no_json:?}");
        assert_eq!(no_text.len(), 1, "{no_text:?}");
        assert!(no_text[0].ends_with("x.txt is missing"), "{no_text:?}");
    }

    #[test]
    fn an_unknown_output_name_is_rejected() {
        let err = select(&["table3".to_owned(), "tabel5".to_owned()])
            .err()
            .expect("a typo must not select nothing");
        assert!(err.starts_with("unknown output \"tabel5\""), "{err}");
        let picked = select(&["fig6".to_owned()]).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].name(), "fig6");
        assert_eq!(select(&[]).unwrap().len(), OUTPUTS.len());
    }

    #[test]
    fn results_holds_exactly_the_files_the_benches_write() {
        // `repro` writes each output's text, and the JSON of a report;
        // the three wall-clock gates write one JSON file each. Any other
        // file in `results/` is an orphan no gate keeps current.
        let mut written: Vec<String> = OUTPUTS
            .iter()
            .flat_map(|o| {
                let json = matches!(o, Report(..)).then(|| format!("{}.json", o.name()));
                std::iter::once(format!("{}.txt", o.name())).chain(json)
            })
            .chain(["perf", "crash", "fleet_scale"].map(|name| format!("{name}.json")))
            .collect();
        written.sort();
        let mut committed: Vec<String> = std::fs::read_dir(gate::results_dir())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        committed.sort();
        assert_eq!(committed, written);
    }
}
