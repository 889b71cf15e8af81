//! Wall-clock benchmark of the supervised First-Aid runtime.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <file>]
//! benchmark --runs <N> [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! One invocation runs a fixed number of rounds of one workload, as many
//! as take about `--seconds` (see `Workload::rounds`), checks the
//! runtime's outputs, prints each metric with its unit and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Any correctness violation, or a run that takes more
//! than [`CAP`] times `--seconds`, exits non-zero without a result.
//! `--runs N` re-invokes the binary N times per workload and prints each
//! end-to-end metric's median and quartiles. See README.md.

mod recovery;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::{best, median, percentile, quartiles, sorted};
use trace::{Layers, Tracer};
use workloads::{run_round, Round, Workload, FULL, QUICK};

/// A reported metric. End-to-end metrics carry the share of the parent
/// commit's median by which they may worsen before a change counts as a
/// regression; per-layer metrics have no bound.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Printed by every untraced run; BENCHMARK.json lists the same.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("inputs_per_s", "inputs/s", "higher", 0.25),
    e2e("input_us_p50", "us", "lower", 0.25),
    e2e("checkpoint_pause_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.05),
];

/// Printed by every traced run; BENCHMARK.json lists the same.
pub const PER_LAYER: [MetricSpec; 23] = [
    layer("fa-proc.accesses_per_input", "count", "lower"),
    layer("fa-proc.access_bytes_per_input", "B", "lower"),
    layer("fa-allocext.observe_ns", "ns", "lower"),
    layer("fa-allocext.malloc_ns", "ns", "lower"),
    layer("fa-allocext.free_ns", "ns", "lower"),
    layer("fa-allocext.ops_per_input", "count", "lower"),
    layer("fa-allocext.clone_us_p50", "us", "lower"),
    layer("fa-allocext.clone_us_max", "us", "lower"),
    layer("fa-allocext.live_objects", "count", "lower"),
    layer("fa-heap.malloc_ns", "ns", "lower"),
    layer("fa-heap.free_ns", "ns", "lower"),
    layer("fa-mem.tlb_hit_rate", "ratio", "higher"),
    layer("fa-mem.tlb_walks_per_input", "count", "lower"),
    layer("fa-mem.cow_faults_per_input", "count", "lower"),
    layer("fa-mem.resident_pages", "count", "lower"),
    layer("fa-mem.snapshot_us", "us", "lower"),
    layer("fa-checkpoint.count", "count", "lower"),
    layer("fa-checkpoint.snapshot_us", "us", "lower"),
    layer("fa-checkpoint.digest_us", "us", "lower"),
    layer("fa-checkpoint.rollback_us", "us", "lower"),
    layer("fa-exec.trial_ms", "ms", "lower"),
    layer("core.patchpool.get_ns", "ns", "lower"),
    layer("trace.overhead", "ratio", "lower"),
];

/// A run that takes more than this many times `--seconds` fails: its
/// rounds are sized for `--seconds`, so it is broken or far slower.
pub const CAP: f64 = 3.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: None,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3_600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 3600]"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--runs" => {
                a.runs = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                )
            }
            "--spans" => a.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.runs.is_none() && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Everything one invocation measured.
pub struct Run {
    pub workload: Workload,
    /// The first round: it warms the process's allocator and caches, is
    /// checked for correctness like every round, and is not measured.
    pub warmup: Vec<Round>,
    /// Untraced rounds: the end-to-end numbers.
    pub rounds: Vec<Round>,
    /// Traced rounds, alternating with untraced ones when tracing.
    pub traced: Vec<Round>,
    pub tracer: Option<Tracer>,
    /// Set when the run passed its time cap and stopped short.
    pub overrun: Option<String>,
}

/// Runs a warm-up round of `w`, then `w.rounds(seconds)` measured ones
/// (with tracing, alternately untraced and traced, at least one of
/// each). A `quick` run makes ~1%-size rounds and only as many as
/// tracing needs. Stops early after a round with a correctness
/// violation, or once the run has taken [`CAP`] times `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, quick: bool, spans: bool) -> Run {
    let (size, measured) = if quick {
        (QUICK, 1)
    } else {
        (FULL, w.rounds(seconds))
    };
    let measured = measured.max(if trace { 2 } else { 1 });
    let cap = Duration::from_secs_f64(CAP * seconds);
    let start = Instant::now();
    let mut out = Run {
        workload: w,
        warmup: Vec::new(),
        rounds: Vec::new(),
        traced: Vec::new(),
        tracer: trace.then(|| Tracer::new(spans)),
        overrun: None,
    };
    for r in 0..=measured {
        let traced = trace && r > 0 && r % 2 == 0;
        let round = match out.tracer.as_mut().filter(|_| traced) {
            Some(tr) => {
                tr.begin_round(r);
                run_round(w, seed, r, size, Some(tr))
            }
            None => run_round(w, seed, r, size, None),
        };
        let broken = !round.violations.is_empty();
        match r {
            0 => out.warmup.push(round),
            _ if traced => out.traced.push(round),
            _ => out.rounds.push(round),
        }
        if broken {
            break;
        }
        if r < measured && start.elapsed() > cap {
            out.overrun = Some(format!(
                "stopped after {r} of {measured} measured rounds: \
                 the run took more than {CAP} x --seconds ({:.1} s)",
                cap.as_secs_f64()
            ));
            break;
        }
    }
    out
}

impl Run {
    fn all_rounds(&self) -> impl Iterator<Item = &Round> {
        self.warmup.iter().chain(&self.rounds).chain(&self.traced)
    }

    pub fn violations(&self) -> Vec<String> {
        self.all_rounds()
            .flat_map(|r| r.violations.iter().cloned())
            .chain(self.overrun.clone())
            .collect()
    }

    /// Operations attempted and failed: inputs fed, and inputs the
    /// runtime did not serve.
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.all_rounds()
            .fold((0, 0), |(a, f), r| (a + r.fed, f + (r.fed - r.served)))
    }

    /// `fail_ratio`'s operations, attempted and failed. On recover they
    /// are the bug-trigger inputs, and a trigger fails if it is dropped
    /// or fails again after its case was patched. Elsewhere they are the
    /// inputs of [`Run::attempted_failed`].
    pub fn fail_ratio_ops(&self) -> (u64, u64) {
        if self.workload != Workload::Recover {
            return self.attempted_failed();
        }
        self.all_rounds()
            .fold((0, 0), |(a, f), r| (a + r.triggers, f + r.failed_triggers))
    }

    fn rates(rounds: &[Round]) -> Vec<f64> {
        rounds.iter().map(Round::inputs_per_s).collect()
    }

    /// A per-round figure of the untraced rounds that have it; `None` if
    /// none does.
    fn per_round(&self, f: impl Fn(&Round) -> Option<f64>) -> Option<Vec<f64>> {
        let v: Vec<f64> = self.rounds.iter().filter_map(f).collect();
        (!v.is_empty()).then_some(v)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Set-up time is the
    /// median over rounds; the others come from the best round.
    pub fn end_to_end(&self) -> Vec<Option<f64>> {
        END_TO_END
            .iter()
            .map(|m| {
                let best = |v: Option<Vec<f64>>| best(&v?, m.better == "higher");
                match m.name {
                    "setup_s" => median(&self.per_round(|r| Some(r.setup_s))?),
                    "inputs_per_s" => best(self.per_round(|r| Some(r.inputs_per_s()))),
                    "input_us_p50" => best(self.per_round(|r| r.feed_p50_us)),
                    "checkpoint_pause_us" => best(self.per_round(|r| r.pause_p50_us)),
                    "peak_rss_mb" => peak_rss_mb(),
                    _ => None,
                }
            })
            .collect()
    }

    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub fn per_layer(&self) -> Vec<Option<f64>> {
        let Some(tr) = &self.tracer else {
            return vec![None; PER_LAYER.len()];
        };
        let l = &tr.layers;
        let per_input = |x: f64| (l.inputs > 0).then(|| x / l.inputs as f64);
        let max = |v: &[f64]| v.iter().copied().reduce(f64::max);
        PER_LAYER
            .iter()
            .map(|m| match m.name {
                "fa-proc.accesses_per_input" => per_input(l.observe.calls as f64),
                "fa-proc.access_bytes_per_input" => per_input(l.observe_bytes as f64),
                "fa-allocext.observe_ns" => l.observe.mean_ns(),
                "fa-allocext.malloc_ns" => l.malloc.mean_ns(),
                "fa-allocext.free_ns" => l.free.mean_ns(),
                "fa-allocext.ops_per_input" => {
                    per_input((l.malloc.calls + l.free.calls + l.realloc.calls) as f64)
                }
                "fa-allocext.clone_us_p50" => median(&l.clone_us),
                "fa-allocext.clone_us_max" => max(&l.clone_us),
                "fa-allocext.live_objects" => median(&l.live_objects),
                "fa-heap.malloc_ns" => l.heap_malloc.mean_ns(),
                "fa-heap.free_ns" => l.heap_free.mean_ns(),
                "fa-mem.tlb_hit_rate" => {
                    let lookups = l.tlb_hits + l.tlb_walks;
                    (lookups > 0).then(|| l.tlb_hits as f64 / lookups as f64)
                }
                "fa-mem.tlb_walks_per_input" => per_input(l.tlb_walks as f64),
                "fa-mem.cow_faults_per_input" => per_input(l.cow_faults as f64),
                "fa-mem.resident_pages" => median(&l.resident_pages),
                "fa-mem.snapshot_us" => median(&l.snapshot_us),
                "fa-checkpoint.count" => median(
                    &self
                        .traced
                        .iter()
                        .map(|r| r.checkpoints as f64)
                        .collect::<Vec<_>>(),
                ),
                "fa-checkpoint.snapshot_us" => median(&l.proc_snapshot_us),
                "fa-checkpoint.digest_us" => median(&l.digest_us),
                "fa-checkpoint.rollback_us" => median(&l.rollback_us),
                "fa-exec.trial_ms" => median(&l.trial_ms),
                "core.patchpool.get_ns" => median(&l.pool_get_ns),
                "trace.overhead" => {
                    let untraced = best(&Run::rates(&self.rounds), true);
                    let traced = best(&Run::rates(&self.traced), true);
                    untraced.zip(traced).map(|(u, t)| u / t)
                }
                _ => None,
            })
            .collect()
    }

    /// Human-readable lines that are not part of the result object.
    pub fn info(&self) -> Vec<String> {
        let mut out = Vec::new();
        let rates = sorted(Run::rates(&self.rounds));
        out.push(format!(
            "inputs timed: {} over {} untraced round(s); round inputs_per_s min {} max {}",
            self.rounds.iter().map(|r| r.feeds_timed).sum::<usize>(),
            self.rounds.len(),
            fmt_opt(rates.first().copied()),
            fmt_opt(rates.last().copied()),
        ));
        let p999 = self.per_round(|r| r.feed_p999_us);
        out.push(format!(
            "input_us_p999 {} us (best round)",
            fmt_opt(p999.and_then(|v| best(&v, false)))
        ));
        if let Some(r0) = self.warmup.first() {
            out.push(format!("virtual_digest {:016x} (round 0)", r0.digest));
        }
        if !self.workload.uses_seed() {
            out.push(format!(
                "{} ignores --seed: SynthApp ignores input content",
                self.workload.name()
            ));
        }
        let (attempted, failed) = self.fail_ratio_ops();
        let what = match self.workload {
            Workload::Recover => "bug triggers dropped or recurring after patching",
            _ => "inputs not served",
        };
        out.push(format!(
            "fail_ratio {} ({failed} of {attempted} {what})",
            failed as f64 / attempted.max(1) as f64
        ));
        if self.workload == Workload::Recover {
            let rec = self
                .rounds
                .iter()
                .flat_map(|r| r.recovery_ms.iter().copied());
            let rec = sorted(rec.collect());
            for (q, label) in [(0.5, "p50"), (0.95, "p95")] {
                out.push(format!(
                    "recovery_ms_{label} {} ms (of {} recoveries)",
                    fmt_opt(percentile(&rec, q)),
                    rec.len()
                ));
            }
            let sum = |f: fn(&Round) -> u64| -> u64 { self.all_rounds().map(f).sum() };
            out.push(format!(
                "cases whose bug stayed latent {}, recurrences after patching {}",
                sum(|r| r.latent),
                sum(|r| r.recurrences)
            ));
        }
        if let Some(tr) = &self.tracer {
            out.extend(layer_info(&tr.layers));
        }
        out
    }
}

/// Traced figures that do not fit one number per workload: raw TLB
/// counts, the pause tail when it has enough samples, and the recovery
/// breakdown (recover only).
fn layer_info(l: &Layers) -> Vec<String> {
    let mut out = vec![format!(
        "fa-mem.tlb hits {} walks {} (inputs traced {})",
        l.tlb_hits, l.tlb_walks, l.inputs
    )];
    let pause = sorted(l.pause_us.clone());
    out.push(format!(
        "fa-checkpoint.pause_us p50 {} p99 {} max {} (of {} checkpoint pauses)",
        fmt_opt(percentile(&pause, 0.5)),
        fmt_opt(percentile(&pause, 0.99)),
        fmt_opt(pause.last().copied()),
        pause.len()
    ));
    if l.recoveries.is_empty() {
        out.push("recovery breakdown: n/a (no recoveries)".into());
        return out;
    }
    let col =
        |f: &dyn Fn(&recovery::Phases) -> f64| -> Vec<f64> { l.recoveries.iter().map(f).collect() };
    let wall = col(&|p| p.wall_ms);
    let recov = sorted(wall.clone());
    out.push(format!(
        "core.runtime.recovery_ms_p50 {} p95 {} (traced, of {} recoveries)",
        fmt_opt(percentile(&recov, 0.5)),
        fmt_opt(percentile(&recov, 0.95)),
        recov.len()
    ));
    for (i, (name, _)) in l.recoveries[0].named().iter().enumerate() {
        let v = col(&|p| p.named()[i].1);
        out.push(format!(
            "{name}_ms median {} mean {}",
            fmt_opt(median(&v)),
            fmt_opt(Some(v.iter().sum::<f64>() / v.len() as f64))
        ));
    }
    let trials = col(&|p| p.trials as f64);
    let reuses: usize = l.recoveries.iter().map(|p| p.slab_reuses).sum();
    out.push(format!(
        "fa-exec.trials_per_recovery median {} slab_reuses {reuses}",
        fmt_opt(median(&trials))
    ));
    let unattributed: f64 = l
        .recoveries
        .iter()
        .map(recovery::Phases::unattributed_ms)
        .sum();
    let total: f64 = wall.iter().sum();
    out.push(format!(
        "core.runtime.recover_unattributed_ms mean {} ({:.2}% of recovery wall time)",
        unattributed / wall.len() as f64,
        100.0 * unattributed / total
    ));
    out
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("n/a".into(), |v| format!("{v:.4}"))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result object printed as the last line of a run.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit))
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// Runs one workload and prints its report. Returns whether the run was
/// correct and complete.
fn one(a: &Args, w: Workload) -> bool {
    let r = run(w, a.seed, a.seconds, a.trace, false, a.spans.is_some());
    let (specs, values): (&[MetricSpec], Vec<Option<f64>>) = if a.trace {
        (&PER_LAYER, r.per_layer())
    } else {
        (&END_TO_END, r.end_to_end())
    };
    println!(
        "{} seed {}: {} measured round(s) after {} warm-up (tracing {})",
        w.name(),
        a.seed,
        r.rounds.len() + r.traced.len(),
        r.warmup.len(),
        if a.trace {
            "on alternate rounds"
        } else {
            "off"
        }
    );
    for (m, v) in specs.iter().zip(&values) {
        println!("  {:<34} {} {}", m.name, fmt_opt(*v), m.unit);
    }
    for line in r.info() {
        println!("  {line}");
    }
    if let (Some(path), Some(spans)) = (&a.spans, r.tracer.as_ref().and_then(|t| t.spans.as_ref()))
    {
        match spans.write_jsonl(path) {
            Ok(()) => println!(
                "  spans: {} written to {} ({} dropped)",
                spans.len(),
                path.display(),
                spans.dropped()
            ),
            Err(e) => eprintln!("error: writing spans to {}: {e}", path.display()),
        }
    }
    let violations = r.violations();
    for v in &violations {
        eprintln!("violation: {v}");
    }
    if !violations.is_empty() {
        return false;
    }
    let measured: Vec<(&MetricSpec, f64)> = specs
        .iter()
        .zip(values)
        .filter_map(|(m, v)| v.filter(|v| v.is_finite()).map(|v| (m, v)))
        .collect();
    if measured.len() < specs.len() {
        eprintln!("error: the run was too short to measure every metric");
        return false;
    }
    let (attempted, failed) = r.attempted_failed();
    println!("{}", result_json(true, attempted, failed, &measured));
    true
}

/// `--runs N`: invokes this binary N times per workload, alternating the
/// workload order, and prints each end-to-end metric's median, quartiles
/// and spread (interquartile distance over median) against its bound.
fn runs(a: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let workloads: Vec<Workload> = match a.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    for i in 0..n {
        let mut order: Vec<usize> = (0..workloads.len()).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        let seed = a.seed + i as u64;
        for wi in order {
            let w = workloads[wi];
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &a.seconds.to_string(),
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            if !out.status.success() {
                return Err(format!("{} seed {seed}: {}", w.name(), out.status));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or_default();
            let v: serde_json::Value = serde_json::from_str(last)
                .map_err(|e| format!("{} seed {seed}: no result ({e:?})", w.name()))?;
            if v["correct"].as_bool() != Some(true) {
                return Err(format!("{} seed {seed}: incorrect run", w.name()));
            }
            for (m, col) in END_TO_END.iter().zip(&mut values[wi]) {
                let x = v["metrics"][m.name]["value"].as_f64();
                col.push(x.ok_or(format!("{} seed {seed}: no {}", w.name(), m.name))?);
            }
            eprintln!("run {}/{n} {} seed {seed} done", i + 1, w.name());
        }
    }
    println!(
        "{:<13} {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (w, cols) in workloads.iter().zip(&values) {
        for (m, col) in END_TO_END.iter().zip(cols) {
            let [q1, med, q3] = quartiles(col).unwrap_or([f64::NAN; 3]);
            println!(
                "{:<13} {:<14} {q1:>12.6e} {med:>12.6e} {q3:>12.6e} {:>7.2}% {:>5.0}%",
                w.name(),
                m.name,
                100.0 * (q3 - q1) / med,
                100.0 * m.bound.unwrap_or(0.0)
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (a.runs, a.workload) {
        (Some(n), _) => runs(&a, n).map_err(|e| eprintln!("error: {e}")).is_ok(),
        (None, Some(w)) => one(&a, w),
        (None, None) => unreachable!("parse_args requires --workload without --runs"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let v: serde_json::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            v[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| m["name"].as_str().expect("a name").to_owned())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = v[key].as_array().expect("a list");
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (m, s) in listed.iter().zip(specs) {
                assert_eq!(m["name"].as_str(), Some(s.name));
                assert_eq!(m["unit"].as_str(), Some(s.unit), "{}", s.name);
                assert_eq!(m["better"].as_str(), Some(s.better), "{}", s.name);
                assert_eq!(m["bound"].as_f64(), s.bound, "{}", s.name);
            }
        }
    }

    #[test]
    fn fail_ratio_counts_inputs_not_served_and_failed_triggers_on_recover() {
        let round = |fed, served, failed_triggers| Round {
            fed,
            served,
            triggers: 27,
            failed_triggers,
            ..Round::default()
        };
        let mut run = Run {
            workload: Workload::Recover,
            warmup: Vec::new(),
            rounds: vec![round(1_500, 1_500, 0), round(1_500, 1_499, 2)],
            traced: vec![round(1_500, 1_498, 1)],
            tracer: None,
            overrun: None,
        };
        assert_eq!(run.attempted_failed(), (4_500, 3));
        assert_eq!(run.fail_ratio_ops(), (81, 3));
        run.workload = Workload::ServeApache;
        assert_eq!(run.fail_ratio_ops(), (4_500, 3));
    }

    #[test]
    fn the_round_count_depends_on_the_arguments_only() {
        assert_eq!(Workload::ServeApache.rounds(10.0), 50);
        assert_eq!(Workload::AllocChurn.rounds(10.0), 5);
        assert_eq!(Workload::AllocChurn.rounds(4.0), 2);
        assert_eq!(Workload::AllocChurn.rounds(0.1), 1);
        assert_eq!(Workload::Recover.rounds(20.0), 150);
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        assert!(args("--workload recover --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(args("--runs 2").is_ok());
        assert!(args("--seed 3").is_err(), "a workload is required");
        assert!(args("--workload nonesuch").is_err());
        assert!(args("--workload recover --trace 2").is_err());
        assert!(args("--workload recover --seconds 0").is_err());
        assert!(args("--workload recover --bogus 1").is_err());
        assert!(args("--workload recover --quick").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn a_run_past_its_cap_stops_and_fails() {
        // One serve-apache round takes far more than 3 x 1 ms.
        let r = run(Workload::ServeApache, 1, 0.001, false, false, false);
        assert_eq!((r.warmup.len(), r.rounds.len()), (1, 0));
        let violations = r.violations();
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("stopped after 0 of 1"),
            "{violations:?}"
        );
    }

    #[test]
    fn quick_runs_of_every_workload_are_correct() {
        for w in Workload::ALL {
            let r = run(w, 2, 10.0, true, true, true);
            assert_eq!(r.violations(), Vec::<String>::new(), "{}", w.name());
            let rounds = (r.warmup.len(), r.rounds.len(), r.traced.len());
            assert_eq!(rounds, (1, 1, 1), "{}", w.name());
            let (attempted, failed) = r.attempted_failed();
            assert!(attempted > 0 && failed == 0, "{}", w.name());
            let e2e = r.end_to_end();
            for (m, v) in END_TO_END.iter().zip(&e2e) {
                // A 1% round takes no checkpoint.
                if m.name != "checkpoint_pause_us" {
                    assert!(v.is_some_and(|v| v > 0.0), "{} {}", w.name(), m.name);
                }
            }
            let layers = r.per_layer();
            let overhead = layers[PER_LAYER.len() - 1];
            assert!(overhead.is_some_and(|v| v > 0.0), "{}", w.name());
            let tracer = r.tracer.as_ref().expect("traced run");
            assert!(tracer.spans.as_ref().is_some_and(|s| s.len() > 0));
            let mirrored = tracer.layers.recoveries.len();
            let cases = if w == Workload::Recover { 9 } else { 0 };
            assert_eq!(
                mirrored,
                cases,
                "{}: one mirrored recovery per case",
                w.name()
            );
        }
    }
}
