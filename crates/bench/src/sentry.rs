//! Sentry-tier sweep: sampling overhead vs detection latency.
//!
//! Sweeps the sentry sampling rate (1/16, 1/64, 1/256) over all nine
//! paper applications and measures two opposing quantities:
//!
//! * **Overhead** — virtual wall time of a trigger-free run with the
//!   sentry tier enabled, relative to the same run with it off. The
//!   virtual clock is deterministic, so the numbers are exact and the
//!   CI gate can be tight: at 1/64 the mean overhead must stay under
//!   5% (the always-on production budget from the issue).
//! * **Detection latency** — virtual time at which a run with repeated
//!   bug triggers first fails, with and without sentries. When the
//!   buggy allocation lands in a guarded slot, the trap fires at the
//!   faulting *access* rather than at the later organic abort (e.g. a
//!   boundary-tag check on free), so the failure surfaces earlier; the
//!   gate requires at least one app caught before its organic crash
//!   point at rate 1/64.
//!
//! Everything measured here comes from the simulated clock, so
//! `repro --check sentry` reproduces every field of the committed
//! `results/sentry.json` on any machine.

use fa_allocext::{ExtAllocator, SentryConfig};
use fa_apps::{all_specs, squid, AppSpec, WorkloadSpec};
use fa_proc::{Input, InputBuilder, Process, ProcessCtx};
use serde::{Deserialize, Serialize};

/// Sampling rates swept (1/N allocations considered).
pub const RATES: [u32; 3] = [16, 64, 256];
/// The always-on production rate the acceptance gates apply to.
pub const GATED_RATE: u32 = 64;
/// Mean-overhead budget at the gated rate, percent.
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;
/// Trigger-free inputs per overhead run.
const OVERHEAD_INPUTS: usize = 2_000;
/// Inputs per detection run.
const DETECTION_INPUTS: usize = 1_000;
/// First trigger index of a detection run.
const TRIGGER_START: usize = 50;
/// Spacing between triggers of a detection run — wider than Apache's
/// 250-input revalidation delay, which each new purge pushes back.
const TRIGGER_EVERY: usize = 300;

/// Overhead of one app at one rate (trigger-free runs, virtual time).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppOverhead {
    /// Application key.
    pub app: String,
    /// Virtual wall time with the sentry tier off, ns.
    pub base_wall_ns: u64,
    /// Virtual wall time with the sentry tier at this rate, ns.
    pub sentry_wall_ns: u64,
    /// Allocations redirected into guarded slots.
    pub samples: u64,
    /// Sampling decisions declined for capacity reasons.
    pub skipped: u64,
    /// `(sentry - base) / base`, percent.
    pub overhead_pct: f64,
}

/// Detection latency of one app at one rate (triggered runs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppDetection {
    /// Application key.
    pub app: String,
    /// Input index of the organic (sentry-off) crash.
    pub organic_input: usize,
    /// Virtual time of the organic crash, ns.
    pub organic_ns: u64,
    /// Input index of the first failure with sentries, if any.
    pub failed_input: Option<usize>,
    /// Virtual time of that failure, ns.
    pub failed_ns: Option<u64>,
    /// Whether the failure was a sentry trap (vs the organic abort).
    pub sentry_trapped: bool,
    /// `organic_input - failed_input` when trapped — inputs by which the
    /// sentry beat the organic crash (negative: the sampled slot masked
    /// the organic detector and the failure came later).
    pub advance_inputs: i64,
    /// Trap fired at a strictly earlier input than the organic crash.
    pub caught_early: bool,
}

/// The silent-overflow scenario: a Squid run whose early FTP triggers
/// overflow by 3 bytes — inside the chunk's 16-byte size-class padding,
/// so the base heap never notices — followed by one loud trigger whose
/// 23-byte overflow tramples the next chunk header and crashes the run.
/// A sentried slot turns each silent overflow into canary evidence on
/// free, so the bug surfaces hundreds of inputs before the organic
/// crash point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SilentOverflow {
    /// Input index of the organic crash (the loud trigger).
    pub organic_input: usize,
    /// Input index of the first failure with sentries, if any.
    pub failed_input: Option<usize>,
    /// Whether that failure was a sentry trap.
    pub sentry_trapped: bool,
    /// Inputs by which the sentry beat the organic crash point.
    pub advance_inputs: i64,
    /// Trap fired at a strictly earlier input than the organic crash.
    pub caught_early: bool,
}

/// One rate's full sweep over the nine apps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RateSweep {
    /// Sampling rate (1/N).
    pub rate: u32,
    /// Per-app overhead rows.
    pub overhead: Vec<AppOverhead>,
    /// Mean of `overhead_pct` over the apps.
    pub mean_overhead_pct: f64,
    /// Per-app detection rows.
    pub detection: Vec<AppDetection>,
    /// The silent-overflow scenario at this rate.
    pub silent: SilentOverflow,
    /// Apps whose failure was a sentry trap.
    pub trapped_apps: usize,
    /// Runs caught strictly before their organic crash point (the nine
    /// registry detection runs plus the silent-overflow scenario).
    pub caught_early_apps: usize,
}

/// The full sweep report (`results/sentry.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SentryReport {
    /// Trigger-free inputs per overhead run.
    pub overhead_inputs: usize,
    /// Inputs per detection run.
    pub detection_inputs: usize,
    /// One sweep per sampling rate.
    pub rates: Vec<RateSweep>,
}

fn launch(spec: &AppSpec, sentry: Option<SentryConfig>) -> Process {
    let mut ctx = ProcessCtx::new(1 << 28);
    ctx.swap_alloc(|old| {
        let mut ext = ExtAllocator::attach(old.heap().clone());
        if let Some(cfg) = sentry {
            ext.enable_sentry(cfg);
        }
        Box::new(ext)
    });
    Process::launch((spec.build)(), ctx).unwrap()
}

fn sentry_cfg(rate: u32) -> SentryConfig {
    SentryConfig {
        rate,
        ..SentryConfig::default()
    }
}

/// Feeds `inputs`, stopping at the first failure. Returns the final
/// virtual wall time plus the sentry sample/skip counters.
fn run(
    spec: &AppSpec,
    sentry: Option<SentryConfig>,
    inputs: Vec<Input>,
) -> (Process, u64, u64, u64) {
    let mut p = launch(spec, sentry);
    for input in inputs {
        if !p.feed(input).is_ok() {
            break;
        }
    }
    let wall = p.ctx.clock.now();
    let (samples, skipped) = p.ctx.with_alloc_and_mem(|alloc, _| {
        let ext = alloc
            .as_any()
            .downcast_ref::<ExtAllocator>()
            .expect("the bench attached the extension allocator");
        ext.sentry_metrics()
            .map_or((0, 0), |m| (m.samples, m.skipped))
    });
    (p, wall, samples, skipped)
}

fn measure_overhead(spec: &AppSpec, rate: u32) -> AppOverhead {
    let w = WorkloadSpec::new(OVERHEAD_INPUTS, &[]);
    let (p, base_wall_ns, _, _) = run(spec, None, (spec.workload)(&w));
    assert!(
        p.failure.is_none(),
        "{}: trigger-free baseline must not fail",
        spec.key
    );
    let (p, sentry_wall_ns, samples, skipped) =
        run(spec, Some(sentry_cfg(rate)), (spec.workload)(&w));
    assert!(
        p.failure.is_none(),
        "{}: trigger-free sentried run must not fail (rate {rate})",
        spec.key
    );
    AppOverhead {
        app: spec.key.to_owned(),
        base_wall_ns,
        sentry_wall_ns,
        samples,
        skipped,
        overhead_pct: (sentry_wall_ns as f64 / base_wall_ns as f64 - 1.0) * 100.0,
    }
}

fn measure_detection(spec: &AppSpec, rate: u32) -> AppDetection {
    let triggers: Vec<usize> = (TRIGGER_START..DETECTION_INPUTS)
        .step_by(TRIGGER_EVERY)
        .collect();
    let w = WorkloadSpec::new(DETECTION_INPUTS, &triggers);
    let (p, _, _, _) = run(spec, None, (spec.workload)(&w));
    let organic = p
        .failure
        .clone()
        .unwrap_or_else(|| panic!("{}: the triggered run must crash organically", spec.key));
    let (p, _, _, _) = run(spec, Some(sentry_cfg(rate)), (spec.workload)(&w));
    let failure = p.failure.clone();
    let sentry_trapped = failure
        .as_ref()
        .is_some_and(|f| f.fault.class() == "sentry-trap");
    let advance_inputs = failure
        .as_ref()
        .filter(|_| sentry_trapped)
        .map_or(0, |f| organic.input_index as i64 - f.input_index as i64);
    AppDetection {
        app: spec.key.to_owned(),
        organic_input: organic.input_index,
        organic_ns: organic.at_ns,
        failed_input: failure.as_ref().map(|f| f.input_index),
        failed_ns: failure.as_ref().map(|f| f.at_ns),
        sentry_trapped,
        advance_inputs,
        caught_early: sentry_trapped && advance_inputs > 0,
    }
}

/// Input index of the loud (header-trampling) trigger of the
/// silent-overflow scenario — the organic crash point.
const SILENT_LOUD_AT: usize = 700;

/// Builds the silent-overflow Squid stream: HTTP fetches, benign FTP
/// listings, a padding-bounded silent overflow every tenth input, and
/// one loud trigger at [`SILENT_LOUD_AT`].
fn silent_squid_inputs() -> Vec<Input> {
    (0..SILENT_LOUD_AT + 40)
        .map(|i| {
            if i == SILENT_LOUD_AT {
                // 24 tildes escape to 23 bytes past the estimate —
                // through the padding, into the next chunk header.
                InputBuilder::op(squid::ops::FTP)
                    .text(format!("{}.example.org", "~".repeat(24)))
                    .gap_us(1_500)
                    .buggy()
                    .build()
            } else if i % 10 == 5 {
                // 4 tildes in a 25-char host: estimate 8 + 25 = 33
                // (rounded to a 48-byte user area), actual 7 + 29 = 36.
                // The 3-byte overflow stays inside the padding — silent
                // on the base heap, canary evidence in a sentried slot.
                InputBuilder::op(squid::ops::FTP)
                    .text(format!("{}{}", "~".repeat(4), "a".repeat(21)))
                    .gap_us(1_500)
                    .buggy()
                    .build()
            } else if i % 7 == 3 {
                InputBuilder::op(squid::ops::FTP)
                    .text("ftp.mirror.net")
                    .gap_us(1_500)
                    .build()
            } else {
                InputBuilder::op(squid::ops::HTTP)
                    .a(8_192 + (i as u64 * 37) % 8_192)
                    .gap_us(1_500)
                    .build()
            }
        })
        .collect()
}

fn measure_silent(rate: u32) -> SilentOverflow {
    let spec = fa_apps::spec_by_key("squid").expect("squid is registered");
    let (p, _, _, _) = run(&spec, None, silent_squid_inputs());
    let organic = p
        .failure
        .clone()
        .expect("the loud trigger must crash the organic run");
    assert_eq!(
        organic.input_index, SILENT_LOUD_AT,
        "silent overflows must stay silent on the base heap"
    );
    let (p, _, _, _) = run(&spec, Some(sentry_cfg(rate)), silent_squid_inputs());
    let failure = p.failure.clone();
    let sentry_trapped = failure
        .as_ref()
        .is_some_and(|f| f.fault.class() == "sentry-trap");
    let advance_inputs = failure
        .as_ref()
        .filter(|_| sentry_trapped)
        .map_or(0, |f| organic.input_index as i64 - f.input_index as i64);
    SilentOverflow {
        organic_input: organic.input_index,
        failed_input: failure.as_ref().map(|f| f.input_index),
        sentry_trapped,
        advance_inputs,
        caught_early: sentry_trapped && advance_inputs > 0,
    }
}

fn sweep(rate: u32) -> RateSweep {
    let overhead: Vec<AppOverhead> = all_specs()
        .iter()
        .map(|s| measure_overhead(s, rate))
        .collect();
    let mean_overhead_pct =
        overhead.iter().map(|o| o.overhead_pct).sum::<f64>() / overhead.len() as f64;
    let detection: Vec<AppDetection> = all_specs()
        .iter()
        .map(|s| measure_detection(s, rate))
        .collect();
    let silent = measure_silent(rate);
    RateSweep {
        rate,
        mean_overhead_pct,
        trapped_apps: detection.iter().filter(|d| d.sentry_trapped).count(),
        caught_early_apps: detection.iter().filter(|d| d.caught_early).count()
            + usize::from(silent.caught_early),
        overhead,
        detection,
        silent,
    }
}

/// Runs the full sweep. Every number is virtual-clock-derived, so the
/// report is identical across machines and runs.
pub fn measure() -> SentryReport {
    SentryReport {
        overhead_inputs: OVERHEAD_INPUTS,
        detection_inputs: DETECTION_INPUTS,
        rates: RATES.iter().map(|&r| sweep(r)).collect(),
    }
}

/// The two acceptance rules at rate 1/64, which hold whatever the
/// committed file says: mean overhead under 5%, and at least one run
/// caught before its organic crash point. Returns the violations.
pub fn check(report: &SentryReport) -> Vec<String> {
    let Some(s) = report.rates.iter().find(|s| s.rate == GATED_RATE) else {
        return vec![format!("rate 1/{GATED_RATE} missing from the sweep")];
    };
    let mut violations = Vec::new();
    if s.mean_overhead_pct >= OVERHEAD_BUDGET_PCT {
        violations.push(format!(
            "rate 1/{GATED_RATE}: mean overhead {:.2}% breaks the \
             {OVERHEAD_BUDGET_PCT}% always-on budget",
            s.mean_overhead_pct
        ));
    }
    if s.caught_early_apps < 1 {
        violations.push(format!(
            "rate 1/{GATED_RATE}: no app was caught before its organic crash point"
        ));
    }
    violations
}

/// Renders the report as a human-readable table.
pub fn render(r: &SentryReport) -> String {
    let mut out = String::new();
    for s in &r.rates {
        out.push_str(&format!(
            "Sentry rate 1/{} — mean overhead {:.2}%, {} of {} apps trapped, {} caught early\n",
            s.rate,
            s.mean_overhead_pct,
            s.trapped_apps,
            s.detection.len(),
            s.caught_early_apps,
        ));
        for (o, d) in s.overhead.iter().zip(&s.detection) {
            let caught = if d.caught_early {
                format!("caught {} inputs early", d.advance_inputs)
            } else if d.sentry_trapped {
                "trapped at crash point".to_owned()
            } else {
                "organic crash".to_owned()
            };
            out.push_str(&format!(
                "  {:<12} overhead {:>6.2}%  ({:>5} sampled, {:>5} skipped)  {}\n",
                o.app, o.overhead_pct, o.samples, o.skipped, caught
            ));
        }
        let si = &s.silent;
        out.push_str(&match (si.caught_early, si.sentry_trapped) {
            (true, _) => format!(
                "  silent-overflow squid: canary evidence at input {} — {} inputs \
                 before the organic crash at {}\n",
                si.failed_input.unwrap_or(0),
                si.advance_inputs,
                si.organic_input
            ),
            (false, true) => format!(
                "  silent-overflow squid: trapped only at the organic crash point ({})\n",
                si.organic_input
            ),
            (false, false) => format!(
                "  silent-overflow squid: not sampled; organic crash at {}\n",
                si.organic_input
            ),
        });
    }
    out
}
