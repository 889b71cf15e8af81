//! The four workloads. A run repeats one fixed-size round — fresh
//! runtimes, each fed a fixed number of inputs by a single closed-loop
//! client — a fixed number of times. Run length is therefore a round
//! count, never a longer feed: Apache's checkpoint pause grows with its
//! live-object count, so a longer run would be a different program, and a
//! faster commit must not be measured on one. Nor is the count a
//! duration: the best of more rounds is a friendlier estimate, so every
//! commit is scored over the same count.

use std::time::Instant;

use fa_apps::{
    all_specs, alloc_intensive_profiles, spec_by_key, spec_profiles, synth, AppSpec, SynthApp,
    WorkloadSpec,
};
use fa_proc::{BoxedApp, Input};
use first_aid_core::{FirstAidRuntime, PatchPool, RecoveryKind};

use crate::recovery;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeApache,
    AllocChurn,
    CowBigheap,
    Recover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeApache,
        Workload::AllocChurn,
        Workload::CowBigheap,
        Workload::Recover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeApache => "serve-apache",
            Workload::AllocChurn => "alloc-churn",
            Workload::CowBigheap => "cow-bigheap",
            Workload::Recover => "recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the inputs depend on the seed. `SynthApp` ignores input
    /// content, so the two synthetic-profile workloads run the same
    /// program whatever the seed.
    pub fn uses_seed(self) -> bool {
        matches!(self, Workload::ServeApache | Workload::Recover)
    }

    /// Measured rounds of a run sized for `seconds`: the count that took
    /// about 10 s on a 2-vCPU VM, scaled. It depends on the arguments
    /// only, never on how fast the rounds go.
    pub fn rounds(self, seconds: f64) -> usize {
        let per_10s = match self {
            Workload::ServeApache => 50,
            Workload::AllocChurn => 5,
            Workload::CowBigheap => 19,
            Workload::Recover => 75,
        };
        ((per_10s as f64 * seconds / 10.0).round() as usize).max(1)
    }
}

/// Inputs fed per runtime in one round.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub apache: usize,
    pub churn: usize,
    pub cow: usize,
}

/// The measured size.
pub const FULL: Size = Size {
    apache: 25_000,
    churn: 10_000,
    cow: 15_000,
};

/// About 1% of [`FULL`], for smoke runs. Recovery cases keep their
/// 1,500 inputs: the triggers sit at fixed positions.
pub const QUICK: Size = Size {
    apache: 250,
    churn: 100,
    cow: 150,
};

/// The paper's allocation-intensive programs (§7.6): many small objects,
/// 20-40 malloc/free pairs per input, and one checkpoint in about 9,000
/// inputs.
const CHURN_PROGRAMS: [&str; 3] = ["cfrac", "espresso", "p2c"];
/// SPEC programs with 94-183 MB heaps that dirty 2.7-10 KB per input
/// and barely allocate.
const COW_PROGRAMS: [&str; 3] = ["181.mcf", "255.vortex", "256.bzip2"];
/// Inputs per recovery case and where its bug triggers sit: the first
/// trigger must be diagnosed and patched, the patch must absorb the
/// other two.
const RECOVER_INPUTS: usize = 1_500;
const TRIGGERS: [usize; 3] = [400, 800, 1_100];
/// Extra inputs a traced round feeds a fork of each runtime to time a
/// rollback and a re-execution trial.
const TAIL: usize = 200;

/// The workload seed of round `round` of a run with seed `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(round as u64)
}

/// One runtime's share of a round.
struct Case {
    app: BoxedApp,
    inputs: Vec<Input>,
    tail: Vec<Input>,
    /// For recovery cases, the expected diagnosis.
    expect: Option<AppSpec>,
}

fn seeded_case(spec: AppSpec, n: usize, triggers: &[usize], seed: u64) -> Case {
    let mut inputs = (spec.workload)(&WorkloadSpec {
        n: n + TAIL,
        triggers: triggers.to_vec(),
        seed,
    });
    let tail = inputs.split_off(n);
    Case {
        app: (spec.build)(),
        inputs,
        tail,
        expect: triggers.first().map(|_| spec),
    }
}

fn synth_case(name: &str, n: usize) -> Case {
    let profile = spec_profiles()
        .into_iter()
        .chain(alloc_intensive_profiles())
        .find(|p| p.name == name)
        .expect("profile names are fixed above");
    let mut inputs = synth::workload(&profile, n + TAIL);
    let tail = inputs.split_off(n);
    Case {
        app: Box::new(SynthApp::new(profile)),
        inputs,
        tail,
        expect: None,
    }
}

fn cases(w: Workload, seed: u64, size: Size) -> Vec<Case> {
    match w {
        Workload::ServeApache => {
            let apache = spec_by_key("apache").expect("apache is registered");
            vec![seeded_case(apache, size.apache, &[], seed)]
        }
        Workload::AllocChurn => CHURN_PROGRAMS
            .iter()
            .map(|p| synth_case(p, size.churn))
            .collect(),
        Workload::CowBigheap => COW_PROGRAMS
            .iter()
            .map(|p| synth_case(p, size.cow))
            .collect(),
        Workload::Recover => all_specs()
            .into_iter()
            .map(|s| seeded_case(s, RECOVER_INPUTS, &TRIGGERS, seed))
            .collect(),
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time inside `FirstAidRuntime::launch`, summed over the round.
    pub setup_s: f64,
    /// Wall time of the feed loops, summed over the round.
    pub loop_s: f64,
    pub fed: u64,
    pub served: u64,
    /// Feeds that did not fail, and their median and p99.9 latency in
    /// microseconds. Percentiles are taken per round and the samples
    /// dropped, so the benchmark's own memory does not grow with the
    /// round count.
    pub feeds_timed: usize,
    pub feed_p50_us: Option<f64>,
    pub feed_p999_us: Option<f64>,
    /// Checkpoints the runtimes took during their feed loops, and the
    /// median latency of the feeds that took one, in microseconds.
    pub checkpoints: u64,
    pub pause_p50_us: Option<f64>,
    /// Latency of every feed that failed and recovered, in milliseconds.
    pub recovery_ms: Vec<f64>,
    /// Bug-trigger inputs fed.
    pub triggers: u64,
    /// Bug-trigger inputs that were dropped, plus failures after the
    /// case's first one was patched. A recurrence is charged to a
    /// trigger even when it surfaces on a later input, as a dangling
    /// read can.
    pub failed_triggers: u64,
    /// Failures after a case's first one: its patch did not prevent them.
    pub recurrences: u64,
    /// Recovery cases whose triggers never caused a failure: a dangling
    /// read can find its freed object intact (M4 on some seeds).
    pub latent: u64,
    /// Fold of the runtimes' virtual-time outcomes.
    pub digest: u64,
    pub violations: Vec<String>,
}

impl Round {
    pub fn inputs_per_s(&self) -> f64 {
        self.served as f64 / self.loop_s
    }
}

/// Runs round `round` of workload `w`.
pub fn run_round(
    w: Workload,
    seed: u64,
    round: usize,
    size: Size,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let mut out = Round {
        digest: 0xfa1d,
        ..Round::default()
    };
    let seed = if w.uses_seed() {
        round_seed(seed, round)
    } else {
        0
    };
    let mut lat = Latencies::default();
    for case in cases(w, seed, size) {
        run_case(case, &mut out, &mut lat, tracer.as_deref_mut());
    }
    let feed_us = sorted(lat.feed_us);
    out.feeds_timed = feed_us.len();
    out.feed_p50_us = percentile(&feed_us, 0.5);
    out.feed_p999_us = percentile(&feed_us, 0.999);
    out.pause_p50_us = percentile(&sorted(lat.pause_us), 0.5);
    out
}

/// One round's latency samples, in microseconds.
#[derive(Default)]
struct Latencies {
    /// Every feed that did not fail.
    feed_us: Vec<f64>,
    /// Those of them during which the runtime took a checkpoint.
    pause_us: Vec<f64>,
}

fn mix(h: u64, v: u64) -> u64 {
    let mut x = (h ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn run_case(case: Case, out: &mut Round, lat: &mut Latencies, mut tracer: Option<&mut Tracer>) {
    let Case {
        app,
        inputs,
        tail,
        expect,
    } = case;
    let name = app.name();
    let config = fa_bench::paper_config();
    let mirror_inputs = match (&tracer, &expect) {
        (Some(_), Some(_)) => inputs.clone(),
        _ => Vec::new(),
    };
    let t = Instant::now();
    let launched = FirstAidRuntime::launch(app, config.clone(), PatchPool::in_memory());
    out.setup_s += t.elapsed().as_secs_f64();
    let mut rt = match launched {
        Ok(rt) => rt,
        Err(f) => {
            out.violations.push(format!("{name}: launch failed: {f}"));
            return;
        }
    };
    if let Some(tr) = tracer.as_deref_mut() {
        tr.begin_case(&mut rt);
    }

    let mut served = 0u64;
    let mut failures = 0u64;
    let mut first_failure: Option<(f64, usize)> = None;
    let checkpoints_at_start = rt.checkpoint_stats().taken;
    let loop_start = Instant::now();
    for (i, input) in inputs.into_iter().enumerate() {
        let buggy = input.buggy;
        let checkpoints = rt.checkpoint_stats().taken;
        let t = Instant::now();
        let fed = rt.feed(input);
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.fed += 1;
        out.triggers += u64::from(buggy);
        served += u64::from(fed.served);
        if fed.failed {
            failures += 1;
            out.recovery_ms.push(us / 1e3);
        }
        if (buggy && !fed.served) || (fed.failed && failures > 1) {
            out.failed_triggers += 1;
        }
        if !fed.failed {
            lat.feed_us.push(us);
            if rt.checkpoint_stats().taken != checkpoints {
                lat.pause_us.push(us);
            }
        }
        match (&expect, fed.failed) {
            (None, true) => out
                .violations
                .push(format!("{name}: trigger-free input #{i} failed")),
            (None, false) if !fed.served => out
                .violations
                .push(format!("{name}: input #{i} was not served")),
            (Some(spec), true) if failures == 1 => {
                let rec = fed.recovery.and_then(|r| rt.recoveries.get(r));
                match check_first_recovery(spec, rec) {
                    Ok(rollbacks) => first_failure = Some((us / 1e3, rollbacks)),
                    Err(e) => out.violations.push(format!("{name}: input #{i}: {e}")),
                }
            }
            (Some(_), true) => out.recurrences += 1,
            _ => {}
        }
        if let Some(tr) = tracer.as_deref_mut() {
            tr.after_feed(&mut rt, t, us, fed.failed, checkpoints);
        }
    }
    out.loop_s += loop_start.elapsed().as_secs_f64();
    out.checkpoints += rt.checkpoint_stats().taken - checkpoints_at_start;
    out.served += served;
    if expect.is_some() && failures == 0 {
        out.latent += 1;
    }

    let rollbacks: usize = rt
        .recoveries
        .iter()
        .filter_map(|r| r.diagnosis.as_ref())
        .map(|d| d.rollbacks)
        .sum();
    for v in [
        rt.wall_ns(),
        served,
        rt.process().bytes_delivered,
        rollbacks as u64,
    ] {
        out.digest = mix(out.digest, v);
    }

    if let Some(tr) = tracer {
        tr.end_case(&mut rt, tail);
        if let (Some(spec), Some((wall_ms, trials))) = (&expect, first_failure) {
            match recovery::mirror(spec, &mirror_inputs, &config, wall_ms, trials) {
                Ok(phases) => tr.push_recovery(phases),
                Err(e) => out.violations.push(e),
            }
        }
    }
}

/// Checks a case's first recovery against its expected diagnosis and
/// returns its diagnosis trial count.
fn check_first_recovery(
    spec: &AppSpec,
    rec: Option<&first_aid_core::RecoveryRecord>,
) -> Result<usize, String> {
    let rec = rec.ok_or("failure without a recovery record")?;
    if rec.kind != RecoveryKind::Patched {
        return Err(format!("first recovery ended {:?}, not Patched", rec.kind));
    }
    let d = rec
        .diagnosis
        .as_ref()
        .ok_or("patched recovery without a diagnosis")?;
    if d.bugs.is_empty() || d.bugs.iter().any(|b| b.bug != spec.expect_bug) {
        let got: Vec<String> = d.bugs.iter().map(|b| b.bug.to_string()).collect();
        return Err(format!(
            "diagnosed [{}], expected {}",
            got.join(", "),
            spec.expect_bug
        ));
    }
    // Not `== expect_sites`: on some seeds M4 patches one of its two
    // sites and the recurrence counts against prevention instead.
    if !(1..=spec.expect_sites).contains(&rec.patches.len()) {
        return Err(format!(
            "{} patched sites, expected 1..={}",
            rec.patches.len(),
            spec.expect_sites
        ));
    }
    Ok(d.rollbacks)
}
