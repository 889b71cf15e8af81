//! Wall-clock performance benchmark and regression gate.
//!
//! Unlike the paper-table benches (which report *virtual* time from the
//! simulated clock), this module measures the real wall-clock cost of
//! the simulator itself — normal-run throughput per application, the
//! snapshot/restore hot path, and end-to-end diagnosis latency. The
//! numbers land in `results/perf.json`; CI replays the measurements with
//! `--check` and fails on regression against the committed baseline.
//!
//! Two kinds of gate:
//!
//! * **Virtual time** is deterministic (it comes from the simulated
//!   clock), so the threshold is tight: diagnosis must stay within 25%
//!   of the baseline.
//! * **Wall-clock** numbers vary with the machine and load, so the
//!   thresholds are deliberately generous (throughput may drop to 35%
//!   of baseline, snapshot/restore may grow 2.5×) — they catch
//!   order-of-magnitude regressions like an accidentally quadratic hot
//!   path, not noise.

use std::time::Instant;

use fa_allocext::ExtAllocator;
use fa_apps::{all_specs, spec_by_key, AppSpec, WorkloadSpec};
use fa_checkpoint::{AdaptiveConfig, CheckpointManager};
use fa_mem::{Addr, Perms, SimMemory, PAGE_SIZE};
use fa_proc::{Process, ProcessCtx};
use first_aid_core::{DiagnosisEngine, DiagnosisOutcome, EngineConfig, FaultPlan};
use serde::{Deserialize, Serialize};

/// Normal-run throughput of one application (no bug triggers).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppThroughput {
    /// Application key.
    pub app: String,
    /// Inputs fed.
    pub inputs: usize,
    /// Wall-clock time for the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Throughput in inputs per wall-clock second.
    pub inputs_per_sec: f64,
}

/// Wall-clock cost of the checkpoint hot path.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SnapshotCost {
    /// Measurement cycles averaged over.
    pub cycles: usize,
    /// Objects in the allocator extension's table after the warm-up,
    /// when the timed checkpoints start.
    pub live_objects: usize,
    /// Mean wall-clock cost of taking one checkpoint, in microseconds.
    pub snapshot_us: f64,
    /// Mean wall-clock cost of one rollback, in microseconds.
    pub restore_us: f64,
}

/// Hot-path figures for the paged memory substrate: the TLB in front
/// of the radix page-table walk, and the permission-flip primitive
/// behind guard-page install and poison-on-free.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemSubstrate {
    /// Translation-cache hits across a normal Apache run.
    pub tlb_hits: u64,
    /// Translation-cache misses (page-table walks) across the same run.
    pub tlb_misses: u64,
    /// `hits / (hits + misses)`.
    pub tlb_hit_rate: f64,
    /// Permission flips timed for `guard_flip_ns`.
    pub flips: usize,
    /// Mean wall-clock cost of one `protect()` permission flip, in
    /// nanoseconds. Flips allocate no frames, so this must stay
    /// page-count-independent and far below a page copy.
    pub guard_flip_ns: f64,
}

/// Diagnosis latency for one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiagnosisLatency {
    /// Application key.
    pub app: String,
    /// Wall-clock latency of the diagnosis, in milliseconds.
    pub wall_ms: f64,
    /// Virtual time charged by the diagnosis, in milliseconds.
    pub virtual_ms: f64,
    /// Rollback/re-execution trials.
    pub rollbacks: usize,
}

/// The full benchmark report (`results/perf.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Normal-run throughput, one row per application.
    pub throughput: Vec<AppThroughput>,
    /// Checkpoint hot-path cost.
    pub snapshot: SnapshotCost,
    /// Memory-substrate hot paths (TLB hit rate, guard-flip cost).
    pub memory: MemSubstrate,
    /// Diagnosis latency.
    pub diagnosis: Vec<DiagnosisLatency>,
}

fn launch(spec: &AppSpec, heap: u64) -> Process {
    let mut ctx = ProcessCtx::new(heap);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    Process::launch((spec.build)(), ctx).unwrap()
}

/// Feeds `n` trigger-free inputs and reports the wall-clock rate.
fn measure_throughput(spec: &AppSpec, n: usize) -> AppThroughput {
    let mut p = launch(spec, 1 << 28);
    let w = (spec.workload)(&WorkloadSpec::new(n, &[]));
    let t = Instant::now();
    for input in w {
        assert!(
            p.feed(input).is_ok(),
            "{}: trigger-free workload must not fail",
            spec.key
        );
    }
    let wall = t.elapsed().as_secs_f64();
    AppThroughput {
        app: spec.key.to_owned(),
        inputs: n,
        wall_ms: wall * 1e3,
        inputs_per_sec: n as f64 / wall,
    }
}

/// Apache inputs fed before the checkpoint hot path is timed. The live
/// set grows by about 0.4 objects per input, so the timed checkpoints see
/// the ~10k objects of a long-running server, and a checkpoint cost that
/// grows with the live set shows up in the gate.
const SNAPSHOT_WARMUP_INPUTS: usize = 25_000;

/// Times the checkpoint/rollback hot path on a warmed-up Apache process.
fn measure_snapshot(cycles: usize) -> SnapshotCost {
    let spec = spec_by_key("apache").unwrap();
    let mut p = launch(&spec, 1 << 28);
    let mut mgr = CheckpointManager::new(AdaptiveConfig::default(), 16);
    let w = (spec.workload)(&WorkloadSpec::new(
        SNAPSHOT_WARMUP_INPUTS + cycles * 10,
        &[],
    ));
    let mut inputs = w.into_iter();
    for _ in 0..SNAPSHOT_WARMUP_INPUTS {
        assert!(p.feed(inputs.next().unwrap()).is_ok());
    }
    let live_objects = p
        .ctx
        .alloc()
        .as_any()
        .downcast_ref::<ExtAllocator>()
        .expect("launch attaches the allocator extension")
        .table()
        .len();
    // The first checkpoint hashes every resident page; later ones hash
    // only the pages dirtied since. Taking it untimed makes the quick
    // `--check` run time the same steady-state cycle as the baseline.
    mgr.force_checkpoint(&mut p);
    let (mut snap_ns, mut rest_ns) = (0u128, 0u128);
    for _ in 0..cycles {
        for _ in 0..10 {
            assert!(p.feed(inputs.next().unwrap()).is_ok());
        }
        let t = Instant::now();
        let id = mgr.force_checkpoint(&mut p);
        snap_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        assert!(mgr.rollback_to(&mut p, id));
        rest_ns += t.elapsed().as_nanos();
    }
    SnapshotCost {
        cycles,
        live_objects,
        snapshot_us: snap_ns as f64 / cycles as f64 / 1e3,
        restore_us: rest_ns as f64 / cycles as f64 / 1e3,
    }
}

/// Measures the memory-substrate hot paths.
///
/// The TLB hit rate comes from a normal (trigger-free) Apache run — the
/// same access mix the throughput rows measure — read off the process's
/// address space afterwards. The guard-flip cost times `protect()`
/// GUARD/RW round trips on a dedicated region, the primitive fa-sentry
/// uses for every slot placement, poison and release.
fn measure_mem_substrate(quick: bool) -> MemSubstrate {
    let spec = spec_by_key("apache").unwrap();
    let mut p = launch(&spec, 1 << 28);
    let n = if quick { 1_000 } else { 2_000 };
    for input in (spec.workload)(&WorkloadSpec::new(n, &[])) {
        assert!(
            p.feed(input).is_ok(),
            "apache: trigger-free workload must not fail"
        );
    }
    let stats = p.ctx.mem.tlb_stats();
    let lookups = stats.hits + stats.misses;
    let tlb_hit_rate = if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    };

    let mut mem = SimMemory::new();
    let base = Addr(0x7000_0000);
    mem.map(base, 1 << 20, "flip-bench").unwrap();
    let flips = if quick { 20_000 } else { 50_000 };
    let t = Instant::now();
    for i in 0..flips {
        let page = base.offset(((i % 256) * PAGE_SIZE) as u64);
        let perms = if i % 2 == 0 { Perms::GUARD } else { Perms::RW };
        mem.protect(page, PAGE_SIZE as u64, perms).unwrap();
    }
    let guard_flip_ns = t.elapsed().as_nanos() as f64 / flips as f64;
    MemSubstrate {
        tlb_hits: stats.hits,
        tlb_misses: stats.misses,
        tlb_hit_rate,
        flips,
        guard_flip_ns,
    }
}

/// Drives `spec` to its failure with checkpoints spaced so phase 1 can
/// reach a pre-trigger checkpoint within its search budget.
fn build_failed(spec: &AppSpec) -> (Process, CheckpointManager) {
    let mut p = launch(spec, 1 << 28);
    let mut mgr = CheckpointManager::new(AdaptiveConfig::default(), 16);
    mgr.force_checkpoint(&mut p);
    let w = (spec.workload)(&WorkloadSpec::new(600, &[100]));
    let mut ok = 0usize;
    for input in w {
        if !p.feed(input).is_ok() {
            break;
        }
        ok += 1;
        if ok.is_multiple_of(40) {
            mgr.force_checkpoint(&mut p);
        }
    }
    assert!(
        p.failure.is_some(),
        "{}: the trigger input must fail the process",
        spec.key
    );
    (p, mgr)
}

/// Measures the diagnosis latency of one app's failure.
fn measure_diagnosis(key: &str) -> DiagnosisLatency {
    let spec = spec_by_key(key).unwrap();
    let (mut p, mgr) = build_failed(&spec);
    let engine = DiagnosisEngine::with_faults(EngineConfig::default(), FaultPlan::none());
    let t = Instant::now();
    let outcome = engine.diagnose(&mut p, &mgr);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let d = match outcome {
        DiagnosisOutcome::Diagnosed(d) => d,
        other => panic!("{key}: diagnosis must succeed, got {other:?}"),
    };
    DiagnosisLatency {
        app: key.to_owned(),
        wall_ms,
        virtual_ms: d.elapsed_ns as f64 / 1e6,
        rollbacks: d.rollbacks,
    }
}

/// Runs the full benchmark. `quick` scales down the throughput runs
/// (the rate stays comparable to a full-size baseline).
pub fn measure(quick: bool) -> PerfReport {
    let n = if quick { 1_500 } else { 3_000 };
    let throughput = all_specs()
        .iter()
        .map(|s| measure_throughput(s, n))
        .collect();
    let snapshot = measure_snapshot(if quick { 20 } else { 50 });
    let memory = measure_mem_substrate(quick);
    let diagnosis = ["apache", "squid"]
        .iter()
        .map(|k| measure_diagnosis(k))
        .collect();
    PerfReport {
        throughput,
        snapshot,
        memory,
        diagnosis,
    }
}

/// Compares `current` against `baseline`, returning the violations.
///
/// The TLB floor is absolute (it holds with or without a baseline); the
/// remaining gates need a baseline to compare against.
pub fn check(baseline: Option<&PerfReport>, current: &PerfReport) -> Vec<String> {
    let mut violations = Vec::new();
    if current.memory.tlb_hit_rate < 0.5 {
        violations.push(format!(
            "TLB hit rate {:.1}% is below the absolute 50% floor",
            current.memory.tlb_hit_rate * 100.0
        ));
    }
    let Some(base) = baseline else {
        return violations;
    };
    for cur in &current.throughput {
        if let Some(b) = base.throughput.iter().find(|b| b.app == cur.app) {
            if cur.inputs_per_sec < b.inputs_per_sec * 0.35 {
                violations.push(format!(
                    "{}: throughput {:.0}/s fell below 35% of baseline {:.0}/s",
                    cur.app, cur.inputs_per_sec, b.inputs_per_sec
                ));
            }
        }
    }
    if current.snapshot.snapshot_us > base.snapshot.snapshot_us * 2.5 {
        violations.push(format!(
            "snapshot cost {:.1}us exceeds 2.5x baseline {:.1}us",
            current.snapshot.snapshot_us, base.snapshot.snapshot_us
        ));
    }
    if current.snapshot.restore_us > base.snapshot.restore_us * 2.5 {
        violations.push(format!(
            "restore cost {:.1}us exceeds 2.5x baseline {:.1}us",
            current.snapshot.restore_us, base.snapshot.restore_us
        ));
    }
    if current.memory.guard_flip_ns > base.memory.guard_flip_ns * 2.5 {
        violations.push(format!(
            "guard flip cost {:.0}ns exceeds 2.5x baseline {:.0}ns",
            current.memory.guard_flip_ns, base.memory.guard_flip_ns
        ));
    }
    if current.memory.tlb_hit_rate < base.memory.tlb_hit_rate - 0.10 {
        violations.push(format!(
            "TLB hit rate {:.1}% fell more than 10 points below baseline {:.1}%",
            current.memory.tlb_hit_rate * 100.0,
            base.memory.tlb_hit_rate * 100.0
        ));
    }
    for cur in &current.diagnosis {
        if let Some(b) = base.diagnosis.iter().find(|b| b.app == cur.app) {
            if cur.virtual_ms > b.virtual_ms * 1.25 {
                violations.push(format!(
                    "{}: diagnosis virtual time {:.2}ms exceeds 1.25x baseline {:.2}ms",
                    cur.app, cur.virtual_ms, b.virtual_ms
                ));
            }
        }
    }
    violations
}

/// Renders the report as a human-readable table.
pub fn render(r: &PerfReport) -> String {
    let mut out = String::from("Normal-run throughput (wall clock)\n");
    for t in &r.throughput {
        out.push_str(&format!(
            "  {:<12} {:>6} inputs  {:>9.1} ms  {:>10.0} inputs/s\n",
            t.app, t.inputs, t.wall_ms, t.inputs_per_sec
        ));
    }
    out.push_str(&format!(
        "Checkpoint hot path ({} cycles, {} live objects): snapshot {:.1} us, \
         restore {:.1} us\n",
        r.snapshot.cycles, r.snapshot.live_objects, r.snapshot.snapshot_us, r.snapshot.restore_us
    ));
    out.push_str(&format!(
        "Memory substrate: TLB hit rate {:.1}% ({} hits / {} walks), \
         guard flip {:.0} ns ({} flips)\n",
        r.memory.tlb_hit_rate * 100.0,
        r.memory.tlb_hits,
        r.memory.tlb_misses,
        r.memory.guard_flip_ns,
        r.memory.flips
    ));
    out.push_str("Diagnosis latency\n");
    for d in &r.diagnosis {
        out.push_str(&format!(
            "  {:<12} virtual {:>8.2} ms  wall {:>7.1} ms  {} rollbacks\n",
            d.app, d.virtual_ms, d.wall_ms, d.rollbacks,
        ));
    }
    out
}
