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
//!
//! Four rules are absolute and need no baseline: the TLB hit rate must
//! stay at or above 50%, checking an intact canary range may cost at most
//! 4× filling it, filling a range may cost at most 3/4 of writing the same
//! number of bytes, both timed in the same run, and a checkpoint that
//! dirtied thousands of pages may pause the serving thread for at most
//! 100 ns per dirty page.
//!
//! One baseline rule is exact: the TLB figures come from a deterministic
//! Apache run of the same length in both modes, and it may make no more
//! page-table walks than the baseline's. The rule counts walks, not the
//! hit rate, because a change that merges two accesses into one removes
//! a hit and leaves the walks alone.

use std::time::Instant;

use fa_allocext::{check_canary, fill_canary, ExtAllocator};
use fa_apps::{all_specs, spec_by_key, spec_profiles, AppSpec, SynthApp, WorkloadSpec};
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

/// Wall-clock pause of checkpoints that dirtied thousands of pages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BigCheckpointCost {
    /// Synthetic profile checkpointed.
    pub profile: String,
    /// Checkpoints timed.
    pub cycles: usize,
    /// Median pages dirtied since the previous checkpoint.
    pub dirty_pages: usize,
    /// Median wall-clock pause of one checkpoint, in microseconds.
    pub pause_us: f64,
    /// Median pause per dirty page, in nanoseconds. Rehashing a dirty
    /// page costs about 1,000 ns, so this shows whether the checkpoint
    /// digested its pages on the serving thread.
    pub pause_ns_per_dirty_page: f64,
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
    /// Median wall-clock cost of checking an intact canary range, in
    /// nanoseconds per KiB. Diagnosis checks every delay-freed object,
    /// pad and heap mark after each trial, so this must stay near
    /// `canary_fill_ns_per_kib`.
    pub canary_check_ns_per_kib: f64,
    /// Median wall-clock cost of filling the same range with the canary,
    /// timed in alternation with the check, in nanoseconds per KiB.
    pub canary_fill_ns_per_kib: f64,
    /// Median wall-clock cost of `SimMemory::fill` over 64 KiB starting
    /// mid-page, in nanoseconds per KiB. Whole pages are stored as one
    /// byte, so this must stay well below `write_ns_per_kib`.
    pub fill_ns_per_kib: f64,
    /// Median wall-clock cost of `SimMemory::write` of 64 KiB starting
    /// mid-page, on a range disjoint from the fill's and timed in
    /// alternation with it, in nanoseconds per KiB.
    pub write_ns_per_kib: f64,
}

/// Diagnosis latency for one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiagnosisLatency {
    /// Application key.
    pub app: String,
    /// Diagnoses timed, each of a freshly failed process.
    pub runs: usize,
    /// Median wall-clock latency of one diagnosis, in milliseconds.
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
    /// Pause of checkpoints with thousands of dirty pages.
    pub big_checkpoint: BigCheckpointCost,
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
    // only the pages dirtied since. Taking it untimed, and waiting for
    // its checksum (it dirtied enough pages to be hashed on a helper
    // thread), makes the quick `--check` run time the same steady-state
    // cycle as the baseline.
    let first = mgr.force_checkpoint(&mut p);
    assert!(mgr.get(first).is_some_and(|c| c.verify()));
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

/// Pages a big checkpoint must have dirtied since the previous one.
const BIG_CHECKPOINT_MIN_DIRTY: usize = 4_096;

/// A big checkpoint may pause the serving thread for at most this many
/// nanoseconds per dirty page. Digesting the dirty pages on the serving
/// thread costs 1,000-1,500 ns per page; taking the snapshot and handing
/// the digest to a helper thread costs 30-50 on a 2-vCPU VM.
const BIG_CHECKPOINT_MAX_NS_PER_PAGE: f64 = 100.0;

/// Times checkpoints of the `256.bzip2` profile, each taken after one
/// base checkpoint interval of inputs, in which it rewrites its 16 MB
/// working set, and returns the medians. The process runs on the
/// allocator extension, like a supervised one.
fn measure_big_checkpoint(cycles: usize) -> BigCheckpointCost {
    let profile = spec_profiles()
        .into_iter()
        .find(|p| p.name == "256.bzip2")
        .unwrap();
    let mut ctx = ProcessCtx::new(1 << 31);
    ctx.swap_alloc(|old| Box::new(ExtAllocator::attach(old.heap().clone())));
    let mut p = Process::launch(Box::new(SynthApp::new(profile)), ctx).unwrap();
    let config = AdaptiveConfig::default();
    let interval = config.base_interval_ns;
    let mut mgr = CheckpointManager::new(config, 2);
    let startup = mgr.force_checkpoint(&mut p);
    let input = fa_apps::synth::workload(&profile, 1).remove(0);
    let (mut dirty, mut pause_ns) = (Vec::new(), Vec::new());
    for _ in 0..cycles {
        let due = p.ctx.clock.now() + interval;
        while p.ctx.clock.now() < due {
            assert!(p.feed(input.clone()).is_ok());
        }
        dirty.push(p.ctx.mem.dirty_page_count());
        let t = Instant::now();
        std::hint::black_box(mgr.force_checkpoint(&mut p));
        pause_ns.push(t.elapsed().as_nanos() as f64);
        // Drops the timed checkpoint, so the run holds one interval's
        // pages at a time.
        mgr.truncate_after(startup);
    }
    assert!(
        dirty.iter().all(|&d| d >= BIG_CHECKPOINT_MIN_DIRTY),
        "256.bzip2 must dirty {BIG_CHECKPOINT_MIN_DIRTY} pages per interval, got {dirty:?}"
    );
    let per_page = pause_ns.iter().zip(&dirty).map(|(ns, &d)| ns / d as f64);
    BigCheckpointCost {
        profile: profile.name.to_owned(),
        cycles,
        pause_ns_per_dirty_page: median(per_page.collect()),
        dirty_pages: median(dirty),
        pause_us: median(pause_ns) / 1e3,
    }
}

/// Returns the median (the upper one of an even count).
fn median<T: Copy + PartialOrd>(mut v: Vec<T>) -> T {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// The median of `ns` per KiB of a `len`-byte range.
fn ns_per_kib(ns: Vec<u128>, len: u64) -> f64 {
    median(ns) as f64 / (len / 1024) as f64
}

/// A canary check may cost at most this many times a fill of the same
/// range. Both touch every byte once, so an in-place check costs about
/// what the fill does; a check that copies the range out first costs
/// over 20 times as much.
const CANARY_CHECK_MAX_FILL_RATIO: f64 = 4.0;

/// Times `fill_canary` and `check_canary` in alternation over one intact
/// 64 KiB range that starts and ends mid-page, and returns the median of
/// each in nanoseconds per KiB. Medians keep a preempted sample from
/// moving either figure.
fn measure_canary(reps: usize) -> (f64, f64) {
    const LEN: u64 = 64 * 1024;
    let mut mem = SimMemory::new();
    let base = Addr(0x7000_0000);
    mem.map(base, 1 << 20, "canary-bench").unwrap();
    let start = base.offset(PAGE_SIZE as u64 + 12);
    let (mut fill, mut check) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t = Instant::now();
        fill_canary(&mut mem, start, LEN).unwrap();
        fill.push(t.elapsed().as_nanos());
        let t = Instant::now();
        let found = check_canary(&mut mem, start, LEN).unwrap();
        check.push(t.elapsed().as_nanos());
        assert!(found.is_none(), "a freshly filled canary must be intact");
    }
    (ns_per_kib(check, LEN), ns_per_kib(fill, LEN))
}

/// A fill may cost at most this fraction of a write of the same length.
/// Storing a whole page as one byte makes a 64 KiB fill cost about half
/// the write; a fill that writes every byte, as a write does, costs as
/// much as the write or more.
const FILL_MAX_WRITE_RATIO: f64 = 0.75;

/// Times `SimMemory::fill` and `SimMemory::write` of 64 KiB, each starting
/// mid-page, in alternation on disjoint ranges, and returns the median of
/// each in nanoseconds per KiB.
fn measure_fill_write(reps: usize) -> (f64, f64) {
    const LEN: u64 = 64 * 1024;
    let mut mem = SimMemory::new();
    let base = Addr(0x7000_0000);
    mem.map(base, 1 << 20, "fill-bench").unwrap();
    let fill_at = base.offset(PAGE_SIZE as u64 + 12);
    let write_at = fill_at.offset(LEN + PAGE_SIZE as u64);
    let data = vec![0x5a; LEN as usize];
    let (mut fill, mut write) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t = Instant::now();
        mem.fill(fill_at, LEN, 0x5a).unwrap();
        fill.push(t.elapsed().as_nanos());
        let t = Instant::now();
        mem.write(write_at, &data).unwrap();
        write.push(t.elapsed().as_nanos());
    }
    (ns_per_kib(fill, LEN), ns_per_kib(write, LEN))
}

/// Inputs of the Apache run the TLB figures come from, in both modes.
const TLB_RUN_INPUTS: usize = 2_000;

/// Measures the memory-substrate hot paths.
///
/// The TLB figures come from a normal (trigger-free) Apache run — the
/// same access mix the throughput rows measure — read off the process's
/// address space afterwards. The run has the same length in both modes,
/// so its walk count compares exactly with the baseline's. The
/// guard-flip cost times `protect()` GUARD/RW round trips on a dedicated
/// region, the primitive fa-sentry uses for every slot placement, poison
/// and release. The canary figures
/// time the check diagnosis runs on every canary range after each trial
/// against the fill that wrote the range, and the fill figures time the
/// zero and canary fills of allocation against a plain write.
fn measure_mem_substrate(quick: bool) -> MemSubstrate {
    let spec = spec_by_key("apache").unwrap();
    let mut p = launch(&spec, 1 << 28);
    for input in (spec.workload)(&WorkloadSpec::new(TLB_RUN_INPUTS, &[])) {
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
    let reps = if quick { 500 } else { 1_000 };
    let (canary_check_ns_per_kib, canary_fill_ns_per_kib) = measure_canary(reps);
    let (fill_ns_per_kib, write_ns_per_kib) = measure_fill_write(reps);
    MemSubstrate {
        tlb_hits: stats.hits,
        tlb_misses: stats.misses,
        tlb_hit_rate,
        flips,
        guard_flip_ns,
        canary_check_ns_per_kib,
        canary_fill_ns_per_kib,
        fill_ns_per_kib,
        write_ns_per_kib,
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

/// Measures the diagnosis latency of one app's failure: the median wall
/// time of `runs` diagnoses, each of a freshly failed process. Virtual time
/// and rollbacks are deterministic, so every run must agree on them.
fn measure_diagnosis(key: &str, runs: usize) -> DiagnosisLatency {
    let spec = spec_by_key(key).unwrap();
    let engine = DiagnosisEngine::with_faults(EngineConfig::default(), FaultPlan::none());
    let (mut wall_ms, mut diagnosed) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
    for _ in 0..runs {
        let (mut p, mgr) = build_failed(&spec);
        let t = Instant::now();
        let outcome = engine.diagnose(&mut p, &mgr);
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match outcome {
            DiagnosisOutcome::Diagnosed(d) => diagnosed.push((d.elapsed_ns, d.rollbacks)),
            other => panic!("{key}: diagnosis must succeed, got {other:?}"),
        }
    }
    let (elapsed_ns, rollbacks) = diagnosed[0];
    assert!(
        diagnosed.iter().all(|&d| d == (elapsed_ns, rollbacks)),
        "{key}: diagnosis virtual time and rollbacks must not vary between runs"
    );
    DiagnosisLatency {
        app: key.to_owned(),
        runs,
        wall_ms: median(wall_ms),
        virtual_ms: elapsed_ns as f64 / 1e6,
        rollbacks,
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
    let big_checkpoint = measure_big_checkpoint(if quick { 5 } else { 9 });
    let memory = measure_mem_substrate(quick);
    let diagnosis = ["apache", "squid"]
        .iter()
        .map(|k| measure_diagnosis(k, if quick { 3 } else { 5 }))
        .collect();
    PerfReport {
        throughput,
        snapshot,
        big_checkpoint,
        memory,
        diagnosis,
    }
}

/// Compares `current` against `base`, returning the violations.
///
/// The TLB floor, the canary check/fill ratio, the fill/write ratio and
/// the big-checkpoint pause per dirty page are absolute; the remaining
/// gates compare with the baseline.
pub fn check(base: &PerfReport, current: &PerfReport) -> Vec<String> {
    let mut violations = Vec::new();
    if current.memory.tlb_hit_rate < 0.5 {
        violations.push(format!(
            "TLB hit rate {:.1}% is below the absolute 50% floor",
            current.memory.tlb_hit_rate * 100.0
        ));
    }
    let (check_ns, fill_ns) = (
        current.memory.canary_check_ns_per_kib,
        current.memory.canary_fill_ns_per_kib,
    );
    if check_ns > fill_ns * CANARY_CHECK_MAX_FILL_RATIO {
        violations.push(format!(
            "canary check {check_ns:.0}ns/KiB exceeds {CANARY_CHECK_MAX_FILL_RATIO}x \
             the fill of the same range {fill_ns:.0}ns/KiB"
        ));
    }
    let (fill_ns, write_ns) = (
        current.memory.fill_ns_per_kib,
        current.memory.write_ns_per_kib,
    );
    if fill_ns > write_ns * FILL_MAX_WRITE_RATIO {
        violations.push(format!(
            "fill {fill_ns:.0}ns/KiB exceeds {FILL_MAX_WRITE_RATIO}x \
             the write of as many bytes {write_ns:.0}ns/KiB"
        ));
    }
    let big = &current.big_checkpoint;
    if big.pause_ns_per_dirty_page > BIG_CHECKPOINT_MAX_NS_PER_PAGE {
        violations.push(format!(
            "{}: checkpoint pause {:.0}ns per dirty page ({:.0}us for {} pages) \
             exceeds {BIG_CHECKPOINT_MAX_NS_PER_PAGE}ns",
            big.profile, big.pause_ns_per_dirty_page, big.pause_us, big.dirty_pages
        ));
    }
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
    if current.memory.tlb_misses > base.memory.tlb_misses {
        violations.push(format!(
            "TLB walks {} exceed the baseline's {} on the same Apache run",
            current.memory.tlb_misses, base.memory.tlb_misses
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
    let big = &r.big_checkpoint;
    out.push_str(&format!(
        "Big checkpoint ({}, {} cycles, {} dirty pages): pause {:.1} us, \
         {:.1} ns per dirty page\n",
        big.profile, big.cycles, big.dirty_pages, big.pause_us, big.pause_ns_per_dirty_page
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
    out.push_str(&format!(
        "Canary (intact 64 KiB): check {:.1} ns/KiB, fill {:.1} ns/KiB\n",
        r.memory.canary_check_ns_per_kib, r.memory.canary_fill_ns_per_kib
    ));
    out.push_str(&format!(
        "Fill vs write (64 KiB): fill {:.1} ns/KiB, write {:.1} ns/KiB\n",
        r.memory.fill_ns_per_kib, r.memory.write_ns_per_kib
    ));
    out.push_str("Diagnosis latency (median wall time)\n");
    for d in &r.diagnosis {
        out.push_str(&format!(
            "  {:<12} virtual {:>8.2} ms  wall {:>7.1} ms  {} rollbacks  {} runs\n",
            d.app, d.virtual_ms, d.wall_ms, d.rollbacks, d.runs,
        ));
    }
    out
}
