//! The traced pass: a timing wrapper around the live allocator, the
//! per-layer figures it and a few periodic probes collect, and the spans
//! written out as JSONL when the run ends.
//!
//! Everything here sits outside the program and calls only its public
//! API. The wrapper is installed with `ProcessCtx::swap_alloc` after
//! launch; it forwards `as_any`/`as_any_mut` to the `ExtAllocator` it
//! wraps, so the runtime's downcasts keep working, and it never touches
//! the virtual clock, so a traced run computes exactly what an untraced
//! one does.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use fa_allocext::ChangePlan;
use fa_checkpoint::CheckpointManager;
use fa_exec::{ReexecOptions, ReplayHarness};
use fa_heap::Heap;
use fa_mem::{AccessKind, Addr, SimMemory};
use fa_proc::{AllocBackend, CallSite, Clock, Fault, Input, Process, DEFAULT_HEAP_BASE};
use first_aid_core::FirstAidRuntime;

use crate::recovery::Phases;

/// Spans are kept for one input in this many, and for every input that
/// failed; probes and recoveries always get theirs.
const FEED_SPANS_EVERY: usize = 16;
/// One individual observe call in this many becomes its own span.
const SAMPLE_EVERY: u64 = 64;
/// Run the snapshot/clone/digest probes every this many inputs.
const PROBE_EVERY: usize = 1_000;
/// Stop recording the heap request stream past this many requests.
const MAX_HEAP_OPS: usize = 1 << 21;
/// Stop recording spans past this many.
const MAX_SPANS: usize = 1 << 20;
/// `PatchPool::get` calls timed per case.
const POOL_GETS: u32 = 1_000;

/// Calls of one kind and the wall time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn merge(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean wall time per call.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns as f64 / self.calls as f64)
    }
}

/// What the wrapper saw while one input was handled.
#[derive(Clone, Debug, Default)]
pub struct InputTally {
    pub observe: Tally,
    pub observe_bytes: u64,
    pub malloc: Tally,
    pub free: Tally,
    pub realloc: Tally,
    /// Sampled observe calls: start (ns since the span epoch), duration.
    pub sampled: Vec<(u64, u64)>,
}

/// One request of the recorded heap stream; ids name allocations.
#[derive(Clone, Copy, Debug)]
pub enum HeapOp {
    Malloc { id: u32, req: u64 },
    Free { id: u32 },
}

#[derive(Default)]
struct Recorder {
    on: bool,
    ops: Vec<HeapOp>,
    /// Length of `ops` when the last input that did not fail ended.
    kept: usize,
    live: HashMap<u64, u32>,
    next: u32,
}

impl Recorder {
    /// Ends one input: keeps what it recorded, or, if it failed, drops
    /// that and stops recording. A failing feed runs the whole recovery
    /// inside it: re-executions on forks and a patched replay, after
    /// rollbacks that hand the same addresses out again. None of that is
    /// the program's heap history, and nothing after it continues the
    /// history recorded so far.
    fn end_input(&mut self, failed: bool) {
        if failed {
            self.ops.truncate(self.kept);
            self.on = false;
            self.live.clear();
        } else {
            self.kept = self.ops.len();
        }
    }

    fn malloc(&mut self, addr: Addr, req: u64) {
        if !self.on {
            return;
        }
        if self.ops.len() >= MAX_HEAP_OPS {
            self.on = false;
            return;
        }
        let id = self.next;
        self.next += 1;
        self.live.insert(addr.0, id);
        self.ops.push(HeapOp::Malloc { id, req });
    }

    fn free(&mut self, addr: Addr) {
        if let Some(id) = self.live.remove(&addr.0).filter(|_| self.on) {
            self.ops.push(HeapOp::Free { id });
        }
    }
}

#[derive(Default)]
struct Hot {
    cur: InputTally,
    rec: Recorder,
    observed: u64,
    /// Set when spans are kept: the instant sampled spans are offset from.
    epoch: Option<Instant>,
}

thread_local! {
    static HOT: RefCell<Hot> = RefCell::new(Hot::default());
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Forwards every call to the allocator it wraps and times it.
pub struct TimedAlloc(Box<dyn AllocBackend>);

impl AllocBackend for TimedAlloc {
    fn malloc(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        req: u64,
        site: CallSite,
    ) -> Result<Addr, Fault> {
        let t = Instant::now();
        let r = self.0.malloc(mem, clock, req, site);
        let ns = ns_since(t);
        HOT.with_borrow_mut(|h| {
            h.cur.malloc.add(ns);
            if let Ok(a) = r {
                h.rec.malloc(a, req);
            }
        });
        r
    }

    fn free(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        addr: Addr,
        site: CallSite,
    ) -> Result<(), Fault> {
        let t = Instant::now();
        let r = self.0.free(mem, clock, addr, site);
        let ns = ns_since(t);
        HOT.with_borrow_mut(|h| {
            h.cur.free.add(ns);
            if r.is_ok() {
                h.rec.free(addr);
            }
        });
        r
    }

    fn realloc(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        addr: Addr,
        req: u64,
        site: CallSite,
    ) -> Result<Addr, Fault> {
        let t = Instant::now();
        let r = self.0.realloc(mem, clock, addr, req, site);
        let ns = ns_since(t);
        HOT.with_borrow_mut(|h| {
            h.cur.realloc.add(ns);
            if let Ok(a) = r {
                h.rec.free(addr);
                h.rec.malloc(a, req);
            }
        });
        r
    }

    fn usable_size(&self, mem: &mut SimMemory, addr: Addr) -> Result<u64, Fault> {
        self.0.usable_size(mem, addr)
    }

    fn observe_access(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        len: u64,
        kind: AccessKind,
        site: CallSite,
    ) -> Result<(), Fault> {
        let t = Instant::now();
        let r = self.0.observe_access(clock, addr, len, kind, site);
        let ns = ns_since(t);
        HOT.with_borrow_mut(|h| {
            h.cur.observe.add(ns);
            h.cur.observe_bytes += len;
            h.observed += 1;
            if let Some(epoch) = h.epoch.filter(|_| h.observed % SAMPLE_EVERY == 0) {
                let start = t.saturating_duration_since(epoch).as_nanos() as u64;
                h.cur.sampled.push((start, ns));
            }
        });
        r
    }

    fn on_guard_trap(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        len: u64,
        kind: AccessKind,
        site: CallSite,
    ) {
        self.0.on_guard_trap(clock, addr, len, kind, site)
    }

    fn heap(&self) -> &Heap {
        self.0.heap()
    }

    fn heap_mut(&mut self) -> &mut Heap {
        self.0.heap_mut()
    }

    fn clone_box(&self) -> Box<dyn AllocBackend> {
        Box::new(TimedAlloc(self.0.clone_box()))
    }

    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// True when `alloc` is a [`TimedAlloc`]. The wrapper forwards `as_any`
/// to the allocator it wraps, which lives in a box of its own, so the
/// two addresses differ exactly when the wrapper is installed.
fn is_wrapped(alloc: &dyn AllocBackend) -> bool {
    !std::ptr::addr_eq(
        alloc as *const dyn AllocBackend,
        alloc.as_any() as *const dyn Any,
    )
}

/// Installs the timing wrapper on `process` unless it is already there.
/// A rollback to a checkpoint taken before the wrapper went in restores
/// the bare allocator, so callers re-check after every recovery.
pub fn ensure_wrapped(process: &mut Process) {
    if !is_wrapped(process.ctx.alloc()) {
        process.ctx.swap_alloc(|inner| Box::new(TimedAlloc(inner)));
    }
}

/// Takes what the wrapper counted since the last call.
fn take_input() -> InputTally {
    HOT.with_borrow_mut(|h| std::mem::take(&mut h.cur))
}

/// Starts recording the heap request stream afresh.
fn start_recording() {
    HOT.with_borrow_mut(|h| {
        h.rec = Recorder {
            on: true,
            ..Recorder::default()
        }
    });
}

/// Stops recording and takes the stream recorded.
fn take_heap_ops() -> Vec<HeapOp> {
    HOT.with_borrow_mut(|h| std::mem::take(&mut h.rec).ops)
}

/// Replays a recorded request stream against a bare `Heap` and times
/// each malloc and free: the allocator extension's self time is its own
/// time minus these.
pub fn replay_heap(ops: &[HeapOp]) -> (Tally, Tally) {
    let mut mem = SimMemory::new();
    let mut heap = Heap::new(&mut mem, DEFAULT_HEAP_BASE, 1 << 32)
        .expect("a fresh address space fits the heap");
    let ids = ops
        .iter()
        .map(|op| match *op {
            HeapOp::Malloc { id, .. } | HeapOp::Free { id } => id as usize + 1,
        })
        .max()
        .unwrap_or(0);
    let mut addrs: Vec<Option<Addr>> = vec![None; ids];
    let (mut malloc, mut free) = (Tally::default(), Tally::default());
    for op in ops {
        match *op {
            HeapOp::Malloc { id, req } => {
                let t = Instant::now();
                let r = heap.malloc(&mut mem, req);
                malloc.add(ns_since(t));
                addrs[id as usize] = r.ok();
            }
            HeapOp::Free { id } => {
                if let Some(a) = addrs[id as usize].take() {
                    let t = Instant::now();
                    let r = heap.free(&mut mem, a);
                    free.add(ns_since(t));
                    black_box(r.is_ok());
                }
            }
        }
    }
    (malloc, free)
}

/// One span: a timed call at a layer boundary, or the aggregate of one
/// input's calls into a layer (`calls` > 1, duration = their total).
struct Span {
    id: u64,
    parent: u64,
    round: usize,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    calls: u64,
}

/// Spans kept in memory and written as JSONL at the end of the run.
pub struct Spans {
    epoch: Instant,
    rows: Vec<Span>,
    dropped: u64,
    round: usize,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            rows: Vec::new(),
            dropped: 0,
            round: 0,
        }
    }

    /// Records a span; returns its id (0 when the span was dropped).
    fn push(
        &mut self,
        parent: u64,
        name: &'static str,
        start: u64,
        dur_ns: u64,
        calls: u64,
    ) -> u64 {
        if self.rows.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let id = self.rows.len() as u64 + 1;
        self.rows.push(Span {
            id,
            parent,
            round: self.round,
            name,
            start_ns: start,
            dur_ns,
            calls,
        });
        id
    }

    /// Records a span timed from `t` to now.
    fn since(&mut self, parent: u64, name: &'static str, t: Instant) -> u64 {
        let start = t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(parent, name, start, ns_since(t), 1)
    }

    /// Writes one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for s in &self.rows {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"round":{},"name":"{}","start_ns":{},"dur_ns":{},"calls":{}}}"#,
                s.id, s.parent, s.round, s.name, s.start_ns, s.dur_ns, s.calls
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-layer figures gathered over the traced rounds of one run.
#[derive(Default)]
pub struct Layers {
    /// Inputs handled without a failure while the wrapper was installed.
    pub inputs: u64,
    pub observe: Tally,
    pub observe_bytes: u64,
    pub malloc: Tally,
    pub free: Tally,
    pub realloc: Tally,
    pub heap_malloc: Tally,
    pub heap_free: Tally,
    pub clone_us: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub digest_us: Vec<f64>,
    /// Live objects in the allocator extension at the end of each case.
    pub live_objects: Vec<f64>,
    pub tlb_hits: u64,
    pub tlb_walks: u64,
    /// Frames replicated by stores to snapshot-shared pages.
    pub cow_faults: u64,
    /// Whole-process snapshots (`Process::snapshot`) at the probes.
    pub proc_snapshot_us: Vec<f64>,
    /// Resident pages of the address space at the end of each case.
    pub resident_pages: Vec<f64>,
    /// Latency of the feeds during which the runtime took a checkpoint.
    pub pause_us: Vec<f64>,
    pub rollback_us: Vec<f64>,
    pub trial_ms: Vec<f64>,
    pub pool_get_ns: Vec<f64>,
    /// Recovery phases, one entry per mirrored recovery (recover only).
    pub recoveries: Vec<Phases>,
}

/// Counter readings at the start of a traced case.
struct CaseStart {
    tlb_hits: u64,
    tlb_walks: u64,
    cow_faults: u64,
}

/// Drives the traced rounds: wraps each runtime, collects per-input
/// tallies and periodic probes, and keeps spans when asked to.
pub struct Tracer {
    pub layers: Layers,
    pub spans: Option<Spans>,
    case: Option<CaseStart>,
    feeds: usize,
}

impl Tracer {
    pub fn new(keep_spans: bool) -> Tracer {
        let spans = keep_spans.then(Spans::new);
        HOT.with_borrow_mut(|h| h.epoch = spans.as_ref().map(|s| s.epoch));
        Tracer {
            layers: Layers::default(),
            spans,
            case: None,
            feeds: 0,
        }
    }

    /// Marks the start of traced round `round`.
    pub fn begin_round(&mut self, round: usize) {
        if let Some(s) = &mut self.spans {
            s.round = round;
        }
    }

    /// Installs the wrapper on a freshly launched runtime and reads the
    /// counters the case is measured against.
    pub fn begin_case(&mut self, rt: &mut FirstAidRuntime) {
        ensure_wrapped(rt.process_mut());
        take_input();
        start_recording();
        let mem = &rt.process().ctx.mem;
        let tlb = mem.tlb_stats();
        self.case = Some(CaseStart {
            tlb_hits: tlb.hits,
            tlb_walks: tlb.misses,
            cow_faults: mem.cow_faults(),
        });
        self.feeds = 0;
    }

    /// Accounts one feed: `start` is when it began, `us` its latency,
    /// `checkpoints_before` the checkpoint count before it.
    pub fn after_feed(
        &mut self,
        rt: &mut FirstAidRuntime,
        start: Instant,
        us: f64,
        failed: bool,
        checkpoints_before: u64,
    ) {
        let tally = take_input();
        HOT.with_borrow_mut(|h| h.rec.end_input(failed));
        if rt.checkpoint_stats().taken != checkpoints_before {
            self.layers.pause_us.push(us);
        }
        if failed {
            // Recovery work is not hot-path work, so its tally is dropped.
            ensure_wrapped(rt.process_mut());
        } else {
            let l = &mut self.layers;
            l.inputs += 1;
            l.observe.merge(tally.observe);
            l.observe_bytes += tally.observe_bytes;
            l.malloc.merge(tally.malloc);
            l.free.merge(tally.free);
            l.realloc.merge(tally.realloc);
        }
        let keep = failed || self.feeds.is_multiple_of(FEED_SPANS_EVERY);
        if let Some(spans) = self.spans.as_mut().filter(|_| keep) {
            let at = start.saturating_duration_since(spans.epoch).as_nanos() as u64;
            let feed = spans.push(0, "core.runtime.feed", at, (us * 1e3) as u64, 1);
            for (name, t) in [
                ("fa-allocext.observe", tally.observe),
                ("fa-allocext.malloc", tally.malloc),
                ("fa-allocext.free", tally.free),
                ("fa-allocext.realloc", tally.realloc),
            ] {
                if t.calls > 0 {
                    spans.push(feed, name, at, t.ns, t.calls);
                }
            }
            for (s, d) in tally.sampled {
                spans.push(feed, "fa-allocext.observe_access", s, d, 1);
            }
        }
        self.feeds += 1;
        if self.feeds.is_multiple_of(PROBE_EVERY) {
            self.probe(rt);
        }
    }

    /// Times the checkpoint ingredients on the live process without
    /// disturbing it: every copy is dropped before the next input.
    fn probe(&mut self, rt: &mut FirstAidRuntime) {
        let p = rt.process();
        let t = Instant::now();
        let mem = black_box(p.ctx.mem.snapshot());
        self.layers.snapshot_us.push(us_since(t));
        self.span("fa-mem.snapshot", t);
        drop(mem);
        let t = Instant::now();
        let alloc = black_box(p.ctx.alloc().clone_box());
        self.layers.clone_us.push(us_since(t));
        self.span("fa-allocext.clone", t);
        drop(alloc);
        let t = Instant::now();
        let snap = black_box(p.snapshot());
        self.layers.proc_snapshot_us.push(us_since(t));
        self.span("fa-checkpoint.snapshot", t);
        let t = Instant::now();
        black_box(snap.digest());
        self.layers.digest_us.push(us_since(t));
        self.span("fa-checkpoint.digest", t);
    }

    fn span(&mut self, name: &'static str, t: Instant) {
        if let Some(s) = &mut self.spans {
            s.since(0, name, t);
        }
    }

    /// Closes a traced case: reads the counters, replays the heap stream
    /// and times one rollback and one re-execution trial over `tail` on a
    /// fork of the process.
    pub fn end_case(&mut self, rt: &mut FirstAidRuntime, tail: Vec<Input>) {
        let heap_ops = take_heap_ops();
        let Some(start) = self.case.take() else {
            return;
        };
        let mem = &rt.process().ctx.mem;
        let tlb = mem.tlb_stats();
        let l = &mut self.layers;
        l.tlb_hits += tlb.hits - start.tlb_hits;
        l.tlb_walks += tlb.misses - start.tlb_walks;
        l.cow_faults += mem.cow_faults() - start.cow_faults;
        l.resident_pages.push(mem.resident_pages() as f64);
        l.live_objects.push(rt.with_ext(|e| e.table().len()) as f64);

        let t = Instant::now();
        for _ in 0..POOL_GETS {
            black_box(rt.pool().get(rt.program()));
        }
        self.layers
            .pool_get_ns
            .push(t.elapsed().as_nanos() as f64 / f64::from(POOL_GETS));

        let (hm, hf) = replay_heap(&heap_ops);
        self.layers.heap_malloc.merge(hm);
        self.layers.heap_free.merge(hf);

        self.trial_probe(rt.process(), tail);
        take_input();
    }

    /// On a fork: checkpoint, feed `tail`, then time a rollback to the
    /// checkpoint and one phase-1 style re-execution trial (rollback,
    /// heap marking, every preventive change, replay to the same point).
    fn trial_probe(&mut self, process: &Process, tail: Vec<Input>) {
        let mut fork = process.fork();
        let mut mgr = CheckpointManager::new(fa_bench::paper_config().adaptive, 2);
        let id = mgr.force_checkpoint(&mut fork);
        for input in tail {
            if !fork.feed(input).is_ok() {
                return;
            }
        }
        let end = fork.cursor();
        let t = Instant::now();
        let restored = mgr.rollback_to(&mut fork, id);
        self.layers.rollback_us.push(us_since(t));
        self.span("fa-checkpoint.rollback", t);
        if !restored {
            return;
        }
        let opts = ReexecOptions {
            mark_heap: true,
            timing_seed: 0,
            until_cursor: end,
            integrity_check: false,
        };
        let t = Instant::now();
        let report =
            ReplayHarness::reexecute(&mut fork, &mgr, id, ChangePlan::all_preventive(), &opts);
        self.layers.trial_ms.push(us_since(t) / 1e3);
        self.span("fa-exec.trial", t);
        black_box(report.passed);
    }

    /// Records the phases of one mirrored recovery.
    pub fn push_recovery(&mut self, phases: Phases) {
        if let Some(s) = &mut self.spans {
            let mut at = s.epoch.elapsed().as_nanos() as u64;
            let total = (phases.wall_ms * 1e6) as u64;
            let root = s.push(0, "core.runtime.recover", at, total, 1);
            for (name, ms) in phases.named() {
                let dur = (ms * 1e6) as u64;
                s.push(root, name, at, dur, 1);
                at += dur;
            }
        }
        self.layers.recoveries.push(phases);
    }
}

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_apps::{spec_by_key, WorkloadSpec};
    use first_aid_core::PatchPool;

    /// Apache through one recovery; returns the runtime's virtual wall
    /// time, served inputs, bytes delivered and recovery count.
    fn apache(wrap: bool) -> (u64, usize, u64, usize) {
        let spec = spec_by_key("apache").expect("registered");
        let config = fa_bench::paper_config();
        let mut rt = FirstAidRuntime::launch((spec.build)(), config, PatchPool::in_memory())
            .expect("apache launches");
        assert!(!is_wrapped(rt.process().ctx.alloc()));
        if wrap {
            ensure_wrapped(rt.process_mut());
            assert!(is_wrapped(rt.process().ctx.alloc()));
            ensure_wrapped(rt.process_mut());
            // Installing twice is a no-op, and the downcast still works.
            assert!(rt.with_ext(|e| e.table().len()) > 0);
        }
        let mut served = 0;
        for input in (spec.workload)(&WorkloadSpec::new(1_500, &[400, 800])) {
            served += usize::from(rt.feed(input).served);
            if wrap {
                ensure_wrapped(rt.process_mut());
            }
        }
        take_input();
        (
            rt.wall_ns(),
            served,
            rt.process().bytes_delivered,
            rt.recoveries.len(),
        )
    }

    #[test]
    fn the_timing_wrapper_changes_nothing_the_runtime_computes() {
        let bare = apache(false);
        assert_eq!(
            bare.3, 1,
            "the first trigger recovers, the patch absorbs the second"
        );
        assert_eq!(apache(true), bare);
    }

    #[test]
    fn the_heap_stream_ends_at_the_input_that_failed() {
        let spec = spec_by_key("apache").expect("registered");
        let mut rt = FirstAidRuntime::launch(
            (spec.build)(),
            fa_bench::paper_config(),
            PatchPool::in_memory(),
        )
        .expect("apache launches");
        let mut tracer = Tracer::new(false);
        tracer.begin_case(&mut rt);
        let recorded = || HOT.with_borrow(|h| h.rec.ops.len());
        let mut before_failure = None;
        for input in (spec.workload)(&WorkloadSpec::new(1_500, &[400])) {
            let before = recorded();
            let checkpoints = rt.checkpoint_stats().taken;
            let t = Instant::now();
            let fed = rt.feed(input);
            tracer.after_feed(&mut rt, t, us_since(t), fed.failed, checkpoints);
            if fed.failed {
                assert_eq!(before_failure, None, "the patch absorbs later triggers");
                before_failure = Some(before);
            }
        }
        let kept = before_failure.expect("the trigger fails");
        assert!(kept > 0);
        let ops = take_heap_ops();
        assert_eq!(ops.len(), kept, "nothing recorded from the recovery on");
        // What is kept is one heap history: every free names a live id.
        let mut live = std::collections::HashSet::new();
        for op in ops {
            match op {
                HeapOp::Malloc { id, .. } => assert!(live.insert(id)),
                HeapOp::Free { id } => assert!(live.remove(&id)),
            }
        }
    }

    #[test]
    fn heap_replay_times_every_request_it_can_serve() {
        let ops = [
            HeapOp::Malloc { id: 0, req: 64 },
            HeapOp::Malloc { id: 1, req: 4_000 },
            HeapOp::Free { id: 0 },
            HeapOp::Free { id: 0 },
            HeapOp::Free { id: 1 },
        ];
        let (m, f) = replay_heap(&ops);
        assert_eq!(m.calls, 2);
        // The second free of id 0 has no live allocation and is skipped.
        assert_eq!(f.calls, 2);
    }
}
