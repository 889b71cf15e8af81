//! The extension allocator: normal / diagnostic / validation modes.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use fa_heap::Heap;
use fa_mem::{AccessKind, Addr, MemFault, SimMemory};
use fa_proc::{AllocBackend, CallSite, Clock, Fault};
use fa_sentry::{
    SentryConfig, SentryEngine, SentryMetrics, SlotPlacement, TrapKind, TrapRecord, SLOT_SLACK,
};

use crate::canary::{check_canary, fill_canary};
use crate::changes::ChangePlan;
use crate::events::{IllegalKind, Manifestation, TraceEvent};
use crate::intervals::IntervalSet;
use crate::objtable::{ColdInfo, Fill, ObjState, ObjectRecord, ObjectTable};
use crate::patch::{PatchSet, PreventiveChange};
use crate::quarantine::{QEntry, Quarantine, DEFAULT_QUARANTINE_BYTES};

/// Padding added on each side of a patched/changed object, in bytes.
///
/// Both sides together cost 1016 bytes per object, matching the padding
/// space overhead the paper reports per object in Table 5 ("the padding
/// used in First-Aid is relatively large (almost 1 KB)").
pub const PAD_EACH_SIDE: u64 = 508;

/// Virtual cost of the patch-pool query on each malloc/free, in ns.
const COST_PATCH_QUERY: u64 = 25;
/// Virtual cost of object-metadata maintenance per operation, in ns.
const COST_META: u64 = 20;
/// Extra virtual cost per operation in diagnostic/validation modes, in ns.
const COST_DIAG: u64 = 60;
/// Per-access virtual cost of Pin-style instrumentation in validation
/// mode, in ns.
const COST_PIN_TRACE: u64 = 2_500;
/// Virtual cost of redirecting a sampled allocation into a guarded
/// sentry slot (mprotect-style page work), in ns.
const COST_SENTRY_PLACE: u64 = 300;
/// Virtual cost of poisoning a sentry slot on free, in ns.
const COST_SENTRY_POISON: u64 = 150;
/// Virtual cost of filling `len` bytes (canary/zero), in ns.
fn cost_fill(len: u64) -> u64 {
    10 + len.div_ceil(8) * 2
}

/// Operating mode of the extension (paper §3, "Memory allocator
/// extension").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExtMode {
    /// Production mode: apply matching runtime patches only.
    Normal,
    /// Re-execution mode: apply the active [`ChangePlan`] to all or a
    /// subset of objects; collect call-sites and manifestations.
    Diagnostic,
    /// Patch-validation mode: randomized allocation, full tracing,
    /// patches active.
    Validation,
}

/// Aggregate statistics the experiment harnesses read off the extension.
#[derive(Clone, Debug, Default)]
pub struct ExtCounters {
    /// Objects that received padding.
    pub objects_padded: u64,
    /// Objects whose free was delayed.
    pub objects_delayed: u64,
    /// Objects zero-filled at allocation.
    pub objects_zero_filled: u64,
    /// Objects canary-filled at allocation.
    pub objects_canary_filled: u64,
    /// Objects that received *any* environmental change — the "objects"
    /// column of paper Table 4.
    pub changed_objects: u64,
    /// Distinct call-sites at which changes were applied — the
    /// "call-sites" column of paper Table 4.
    pub changed_sites: HashSet<CallSite>,
    /// Patch trigger counts by patch index (validation criterion (a)).
    pub patch_triggers: HashMap<usize, u64>,
    /// Current padding bytes held live.
    pub cur_padding_bytes: u64,
    /// Maximum simultaneous padding bytes (paper Table 5, padding rows).
    pub max_padding_bytes: u64,
    /// Illegal padding writes observed (overflows absorbed).
    pub padding_writes: u64,
    /// Reads of quarantined objects observed.
    pub quarantine_reads: u64,
    /// Writes to quarantined objects observed.
    pub quarantine_writes: u64,
    /// Reads of uninitialized bytes observed.
    pub uninit_reads: u64,
}

/// The First-Aid memory allocator extension.
///
/// Implements [`AllocBackend`] so it can be swapped in for the plain
/// allocator of a running process (the paper modifies the Lea allocator in
/// glibc; here the extension wraps the simulated Lea-style heap).
#[derive(Clone)]
pub struct ExtAllocator {
    heap: Heap,
    mode: ExtMode,
    plan: ChangePlan,
    /// The active patch set, shared with the pool's published snapshot
    /// when installed from a fleet pool: installing fleet patches is an
    /// `Arc` handoff, not a copy.
    patches: Arc<PatchSet>,
    table: ObjectTable,
    quarantine: Quarantine,
    /// Canary-marked free regions from heap marking: `(addr, len)`.
    pub(crate) marks: Vec<(u64, u64)>,
    manifests: Vec<Manifestation>,
    trace: Vec<TraceEvent>,
    tracing: bool,
    track_init: bool,
    seq: u64,
    counters: ExtCounters,
    alloc_sites_seen: Vec<CallSite>,
    alloc_sites_set: HashSet<CallSite>,
    dealloc_sites_seen: Vec<CallSite>,
    dealloc_sites_set: HashSet<CallSite>,
    /// Padding per side for the overflow change (ablation knob; the
    /// paper uses 508 = 1016 bytes per object).
    pad_each: u64,
    /// The always-on sampling sentry tier, when enabled.
    sentry: Option<SentryEngine>,
}

impl ExtAllocator {
    /// Attaches the extension to a heap, starting in normal mode with no
    /// patches.
    pub fn attach(heap: Heap) -> Self {
        ExtAllocator {
            heap,
            mode: ExtMode::Normal,
            plan: ChangePlan::none(),
            patches: Arc::new(PatchSet::new()),
            table: ObjectTable::new(),
            quarantine: Quarantine::new(DEFAULT_QUARANTINE_BYTES),
            marks: Vec::new(),
            manifests: Vec::new(),
            trace: Vec::new(),
            tracing: false,
            track_init: false,
            seq: 0,
            counters: ExtCounters::default(),
            alloc_sites_seen: Vec::new(),
            alloc_sites_set: HashSet::new(),
            dealloc_sites_seen: Vec::new(),
            dealloc_sites_set: HashSet::new(),
            pad_each: PAD_EACH_SIDE,
            sentry: None,
        }
    }

    // ------------------------------------------------------------------
    // Mode control
    // ------------------------------------------------------------------

    /// Switches to normal mode with the given patch set. Accepts a
    /// plain `PatchSet` or an `Arc<PatchSet>` (a pool-published
    /// snapshot installs without copying a single patch).
    pub fn set_normal(&mut self, patches: impl Into<Arc<PatchSet>>) {
        self.mode = ExtMode::Normal;
        self.patches = patches.into();
        self.plan = ChangePlan::none();
        self.tracing = false;
        self.track_init = false;
        self.heap.derandomize();
        self.sync_sentry_suppression();
    }

    /// Switches to diagnostic mode with an environmental-change plan.
    ///
    /// Clears manifestation and call-site collections from any previous
    /// iteration.
    pub fn set_diagnostic(&mut self, plan: ChangePlan) {
        self.track_init = plan.uninit_read.active();
        self.mode = ExtMode::Diagnostic;
        self.plan = plan;
        self.tracing = false;
        self.manifests.clear();
        self.trace.clear();
        self.reset_counters();
        self.alloc_sites_seen.clear();
        self.alloc_sites_set.clear();
        self.dealloc_sites_seen.clear();
        self.dealloc_sites_set.clear();
        self.heap.derandomize();
    }

    /// Switches to validation mode: randomized allocation, tracing on,
    /// patches active.
    pub fn set_validation(&mut self, patches: impl Into<Arc<PatchSet>>, seed: u64) {
        self.mode = ExtMode::Validation;
        self.patches = patches.into();
        self.plan = ChangePlan::none();
        self.tracing = true;
        self.track_init = true;
        self.trace.clear();
        self.counters.patch_triggers.clear();
        self.heap.randomize(seed);
    }

    /// Returns the current mode.
    pub fn mode(&self) -> ExtMode {
        self.mode
    }

    /// Returns the active patch set.
    pub fn patches(&self) -> &PatchSet {
        &self.patches
    }

    /// Replaces the quarantine byte threshold.
    pub fn set_quarantine_threshold(&mut self, bytes: u64) {
        self.quarantine = Quarantine::new(bytes);
    }

    /// Sets the per-side padding size (ablation knob; default 508 bytes).
    pub fn set_padding(&mut self, per_side: u64) {
        self.pad_each = per_side;
    }

    /// Returns the per-side padding size.
    pub fn padding(&self) -> u64 {
        self.pad_each
    }

    // ------------------------------------------------------------------
    // Sentry tier (sampling-based always-on guarded slots)
    // ------------------------------------------------------------------

    /// Enables the sentry tier: roughly one in `cfg.rate` allocations is
    /// redirected into a guarded slot. The engine clones with the
    /// allocator, so re-execution from a checkpoint replays the exact
    /// sampling decisions and traps.
    pub fn enable_sentry(&mut self, cfg: SentryConfig) {
        self.heap.set_sentry_rate(cfg.rate, cfg.seed);
        self.sentry = Some(SentryEngine::new(cfg));
        self.sync_sentry_suppression();
    }

    /// Returns the sentry engine, if enabled.
    pub fn sentry(&self) -> Option<&SentryEngine> {
        self.sentry.as_ref()
    }

    /// Returns the sentry engine mutably, if enabled.
    pub fn sentry_mut(&mut self) -> Option<&mut SentryEngine> {
        self.sentry.as_mut()
    }

    /// Returns the sentry metrics, if the tier is enabled.
    pub fn sentry_metrics(&self) -> Option<&SentryMetrics> {
        self.sentry.as_ref().map(|e| e.metrics())
    }

    /// Consumes the latched sentry trap, if any.
    pub fn take_pending_trap(&mut self) -> Option<TrapRecord> {
        self.sentry.as_mut().and_then(|e| e.take_pending())
    }

    /// Returns the latched sentry trap without consuming it.
    pub fn peek_pending_trap(&self) -> Option<&TrapRecord> {
        self.sentry.as_ref().and_then(|e| e.peek_pending())
    }

    /// Sites covered by an installed patch are never sampled: the patch
    /// already prevents the bug there, fleet-wide, so the slot budget is
    /// spent where something is still unknown.
    fn sync_sentry_suppression(&mut self) {
        if let Some(engine) = self.sentry.as_mut() {
            let sites: Vec<CallSite> = self.patches.patches().iter().map(|p| p.site).collect();
            let all = self.patches.has_generic();
            engine.sampler_mut().set_suppressed(sites, all);
        }
    }

    // ------------------------------------------------------------------
    // Inspection (used by the diagnosis/validation engines and benches)
    // ------------------------------------------------------------------

    /// Manifestations recorded so far (without rescanning memory).
    pub fn manifestations(&self) -> &[Manifestation] {
        &self.manifests
    }

    /// The validation trace.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Takes the validation trace, leaving it empty.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Distinct allocation call-sites seen this diagnostic run, in first-
    /// seen order.
    pub fn alloc_sites_seen(&self) -> &[CallSite] {
        &self.alloc_sites_seen
    }

    /// Distinct deallocation call-sites seen this diagnostic run.
    pub fn dealloc_sites_seen(&self) -> &[CallSite] {
        &self.dealloc_sites_seen
    }

    /// Counters for the experiment harnesses.
    pub fn counters(&self) -> &ExtCounters {
        &self.counters
    }

    /// Resets counters (e.g. at the start of a measured region).
    pub fn reset_counters(&mut self) {
        let cur_padding = self.counters.cur_padding_bytes;
        self.counters = ExtCounters {
            cur_padding_bytes: cur_padding,
            max_padding_bytes: cur_padding,
            ..ExtCounters::default()
        };
    }

    /// The object table (live + quarantined objects).
    pub fn table(&self) -> &ObjectTable {
        &self.table
    }

    /// The delay-free quarantine.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Modeled extension metadata footprint in bytes (paper Table 6).
    pub fn meta_bytes(&self) -> u64 {
        self.table.meta_bytes()
    }

    // ------------------------------------------------------------------
    // Scans: canary integrity checks (manifestation collection)
    // ------------------------------------------------------------------

    /// Scans all canary regions (padding, quarantined objects, heap
    /// marks), appending manifestations for any corruption found.
    pub fn scan(&mut self, mem: &mut SimMemory) -> Result<(), Fault> {
        self.scan_paddings(mem)?;
        self.scan_quarantine(mem)?;
        self.scan_marks(mem)?;
        Ok(())
    }

    fn scan_paddings(&mut self, mem: &mut SimMemory) -> Result<(), Fault> {
        let mut found = Vec::new();
        for info in self.table.iter() {
            let Some(pad) = info.pad() else { continue };
            if !info.pad_canary() {
                continue;
            }
            // Poisoned sentry slots are trap-on-access; their canaries
            // cannot (and need not) be rescanned.
            let sentried = self.table.cold(info).and_then(|c| c.sentried);
            if sentried.is_some_and(|s| self.sentry.as_ref().is_some_and(|e| e.is_poisoned(s))) {
                continue;
            }
            let user = info.user();
            if let Some((off, _)) = check_canary(mem, info.outer, pad)? {
                found.push(Manifestation::PaddingCorrupt {
                    alloc_site: info.alloc_site,
                    user,
                    right_side: false,
                    offset: off,
                });
            }
            if let Some((off, _)) = check_canary(mem, user.offset(info.size), pad)? {
                found.push(Manifestation::PaddingCorrupt {
                    alloc_site: info.alloc_site,
                    user,
                    right_side: true,
                    offset: off,
                });
            }
        }
        self.manifests.extend(found);
        Ok(())
    }

    fn scan_quarantine(&mut self, mem: &mut SimMemory) -> Result<(), Fault> {
        let mut found = Vec::new();
        for entry in self.quarantine.iter() {
            let Some(info) = self.table.get_by_user(entry.user) else {
                continue;
            };
            let ObjState::Quarantined { freed_site, canary } = self.table.state(info) else {
                continue;
            };
            if !canary {
                continue;
            }
            if let Some((off, _)) = check_canary(mem, entry.user, info.size)? {
                found.push(Manifestation::QuarantineCorrupt {
                    freed_site,
                    alloc_site: info.alloc_site,
                    user: entry.user,
                    offset: off,
                });
            }
        }
        self.manifests.extend(found);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn note_alloc_site(&mut self, site: CallSite) {
        if self.mode == ExtMode::Diagnostic && self.alloc_sites_set.insert(site) {
            self.alloc_sites_seen.push(site);
        }
    }

    fn note_dealloc_site(&mut self, site: CallSite) {
        if self.mode == ExtMode::Diagnostic && self.dealloc_sites_set.insert(site) {
            self.dealloc_sites_seen.push(site);
        }
    }

    fn note_change(&mut self, site: CallSite) {
        self.counters.changed_objects += 1;
        self.counters.changed_sites.insert(site);
    }

    /// Decides the allocation-side changes for this call-site:
    /// `(padding, padding_canary, fill, patch_idx)`.
    fn alloc_changes(&mut self, site: CallSite) -> (bool, bool, Fill, Option<usize>) {
        match self.mode {
            ExtMode::Normal | ExtMode::Validation => match self.patches.match_alloc(site) {
                Some((idx, patch)) => match patch.change {
                    PreventiveChange::AddPadding => (true, false, Fill::None, Some(idx)),
                    PreventiveChange::FillZero => (false, false, Fill::Zero, Some(idx)),
                    PreventiveChange::DelayFree => (false, false, Fill::None, Some(idx)),
                },
                None => (false, false, Fill::None, None),
            },
            ExtMode::Diagnostic => {
                let pad = self.plan.overflow.active();
                let pad_canary = self.plan.overflow.exposes(site);
                let fill = if self.plan.uninit_read.active() {
                    if self.plan.uninit_read.exposes(site) {
                        Fill::Canary
                    } else {
                        Fill::Zero
                    }
                } else {
                    Fill::None
                };
                (pad, pad_canary, fill, None)
            }
        }
    }
}

impl AllocBackend for ExtAllocator {
    fn malloc(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        req: u64,
        site: CallSite,
    ) -> Result<Addr, Fault> {
        clock.advance(COST_PATCH_QUERY + COST_META);
        if self.mode != ExtMode::Normal {
            clock.advance(COST_DIAG);
        }
        self.note_alloc_site(site);
        let (pad, pad_canary, fill, patch_idx) = self.alloc_changes(site);

        // Sentry tier: maybe redirect this allocation into a guarded
        // slot. The decision sequence is a pure function of the
        // allocation trace, so checkpointed re-execution replays it.
        if self.sentry.is_some() {
            let tick = self.heap.sentry_tick();
            let engine = self.sentry.as_mut().expect("sentry checked above");
            if engine.sampler_mut().decide(site, tick) {
                // Plan/patch padding moves inside the slot, so the pad
                // request inflates the size the slot must hold.
                let extra = if pad { 2 * self.pad_each } else { 0 };
                match engine.place(mem, req + extra) {
                    Some(placement) => {
                        return self.sentry_malloc(
                            mem, clock, req, site, placement, pad, pad_canary, fill, patch_idx,
                        );
                    }
                    // Nothing fit (arena full, poison ring shallow, or
                    // object too large): fall through to the heap and
                    // keep the site from heating up.
                    None => engine.sampler_mut().undo_sample(site),
                }
            }
        }

        let (left, right) = if pad {
            (self.pad_each, self.pad_each)
        } else {
            (0, 0)
        };
        let outer = self.heap.malloc(mem, left + req + right)?;
        let user = outer.offset(left);

        // Memory handed out from a marked free region is legitimately
        // reused now; un-mark it (the chunk header, user area, and the
        // boundary header written right after the chunk).
        if !self.marks.is_empty() {
            let heap_usable = self.heap.usable_size(mem, outer)?;
            let lo = outer.0 - 16;
            let hi = outer.0 + heap_usable + 16;
            trim_marks(&mut self.marks, lo, hi);
        }

        if pad {
            if pad_canary {
                clock.advance(cost_fill(left + right));
                fill_canary(mem, outer, left)?;
                fill_canary(mem, user.offset(req), right)?;
            }
            self.counters.objects_padded += 1;
            self.counters.cur_padding_bytes += left + right;
            self.counters.max_padding_bytes = self
                .counters
                .max_padding_bytes
                .max(self.counters.cur_padding_bytes);
            self.note_change(site);
        }
        match fill {
            Fill::None => {}
            Fill::Zero => {
                clock.advance(cost_fill(req));
                mem.fill(user, req, 0)?;
                self.counters.objects_zero_filled += 1;
                self.note_change(site);
            }
            Fill::Canary => {
                clock.advance(cost_fill(req));
                fill_canary(mem, user, req)?;
                self.counters.objects_canary_filled += 1;
                self.note_change(site);
            }
        }
        if let Some(idx) = patch_idx {
            *self.counters.patch_triggers.entry(idx).or_insert(0) += 1;
        }

        self.seq += 1;
        let seq = self.seq;
        let mut rec = ObjectRecord::new(outer, req, site, seq).filled(fill);
        if pad {
            rec = rec.padded(left, pad_canary);
        }
        let cold = ColdInfo {
            written: self.track_init.then(IntervalSet::new),
            ..ColdInfo::default()
        };
        self.table.insert(rec, cold);
        if self.tracing {
            self.trace.push(TraceEvent::Alloc {
                seq,
                user,
                size: req,
                site,
                patch: patch_idx,
            });
        }
        Ok(user)
    }

    fn free(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        addr: Addr,
        site: CallSite,
    ) -> Result<(), Fault> {
        clock.advance(COST_PATCH_QUERY + COST_META);
        if self.mode != ExtMode::Normal {
            clock.advance(COST_DIAG);
        }
        self.note_dealloc_site(site);

        // One table walk finds the object; everything after works on
        // this copy and removes it by its exact key.
        let Some(&info) = self.table.get_by_user(addr) else {
            // Unknown pointer: either a wild free or a double free of an
            // object whose first free was real. Forward to the heap, which
            // aborts like glibc would.
            return Ok(self.heap.free(mem, addr)?);
        };
        let sentried = self.table.cold(&info).and_then(|c| c.sentried);
        let (seq, size, outer, alloc_site) = (info.seq, info.size, info.outer, info.alloc_site);

        if let ObjState::Quarantined { freed_site, .. } = self.table.state(&info) {
            let poisoned_slot =
                sentried.filter(|&s| self.sentry.as_ref().is_some_and(|e| e.is_poisoned(s)));
            // Parameter check (paper Table 1, double free row): the object
            // is already free but still quarantined — record and neutralize.
            self.manifests.push(Manifestation::DoubleFree {
                dealloc_site: site,
                first_free_site: freed_site,
                user: addr,
            });
            if self.tracing {
                self.trace.push(TraceEvent::Dealloc {
                    seq,
                    user: addr,
                    site,
                    delayed_by: None,
                });
            }
            if let Some(slot) = poisoned_slot {
                // The first free poisoned the slot (no delay-free change
                // was shielding it), so this second free is a caught
                // double free, not a silent neutralization.
                let rec = TrapRecord {
                    kind: TrapKind::DoubleFreeSlot,
                    access: None,
                    addr,
                    len: size,
                    alloc_site,
                    free_site: Some(freed_site),
                    access_site: Some(site),
                    size,
                    slot,
                };
                self.sentry
                    .as_mut()
                    .expect("poisoned slot implies engine")
                    .record_trap(rec);
                return Err(Fault::Mem(MemFault::GuardTrap {
                    addr,
                    kind: AccessKind::Write,
                    len: size,
                }));
            }
            return Ok(());
        }

        // Decide whether this free is delayed.
        let (delay, canary, patch_idx) = match self.mode {
            ExtMode::Normal | ExtMode::Validation => match self.patches.match_dealloc(site) {
                Some((idx, patch)) if patch.change == PreventiveChange::DelayFree => {
                    (true, false, Some(idx))
                }
                _ => (false, false, None),
            },
            ExtMode::Diagnostic => {
                let delay = self.plan.delays_frees();
                let canary = self.plan.canary_on_free(site);
                (delay, canary, None)
            }
        };

        if let Some(idx) = patch_idx {
            *self.counters.patch_triggers.entry(idx).or_insert(0) += 1;
        }

        if delay {
            self.counters.objects_delayed += 1;
            self.note_change(site);
            if canary {
                clock.advance(cost_fill(size));
                fill_canary(mem, addr, size)?;
            }
            self.table.quarantine(outer, site, canary);
            // The byte threshold protects long-running *patched*
            // executions. Diagnostic re-executions are short and rolled
            // back afterwards; evicting there would release exactly the
            // objects the preventive change is trying to keep resident
            // (and, with heap marks live, scribble free-list cookies into
            // marked regions). Hold everything during diagnosis.
            let entry = QEntry {
                user: addr,
                bytes: info.outer_size(),
                seq,
            };
            let evicted = if self.marks.is_empty() && self.mode != ExtMode::Diagnostic {
                self.quarantine.push(entry)
            } else {
                self.quarantine.push_unbounded(entry)
            };
            for old in evicted {
                self.really_free(mem, old.user)?;
            }
            if self.tracing {
                self.trace.push(TraceEvent::Dealloc {
                    seq,
                    user: addr,
                    site,
                    delayed_by: patch_idx,
                });
            }
            return Ok(());
        }

        // Real free: before the object vanishes (or its slot is
        // poisoned), harvest any canary evidence from its padding.
        let mut slack_corrupt = false;
        if let Some(pad) = info.pad() {
            if info.pad_canary() {
                if let Some((off, _)) = check_canary(mem, outer, pad)? {
                    slack_corrupt = true;
                    self.manifests.push(Manifestation::PaddingCorrupt {
                        alloc_site,
                        user: addr,
                        right_side: false,
                        offset: off,
                    });
                }
                if let Some((off, _)) = check_canary(mem, addr.offset(size), pad)? {
                    slack_corrupt = true;
                    self.manifests.push(Manifestation::PaddingCorrupt {
                        alloc_site,
                        user: addr,
                        right_side: true,
                        offset: off,
                    });
                }
            }
            if sentried.is_none() {
                self.counters.cur_padding_bytes =
                    self.counters.cur_padding_bytes.saturating_sub(2 * pad);
            }
        }
        if let Some(slot) = sentried {
            // Sentried objects are not returned to the heap: the slot is
            // poisoned (trap-on-access) and sits in the recycle ring, so
            // dangling accesses keep trapping long after this free. The
            // object stays in the table for attribution.
            clock.advance(COST_SENTRY_POISON);
            self.table.quarantine(outer, site, false);
            let engine = self.sentry.as_mut().expect("sentried implies engine");
            engine.poison(mem, slot);
            engine.charge_overhead(COST_SENTRY_POISON);
            if self.tracing {
                self.trace.push(TraceEvent::Dealloc {
                    seq,
                    user: addr,
                    site,
                    delayed_by: None,
                });
            }
            // Corrupt slot slack with no padding change active is silent
            // overflow evidence that would otherwise go unnoticed.
            if slack_corrupt && info.pad() == Some(SLOT_SLACK) {
                let rec = TrapRecord {
                    kind: TrapKind::CanaryOnFree,
                    access: None,
                    addr,
                    len: size,
                    alloc_site,
                    free_site: Some(site),
                    access_site: Some(site),
                    size,
                    slot,
                };
                self.sentry
                    .as_mut()
                    .expect("sentried implies engine")
                    .record_trap(rec);
                return Err(Fault::Mem(MemFault::GuardTrap {
                    addr,
                    kind: AccessKind::Write,
                    len: size,
                }));
            }
            return Ok(());
        }
        self.table.remove(outer);
        self.heap.free(mem, outer)?;
        if self.tracing {
            self.trace.push(TraceEvent::Dealloc {
                seq,
                user: addr,
                site,
                delayed_by: None,
            });
        }
        Ok(())
    }

    fn realloc(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        addr: Addr,
        req: u64,
        site: CallSite,
    ) -> Result<Addr, Fault> {
        let Some(info) = self.table.get_by_user(addr) else {
            return Ok(self.heap.realloc(mem, addr, req)?);
        };
        if info.is_quarantined() {
            return Err(Fault::Heap(fa_heap::HeapError::InvalidFree {
                addr,
                kind: fa_heap::InvalidFreeKind::DoubleFree,
            }));
        }
        let old_size = info.size;
        let new = self.malloc(mem, clock, req, site)?;
        let kept = old_size.min(req);
        clock.advance(cost_fill(kept));
        mem.copy(new, addr, kept)?;
        if let Some(&obj) = self.table.get_by_user(new) {
            if let Some(w) = self.table.written_mut(&obj) {
                w.insert(0, kept);
            }
        }
        self.free(mem, clock, addr, site)?;
        Ok(new)
    }

    fn usable_size(&self, _mem: &mut SimMemory, addr: Addr) -> Result<u64, Fault> {
        match self.table.get_by_user(addr) {
            // The application sees its requested size; padding is
            // invisible.
            Some(info) => Ok(info.size),
            None => Err(Fault::Heap(fa_heap::HeapError::InvalidFree {
                addr,
                kind: fa_heap::InvalidFreeKind::WildPointer,
            })),
        }
    }

    fn observe_access(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        len: u64,
        kind: AccessKind,
        site: CallSite,
    ) -> Result<(), Fault> {
        if self.mode == ExtMode::Normal && !self.tracing {
            // Production fast path: plain accesses cost nothing. Only
            // the sentry arena (if any) needs a closer look — an MMU
            // range check in the real system.
            match &self.sentry {
                Some(engine) if engine.contains(addr) => {}
                _ => return Ok(()),
            }
        }
        clock.advance(4);
        if self.mode == ExtMode::Validation {
            // Model the dynamic-instrumentation (Pin) cost of tracing
            // every access during validation — this is why the paper's
            // validation times exceed its recovery times.
            clock.advance(COST_PIN_TRACE);
        }
        let tracing = self.tracing;
        let mut illegal: Option<(IllegalKind, u64, u64, Option<usize>)> = None;
        let mut trap: Option<TrapRecord> = None;
        if let Some(&info) = self.table.find_containing(addr) {
            let end = addr.0 + len;
            let cold = self.table.cold(&info);
            let sentried = cold.and_then(|c| c.sentried);
            let user = info.user();
            if info.is_quarantined() {
                let offset = addr.0.saturating_sub(user.0);
                let ik = match kind {
                    AccessKind::Read => IllegalKind::QuarantineRead,
                    AccessKind::Write => IllegalKind::QuarantineWrite,
                };
                illegal = Some((ik, info.seq, offset, None));
                // A poisoned sentry slot traps the dangling access at
                // the page level ([`fa_mem::Perms::POISONED`]) and is
                // attributed in `on_guard_trap`; a delay-free change
                // (quarantine) leaves the page accessible, so
                // preventive trials stay clean. Either way this hook
                // only records the illegal-access evidence.
            } else if info.in_user(addr) {
                let off = addr.0 - user.0;
                let end_off = (end - user.0).min(info.size);
                let written = cold.and_then(|c| c.written.as_ref());
                let uninit =
                    kind == AccessKind::Read && written.is_some_and(|w| !w.covers(off, end_off));
                if uninit {
                    // Reading bytes the app never wrote: an uninitialized
                    // read, neutralized when the object was zero-filled.
                    let patch = (info.fill() == Fill::Zero).then_some(0usize);
                    illegal = Some((IllegalKind::UninitRead, info.seq, off, patch));
                    // Sentried objects always track writes, so this is
                    // caught even in production — unless a fill change
                    // defused it.
                    if let Some(slot) = sentried {
                        if info.fill() == Fill::None {
                            trap = Some(TrapRecord {
                                kind: TrapKind::UninitReadSlot,
                                access: Some(kind),
                                addr,
                                len,
                                alloc_site: info.alloc_site,
                                free_site: None,
                                access_site: Some(site),
                                size: info.size,
                                slot,
                            });
                        }
                    }
                }
                // A write extends the initialized ranges; so does an
                // uninitialized read, so that each is reported once.
                if written.is_some() && (kind == AccessKind::Write || uninit) {
                    if let Some(w) = self.table.written_mut(&info) {
                        w.insert(off, end_off);
                    }
                }
            } else if info.in_padding(addr) && kind == AccessKind::Write {
                let offset = addr.0 - info.outer.0;
                illegal = Some((IllegalKind::PaddingWrite, info.seq, offset, None));
                // Pure slot slack (no padding change in play) catches the
                // overflow in flight; a padding change absorbs or
                // canaries it instead.
                if let Some(slot) = sentried {
                    if info.pad() == Some(SLOT_SLACK) {
                        trap = Some(TrapRecord {
                            kind: TrapKind::GuardHit,
                            access: Some(kind),
                            addr,
                            len,
                            alloc_site: info.alloc_site,
                            free_site: None,
                            access_site: Some(site),
                            size: info.size,
                            slot,
                        });
                    }
                }
            }
        }
        // Accesses outside every tracked object need no handling here:
        // inside the arena they land on guard pages, poisoned slots, or
        // released (re-guarded) slots, all of which trap on the page
        // permission bits and are attributed in `on_guard_trap`.
        if let Some((ik, obj_seq, offset, patch)) = illegal {
            match ik {
                IllegalKind::PaddingWrite => self.counters.padding_writes += 1,
                IllegalKind::QuarantineRead => self.counters.quarantine_reads += 1,
                IllegalKind::QuarantineWrite => self.counters.quarantine_writes += 1,
                IllegalKind::UninitRead => self.counters.uninit_reads += 1,
            }
            if tracing {
                self.trace.push(TraceEvent::Illegal {
                    kind: ik,
                    access: kind,
                    access_site: site,
                    obj_seq,
                    offset,
                    patch,
                });
            }
        }
        if let Some(rec) = trap {
            self.sentry
                .as_mut()
                .expect("trap implies engine")
                .record_trap(rec);
            return Err(Fault::Mem(MemFault::GuardTrap { addr, kind, len }));
        }
        Ok(())
    }

    fn on_guard_trap(
        &mut self,
        _clock: &mut Clock,
        addr: Addr,
        len: u64,
        kind: AccessKind,
        site: CallSite,
    ) {
        // A permission-bit trap fired inside the address space; if it
        // came from the sentry arena, attribute it. A poisoned slot
        // still holding its quarantined object is a caught dangling
        // access; anything else (guard pages, released or recycled
        // slots, evicted objects) is a wild hit.
        let Some(engine) = self.sentry.as_ref() else {
            return;
        };
        let Some(slot) = engine.slot_of(addr) else {
            return;
        };
        let rec = match self.table.find_containing(addr) {
            Some(info) => match self.table.state(info) {
                ObjState::Quarantined { freed_site, .. }
                    if self.table.cold(info).and_then(|c| c.sentried) == Some(slot)
                        && engine.is_poisoned(slot) =>
                {
                    TrapRecord {
                        kind: TrapKind::PoisonAccess,
                        access: Some(kind),
                        addr,
                        len,
                        alloc_site: info.alloc_site,
                        free_site: Some(freed_site),
                        access_site: Some(site),
                        size: info.size,
                        slot,
                    }
                }
                _ => TrapRecord {
                    kind: TrapKind::GuardHit,
                    access: Some(kind),
                    addr,
                    len,
                    alloc_site: info.alloc_site,
                    free_site: None,
                    access_site: Some(site),
                    size: info.size,
                    slot,
                },
            },
            None => TrapRecord {
                kind: TrapKind::GuardHit,
                access: Some(kind),
                addr,
                len,
                alloc_site: CallSite::default(),
                free_site: None,
                access_site: Some(site),
                size: 0,
                slot,
            },
        };
        self.sentry
            .as_mut()
            .expect("engine checked above")
            .record_trap(rec);
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    fn clone_box(&self) -> Box<dyn AllocBackend> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl ExtAllocator {
    /// Finishes a sampled allocation inside a guarded sentry slot.
    ///
    /// Layout inside the slot's data page (guard pages on both sides):
    /// `[slack | plan padding? | object | plan padding? | slack …]`. Any
    /// padding change the plan or a patch requested moves inside the
    /// slot, so trials behave exactly as they would on the heap; the
    /// 16-byte slack is the sentry's own canary when no change is
    /// active.
    #[allow(clippy::too_many_arguments)]
    fn sentry_malloc(
        &mut self,
        mem: &mut SimMemory,
        clock: &mut Clock,
        req: u64,
        site: CallSite,
        placement: SlotPlacement,
        pad: bool,
        pad_canary: bool,
        fill: Fill,
        patch_idx: Option<usize>,
    ) -> Result<Addr, Fault> {
        clock.advance(COST_SENTRY_PLACE);
        let extra = if pad { self.pad_each } else { 0 };
        let left = SLOT_SLACK + extra;
        let right = left;
        let outer = placement.data;
        let user = outer.offset(left);
        // Pure slack is always canaried; a padding change keeps its own
        // exposing/preventive flag for the whole region.
        let canary = if pad { pad_canary } else { true };
        if canary {
            clock.advance(cost_fill(left + right));
            fill_canary(mem, outer, left)?;
            fill_canary(mem, user.offset(req), right)?;
        }
        if pad {
            self.counters.objects_padded += 1;
            self.note_change(site);
        }
        match fill {
            Fill::None => {}
            Fill::Zero => {
                clock.advance(cost_fill(req));
                mem.fill(user, req, 0)?;
                self.counters.objects_zero_filled += 1;
                self.note_change(site);
            }
            Fill::Canary => {
                clock.advance(cost_fill(req));
                fill_canary(mem, user, req)?;
                self.counters.objects_canary_filled += 1;
                self.note_change(site);
            }
        }
        if let Some(idx) = patch_idx {
            *self.counters.patch_triggers.entry(idx).or_insert(0) += 1;
        }
        self.seq += 1;
        let seq = self.seq;
        let rec = ObjectRecord::new(outer, req, site, seq)
            .padded(left, canary)
            .filled(fill);
        let cold = ColdInfo {
            freed_site: None,
            // Always tracked, so uninitialized reads of sampled objects
            // are caught even in production mode.
            written: Some(IntervalSet::new()),
            sentried: Some(placement.slot),
        };
        self.table.insert(rec, cold);
        if let Some(engine) = self.sentry.as_mut() {
            engine.charge_overhead(
                COST_SENTRY_PLACE + if canary { cost_fill(left + right) } else { 0 },
            );
        }
        if self.tracing {
            self.trace.push(TraceEvent::Alloc {
                seq,
                user,
                size: req,
                site,
                patch: patch_idx,
            });
        }
        Ok(user)
    }

    /// Really deallocates a quarantined object (eviction path), checking
    /// its canary first.
    fn really_free(&mut self, mem: &mut SimMemory, user: Addr) -> Result<(), Fault> {
        let Some(&info) = self.table.get_by_user(user) else {
            return Ok(());
        };
        if let ObjState::Quarantined { freed_site, canary } = self.table.state(&info) {
            if canary {
                if let Some((off, _)) = check_canary(mem, user, info.size)? {
                    self.manifests.push(Manifestation::QuarantineCorrupt {
                        freed_site,
                        alloc_site: info.alloc_site,
                        user,
                        offset: off,
                    });
                }
            }
        }
        let outer = info.outer;
        let sentried = self.table.cold(&info).and_then(|c| c.sentried);
        if let Some(pad) = info.pad() {
            if sentried.is_none() {
                self.counters.cur_padding_bytes =
                    self.counters.cur_padding_bytes.saturating_sub(2 * pad);
            }
        }
        self.table.remove(outer);
        if let Some(slot) = sentried {
            // The slot goes back to the free list unpoisoned: the object
            // left through the ordinary delayed-free quarantine.
            if let Some(engine) = self.sentry.as_mut() {
                engine.release(mem, slot);
            }
            return Ok(());
        }
        self.heap.free(mem, outer)?;
        Ok(())
    }

    /// Appends a manifestation (used by the heap-marking module).
    pub(crate) fn push_manifestation(&mut self, m: Manifestation) {
        self.manifests.push(m);
    }

    /// Flushes the entire quarantine back to the heap (used when patches
    /// are removed after failed validation).
    pub fn flush_quarantine(&mut self, mem: &mut SimMemory) -> Result<(), Fault> {
        for entry in self.quarantine.drain() {
            self.really_free(mem, entry.user)?;
        }
        Ok(())
    }
}

/// Removes the `[lo, hi)` span from the mark list, splitting marks that
/// straddle it.
fn trim_marks(marks: &mut Vec<(u64, u64)>, lo: u64, hi: u64) {
    let mut out = Vec::with_capacity(marks.len());
    for &(start, len) in marks.iter() {
        let end = start + len;
        if end <= lo || start >= hi {
            out.push((start, len));
            continue;
        }
        if start < lo {
            out.push((start, lo - start));
        }
        if end > hi {
            out.push((hi, end - hi));
        }
    }
    *marks = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugtype::BugType;
    use crate::changes::Mode;
    use crate::patch::Patch;
    use fa_proc::SymbolTable;

    fn setup() -> (SimMemory, ExtAllocator, Clock) {
        let mut mem = SimMemory::new();
        let heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
        (mem, ExtAllocator::attach(heap), Clock::new())
    }

    fn site(id: u64) -> CallSite {
        CallSite([id, 0, 0])
    }

    /// The sentry slot of the object at user pointer `p`, if sampled.
    fn sentried(ext: &ExtAllocator, p: Addr) -> Option<usize> {
        let table = ext.table();
        table.cold(table.get_by_user(p)?)?.sentried
    }

    #[test]
    fn normal_mode_is_transparent() {
        let (mut mem, mut ext, mut clock) = setup();
        let p = ext.malloc(&mut mem, &mut clock, 100, site(1)).unwrap();
        assert_eq!(ext.usable_size(&mut mem, p).unwrap(), 100);
        ext.free(&mut mem, &mut clock, p, site(2)).unwrap();
        assert!(ext.table().is_empty());
        assert_eq!(ext.counters().changed_objects, 0);
    }

    #[test]
    fn padding_patch_pads_matching_site_only() {
        let (mut mem, mut ext, mut clock) = setup();
        let symbols = SymbolTable::new();
        let patch = Patch::new(BugType::BufferOverflow, site(1), &symbols);
        ext.set_normal(PatchSet::from_patches([patch]));
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let b = ext.malloc(&mut mem, &mut clock, 64, site(2)).unwrap();
        let ia = ext.table().get_by_user(a).unwrap();
        let ib = ext.table().get_by_user(b).unwrap();
        assert!(ia.pad().is_some());
        assert!(ib.pad().is_none());
        assert_eq!(ext.counters().objects_padded, 1);
        assert_eq!(ext.counters().patch_triggers.get(&0), Some(&1));
        assert_eq!(
            ext.counters().cur_padding_bytes,
            2 * PAD_EACH_SIDE,
            "1016 bytes per padded object, as in paper Table 5"
        );
    }

    #[test]
    fn padding_absorbs_overflow() {
        let (mut mem, mut ext, mut clock) = setup();
        let symbols = SymbolTable::new();
        ext.set_normal(PatchSet::from_patches([Patch::new(
            BugType::BufferOverflow,
            site(1),
            &symbols,
        )]));
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let b = ext.malloc(&mut mem, &mut clock, 64, site(2)).unwrap();
        // Overflow a by 100 bytes — lands in padding, not in b or heap
        // metadata.
        mem.write(a.offset(64), &[0x77; 100]).unwrap();
        ext.free(&mut mem, &mut clock, b, site(9)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(9)).unwrap();
        ext.heap().check_integrity(&mut mem).unwrap();
    }

    #[test]
    fn exposing_padding_detects_overflow_object() {
        let (mut mem, mut ext, mut clock) = setup();
        let mut plan = ChangePlan::all_preventive();
        plan.overflow = Mode::Expose;
        ext.set_diagnostic(plan);
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let _b = ext.malloc(&mut mem, &mut clock, 64, site(2)).unwrap();
        mem.write(a.offset(64), &[0x77; 10]).unwrap();
        ext.scan(&mut mem).unwrap();
        let m = ext.manifestations();
        assert_eq!(m.len(), 1);
        match &m[0] {
            Manifestation::PaddingCorrupt {
                alloc_site,
                right_side,
                offset,
                ..
            } => {
                assert_eq!(*alloc_site, site(1));
                assert!(*right_side);
                assert_eq!(*offset, 0);
            }
            other => panic!("unexpected manifestation {other:?}"),
        }
    }

    #[test]
    fn delay_free_preserves_contents() {
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_diagnostic(ChangePlan::all_preventive());
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        mem.write(a, b"important").unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        // A dangling read still sees the old contents (preventive form).
        assert_eq!(mem.read_bytes(a, 9).unwrap(), b"important");
        // And the chunk is not reused.
        let b = ext.malloc(&mut mem, &mut clock, 64, site(3)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn exposing_delay_free_canaries_and_detects_dangling_write() {
        let (mut mem, mut ext, mut clock) = setup();
        let mut plan = ChangePlan::all_preventive();
        plan.dangling_write = Mode::Expose;
        plan.dangling_read = Mode::Off;
        ext.set_diagnostic(plan);
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        // Dangling write through the stale pointer.
        mem.write_u64(a.offset(8), 0x1234).unwrap();
        ext.scan(&mut mem).unwrap();
        let m: Vec<_> = ext
            .manifestations()
            .iter()
            .filter(|m| m.bug_type() == Some(BugType::DanglingWrite))
            .collect();
        assert_eq!(m.len(), 1);
        match m[0] {
            Manifestation::QuarantineCorrupt {
                freed_site, offset, ..
            } => {
                assert_eq!(*freed_site, site(2));
                assert_eq!(*offset, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn double_free_detected_and_neutralized_when_delayed() {
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_diagnostic(ChangePlan::all_preventive());
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(3)).unwrap(); // double free
        let m: Vec<_> = ext
            .manifestations()
            .iter()
            .filter(|m| m.bug_type() == Some(BugType::DoubleFree))
            .collect();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn double_free_crashes_without_changes() {
        let (mut mem, mut ext, mut clock) = setup();
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let _b = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        let err = ext.free(&mut mem, &mut clock, a, site(2)).unwrap_err();
        assert!(matches!(err, Fault::Heap(_)));
    }

    #[test]
    fn zero_fill_change_zeroes_new_objects() {
        let (mut mem, mut ext, mut clock) = setup();
        // Dirty a chunk, free it for reuse.
        let a = ext.malloc(&mut mem, &mut clock, 64, site(9)).unwrap();
        mem.fill(a, 64, 0x5a).unwrap();
        let hold = ext.malloc(&mut mem, &mut clock, 16, site(9)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(9)).unwrap();
        let mut plan = ChangePlan::none();
        plan.uninit_read = Mode::Prevent;
        ext.set_diagnostic(plan);
        let b = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        assert_eq!(b, a, "chunk reuse expected");
        assert!(mem.read_bytes(b, 64).unwrap().iter().all(|&x| x == 0));
        let _ = hold;
    }

    #[test]
    fn canary_fill_change_canaries_new_objects() {
        let (mut mem, mut ext, mut clock) = setup();
        let mut plan = ChangePlan::none();
        plan.uninit_read = Mode::Expose;
        ext.set_diagnostic(plan);
        let b = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        assert!(mem
            .read_bytes(b, 64)
            .unwrap()
            .iter()
            .all(|&x| x == crate::CANARY_BYTE));
    }

    #[test]
    fn expose_only_scopes_fill_by_site() {
        let (mut mem, mut ext, mut clock) = setup();
        let mut plan = ChangePlan::none();
        plan.uninit_read = Mode::ExposeOnly([site(1)].into_iter().collect());
        ext.set_diagnostic(plan);
        let a = ext.malloc(&mut mem, &mut clock, 32, site(1)).unwrap();
        let b = ext.malloc(&mut mem, &mut clock, 32, site(2)).unwrap();
        assert!(mem
            .read_bytes(a, 32)
            .unwrap()
            .iter()
            .all(|&x| x == crate::CANARY_BYTE));
        assert!(mem.read_bytes(b, 32).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn quarantine_eviction_really_frees_in_normal_mode() {
        // The byte threshold applies to patched production runs: a
        // DelayFree patch must not pin unbounded memory.
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_quarantine_threshold(300);
        let symbols = SymbolTable::new();
        ext.set_normal(PatchSet::from_patches([Patch::new(
            BugType::DanglingRead,
            site(20),
            &symbols,
        )]));
        let mut ptrs = Vec::new();
        for i in 0..6u64 {
            let p = ext.malloc(&mut mem, &mut clock, 100, site(i)).unwrap();
            ptrs.push(p);
        }
        for p in &ptrs {
            ext.free(&mut mem, &mut clock, *p, site(20)).unwrap();
        }
        assert!(
            ext.quarantine().bytes() <= 300 + 116,
            "quarantine must stay near the threshold, got {}",
            ext.quarantine().bytes()
        );
        assert!(ext.quarantine().len() < 6);
        ext.heap().check_integrity(&mut mem).unwrap();
    }

    #[test]
    fn quarantine_is_unbounded_in_diagnostic_mode() {
        // Diagnostic re-executions are short and rolled back; eviction
        // there would release exactly the objects the preventive change
        // is keeping resident (it broke the Apache phase-1 search).
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_quarantine_threshold(300);
        ext.set_diagnostic(ChangePlan::all_preventive());
        let mut ptrs = Vec::new();
        for i in 0..6u64 {
            let p = ext.malloc(&mut mem, &mut clock, 100, site(i)).unwrap();
            ptrs.push(p);
        }
        for p in &ptrs {
            ext.free(&mut mem, &mut clock, *p, site(20)).unwrap();
        }
        assert_eq!(ext.quarantine().len(), 6, "no eviction during diagnosis");
        assert_eq!(ext.quarantine().bytes(), 6 * (100 + 2 * PAD_EACH_SIDE));
        ext.heap().check_integrity(&mut mem).unwrap();
    }

    #[test]
    fn alloc_sites_collected_in_diagnostic_mode() {
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_diagnostic(ChangePlan::none());
        for s in [1u64, 2, 1, 3] {
            let p = ext.malloc(&mut mem, &mut clock, 16, site(s)).unwrap();
            ext.free(&mut mem, &mut clock, p, site(s + 10)).unwrap();
        }
        assert_eq!(ext.alloc_sites_seen(), &[site(1), site(2), site(3)]);
        assert_eq!(ext.dealloc_sites_seen(), &[site(11), site(12), site(13)]);
    }

    #[test]
    fn validation_mode_traces_allocs_and_illegal_accesses() {
        let (mut mem, mut ext, mut clock) = setup();
        let symbols = SymbolTable::new();
        ext.set_validation(
            PatchSet::from_patches([Patch::new(BugType::BufferOverflow, site(1), &symbols)]),
            7,
        );
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        // Overflow into the padding: the observe hook classifies it.
        ext.observe_access(&mut clock, a.offset(70), 8, AccessKind::Write, site(5))
            .unwrap();
        mem.write_u64(a.offset(70), 1).unwrap();
        let trace = ext.trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Alloc { patch: Some(0), .. })));
        assert!(trace.iter().any(|e| matches!(
            e,
            TraceEvent::Illegal {
                kind: IllegalKind::PaddingWrite,
                ..
            }
        )));
        assert_eq!(ext.counters().padding_writes, 1);
    }

    #[test]
    fn uninit_read_traced_once() {
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_validation(PatchSet::new(), 1);
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        ext.observe_access(&mut clock, a, 8, AccessKind::Write, site(5))
            .unwrap();
        // Initialized read: fine.
        ext.observe_access(&mut clock, a, 8, AccessKind::Read, site(5))
            .unwrap();
        assert_eq!(ext.counters().uninit_reads, 0);
        // Read past the written prefix: uninit.
        ext.observe_access(&mut clock, a.offset(8), 8, AccessKind::Read, site(5))
            .unwrap();
        assert_eq!(ext.counters().uninit_reads, 1);
        // Same read again: reported once.
        ext.observe_access(&mut clock, a.offset(8), 8, AccessKind::Read, site(5))
            .unwrap();
        assert_eq!(ext.counters().uninit_reads, 1);
    }

    #[test]
    fn quarantine_access_traced() {
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_diagnostic(ChangePlan::all_preventive());
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        ext.observe_access(&mut clock, a.offset(4), 8, AccessKind::Read, site(5))
            .unwrap();
        ext.observe_access(&mut clock, a.offset(4), 8, AccessKind::Write, site(5))
            .unwrap();
        assert_eq!(ext.counters().quarantine_reads, 1);
        assert_eq!(ext.counters().quarantine_writes, 1);
    }

    #[test]
    fn meta_bytes_counts_tracked_objects() {
        let (mut mem, mut ext, mut clock) = setup();
        let _a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let _b = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        assert_eq!(ext.meta_bytes(), 32);
    }

    #[test]
    fn realloc_preserves_data_and_tracking() {
        let (mut mem, mut ext, mut clock) = setup();
        let p = ext.malloc(&mut mem, &mut clock, 32, site(1)).unwrap();
        mem.write(p, b"0123456789abcdefghijklmnopqrstuv").unwrap();
        let q = ext.realloc(&mut mem, &mut clock, p, 4096, site(1)).unwrap();
        assert_ne!(p, q);
        assert_eq!(
            mem.read_bytes(q, 32).unwrap(),
            b"0123456789abcdefghijklmnopqrstuv"
        );
        assert!(ext.table().get_by_user(p).is_none(), "old object untracked");
        let info = ext.table().get_by_user(q).unwrap();
        assert_eq!(info.size, 4096);
        ext.free(&mut mem, &mut clock, q, site(2)).unwrap();
        ext.heap().check_integrity(&mut mem).unwrap();
    }

    #[test]
    fn realloc_applies_alloc_side_patches() {
        let (mut mem, mut ext, mut clock) = setup();
        let symbols = SymbolTable::new();
        ext.set_normal(PatchSet::from_patches([Patch::new(
            BugType::BufferOverflow,
            site(1),
            &symbols,
        )]));
        let p = ext.malloc(&mut mem, &mut clock, 32, site(9)).unwrap();
        assert!(ext.table().get_by_user(p).unwrap().pad().is_none());
        // Realloc at the patched site: the new object is padded.
        let q = ext.realloc(&mut mem, &mut clock, p, 64, site(1)).unwrap();
        assert!(ext.table().get_by_user(q).unwrap().pad().is_some());
        assert_eq!(ext.counters().objects_padded, 1);
    }

    #[test]
    fn realloc_of_quarantined_object_is_rejected() {
        let (mut mem, mut ext, mut clock) = setup();
        ext.set_diagnostic(ChangePlan::all_preventive());
        let p = ext.malloc(&mut mem, &mut clock, 32, site(1)).unwrap();
        ext.free(&mut mem, &mut clock, p, site(2)).unwrap();
        let err = ext
            .realloc(&mut mem, &mut clock, p, 64, site(1))
            .unwrap_err();
        assert!(matches!(err, Fault::Heap(_)), "{err}");
    }

    fn sentry_setup() -> (SimMemory, ExtAllocator, Clock) {
        let (mem, mut ext, clock) = setup();
        // Rate 1: every allocation ticks, so every site is sampled.
        ext.enable_sentry(SentryConfig {
            rate: 1,
            hot_threshold: u64::MAX,
            ..SentryConfig::default()
        });
        (mem, ext, clock)
    }

    #[test]
    fn sentry_poison_traps_dangling_read_in_normal_mode() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        assert!(sentried(&ext, a).is_some());
        ext.observe_access(&mut clock, a, 8, AccessKind::Write, site(4))
            .unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        // Dangling read through the stale pointer: the observe hook only
        // records the illegal-access evidence; the poisoned page traps
        // at access time and the fault is routed back for attribution.
        ext.observe_access(&mut clock, a, 8, AccessKind::Read, site(3))
            .unwrap();
        let err = mem.read_bytes(a, 8).unwrap_err();
        assert!(matches!(err, MemFault::GuardTrap { .. }), "{err}");
        ext.on_guard_trap(&mut clock, a, 8, AccessKind::Read, site(3));
        let trap = ext.take_pending_trap().unwrap();
        assert_eq!(trap.kind, TrapKind::PoisonAccess);
        assert_eq!(trap.alloc_site, site(1));
        assert_eq!(trap.free_site, Some(site(2)));
        assert_eq!(trap.access_site, Some(site(3)));
        // The illegal-access evidence the full ladder relies on is still
        // recorded.
        assert_eq!(ext.counters().quarantine_reads, 1);
    }

    #[test]
    fn sentry_slack_traps_overflow_write_in_flight() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let err = ext
            .observe_access(&mut clock, a.offset(64), 4, AccessKind::Write, site(7))
            .unwrap_err();
        assert_eq!(err.class(), "sentry-trap");
        let trap = ext.take_pending_trap().unwrap();
        assert_eq!(trap.kind, TrapKind::GuardHit);
        assert_eq!(trap.alloc_site, site(1));
        assert_eq!(ext.counters().padding_writes, 1);
    }

    #[test]
    fn sentry_double_free_traps() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        let err = ext.free(&mut mem, &mut clock, a, site(3)).unwrap_err();
        assert_eq!(err.class(), "sentry-trap");
        let trap = ext.take_pending_trap().unwrap();
        assert_eq!(trap.kind, TrapKind::DoubleFreeSlot);
        assert_eq!(trap.free_site, Some(site(2)));
        assert!(ext
            .manifestations()
            .iter()
            .any(|m| m.bug_type() == Some(BugType::DoubleFree)));
    }

    #[test]
    fn sentry_uninit_read_traps() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let err = ext
            .observe_access(&mut clock, a, 8, AccessKind::Read, site(5))
            .unwrap_err();
        assert_eq!(err.class(), "sentry-trap");
        assert_eq!(
            ext.take_pending_trap().unwrap().kind,
            TrapKind::UninitReadSlot
        );
        assert_eq!(ext.counters().uninit_reads, 1);
    }

    #[test]
    fn sentry_slack_corruption_is_caught_on_free() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        // Unobserved overflow (e.g. through code the hook cannot see):
        // the canary slack still convicts it at free time.
        mem.write(a.offset(64), &[0x77; 4]).unwrap();
        let err = ext.free(&mut mem, &mut clock, a, site(2)).unwrap_err();
        assert_eq!(err.class(), "sentry-trap");
        assert_eq!(
            ext.take_pending_trap().unwrap().kind,
            TrapKind::CanaryOnFree
        );
        assert!(ext
            .manifestations()
            .iter()
            .any(|m| m.bug_type() == Some(BugType::BufferOverflow)));
    }

    #[test]
    fn delay_free_patch_neutralizes_sentry_poisoning() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let symbols = SymbolTable::new();
        ext.set_normal(PatchSet::from_patches([Patch::new(
            BugType::DanglingRead,
            site(2),
            &symbols,
        )]));
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
        // Patched delay-free quarantines instead of poisoning: the
        // dangling read is neutralized, not trapped, so the patch-health
        // monitor never sees a recurrence.
        ext.observe_access(&mut clock, a, 8, AccessKind::Read, site(3))
            .unwrap();
        assert!(ext.peek_pending_trap().is_none());
        assert_eq!(ext.counters().quarantine_reads, 1);
        ext.flush_quarantine(&mut mem).unwrap();
        assert!(ext.table().is_empty());
    }

    #[test]
    fn patched_sites_are_not_sampled() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let symbols = SymbolTable::new();
        ext.set_normal(PatchSet::from_patches([Patch::new(
            BugType::BufferOverflow,
            site(1),
            &symbols,
        )]));
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        let b = ext.malloc(&mut mem, &mut clock, 64, site(2)).unwrap();
        assert!(ext.table().get_by_user(a).is_some());
        assert!(sentried(&ext, a).is_none());
        assert!(sentried(&ext, b).is_some());
    }

    #[test]
    fn sentried_plan_padding_absorbs_overflow_in_trials() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        ext.set_diagnostic(ChangePlan::all_preventive());
        let a = ext.malloc(&mut mem, &mut clock, 64, site(1)).unwrap();
        assert!(sentried(&ext, a).is_some());
        assert!(
            ext.table().get_by_user(a).unwrap().pad().unwrap() > SLOT_SLACK,
            "plan pad moved into slot"
        );
        // The overflow lands in the preventive padding inside the slot:
        // absorbed, counted, not trapped — trials behave as on the heap.
        ext.observe_access(&mut clock, a.offset(64), 4, AccessKind::Write, site(7))
            .unwrap();
        assert!(ext.peek_pending_trap().is_none());
        assert_eq!(ext.counters().padding_writes, 1);
        ext.free(&mut mem, &mut clock, a, site(2)).unwrap();
    }

    #[test]
    fn sentried_realloc_moves_and_poisons_old_slot() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let a = ext.malloc(&mut mem, &mut clock, 32, site(1)).unwrap();
        ext.observe_access(&mut clock, a, 32, AccessKind::Write, site(1))
            .unwrap();
        mem.write(a, b"0123456789abcdefghijklmnopqrstuv").unwrap();
        let b = ext.realloc(&mut mem, &mut clock, a, 128, site(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(
            mem.read_bytes(b, 32).unwrap(),
            b"0123456789abcdefghijklmnopqrstuv"
        );
        // The old slot is poisoned; a stale read through it traps on the
        // page permission bits and is attributed as a poison access.
        ext.observe_access(&mut clock, a, 8, AccessKind::Read, site(9))
            .unwrap();
        let err = mem.read_bytes(a, 8).unwrap_err();
        assert!(matches!(err, MemFault::GuardTrap { .. }), "{err}");
        ext.on_guard_trap(&mut clock, a, 8, AccessKind::Read, site(9));
        assert_eq!(
            ext.take_pending_trap().unwrap().kind,
            TrapKind::PoisonAccess
        );
    }

    #[test]
    fn sentry_decisions_replay_after_clone() {
        let (mut mem, mut ext, mut clock) = sentry_setup();
        let mut ext2 = ext.clone();
        let mut mem2 = mem.clone();
        let mut clock2 = Clock::new();
        let mut sampled = Vec::new();
        let mut sampled2 = Vec::new();
        for i in 0..200u64 {
            let s = site(i % 7);
            let a = ext.malloc(&mut mem, &mut clock, 40, s).unwrap();
            sampled.push(sentried(&ext, a));
            let b = ext2.malloc(&mut mem2, &mut clock2, 40, s).unwrap();
            sampled2.push(sentried(&ext2, b));
            if i % 3 == 0 {
                ext.free(&mut mem, &mut clock, a, site(50)).unwrap();
                ext2.free(&mut mem2, &mut clock2, b, site(50)).unwrap();
            }
        }
        assert_eq!(sampled, sampled2, "cloned allocators replay decisions");
    }

    #[test]
    fn trim_marks_splits_straddling() {
        let mut marks = vec![(100, 100)]; // [100, 200)
        trim_marks(&mut marks, 140, 160);
        assert_eq!(marks, vec![(100, 40), (160, 40)]);
        trim_marks(&mut marks, 0, 100);
        assert_eq!(marks, vec![(100, 40), (160, 40)]);
        trim_marks(&mut marks, 100, 300);
        assert!(marks.is_empty());
    }
}
