//! The checkpoint ring and rollback.

use std::cell::Cell;
use std::collections::VecDeque;
use std::thread::{self, JoinHandle};

use fa_proc::{ProcSnapshot, Process};

use crate::adaptive::{AdaptiveConfig, AdaptiveInterval};

/// The fixed virtual-time cost of reinstating saved task state on any
/// rollback or snapshot restore. It does not grow with the snapshot:
/// like a fork-based rollback, reinstating the copy-on-write page table
/// and allocator metadata shares them instead of copying them.
pub const ROLLBACK_COST_NS: u64 = 80_000;

/// Dirty-page count from which a checkpoint's checksum is computed on a
/// helper thread instead of the serving thread.
///
/// The helper pays once the digest it moves off the serving thread costs
/// more than spawning it. Measured at p50 on a 2-vCPU VM, the spawn adds
/// ~30 µs to the pause and the digest rehashes a dirty page in 0.8-1 µs,
/// so they break even near 32 pages. At twice that, a helper checkpoint
/// saves at least half its digest. Server checkpoints (10-12 dirty pages)
/// stay inline; big-heap ones (thousands of pages) go to the helper.
const HELPER_DIGEST_MIN_DIRTY: usize = 64;

/// A checkpoint's recorded checksum.
enum Checksum {
    /// Computed; `None` if its helper panicked, so the checkpoint can
    /// never verify.
    Ready(Option<u64>),
    /// Being computed by a helper thread over a copy-on-write share of
    /// the snapshot.
    Pending(JoinHandle<u64>),
}

impl Checksum {
    /// Digests `snap`, on a helper thread when `dirty` reaches
    /// [`HELPER_DIGEST_MIN_DIRTY`] and the spawn succeeds, inline
    /// otherwise.
    fn of(snap: &ProcSnapshot, dirty: usize) -> Checksum {
        if dirty >= HELPER_DIGEST_MIN_DIRTY {
            let job = snap.digest_job();
            let spawned = thread::Builder::new()
                .name("checkpoint-digest".into())
                .spawn(move || job.run());
            if let Ok(helper) = spawned {
                return Checksum::Pending(helper);
            }
        }
        Checksum::Ready(Some(snap.digest()))
    }
}

/// One retained checkpoint.
///
/// Its checksum is the digest of `snap` at the moment it was taken. A
/// checkpoint that dirtied 64 pages or more has it computed on a helper
/// thread, so that hashing thousands of pages does not pause the serving
/// thread. The helper holds a copy-on-write share of the snapshot, whose
/// frames no write can change (writes copy them first), so the checksum
/// is the one an inline digest would have recorded, and rot after the
/// checkpoint is still caught. [`Self::verify`] and
/// [`CheckpointManager::corrupt`] wait for a pending checksum, and
/// dropping a checkpoint joins its helper first, so no helper outlives
/// the checkpoint and holds frames the checkpoint has released.
pub struct Checkpoint {
    /// Monotonic checkpoint id.
    pub id: u64,
    /// Virtual time at which it was taken.
    pub at_ns: u64,
    /// The process snapshot.
    pub snap: ProcSnapshot,
    /// Pages dirtied since the previous checkpoint (its COW cost).
    pub dirty_pages: usize,
    /// Input-log cursor at checkpoint time.
    pub cursor: usize,
    /// Checksum of `snap` at checkpoint time.
    checksum: Cell<Checksum>,
}

impl Checkpoint {
    /// True if the stored snapshot still matches its recorded checksum,
    /// which this waits for if a helper is still computing it. A
    /// mismatch means the stored snapshot rotted (simulated storage
    /// corruption), and the checkpoint must not be used as a rollback
    /// target. So must a checkpoint whose helper panicked.
    pub fn verify(&self) -> bool {
        self.checksum()
            .is_some_and(|checksum| self.snap.digest() == checksum)
    }

    /// Returns the recorded checksum, joining a pending helper first;
    /// `None` if the helper panicked.
    fn checksum(&self) -> Option<u64> {
        let checksum = match self.checksum.replace(Checksum::Ready(None)) {
            Checksum::Ready(checksum) => checksum,
            Checksum::Pending(helper) => helper.join().ok(),
        };
        self.checksum.set(Checksum::Ready(checksum));
        checksum
    }
}

impl Drop for Checkpoint {
    /// Joins a pending helper, so it releases its share of the frames
    /// before the checkpoint does: copy-on-write faults after a drop
    /// never depend on how far the helper got.
    fn drop(&mut self) {
        self.checksum();
    }
}

/// Aggregate checkpointing statistics (paper Table 7 inputs).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointStats {
    /// Checkpoints taken.
    pub taken: u64,
    /// Total pages dirtied across all intervals.
    pub total_dirty_pages: u64,
    /// Total virtual time spent taking checkpoints.
    pub total_cost_ns: u64,
    /// Virtual time of the first checkpoint.
    pub first_at_ns: u64,
    /// Virtual time of the most recent checkpoint.
    pub last_at_ns: u64,
}

impl CheckpointStats {
    /// Average megabytes of COW pages per checkpoint.
    pub fn mb_per_checkpoint(&self) -> f64 {
        if self.taken == 0 {
            return 0.0;
        }
        (self.total_dirty_pages as f64 * 4096.0) / (self.taken as f64 * 1_048_576.0)
    }

    /// Average megabytes of checkpoint data per virtual second.
    pub fn mb_per_second(&self) -> f64 {
        let span = self.last_at_ns.saturating_sub(self.first_at_ns);
        if span == 0 {
            return 0.0;
        }
        (self.total_dirty_pages as f64 * 4096.0 / 1_048_576.0) / (span as f64 / 1e9)
    }
}

/// Periodic checkpointing with a bounded history ring.
pub struct CheckpointManager {
    ring: VecDeque<Checkpoint>,
    max_keep: usize,
    next_id: u64,
    controller: AdaptiveInterval,
    next_due_ns: u64,
    stats: CheckpointStats,
}

impl CheckpointManager {
    /// Creates a manager keeping up to `max_keep` checkpoints.
    pub fn new(config: AdaptiveConfig, max_keep: usize) -> Self {
        let controller = AdaptiveInterval::new(config);
        CheckpointManager {
            ring: VecDeque::new(),
            max_keep,
            next_id: 0,
            next_due_ns: controller.interval_ns(),
            controller,
            stats: CheckpointStats::default(),
        }
    }

    /// Takes a checkpoint if the process clock has passed the due time.
    ///
    /// Charges the COW replication cost of the elapsed interval to the
    /// process clock and feeds the adaptive controller.
    pub fn maybe_checkpoint(&mut self, process: &mut Process) -> Option<u64> {
        if process.ctx.clock.now() < self.next_due_ns {
            return None;
        }
        let id = self.force_checkpoint(process);
        Some(id)
    }

    /// Takes a checkpoint unconditionally.
    pub fn force_checkpoint(&mut self, process: &mut Process) -> u64 {
        let dirty = process.ctx.mem.take_dirty_pages();
        let cost = self.controller.checkpoint_cost_ns(dirty);
        process.ctx.clock.advance(cost);
        self.controller.observe(dirty);
        let id = self.next_id;
        self.next_id += 1;
        let at_ns = process.ctx.clock.now();
        let snap = process.snapshot();
        let checksum = Cell::new(Checksum::of(&snap, dirty));
        self.ring.push_back(Checkpoint {
            id,
            at_ns,
            snap,
            dirty_pages: dirty,
            cursor: process.cursor(),
            checksum,
        });
        while self.ring.len() > self.max_keep {
            self.ring.pop_front();
        }
        self.stats.taken += 1;
        self.stats.total_dirty_pages += dirty as u64;
        self.stats.total_cost_ns += cost;
        if self.stats.taken == 1 {
            self.stats.first_at_ns = at_ns;
        }
        self.stats.last_at_ns = at_ns;
        self.next_due_ns = at_ns + self.controller.interval_ns();
        id
    }

    /// Returns the retained checkpoints, oldest first.
    pub fn checkpoints(&self) -> impl DoubleEndedIterator<Item = &Checkpoint> {
        self.ring.iter()
    }

    /// Returns the checkpoint with the given id, if retained.
    pub fn get(&self, id: u64) -> Option<&Checkpoint> {
        self.ring.iter().find(|c| c.id == id)
    }

    /// Returns the `k`-th most recent checkpoint (0 = newest).
    pub fn nth_newest(&self, k: usize) -> Option<&Checkpoint> {
        let len = self.ring.len();
        len.checked_sub(k + 1).and_then(|i| self.ring.get(i))
    }

    /// Returns the oldest retained checkpoint.
    pub fn oldest(&self) -> Option<&Checkpoint> {
        self.ring.front()
    }

    /// Flips the stored checksum of the given checkpoint, simulating
    /// storage rot; a pending checksum is waited for first. Returns
    /// `false` if the id is not retained. Test and fault-injection hook.
    pub fn corrupt(&mut self, id: u64) -> bool {
        let Some(c) = self.ring.iter_mut().find(|c| c.id == id) else {
            return false;
        };
        let rotted = c
            .checksum()
            .map(|checksum| checksum ^ 0xdead_beef_dead_beef);
        c.checksum.set(Checksum::Ready(rotted));
        true
    }

    /// Corrupts the newest retained checkpoint (the usual victim of a
    /// torn write: the one still in flight). Returns its id.
    pub fn corrupt_newest(&mut self) -> Option<u64> {
        let id = self.ring.back()?.id;
        self.corrupt(id);
        Some(id)
    }

    /// Flips a byte of the given checkpoint's *snapshot data* (in-page
    /// rot, as opposed to [`Self::corrupt`]'s checksum rot), leaving the
    /// recorded checksum untouched so only a content-aware digest can
    /// notice. Returns `false` if the id is not retained or the snapshot
    /// holds no page data. Test and fault-injection hook.
    pub fn corrupt_data(&mut self, id: u64) -> bool {
        match self.ring.iter_mut().find(|c| c.id == id) {
            Some(c) => c.snap.rot_page(),
            None => false,
        }
    }

    /// Removes every checkpoint whose snapshot fails verification and
    /// returns their ids (oldest first). Recovery calls this before
    /// choosing a rollback target so diagnosis only ever sees intact
    /// checkpoints — falling back to the next-older one on mismatch.
    pub fn sweep_corrupt(&mut self) -> Vec<u64> {
        let mut bad = Vec::new();
        self.ring.retain(|c| {
            let intact = c.verify();
            if !intact {
                bad.push(c.id);
            }
            intact
        });
        bad
    }

    /// Returns the number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` if no checkpoints are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Rolls the process back to the given checkpoint, charging the fixed
    /// [`ROLLBACK_COST_NS`].
    pub fn rollback_to(&self, process: &mut Process, id: u64) -> bool {
        self.restore_into(process, id)
    }

    /// Restores a trial context from checkpoint `id` without touching the
    /// ring: the same checksum verification, restore, fixed rollback cost,
    /// and dirty-page reset as [`Self::rollback_to`], applied to any
    /// process — the supervised one or a pooled/forked trial context. This
    /// is the checkpoint entry point of the fa-exec trial substrate.
    /// Returns `false` if the id is not retained or the checkpoint fails
    /// [`Checkpoint::verify`].
    pub fn restore_into(&self, trial: &mut Process, id: u64) -> bool {
        let Some(ckpt) = self.ring.iter().find(|c| c.id == id) else {
            return false;
        };
        // Defense in depth: never restore from a snapshot that fails
        // its checksum, even if the caller skipped `sweep_corrupt()`.
        if !ckpt.verify() {
            return false;
        }
        trial.restore(&ckpt.snap);
        // Reinstating the saved task state costs the same for every
        // snapshot size.
        trial.ctx.clock.advance(ROLLBACK_COST_NS);
        trial.ctx.mem.take_dirty_pages();
        true
    }

    /// Drops all checkpoints newer than `id` (after recovery commits to a
    /// rollback point, the discarded future is invalid).
    pub fn truncate_after(&mut self, id: u64) {
        self.ring.retain(|c| c.id <= id);
        if let Some(last) = self.ring.back() {
            self.next_id = last.id + 1;
        }
    }

    /// Returns the current checkpoint interval.
    pub fn interval_ns(&self) -> u64 {
        self.controller.interval_ns()
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Resets the due time relative to the process clock (after recovery,
    /// so the next checkpoint is not immediately due).
    pub fn rearm(&mut self, process: &Process) {
        self.next_due_ns = process.ctx.clock.now() + self.controller.interval_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_proc::{App, BoxedApp, Fault, Input, InputBuilder, ProcessCtx, Response};

    /// Touches `input.a` bytes of a rolling buffer each request.
    #[derive(Clone, Default)]
    struct Toucher {
        bufs: Vec<fa_mem::Addr>,
    }

    impl App for Toucher {
        fn name(&self) -> &'static str {
            "toucher"
        }

        fn handle(&mut self, ctx: &mut ProcessCtx, input: &Input) -> Result<Response, Fault> {
            ctx.call("touch", |ctx| {
                let p = ctx.malloc(input.a.max(8))?;
                ctx.fill(p, input.a.max(8), 0x33)?;
                self.bufs.push(p);
                if self.bufs.len() > 4 {
                    let victim = self.bufs.remove(0);
                    ctx.free(victim)?;
                }
                Ok(Response::bytes(input.a))
            })
        }

        fn clone_app(&self) -> BoxedApp {
            Box::new(self.clone())
        }
    }

    fn process() -> Process {
        Process::launch(Box::new(Toucher::default()), ProcessCtx::new(1 << 26)).unwrap()
    }

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            base_interval_ns: 1_000_000, // 1 ms for fast tests
            max_interval_ns: 8_000_000,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn checkpoints_fire_on_interval() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        let mut taken = 0;
        for i in 0..200 {
            p.feed(InputBuilder::op(0).a(256).gap_us(20).build());
            if mgr.maybe_checkpoint(&mut p).is_some() {
                taken += 1;
            }
            let _ = i;
        }
        assert!(taken >= 2, "expected several checkpoints, got {taken}");
        assert!(mgr.len() <= 10);
        assert_eq!(mgr.stats().taken, taken as u64);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut mgr = CheckpointManager::new(config(), 3);
        let mut p = process();
        for _ in 0..5 {
            p.feed(InputBuilder::op(0).a(64).build());
            mgr.force_checkpoint(&mut p);
        }
        assert_eq!(mgr.len(), 3);
        let ids: Vec<u64> = mgr.checkpoints().map(|c| c.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(mgr.nth_newest(0).unwrap().id, 4);
        assert_eq!(mgr.nth_newest(2).unwrap().id, 2);
        assert!(mgr.nth_newest(3).is_none());
    }

    #[test]
    fn rollback_restores_process_state() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        for _ in 0..3 {
            p.feed(InputBuilder::op(0).a(64).build());
        }
        let id = mgr.force_checkpoint(&mut p);
        let cursor_at_ckpt = p.cursor();
        for _ in 0..5 {
            p.feed(InputBuilder::op(0).a(64).build());
        }
        assert!(mgr.rollback_to(&mut p, id));
        assert_eq!(p.cursor(), cursor_at_ckpt);
        assert!(!mgr.rollback_to(&mut p, 999));
    }

    #[test]
    fn rollback_then_replay_is_deterministic() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        for i in 0..4 {
            p.feed(InputBuilder::op(0).a(64 + i).build());
        }
        let id = mgr.force_checkpoint(&mut p);
        for i in 0..6 {
            p.feed(InputBuilder::op(0).a(128 + i).build());
        }
        let heap_allocs_before = p.ctx.alloc().heap().stats().allocs;
        mgr.rollback_to(&mut p, id);
        while p.step().is_some() {}
        assert_eq!(
            p.ctx.alloc().heap().stats().allocs,
            heap_allocs_before,
            "replay must reproduce the identical allocation sequence"
        );
    }

    #[test]
    fn truncate_after_drops_newer() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        let mut ids = Vec::new();
        for _ in 0..4 {
            p.feed(InputBuilder::op(0).a(64).build());
            ids.push(mgr.force_checkpoint(&mut p));
        }
        mgr.truncate_after(ids[1]);
        let remaining: Vec<u64> = mgr.checkpoints().map(|c| c.id).collect();
        assert_eq!(remaining, vec![ids[0], ids[1]]);
    }

    #[test]
    fn checkpoint_cost_charged_to_clock() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        p.feed(InputBuilder::op(0).a(8192).build());
        let t0 = p.ctx.clock.now();
        mgr.force_checkpoint(&mut p);
        assert!(p.ctx.clock.now() > t0, "checkpoint must cost virtual time");
    }

    #[test]
    fn fresh_checkpoints_verify_and_corruption_is_detected() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        p.feed(InputBuilder::op(0).a(64).build());
        let id = mgr.force_checkpoint(&mut p);
        assert!(mgr.get(id).unwrap().verify());

        assert!(mgr.corrupt(id));
        assert!(!mgr.get(id).unwrap().verify());
        assert!(
            !mgr.rollback_to(&mut p, id),
            "rollback must refuse a corrupt checkpoint"
        );
        assert!(!mgr.corrupt(999), "unknown id is reported");
    }

    #[test]
    fn in_page_rot_is_caught_by_content_digest() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        p.feed(InputBuilder::op(0).a(64).build());
        let id = mgr.force_checkpoint(&mut p);
        assert!(mgr.get(id).unwrap().verify());

        // Rot a byte inside a snapshotted page; the stored checksum is
        // untouched, so shape-only digests would miss this entirely.
        assert!(mgr.corrupt_data(id));
        assert!(!mgr.get(id).unwrap().verify());
        assert!(
            !mgr.rollback_to(&mut p, id),
            "rollback must refuse in-page rot"
        );
        assert_eq!(mgr.sweep_corrupt(), vec![id]);
        assert!(!mgr.corrupt_data(999), "unknown id is reported");
    }

    #[test]
    fn sweep_corrupt_falls_back_to_older_intact_checkpoints() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        let mut ids = Vec::new();
        for _ in 0..4 {
            p.feed(InputBuilder::op(0).a(64).build());
            ids.push(mgr.force_checkpoint(&mut p));
        }
        // The two newest rot; the two oldest stay intact.
        let newest = mgr.corrupt_newest().unwrap();
        assert_eq!(newest, ids[3]);
        assert!(mgr.corrupt(ids[2]));

        let swept = mgr.sweep_corrupt();
        assert_eq!(swept, vec![ids[2], ids[3]]);
        assert_eq!(mgr.len(), 2);
        assert_eq!(mgr.nth_newest(0).unwrap().id, ids[1]);
        assert_eq!(mgr.oldest().unwrap().id, ids[0]);
        assert!(mgr.rollback_to(&mut p, ids[1]), "fallback target works");
        assert!(mgr.sweep_corrupt().is_empty(), "idempotent once clean");
    }

    /// Pages dirtied for helper-path checkpoints: enough for the hash to
    /// run for a millisecond or more, so the helper is still running
    /// when the test goes on.
    const BIG_PAGES: u64 = 2_048;
    const PAGE: u64 = fa_mem::PAGE_SIZE as u64;

    /// A process with a `BIG_PAGES`-page buffer, checkpointed once.
    fn with_big_buffer(mgr: &mut CheckpointManager) -> (Process, fa_mem::Addr, u64) {
        let mut p = process();
        let buf = p.ctx.malloc(BIG_PAGES * PAGE).unwrap();
        let kept = mgr.force_checkpoint(&mut p);
        (p, buf, kept)
    }

    /// Dirties the whole buffer and checkpoints it, on the helper path.
    fn big_checkpoint(mgr: &mut CheckpointManager, p: &mut Process, buf: fa_mem::Addr) -> u64 {
        p.ctx.fill(buf, BIG_PAGES * PAGE, 0x5a).unwrap();
        assert!(p.ctx.mem.dirty_page_count() >= HELPER_DIGEST_MIN_DIRTY);
        mgr.force_checkpoint(p)
    }

    /// COW faults of rewriting the whole buffer.
    fn rewrite_faults(p: &mut Process, buf: fa_mem::Addr) -> u64 {
        let before = p.ctx.mem.cow_faults();
        p.ctx.fill(buf, BIG_PAGES * PAGE, 0xa5).unwrap();
        p.ctx.mem.cow_faults() - before
    }

    #[test]
    fn rot_right_after_a_helper_checkpoint_is_caught() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let (mut p, buf, _) = with_big_buffer(&mut mgr);
        let data = big_checkpoint(&mut mgr, &mut p, buf);
        // The helper may still be hashing: rot copies the snapshot's
        // path before it flips the byte, so the helper hashes the
        // checkpoint as taken and the rotted copy fails verification.
        assert!(mgr.corrupt_data(data));
        let sum = big_checkpoint(&mut mgr, &mut p, buf);
        assert!(mgr.corrupt(sum));
        let intact = big_checkpoint(&mut mgr, &mut p, buf);

        assert!(!mgr.get(data).unwrap().verify());
        assert!(!mgr.get(sum).unwrap().verify());
        assert!(mgr.get(intact).unwrap().verify());
        assert!(!mgr.rollback_to(&mut p, data));
        assert_eq!(mgr.sweep_corrupt(), vec![data, sum]);
        assert!(mgr.rollback_to(&mut p, intact));
    }

    #[test]
    fn stored_checksum_equals_the_inline_digest_on_both_paths() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0xfa1d_d16e);
        let mut mgr = CheckpointManager::new(config(), 64);
        let (mut p, buf, _) = with_big_buffer(&mut mgr);
        let limit = HELPER_DIGEST_MIN_DIRTY as u64;
        let mut counts = vec![0, 1, limit - 1, limit, limit + 1, 4 * limit];
        counts.extend((0..24).map(|_| rng.random_range(1..=4 * limit)));
        for pages in counts {
            for _ in 0..pages {
                let page = rng.random_range(0..BIG_PAGES);
                let off = rng.random_range(0..PAGE - 8);
                let word = rng.next_u64();
                p.ctx
                    .write_u64(buf.offset(page * PAGE + off), word)
                    .unwrap();
            }
            let dirty = p.ctx.mem.dirty_page_count();
            let id = mgr.force_checkpoint(&mut p);
            let inline = p.snapshot().digest();
            let ckpt = mgr.get(id).unwrap();
            assert_eq!(ckpt.dirty_pages, dirty);
            assert_eq!(ckpt.snap.digest(), inline);
            assert_eq!(ckpt.checksum(), Some(inline), "{dirty} dirty pages");
        }
    }

    #[test]
    fn dropping_a_pending_checkpoint_joins_its_helper() {
        // On the inline path the dropped checkpoint's snapshot is the
        // only other holder of the buffer's frames, so rewriting them
        // faults on none. A helper still running would keep them shared.
        let mut mgr = CheckpointManager::new(config(), 10);
        let (mut p, buf, kept) = with_big_buffer(&mut mgr);
        big_checkpoint(&mut mgr, &mut p, buf);
        mgr.truncate_after(kept);
        assert_eq!(rewrite_faults(&mut p, buf), 0, "truncate_after");

        let mut mgr = CheckpointManager::new(config(), 1);
        let (mut p, buf, _) = with_big_buffer(&mut mgr);
        big_checkpoint(&mut mgr, &mut p, buf);
        // Evicts the pending checkpoint, then is swept itself.
        let next = mgr.force_checkpoint(&mut p);
        assert_eq!(mgr.len(), 1);
        assert!(mgr.corrupt(next));
        assert_eq!(mgr.sweep_corrupt(), vec![next]);
        assert_eq!(rewrite_faults(&mut p, buf), 0, "ring eviction");

        let mut mgr = CheckpointManager::new(config(), 10);
        let (mut p, buf, _) = with_big_buffer(&mut mgr);
        big_checkpoint(&mut mgr, &mut p, buf);
        drop(mgr);
        assert_eq!(rewrite_faults(&mut p, buf), 0, "dropped manager");
    }

    #[test]
    fn a_helper_that_panics_leaves_its_checkpoint_unverifiable() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        p.feed(InputBuilder::op(0).a(64).build());
        let older = mgr.force_checkpoint(&mut p);
        p.feed(InputBuilder::op(0).a(64).build());
        let id = mgr.force_checkpoint(&mut p);
        let died = thread::spawn(|| -> u64 { std::panic::resume_unwind(Box::new("helper died")) });
        mgr.ring
            .back()
            .unwrap()
            .checksum
            .set(Checksum::Pending(died));

        assert!(!mgr.get(id).unwrap().verify());
        assert!(mgr.corrupt(id), "a retained id is reported");
        assert!(!mgr.rollback_to(&mut p, id));
        assert_eq!(mgr.sweep_corrupt(), vec![id]);
        assert!(
            mgr.rollback_to(&mut p, older),
            "falls back to the older one"
        );
    }

    #[test]
    fn stats_report_mb_figures() {
        let mut mgr = CheckpointManager::new(config(), 10);
        let mut p = process();
        for _ in 0..20 {
            p.feed(InputBuilder::op(0).a(4096).gap_us(100).build());
            mgr.maybe_checkpoint(&mut p);
        }
        mgr.force_checkpoint(&mut p);
        let stats = mgr.stats();
        assert!(stats.taken >= 2);
        assert!(stats.mb_per_checkpoint() > 0.0);
        assert!(stats.mb_per_second() > 0.0);
    }
}
