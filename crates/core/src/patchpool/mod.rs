//! The central patch pool (paper §3, "Patch management").
//!
//! "Once the diagnostic engine generates a patch, the patch management
//! component stores it in a central patch pool based on the call-site
//! information. First-Aid maintains a patch pool for each program so that
//! the patches do not mix for different programs." Patches are journaled
//! ([`PatchPool::journaled`]) so subsequent runs and *other processes of
//! the same program* start protected.
//!
//! Each program's state is one record: its patches, tombstones, flap
//! bookkeeping, epoch counter and published sets. One function, `apply`,
//! changes that state, one journal record at a time. A mutation
//! (publish, revoke, canary traffic) runs decide → apply → journal →
//! republish under the pool mutex. It first decides which records its
//! call produces: the quarantine gate and the tombstone and canary checks
//! only read. It then applies those records, appends them to the journal,
//! and rebuilds the program's published sets (the fleet-wide
//! `Arc<PatchSet>` and per-worker canary overlays). Journal replay applies
//! the records it reads with the same `apply`, so a recovered pool equals
//! the live one by construction.
//!
//! A read ([`PatchPool::get`], [`PatchPool::get_with_epoch`]) is one
//! locked lookup of the published set plus an `Arc` clone: no `PatchSet`
//! is built, and same-epoch reads are pointer-equal.
//! [`PatchPool::get_locked_with_epoch`] builds the set from the patch list
//! instead; it is the oracle the published sets are checked against.
//!
//! For fleet operation the pool carries one change signal: the
//! per-program epoch, an atomic counter bumped only under the mutex.
//! [`PatchPool::epoch_signal`] hands out a read-only [`EpochSignal`]
//! over that counter, so a worker's quiet path before each input is one
//! atomic load ([`EpochSignal::moved`]); only a moved epoch leads to a
//! locked re-read of the set.
//!
//! Two crash-safety layers sit underneath:
//!
//! * **Journaling** ([`PatchPool::journaled`] / [`PatchPool::with_journal`]):
//!   the `fa-wal` journal is the pool's one durable format. Every
//!   effective mutation is appended to it before readers can observe
//!   it, and [`PatchPool::recover_from_journal`] replays the log
//!   (idempotently, via a sequence-number watermark) to the exact
//!   pre-crash epoch. Journal I/O health (errors, degradation to
//!   memory-only) is the journal's own ([`Wal::io_errors`],
//!   [`Wal::is_degraded`]).
//! * **Flap quarantine** ([`QuarantinePolicy`]): a call-site revoked
//!   repeatedly across the fleet is quarantined; re-admission is paced
//!   by an exponentially growing denial window and, once quarantined,
//!   goes through a single-worker canary ([`PatchPool::for_worker`],
//!   [`PatchPool::confirm_canary`]) before any fleet-wide re-publish.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fa_allocext::{Patch, PatchSet};
use fa_proc::CallSite;
use fa_wal::{
    CanaryOp, DenyOp, PoolSnapshot, ProgramSnapshot, PublishOp, QuarantineEntry, RevokeOp, SiteOp,
    Wal, WalOp,
};

use crate::{lock, log};

/// When a call-site's patches may flap back in after revocation.
///
/// Disabled by default (a plain pool's tombstones are permanent, which
/// is what single-process deployments and the existing revocation tests
/// expect); the fleet supervisor enables it so one worker's flapping
/// patch cannot permanently disable a site fleet-wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Fleet-wide revocations after which the site is quarantined and
    /// re-admission must go through a single-worker canary.
    pub quarantine_after: u32,
    /// Cap on the exponential denial window (in refused re-admission
    /// attempts).
    pub max_window: u32,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            quarantine_after: 3,
            max_window: 64,
        }
    }
}

/// Flap bookkeeping for one revoked call-site.
#[derive(Clone, Debug)]
struct SiteState {
    /// Fleet-wide revocations of this site.
    flaps: u32,
    /// Refused re-admission attempts before the next one is accepted.
    window: u32,
    /// Denials recorded in the current window.
    denials: u32,
    /// Quarantined: re-admission is canary-only.
    quarantined: bool,
    /// An in-flight canary: `(worker, candidate patches)`.
    canary: Option<(u64, Vec<Patch>)>,
}

/// State for a site first seen through the re-admission gate (a
/// tombstone that predates the policy): one denial before retry.
static TRACKED: SiteState = SiteState {
    flaps: 0,
    window: 1,
    denials: 0,
    quarantined: false,
    canary: None,
};

/// A read-only view of one program's pool epoch.
///
/// It shares the pool's own counter for the program, which is created
/// once per name, never replaced, and bumped only under the pool mutex,
/// so a holder sees each publish without taking the lock. The value is
/// only a hint that the set moved: re-read it with
/// [`PatchPool::get_with_epoch`], which returns the set and the epoch it
/// belongs to from one locked read.
#[derive(Clone, Debug)]
pub struct EpochSignal(Arc<AtomicU64>);

impl EpochSignal {
    /// The program's epoch as of the latest publish (0 before any).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Whether the program's epoch differs from `seen`, the epoch of the
    /// set the caller holds: one atomic load, no lock. This is the quiet
    /// path a runtime takes before each input.
    #[inline]
    pub fn moved(&self, seen: u64) -> bool {
        self.get() != seen
    }
}

/// One program's pool state. Created on first use and never removed, so
/// the epoch counter its [`EpochSignal`]s share stays the program's.
#[derive(Default)]
struct Program {
    /// Fleet-wide patches, in admission order.
    patches: Vec<Patch>,
    /// Bumped once per epoch-bumping record, only under the pool mutex.
    /// `Relaxed` is enough: a counter publishes no data, and a reader
    /// that sees it move reads the set under the mutex, which orders that
    /// read after the publish.
    epoch: Arc<AtomicU64>,
    /// Call-sites whose patches the health monitor revoked as
    /// ineffective. Tombstones: `add` refuses to re-admit patches at
    /// these sites, so a revoked patch can never re-propagate through
    /// the fleet. They are journaled and replayed like every other
    /// record; without a [`QuarantinePolicy`] they are permanent.
    revoked: HashSet<CallSite>,
    /// Flap bookkeeping per revoked site, kept only when a quarantine
    /// policy is active (or replayed from a journal).
    sites: HashMap<CallSite, SiteState>,
    /// What unscoped readers get, rebuilt after each effective mutation.
    set: Arc<PatchSet>,
    /// Worker id -> fleet set plus that worker's canaries, for workers
    /// with a canary in flight. Empty for almost every publish.
    scoped: HashMap<u64, Arc<PatchSet>>,
}

impl Program {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// A site's flap bookkeeping, as the re-admission gate would start
    /// it if the site has none yet.
    fn site(&self, site: CallSite) -> &SiteState {
        self.sites.get(&site).unwrap_or(&TRACKED)
    }

    /// No state at all: only ever read (e.g. for an [`EpochSignal`]), or
    /// cleared by a compaction snapshot that did not carry it.
    fn is_blank(&self) -> bool {
        self.epoch() == 0
            && self.patches.is_empty()
            && self.revoked.is_empty()
            && self.sites.is_empty()
    }

    /// The set a reader scoped to `worker` sees: the fleet-wide patches
    /// plus that worker's in-flight canaries.
    fn set_in(&self, worker: Option<u64>) -> PatchSet {
        let canaries = self
            .sites
            .values()
            .filter_map(|st| st.canary.as_ref())
            .filter(|(w, _)| Some(*w) == worker)
            .flat_map(|(_, patches)| patches);
        PatchSet::from_patches(self.patches.iter().chain(canaries).cloned())
    }

    /// Rebuilds the published sets from the state. Called under the pool
    /// mutex once a mutation's records are journaled (or replayed), so
    /// readers can never observe state the journal does not yet hold.
    fn republish(&mut self) {
        let workers: HashSet<u64> = self
            .sites
            .values()
            .filter_map(|st| st.canary.as_ref().map(|(w, _)| *w))
            .collect();
        self.scoped = workers
            .into_iter()
            .map(|w| (w, Arc::new(self.set_in(Some(w)))))
            .collect();
        self.set = Arc::new(self.set_in(None));
    }

    /// This program's state in the journal's snapshot form, with every
    /// unordered collection sorted.
    fn snapshot(&self, program: &str) -> ProgramSnapshot {
        let mut patches = self.patches.clone();
        patches.sort_by_key(|p| {
            // A `Patch` is plain data, so serializing it cannot fail.
            #[allow(clippy::expect_used)]
            let json = serde_json::to_string(p).expect("patches always serialize");
            (p.site, json)
        });
        let mut revoked: Vec<CallSite> = self.revoked.iter().copied().collect();
        revoked.sort();
        let mut quarantine: Vec<QuarantineEntry> = self
            .sites
            .iter()
            .map(|(site, st)| QuarantineEntry {
                site: *site,
                flaps: st.flaps,
                window: st.window,
                denials: st.denials,
                quarantined: st.quarantined,
                canary_worker: st.canary.as_ref().map(|(w, _)| *w),
                canary_patches: st
                    .canary
                    .as_ref()
                    .map(|(_, ps)| ps.clone())
                    .unwrap_or_default(),
            })
            .collect();
        quarantine.sort_by_key(|e| e.site);
        ProgramSnapshot {
            program: program.to_owned(),
            epoch: self.epoch(),
            patches,
            revoked,
            quarantine,
        }
    }
}

#[derive(Default)]
struct Pools {
    programs: HashMap<String, Program>,
    /// Shared empty set handed to readers of unknown programs, so the
    /// miss path builds nothing.
    empty: Arc<PatchSet>,
    /// Replay watermark: highest journal sequence number applied, so
    /// recovery is idempotent (replay twice == replay once).
    last_seq: u64,
    /// The active quarantine policy, if any.
    policy: Option<QuarantinePolicy>,
}

impl Pools {
    /// `name`'s record, created blank on first use.
    fn program(&mut self, name: &str) -> &mut Program {
        self.programs.entry(name.to_owned()).or_default()
    }
}

/// Applies one journal record to the pool state. This is the only code
/// that changes a patch list, tombstone, flap counter, canary or epoch:
/// live mutations apply the records they journal, and replay applies
/// the records it reads. Each epoch-bumping record bumps its program's
/// epoch exactly once. Quarantine records carry their resulting
/// counters, so applying one needs no policy.
fn apply(pools: &mut Pools, op: &WalOp) {
    match op {
        WalOp::PatchPublish(op) => {
            let prog = pools.program(&op.program);
            for p in &op.patches {
                // A publish implies every carried site was admissible:
                // clear any tombstone (re-admission) and its denials.
                prog.revoked.remove(&p.site);
                if let Some(st) = prog.sites.get_mut(&p.site) {
                    st.denials = 0;
                }
                if !prog.patches.contains(p) {
                    prog.patches.push(p.clone());
                }
            }
            prog.bump();
        }
        WalOp::PatchRevoke(op) => {
            let prog = pools.program(&op.program);
            prog.revoked.insert(op.site);
            prog.patches.retain(|p| p.site != op.site);
            if op.flaps > 0 {
                let st = prog.sites.entry(op.site).or_insert_with(|| TRACKED.clone());
                st.flaps = op.flaps;
                st.window = op.window;
                st.denials = 0;
                st.quarantined = op.quarantined;
            }
            prog.bump();
        }
        WalOp::PatchRemove(op) => {
            let prog = pools.program(&op.program);
            prog.patches.retain(|p| p.site != op.site);
            prog.bump();
        }
        WalOp::SiteDenied(op) => {
            let prog = pools.program(&op.program);
            let st = prog.sites.entry(op.site).or_insert_with(|| TRACKED.clone());
            st.denials = op.denials;
        }
        WalOp::CanaryAdmit(op) => {
            let prog = pools.program(&op.program);
            let st = prog.sites.entry(op.site).or_insert_with(|| TRACKED.clone());
            st.canary = Some((op.worker, op.patches.clone()));
            st.denials = 0;
            prog.bump();
        }
        WalOp::CanaryPromote(op) => {
            let prog = pools.program(&op.program);
            let candidate = prog.sites.get_mut(&op.site).and_then(|st| {
                st.quarantined = false;
                st.denials = 0;
                st.canary.take()
            });
            prog.revoked.remove(&op.site);
            for p in candidate.map(|(_, ps)| ps).unwrap_or_default() {
                if !prog.patches.contains(&p) {
                    prog.patches.push(p);
                }
            }
            prog.bump();
        }
        WalOp::CanaryReject(op) => {
            if let Some(st) = pools.program(&op.program).sites.get_mut(&op.site) {
                st.canary = None;
            }
        }
        WalOp::Snapshot(snap) => {
            // Reset every record in place rather than dropping it: signals
            // already handed out must keep following their counters.
            for prog in pools.programs.values_mut() {
                prog.patches.clear();
                prog.revoked.clear();
                prog.sites.clear();
                prog.epoch.store(0, Ordering::Relaxed);
            }
            for s in &snap.programs {
                let prog = pools.program(&s.program);
                prog.patches = s.patches.clone();
                prog.epoch.store(s.epoch, Ordering::Relaxed);
                prog.revoked = s.revoked.iter().copied().collect();
                prog.sites = s
                    .quarantine
                    .iter()
                    .map(|e| {
                        let st = SiteState {
                            flaps: e.flaps,
                            window: e.window,
                            denials: e.denials,
                            quarantined: e.quarantined,
                            canary: e.canary_worker.map(|w| (w, e.canary_patches.clone())),
                        };
                        (e.site, st)
                    })
                    .collect();
            }
        }
    }
}

/// A shared, optionally journaled pool of runtime patches, keyed by
/// program name.
///
/// Clones share the same underlying pool, so multiple supervised processes
/// of the same program observe each other's patches immediately. A
/// worker-scoped clone ([`PatchPool::for_worker`]) additionally sees the
/// canary patches admitted for its worker.
#[derive(Clone)]
pub struct PatchPool {
    inner: Arc<Mutex<Pools>>,
    /// The pool's journal, if this pool is crash-safe.
    journal: Option<Wal>,
    /// Worker scope of this clone: which canaries it sees.
    scope: Option<u64>,
}

impl PatchPool {
    /// Creates a pool that lives only in memory.
    pub fn in_memory() -> PatchPool {
        PatchPool {
            inner: Arc::new(Mutex::new(Pools::default())),
            journal: None,
            scope: None,
        }
    }

    /// Creates a crash-safe pool journaled to `dir/pool.wal`, replaying
    /// any existing journal to the pre-crash state. This is the pool's
    /// one durable constructor: the journal *is* the durable state, and
    /// auto-compaction keeps it bounded.
    pub fn journaled(dir: impl Into<PathBuf>) -> std::io::Result<PatchPool> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let wal = Wal::open(dir.join("pool.wal"))?;
        wal.set_compact_every(256);
        Ok(PatchPool::with_journal(wal))
    }

    /// Creates a pool journaled to an already-open [`Wal`], replaying
    /// whatever valid prefix the journal holds. A fault plan attached to
    /// the `Wal` ([`Wal::with_faults`]) governs this pool's journal I/O.
    pub fn with_journal(wal: Wal) -> PatchPool {
        let pool = PatchPool {
            journal: Some(wal),
            ..PatchPool::in_memory()
        };
        pool.recover_from_journal();
        pool
    }

    /// Enables the flap quarantine with `policy` (shared by all clones).
    pub fn enable_quarantine(&self, policy: QuarantinePolicy) {
        lock(&self.inner).policy = Some(policy);
    }

    /// Builder form of [`PatchPool::enable_quarantine`].
    pub fn with_quarantine(self, policy: QuarantinePolicy) -> PatchPool {
        self.enable_quarantine(policy);
        self
    }

    /// A worker-scoped clone: shares all pool state, but `add` may admit
    /// canaries for this worker and `get` includes them.
    pub fn for_worker(&self, worker: u64) -> PatchPool {
        PatchPool {
            scope: Some(worker),
            ..self.clone()
        }
    }

    /// The pool's journal, if this pool is crash-safe.
    pub fn journal(&self) -> Option<&Wal> {
        self.journal.as_ref()
    }

    /// Replays the journal into the pool. Records at or below the
    /// watermark are skipped, so calling this twice is the same as
    /// calling it once (and calling it on a live pool is a no-op).
    /// Returns the number of records newly applied.
    pub fn recover_from_journal(&self) -> usize {
        let Some(wal) = &self.journal else { return 0 };
        let records = wal.replay();
        let mut pools = lock(&self.inner);
        let mut applied = 0usize;
        for record in &records {
            if record.seq > pools.last_seq {
                pools.last_seq = record.seq;
                apply(&mut pools, &record.op);
                applied += 1;
            }
        }
        if applied > 0 {
            pools.programs.values_mut().for_each(Program::republish);
        }
        applied
    }

    /// Returns the published patch set for a program (shared empty set
    /// if none). A worker-scoped clone also sees its own canaries.
    ///
    /// One locked lookup and one `Arc` clone: no `PatchSet` is built,
    /// and repeated same-epoch calls return the identical `Arc`
    /// (pointer-equal).
    pub fn get(&self, program: &str) -> Arc<PatchSet> {
        self.get_with_epoch(program).0
    }

    /// Returns the published patch set and its epoch from one locked
    /// read, so the epoch always names the set returned with it.
    pub fn get_with_epoch(&self, program: &str) -> (Arc<PatchSet>, u64) {
        let pools = lock(&self.inner);
        match pools.programs.get(program) {
            Some(prog) => {
                let set = self
                    .scope
                    .and_then(|w| prog.scoped.get(&w))
                    .unwrap_or(&prog.set);
                (Arc::clone(set), prog.epoch())
            }
            None => (Arc::clone(&pools.empty), 0),
        }
    }

    /// Locked read that builds the set from the patch list and canaries
    /// instead of handing out the published one. It is the oracle the
    /// published sets are checked against.
    pub fn get_locked_with_epoch(&self, program: &str) -> (PatchSet, u64) {
        let pools = lock(&self.inner);
        pools
            .programs
            .get(program)
            .map_or_else(Default::default, |prog| {
                (prog.set_in(self.scope), prog.epoch())
            })
    }

    /// Returns the per-program mutation counter (0 for an unknown
    /// program). One locked lookup; a worker that polls the epoch per
    /// input holds an [`EpochSignal`] instead.
    pub fn epoch(&self, program: &str) -> u64 {
        lock(&self.inner)
            .programs
            .get(program)
            .map_or(0, Program::epoch)
    }

    /// Hands out `program`'s [`EpochSignal`]: a read-only view of the
    /// pool's own epoch counter for the program, so every later publish
    /// moves it.
    pub fn epoch_signal(&self, program: &str) -> EpochSignal {
        EpochSignal(Arc::clone(&lock(&self.inner).program(program).epoch))
    }

    /// Holds the pool mutex until the returned guard drops.
    #[cfg(test)]
    pub(crate) fn hold_lock(&self) -> impl Sized + '_ {
        lock(&self.inner)
    }

    /// Returns the number of patches stored for a program (canaries
    /// excluded — they are not fleet state yet).
    pub fn len(&self, program: &str) -> usize {
        lock(&self.inner)
            .programs
            .get(program)
            .map_or(0, |prog| prog.set.len())
    }

    /// Returns `true` if no patches are stored for the program.
    pub fn is_empty(&self, program: &str) -> bool {
        self.len(program) == 0
    }

    /// Adds patches for a program, skipping exact duplicates and
    /// patches at revoked call-sites (tombstoned by the health
    /// monitor), and journals. With a [`QuarantinePolicy`] active,
    /// revoked sites may be re-admitted after their denial window — or,
    /// once quarantined, as a canary visible only to this clone's
    /// worker. Returns how many patches were actually admitted
    /// (canaries included).
    pub fn add(&self, program: &str, patches: impl IntoIterator<Item = Patch>) -> usize {
        let mut pools = lock(&self.inner);
        let policy = pools.policy;
        let mut ops: Vec<WalOp> = Vec::new();
        let mut published: Vec<Patch> = Vec::new();
        let mut canaried = 0usize;
        let mut skipped_revoked = 0usize;

        for p in patches {
            let prog = pools.program(program);
            // A site re-admitted earlier in this call counts as admitted.
            let revoked =
                prog.revoked.contains(&p.site) && !published.iter().any(|q| q.site == p.site);
            let st = prog.site(p.site);
            let op = if !revoked {
                None
            } else if policy.is_none()
                || (st.quarantined && (self.scope.is_none() || st.canary.is_some()))
            {
                // Without a policy a tombstone is permanent. A quarantined
                // site is re-admitted only as a canary, one at a time.
                skipped_revoked += 1;
                continue;
            } else if st.denials < st.window {
                skipped_revoked += 1;
                Some(WalOp::SiteDenied(DenyOp {
                    program: program.to_owned(),
                    site: p.site,
                    denials: st.denials + 1,
                }))
            } else if let Some(worker) = self.scope.filter(|_| st.quarantined) {
                canaried += 1;
                log::warn(format!(
                    "patch pool for {program}: quarantined site re-admitted \
                     as a canary on worker {worker}"
                ));
                Some(WalOp::CanaryAdmit(CanaryOp {
                    program: program.to_owned(),
                    site: p.site,
                    worker,
                    patches: vec![p.clone()],
                }))
            } else {
                // The denial window was served: the site may try again
                // fleet-wide, and the publish clears its tombstone.
                None
            };
            match op {
                // Applied at once: a later patch at the same site in this
                // call sees the denial or the canary.
                Some(op) => {
                    apply(&mut pools, &op);
                    ops.push(op);
                }
                None => {
                    if !prog.patches.contains(&p) && !published.contains(&p) {
                        published.push(p);
                    }
                }
            }
        }

        if skipped_revoked > 0 {
            log::warn(format!(
                "patch pool for {program}: refused {skipped_revoked} patch(es) at revoked call-site(s)"
            ));
        }
        let added = published.len() + canaried;
        if !published.is_empty() {
            let op = WalOp::PatchPublish(PublishOp {
                program: program.to_owned(),
                patches: published,
            });
            apply(&mut pools, &op);
            ops.push(op);
        }
        self.journal_ops(&mut pools, ops);
        if added > 0 {
            pools.program(program).republish();
        }
        added
    }

    /// Revokes all patches at `site`: removes them from the pool and
    /// tombstones the site so `add` refuses to re-admit them (one
    /// worker's ineffective patch must not keep re-poisoning the
    /// fleet). Bumps the epoch so sibling workers uninstall the patch
    /// on their next refresh. With a [`QuarantinePolicy`] active, each
    /// revocation is a *flap*: the denial window doubles and, past the
    /// policy threshold, the site is quarantined (an in-flight canary
    /// is cancelled and counts as a failed trial). Returns `false` if
    /// the site was already revoked and held no patches.
    pub fn revoke(&self, program: &str, site: CallSite) -> bool {
        let mut pools = lock(&self.inner);
        let policy = pools.policy;
        let prog = pools.program(program);
        let st = prog.site(site);
        let canary_cancelled = policy.is_some() && st.canary.is_some();
        if prog.revoked.contains(&site)
            && !prog.patches.iter().any(|p| p.site == site)
            && !canary_cancelled
        {
            return false;
        }
        let mut ops: Vec<WalOp> = Vec::new();
        let mut revoke = RevokeOp {
            program: program.to_owned(),
            site,
            flaps: 0,
            window: 0,
            quarantined: false,
        };
        if let Some(policy) = policy {
            if canary_cancelled {
                ops.push(WalOp::CanaryReject(SiteOp {
                    program: program.to_owned(),
                    site,
                }));
            }
            revoke.flaps = st.flaps + 1;
            revoke.window = (1u32 << (revoke.flaps - 1).min(16)).min(policy.max_window.max(1));
            revoke.quarantined = revoke.flaps >= policy.quarantine_after;
            if revoke.quarantined && !st.quarantined {
                log::warn(format!(
                    "patch pool for {program}: site flapped {} times, quarantined \
                     (re-admission is canary-only)",
                    revoke.flaps
                ));
            }
        }
        ops.push(WalOp::PatchRevoke(revoke));
        self.commit(&mut pools, program, ops);
        true
    }

    /// Promotes this worker's validated canaries for `program` to the
    /// fleet: the candidate patches are published, the tombstone and
    /// quarantine are lifted. Called by a fleet worker after a canary
    /// patch demonstrably neutralized the bug (a patch hit). Returns
    /// the number of patches promoted fleet-wide.
    pub fn confirm_canary(&self, program: &str) -> usize {
        let Some(worker) = self.scope else { return 0 };
        let mut pools = lock(&self.inner);
        let prog = pools.program(program);
        let before = prog.patches.len();
        let ops: Vec<WalOp> = prog
            .sites
            .iter()
            .filter(|(_, st)| st.canary.as_ref().is_some_and(|(w, _)| *w == worker))
            .map(|(site, _)| {
                WalOp::CanaryPromote(SiteOp {
                    program: program.to_owned(),
                    site: *site,
                })
            })
            .collect();
        if ops.is_empty() {
            return 0;
        }
        for _ in &ops {
            log::warn(format!(
                "patch pool for {program}: canary on worker {worker} validated; \
                 patches promoted fleet-wide"
            ));
        }
        self.commit(&mut pools, program, ops);
        pools.program(program).patches.len() - before
    }

    /// Returns `true` if patches at `site` have been revoked.
    pub fn is_revoked(&self, program: &str, site: CallSite) -> bool {
        lock(&self.inner)
            .programs
            .get(program)
            .is_some_and(|prog| prog.revoked.contains(&site))
    }

    /// Number of revoked (tombstoned) call-sites for a program.
    pub fn revoked_count(&self, program: &str) -> usize {
        lock(&self.inner)
            .programs
            .get(program)
            .map_or(0, |prog| prog.revoked.len())
    }

    /// Returns `true` if `site` is quarantined (canary-only re-admission).
    pub fn is_quarantined(&self, program: &str, site: CallSite) -> bool {
        self.site_state(program, site, |st| st.quarantined)
            .unwrap_or(false)
    }

    /// Fleet-wide flap count of `site` (revocations under the policy).
    pub fn flap_count(&self, program: &str, site: CallSite) -> u32 {
        self.site_state(program, site, |st| st.flaps).unwrap_or(0)
    }

    /// Returns `true` if a canary for `site` is in flight.
    pub fn has_canary(&self, program: &str, site: CallSite) -> bool {
        self.site_state(program, site, |st| st.canary.is_some())
            .unwrap_or(false)
    }

    fn site_state<T>(
        &self,
        program: &str,
        site: CallSite,
        read: impl FnOnce(&SiteState) -> T,
    ) -> Option<T> {
        let pools = lock(&self.inner);
        pools
            .programs
            .get(program)
            .and_then(|prog| prog.sites.get(&site))
            .map(read)
    }

    /// Removes all patches at the given call-site (validation failure).
    pub fn remove_site(&self, program: &str, site: fa_proc::CallSite) {
        let mut pools = lock(&self.inner);
        let holds_site = pools
            .programs
            .get(program)
            .is_some_and(|prog| prog.patches.iter().any(|p| p.site == site));
        if holds_site {
            let op = WalOp::PatchRemove(SiteOp {
                program: program.to_owned(),
                site,
            });
            self.commit(&mut pools, program, vec![op]);
        }
    }

    /// Canonical JSON of one program's complete pool state (patches,
    /// tombstones, quarantine bookkeeping, epoch), with every unordered
    /// collection sorted — byte-identical across pools holding the same
    /// state, which is what the crash acceptance sweep compares.
    // `ProgramSnapshot` is plain data with string map keys, so
    // serializing it cannot fail.
    #[allow(clippy::expect_used)]
    pub fn export_state(&self, program: &str) -> String {
        let snap = lock(&self.inner).program(program).snapshot(program);
        serde_json::to_string(&snap).expect("pool state always serializes")
    }

    /// The rest of a live mutation once its records are decided: apply
    /// them, journal them and rebuild the program's published sets.
    fn commit(&self, pools: &mut Pools, program: &str, ops: Vec<WalOp>) {
        for op in &ops {
            apply(pools, op);
        }
        self.journal_ops(pools, ops);
        pools.program(program).republish();
    }

    /// Appends the records a mutation just applied (in mutation order,
    /// under the pool lock so journal order matches observation order),
    /// advancing the replay watermark, and compacts when due.
    fn journal_ops(&self, pools: &mut Pools, ops: Vec<WalOp>) {
        let Some(wal) = &self.journal else { return };
        for op in ops {
            if let Some(seq) = wal.append(op) {
                pools.last_seq = seq;
            }
        }
        if wal.needs_compaction() {
            let mut programs: Vec<ProgramSnapshot> = pools
                .programs
                .iter()
                .filter(|(_, prog)| !prog.is_blank())
                .map(|(name, prog)| prog.snapshot(name))
                .collect();
            programs.sort_by(|a, b| a.program.cmp(&b.program));
            if let Some(seq) = wal.compact(PoolSnapshot { programs }) {
                pools.last_seq = seq;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_allocext::BugType;
    use fa_proc::{CallSite, SymbolTable};

    fn patch(bug: BugType, id: u64) -> Patch {
        Patch::new(bug, CallSite([id, 0, 0]), &SymbolTable::new())
    }

    #[test]
    fn per_program_isolation() {
        let pool = PatchPool::in_memory();
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        pool.add("squid", [patch(BugType::BufferOverflow, 2)]);
        assert_eq!(pool.len("apache"), 1);
        assert_eq!(pool.len("squid"), 1);
        assert!(pool
            .get("apache")
            .match_dealloc(CallSite([1, 0, 0]))
            .is_some());
        assert!(pool
            .get("apache")
            .match_alloc(CallSite([2, 0, 0]))
            .is_none());
    }

    #[test]
    fn duplicates_skipped() {
        let pool = PatchPool::in_memory();
        pool.add("m4", [patch(BugType::DanglingRead, 1)]);
        pool.add("m4", [patch(BugType::DanglingRead, 1)]);
        assert_eq!(pool.len("m4"), 1);
    }

    #[test]
    fn clones_share_state() {
        let pool = PatchPool::in_memory();
        let other = pool.clone();
        pool.add("cvs", [patch(BugType::DoubleFree, 3)]);
        assert_eq!(other.len("cvs"), 1, "other process sees the patch");
    }

    #[test]
    fn remove_site_deletes() {
        let pool = PatchPool::in_memory();
        pool.add(
            "bc",
            [
                patch(BugType::BufferOverflow, 1),
                patch(BugType::BufferOverflow, 2),
            ],
        );
        pool.remove_site("bc", CallSite([1, 0, 0]));
        assert_eq!(pool.len("bc"), 1);
    }

    #[test]
    fn epoch_tracks_effective_mutations() {
        let pool = PatchPool::in_memory();
        assert_eq!(pool.epoch("apache"), 0);
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        assert_eq!(pool.epoch("apache"), 1);
        assert_eq!(pool.epoch("squid"), 0, "other programs unaffected");

        // A duplicate add is not a mutation: no spurious re-reads.
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        assert_eq!(pool.epoch("apache"), 1);

        // Removing a missing site is not a mutation either.
        pool.remove_site("apache", CallSite([99, 0, 0]));
        assert_eq!(pool.epoch("apache"), 1);

        pool.remove_site("apache", CallSite([1, 0, 0]));
        assert_eq!(pool.epoch("apache"), 2);

        let (set, epoch) = pool.get_with_epoch("apache");
        assert!(set.is_empty());
        assert_eq!(epoch, 2);
    }

    #[test]
    fn concurrent_adds_and_gets_lose_nothing() {
        // Seeds the fleet's sharing guarantee: many threads add distinct
        // patches for one program while readers snapshot continuously;
        // every patch must survive and every snapshot must be internally
        // consistent (alloc/dealloc indexes agree with its patch list).
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 25;
        let pool = PatchPool::in_memory();

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for k in 0..PER_WRITER {
                        let id = 1 + w * PER_WRITER + k;
                        let bug = if id.is_multiple_of(2) {
                            BugType::BufferOverflow
                        } else {
                            BugType::DanglingRead
                        };
                        pool.add("apache", [patch(bug, id)]);
                        // Duplicate adds from racing diagnoses must stay
                        // idempotent under contention too.
                        pool.add("apache", [patch(bug, id)]);
                    }
                })
            })
            .collect();

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    let mut last_len = 0;
                    let mut last_epoch = 0;
                    while last_len < (WRITERS * PER_WRITER) as usize {
                        let (set, epoch) = pool.get_with_epoch("apache");
                        // Sizes and epochs only grow (no lost updates).
                        assert!(set.len() >= last_len, "snapshot shrank");
                        assert!(epoch >= last_epoch, "epoch went backwards");
                        // Internal consistency: every patch in the
                        // snapshot is findable through its index.
                        for p in set.patches() {
                            let hit = if p.at_allocation() {
                                set.match_alloc(p.site)
                            } else {
                                set.match_dealloc(p.site)
                            };
                            assert!(hit.is_some(), "snapshot lost its own patch");
                        }
                        last_len = set.len();
                        last_epoch = epoch;
                    }
                })
            })
            .collect();

        for t in writers {
            t.join().unwrap();
        }
        for t in readers {
            t.join().unwrap();
        }

        assert_eq!(pool.len("apache"), (WRITERS * PER_WRITER) as usize);
        assert_eq!(pool.epoch("apache"), WRITERS * PER_WRITER);
    }

    #[test]
    fn revoked_sites_tombstone_and_block_readdition() {
        let pool = PatchPool::in_memory();
        assert_eq!(pool.add("apache", [patch(BugType::DanglingRead, 1)]), 1);
        assert!(!pool.is_revoked("apache", CallSite([1, 0, 0])));

        assert!(pool.revoke("apache", CallSite([1, 0, 0])));
        assert_eq!(pool.len("apache"), 0);
        assert!(pool.is_revoked("apache", CallSite([1, 0, 0])));
        assert_eq!(pool.revoked_count("apache"), 1);
        let epoch_after_revoke = pool.epoch("apache");

        // Re-adding the same patch is refused with a warning.
        let (added, lines) =
            log::captured(|| pool.add("apache", [patch(BugType::DanglingRead, 1)]));
        assert_eq!(added, 0);
        assert_eq!(pool.len("apache"), 0);
        assert!(
            lines.iter().any(|l| l.contains("revoked")),
            "refusal is logged: {lines:?}"
        );
        assert_eq!(
            pool.epoch("apache"),
            epoch_after_revoke,
            "a refused add is not a mutation"
        );

        // Revoking again is a no-op; other sites are unaffected.
        assert!(!pool.revoke("apache", CallSite([1, 0, 0])));
        assert_eq!(pool.add("apache", [patch(BugType::DanglingRead, 2)]), 1);
        assert!(!pool.is_revoked("squid", CallSite([1, 0, 0])));
    }

    #[test]
    fn revoke_and_rediagnosis_land_within_one_reader_refresh() {
        // The race the epoch protocol must survive: a worker's patch for
        // a bug signature is revoked as ineffective, and — before any
        // sibling refreshes — another worker re-diagnoses the *same*
        // signature, offering both its stale copy of the revoked patch
        // and a fresh patch at the true call-site. A reader's next
        // refresh must see the tombstone and the replacement at once;
        // the refused stale copy must not count as a mutation.
        let pool = PatchPool::in_memory();
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);

        // One reader refresh window starts here.
        let (set0, epoch0) = pool.get_with_epoch("apache");
        assert_eq!(set0.patches().len(), 1);

        assert!(pool.revoke("apache", CallSite([1, 0, 0])));
        assert_eq!(pool.epoch("apache"), epoch0 + 1);

        let (added, lines) = log::captured(|| {
            pool.add(
                "apache",
                [
                    patch(BugType::DanglingRead, 1), // stale copy of the revoked patch
                    patch(BugType::DanglingRead, 7), // fresh patch, same signature
                ],
            )
        });
        assert_eq!(added, 1, "only the fresh call-site is admitted");
        assert!(
            lines.iter().any(|l| l.contains("revoked")),
            "the refused stale copy is logged: {lines:?}"
        );
        assert_eq!(
            pool.epoch("apache"),
            epoch0 + 2,
            "one bump for the fresh patch; the refused copy is no mutation"
        );

        // The reader's next refresh observes both effects atomically:
        // exactly two epoch steps (revoke, fresh add), the revoked site
        // gone, the replacement present.
        let (set1, epoch1) = pool.get_with_epoch("apache");
        assert_eq!(epoch1, epoch0 + 2);
        assert!(
            !set1.patches().iter().any(|p| p.site == CallSite([1, 0, 0])),
            "revoked site must be absent after refresh"
        );
        assert!(
            set1.patches().iter().any(|p| p.site == CallSite([7, 0, 0])),
            "replacement patch for the same signature must be visible"
        );
        assert!(pool.is_revoked("apache", CallSite([1, 0, 0])));
    }

    fn journal_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fa-pool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journaled_pool_recovers_to_the_exact_pre_crash_state() {
        let dir = journal_dir("wal-roundtrip");
        let pool = PatchPool::journaled(&dir).unwrap();
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        pool.add("apache", [patch(BugType::BufferOverflow, 2)]);
        pool.revoke("apache", CallSite([1, 0, 0]));
        pool.add("squid", [patch(BugType::UninitRead, 3)]);
        let live = pool.export_state("apache");
        let live_squid = pool.export_state("squid");

        // A fresh pool over the same journal (a restarted supervisor)
        // lands on byte-identical state, epochs included.
        let recovered = PatchPool::journaled(&dir).unwrap();
        assert_eq!(recovered.export_state("apache"), live);
        assert_eq!(recovered.export_state("squid"), live_squid);
        assert_eq!(recovered.epoch("apache"), pool.epoch("apache"));
        assert!(recovered.is_revoked("apache", CallSite([1, 0, 0])));

        // Replay is idempotent: a second recovery applies nothing.
        assert_eq!(recovered.recover_from_journal(), 0, "replay twice == once");
        assert_eq!(recovered.export_state("apache"), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_compaction_preserves_recovered_state() {
        let dir = journal_dir("wal-compact");
        let pool = PatchPool::journaled(&dir).unwrap();
        pool.journal().unwrap().set_compact_every(4);
        for id in 1..=9 {
            pool.add("mutt", [patch(BugType::BufferOverflow, id)]);
        }
        pool.revoke("mutt", CallSite([3, 0, 0]));
        let live = pool.export_state("mutt");
        let recovered = PatchPool::journaled(&dir).unwrap();
        assert_eq!(recovered.export_state("mutt"), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flapping_site_is_quarantined_after_the_policy_threshold() {
        let pool = PatchPool::in_memory().with_quarantine(QuarantinePolicy::default());
        let site = CallSite([1, 0, 0]);

        // Flap 1: revoke; window 1 -> one denial, then re-admission.
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        assert!(pool.revoke("apache", site));
        assert_eq!(pool.flap_count("apache", site), 1);
        assert_eq!(pool.add("apache", [patch(BugType::DanglingRead, 1)]), 0);
        assert_eq!(
            pool.add("apache", [patch(BugType::DanglingRead, 1)]),
            1,
            "window served: the site is re-admitted"
        );
        assert!(!pool.is_revoked("apache", site), "tombstone lifted");

        // Flap 2: window 2 -> two denials before re-admission.
        assert!(pool.revoke("apache", site));
        assert_eq!(pool.flap_count("apache", site), 2);
        for _ in 0..2 {
            assert_eq!(pool.add("apache", [patch(BugType::DanglingRead, 1)]), 0);
        }
        assert_eq!(pool.add("apache", [patch(BugType::DanglingRead, 1)]), 1);

        // Flap 3: quarantined. Unscoped adds are refused forever.
        assert!(pool.revoke("apache", site));
        assert!(pool.is_quarantined("apache", site));
        for _ in 0..16 {
            assert_eq!(
                pool.add("apache", [patch(BugType::DanglingRead, 1)]),
                0,
                "fleet-wide re-publication of a quarantined site is refused"
            );
        }
        assert!(pool.is_revoked("apache", site));
    }

    #[test]
    fn quarantined_site_readmits_via_a_single_worker_canary() {
        let pool = PatchPool::in_memory().with_quarantine(QuarantinePolicy {
            quarantine_after: 1,
            max_window: 64,
        });
        let site = CallSite([1, 0, 0]);
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        assert!(pool.revoke("apache", site));
        assert!(pool.is_quarantined("apache", site));

        let worker0 = pool.for_worker(0);
        let worker1 = pool.for_worker(1);

        // Window 1: the first scoped attempt is denied, the second is
        // admitted — as a canary visible only to worker 0.
        assert_eq!(worker0.add("apache", [patch(BugType::DanglingRead, 1)]), 0);
        assert_eq!(worker0.add("apache", [patch(BugType::DanglingRead, 1)]), 1);
        assert!(pool.has_canary("apache", site));
        assert_eq!(
            worker0.get("apache").len(),
            1,
            "canary visible to its worker"
        );
        assert_eq!(worker1.get("apache").len(), 0, "invisible to siblings");
        assert_eq!(pool.get("apache").len(), 0, "and to the unscoped pool");
        assert_eq!(pool.len("apache"), 0, "not fleet state yet");

        // While the canary flies, nobody else may start another.
        assert_eq!(worker1.add("apache", [patch(BugType::DanglingRead, 1)]), 0);

        // The canary validates (a patch hit on worker 0): promote.
        assert_eq!(worker0.confirm_canary("apache"), 1);
        assert!(!pool.is_quarantined("apache", site));
        assert!(!pool.is_revoked("apache", site));
        assert_eq!(worker1.get("apache").len(), 1, "promoted fleet-wide");
        assert_eq!(pool.len("apache"), 1);
    }

    #[test]
    fn a_failed_canary_doubles_the_window_and_stays_quarantined() {
        let pool = PatchPool::in_memory().with_quarantine(QuarantinePolicy {
            quarantine_after: 1,
            max_window: 64,
        });
        let site = CallSite([1, 0, 0]);
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        assert!(pool.revoke("apache", site)); // flap 1: quarantined, window 1

        let worker0 = pool.for_worker(0);
        assert_eq!(worker0.add("apache", [patch(BugType::DanglingRead, 1)]), 0);
        assert_eq!(worker0.add("apache", [patch(BugType::DanglingRead, 1)]), 1);
        assert!(pool.has_canary("apache", site));

        // The canary fails: the site is revoked again on worker 0.
        assert!(pool.revoke("apache", site)); // flap 2: window 2
        assert!(!pool.has_canary("apache", site), "failed canary cancelled");
        assert!(pool.is_quarantined("apache", site));
        assert_eq!(pool.flap_count("apache", site), 2);
        assert_eq!(worker0.get("apache").len(), 0, "canary uninstalled");

        // The next canary needs a doubled (2-deny) window.
        assert_eq!(worker0.add("apache", [patch(BugType::DanglingRead, 1)]), 0);
        assert_eq!(worker0.add("apache", [patch(BugType::DanglingRead, 1)]), 0);
        assert_eq!(worker0.add("apache", [patch(BugType::DanglingRead, 1)]), 1);
        assert!(pool.has_canary("apache", site));
    }

    #[test]
    fn quarantine_state_survives_crash_recovery() {
        let dir = journal_dir("wal-quarantine");
        let site = CallSite([1, 0, 0]);
        let live = {
            let pool = PatchPool::journaled(&dir)
                .unwrap()
                .with_quarantine(QuarantinePolicy {
                    quarantine_after: 1,
                    max_window: 64,
                });
            pool.add("apache", [patch(BugType::DanglingRead, 1)]);
            pool.revoke("apache", site);
            let worker0 = pool.for_worker(0);
            worker0.add("apache", [patch(BugType::DanglingRead, 1)]); // denied
            worker0.add("apache", [patch(BugType::DanglingRead, 1)]); // canary
            assert!(pool.has_canary("apache", site));
            pool.export_state("apache")
        };
        // Recovery restores the quarantine bookkeeping and the in-flight
        // canary byte-for-byte — even without the policy re-enabled.
        let recovered = PatchPool::journaled(&dir).unwrap();
        assert_eq!(recovered.export_state("apache"), live);
        assert!(recovered.is_quarantined("apache", site));
        assert!(recovered.has_canary("apache", site));
        assert_eq!(recovered.flap_count("apache", site), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_epoch_gets_are_pointer_equal_and_allocation_free() {
        // The hot-path churn regression: `get` once built a fresh
        // `PatchSet` per call. A repeated same-epoch query must hand back
        // the *identical* Arc — pointer equality is the proof that no set
        // was rebuilt and nothing was allocated on the read path.
        let pool = PatchPool::in_memory();
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);

        let a = pool.get("apache");
        let b = pool.get("apache");
        assert!(Arc::ptr_eq(&a, &b), "same epoch, same snapshot Arc");
        let (c, e1) = pool.get_with_epoch("apache");
        assert!(Arc::ptr_eq(&a, &c));

        // Misses share one empty set at epoch 0, through a worker-scoped
        // view too: even unknown programs allocate nothing.
        let (miss, miss_epoch) = pool.get_with_epoch("nope");
        let (scoped_miss, scoped_epoch) = pool.for_worker(3).get_with_epoch("also-nope");
        assert!(miss.is_empty() && Arc::ptr_eq(&miss, &scoped_miss));
        assert_eq!((miss_epoch, scoped_epoch), (0, 0));
        assert!(Arc::ptr_eq(&pool.get("nope"), &pool.get("also-nope")));

        // A mutation of a *different* program leaves this one's Arc
        // untouched; a mutation of the same program replaces it.
        pool.add("squid", [patch(BugType::BufferOverflow, 2)]);
        assert!(Arc::ptr_eq(&a, &pool.get("apache")));
        pool.add("apache", [patch(BugType::BufferOverflow, 3)]);
        let (d, e2) = pool.get_with_epoch("apache");
        assert!(!Arc::ptr_eq(&a, &d), "new epoch, new snapshot");
        assert_eq!(e2, e1 + 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lock_free_reads_agree_with_the_locked_oracle() {
        let pool = PatchPool::in_memory().with_quarantine(QuarantinePolicy {
            quarantine_after: 1,
            max_window: 64,
        });
        pool.add("apache", [patch(BugType::DanglingRead, 1)]);
        pool.add("apache", [patch(BugType::BufferOverflow, 2)]);
        pool.revoke("apache", CallSite([1, 0, 0]));
        let worker0 = pool.for_worker(0);
        worker0.add("apache", [patch(BugType::DanglingRead, 1)]); // denied
        worker0.add("apache", [patch(BugType::DanglingRead, 1)]); // canary

        for view in [&pool, &worker0] {
            let (fast, fast_epoch) = view.get_with_epoch("apache");
            let (locked, locked_epoch) = view.get_locked_with_epoch("apache");
            assert_eq!(fast_epoch, locked_epoch);
            assert_eq!(fast.len(), locked.len());
            assert_eq!(fast.patches(), locked.patches());
        }
        // The scoped view sees its canary through its published overlay.
        assert!(worker0
            .get("apache")
            .match_dealloc(CallSite([1, 0, 0]))
            .is_some());
        assert!(pool
            .get("apache")
            .match_dealloc(CallSite([1, 0, 0]))
            .is_none());
    }

    #[test]
    fn epoch_signal_follows_every_effective_mutation() {
        let dir = journal_dir("signal");
        let pool = PatchPool::journaled(&dir)
            .unwrap()
            .with_quarantine(QuarantinePolicy {
                quarantine_after: 1,
                max_window: 64,
            });
        let site = CallSite([1, 0, 0]);
        let worker0 = pool.for_worker(0);

        // Taken before the pool has seen the program at all.
        let signal = pool.epoch_signal("apache");
        assert_eq!((signal.get(), pool.epoch("apache")), (0, 0));

        let mut last = 0;
        let mut moved = |step: &str| {
            let epoch = pool.epoch("apache");
            assert!(epoch > last, "{step} moves the epoch");
            assert_eq!(signal.get(), epoch, "signal agrees after {step}");
            last = epoch;
        };
        pool.add(
            "apache",
            [
                patch(BugType::DanglingRead, 1),
                patch(BugType::BufferOverflow, 2),
            ],
        );
        moved("first publish");
        pool.remove_site("apache", CallSite([2, 0, 0]));
        moved("remove_site");
        assert!(pool.revoke("apache", site));
        moved("revoke");
        worker0.add("apache", [patch(BugType::DanglingRead, 1)]); // denied
        worker0.add("apache", [patch(BugType::DanglingRead, 1)]); // canary
        assert!(pool.has_canary("apache", site));
        moved("canary admission");
        assert_eq!(worker0.confirm_canary("apache"), 1);
        moved("canary promotion");

        // Records replayed from the journal reach the same signal.
        let other = PatchPool::with_journal(pool.journal().unwrap().clone());
        other.add("apache", [patch(BugType::BufferOverflow, 3)]);
        assert_eq!(pool.recover_from_journal(), 1);
        moved("journal replay");
        // So does a compaction snapshot: replay resets the counters in
        // place instead of replacing them.
        pool.journal().unwrap().set_compact_every(1);
        other.add("apache", [patch(BugType::BufferOverflow, 4)]);
        assert_eq!(pool.recover_from_journal(), 1);
        moved("snapshot replay");
        assert_eq!(pool.export_state("apache"), other.export_state("apache"));

        // A later request, from any clone, reads the same epoch.
        assert_eq!(worker0.epoch_signal("apache").get(), last);
        assert_eq!(pool.epoch_signal("squid").get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `pool`'s exported state for `program` and its published set and
    /// epoch in each scope, each set checked against the locked oracle
    /// and listed in a canonical order (a replayed pool's canary overlays
    /// may list sites in another order).
    fn views(pool: &PatchPool, program: &str) -> Vec<String> {
        let canonical = |patches: &[Patch]| {
            let mut json: Vec<String> = patches
                .iter()
                .map(|p| serde_json::to_string(p).unwrap())
                .collect();
            json.sort();
            json.join(",")
        };
        let mut views = vec![pool.export_state(program)];
        for view in [pool.clone(), pool.for_worker(1), pool.for_worker(2)] {
            let (set, epoch) = view.get_with_epoch(program);
            let (locked, locked_epoch) = view.get_locked_with_epoch(program);
            assert_eq!(epoch, locked_epoch, "published epoch is the oracle's");
            assert_eq!(
                set.patches(),
                locked.patches(),
                "published set is the oracle's"
            );
            views.push(format!("{epoch}: {}", canonical(set.patches())));
        }
        views
    }

    #[test]
    fn live_and_replayed_pools_agree_after_every_call() {
        // Random interleavings of every mutation over 2 programs, 3 sites
        // and worker scopes {none, 1, 2}. After each call, a pool opened
        // on the same journal must hold exactly the live pool's state.
        const SEEDS: u64 = 20;
        const CALLS: usize = 150;
        let programs = ["apache", "squid"];
        let bugs = [BugType::DanglingRead, BugType::BufferOverflow];
        let (mut canaries, mut promotions) = (0, 0);
        for seed in 0..SEEDS {
            // splitmix64: a seeded stream without a test-only dependency.
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let dir = journal_dir(&format!("agree-{seed}"));
            let wal = Wal::open(dir.join("pool.wal")).unwrap();
            wal.set_compact_every([0, 3, 7][seed as usize % 3]);
            let pool = PatchPool::with_journal(wal);
            if seed % 2 == 0 {
                pool.enable_quarantine(QuarantinePolicy {
                    quarantine_after: 2,
                    max_window: 4,
                });
            }
            for step in 0..CALLS {
                let program = programs[next(2) as usize];
                let view = match next(3) {
                    0 => pool.clone(),
                    w => pool.for_worker(w),
                };
                let site = 1 + next(3);
                let before = (1..=3).any(|s| pool.has_canary(program, CallSite([s, 0, 0])));
                let call = match next(8) {
                    0..=2 => {
                        let patches: Vec<Patch> = (0..1 + next(3))
                            .map(|_| patch(bugs[next(2) as usize], 1 + next(3)))
                            .collect();
                        view.add(program, patches);
                        "add"
                    }
                    3 | 4 => {
                        view.revoke(program, CallSite([site, 0, 0]));
                        "revoke"
                    }
                    5 | 6 => {
                        promotions += usize::from(view.confirm_canary(program) > 0);
                        "confirm_canary"
                    }
                    _ => {
                        view.remove_site(program, CallSite([site, 0, 0]));
                        "remove_site"
                    }
                };
                let after = (1..=3).any(|s| pool.has_canary(program, CallSite([s, 0, 0])));
                canaries += usize::from(!before && after);
                let replayed = PatchPool::with_journal(pool.journal().unwrap().clone());
                for program in programs {
                    assert_eq!(
                        views(&replayed, program),
                        views(&pool, program),
                        "seed {seed}, step {step} ({call}): replay diverged on {program}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(
            canaries > 0 && promotions > 0,
            "the interleavings reach canaries ({canaries}) and promotions ({promotions})"
        );
    }
}
