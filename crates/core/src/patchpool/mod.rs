//! The central patch pool (paper §3, "Patch management").
//!
//! "Once the diagnostic engine generates a patch, the patch management
//! component stores it in a central patch pool based on the call-site
//! information. First-Aid maintains a patch pool for each program so that
//! the patches do not mix for different programs." Patches are journaled
//! ([`PatchPool::journaled`]) so subsequent runs and *other processes of
//! the same program* start protected.
//!
//! Every read and every mutation runs under one mutex. Mutations —
//! publish, revoke, canary traffic, journal replay — are where the
//! quarantine gate, tombstones and journaling live; before releasing the
//! mutex the writer bumps the affected program's epoch and rebuilds its
//! published entry (a handle to that epoch counter, `Arc<PatchSet>`,
//! per-worker canary overlays). A read
//! ([`PatchPool::get`], [`PatchPool::get_with_epoch`]) is one locked
//! lookup of that entry plus an `Arc` clone: no `PatchSet` is built, and
//! same-epoch reads are pointer-equal. [`PatchPool::get_locked_with_epoch`]
//! rebuilds the set from the writer-side state instead; it is the
//! oracle the published entries are checked against.
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
    Wal, WalOp, WalRecord,
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
#[derive(Clone, Debug, Default)]
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

impl SiteState {
    /// State for a site first seen through the re-admission gate (a
    /// tombstone that predates the policy): one denial before retry.
    fn tracked() -> SiteState {
        SiteState {
            window: 1,
            ..SiteState::default()
        }
    }
}

/// How one patch fares at the re-admission gate.
enum Gate {
    Publish,
    Deny(u32),
    Canary(u64),
    Refuse,
}

/// One program's published view: its epoch counter, the fleet-wide
/// patch set and per-worker canary overlays (base set + canary patches,
/// merged at publish time so a scoped read builds nothing either).
struct Published {
    /// The program's counter from `epoch_by_program` (the same `Arc`,
    /// not a copy), so a read finds set and epoch in one lookup.
    epoch: Arc<AtomicU64>,
    set: Arc<PatchSet>,
    /// Worker id -> merged (fleet + canary) set, for workers with an
    /// in-flight canary. Empty for almost every publish.
    scoped: HashMap<u64, Arc<PatchSet>>,
}

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

#[derive(Default)]
struct Pools {
    by_program: HashMap<String, Vec<Patch>>,
    /// The one per-program epoch store. Bumped only under the pool
    /// mutex; [`EpochSignal`]s share these counters, so an entry is
    /// never removed or replaced once created. `Relaxed` is enough: a
    /// counter publishes no data, and a reader that sees it move reads
    /// the set under the mutex, which orders that read after the publish.
    epoch_by_program: HashMap<String, Arc<AtomicU64>>,
    /// Call-sites whose patches the health monitor revoked as
    /// ineffective. Tombstones: `add` refuses to re-admit patches at
    /// these sites, so a revoked patch can never re-propagate through
    /// the fleet. Without a [`QuarantinePolicy`] they are permanent
    /// and in-memory only (a fresh deployment may retry).
    revoked_by_program: HashMap<String, HashSet<CallSite>>,
    /// Flap bookkeeping per revoked site, populated only when a
    /// quarantine policy is active (or replayed from a journal).
    quarantine_by_program: HashMap<String, HashMap<CallSite, SiteState>>,
    /// What readers get: rebuilt for a program on each of its effective
    /// mutations, and for every program after journal replay.
    published: HashMap<String, Published>,
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
    /// `program`'s epoch counter, created at 0 on first use.
    fn epoch_cell(&mut self, program: &str) -> &Arc<AtomicU64> {
        self.epoch_by_program.entry(program.to_owned()).or_default()
    }

    fn bump_epoch(&mut self, program: &str) {
        self.epoch_cell(program).fetch_add(1, Ordering::Relaxed);
    }

    fn epoch(&self, program: &str) -> u64 {
        self.epoch_by_program
            .get(program)
            .map_or(0, |e| e.load(Ordering::Relaxed))
    }

    /// Every program with pool state, sorted. A counter still at 0 (a
    /// signal handed out for a program never mutated) is not state.
    fn programs(&self) -> Vec<&String> {
        let mut programs: Vec<&String> = self
            .by_program
            .keys()
            .chain(
                self.epoch_by_program
                    .iter()
                    .filter(|(_, e)| e.load(Ordering::Relaxed) > 0)
                    .map(|(p, _)| p),
            )
            .chain(self.revoked_by_program.keys())
            .chain(self.quarantine_by_program.keys())
            .collect();
        programs.sort();
        programs.dedup();
        programs
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
    /// The supervision journal, if this pool is crash-safe.
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

    /// The worker scope of this clone, if any.
    pub fn scope(&self) -> Option<u64> {
        self.scope
    }

    /// The supervision journal, if this pool is crash-safe.
    pub fn journal(&self) -> Option<&Wal> {
        self.journal.as_ref()
    }

    /// Appends a non-pool supervision record (checkpoint registration,
    /// ladder descent, worker membership, ...) to the journal, if any,
    /// keeping the replay watermark in step.
    pub fn journal_append(&self, op: WalOp) {
        if self.journal.is_none() {
            return;
        }
        let mut pools = lock(&self.inner);
        self.journal_ops(&mut pools, vec![op]);
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
            if Self::apply_record(&mut pools, record) {
                applied += 1;
            }
        }
        if applied > 0 {
            // Replay bypassed the per-mutation publishes: rebuild every
            // published entry once.
            Self::republish_all(&mut pools);
        }
        applied
    }

    fn set_for(&self, pools: &Pools, program: &str) -> PatchSet {
        let mut patches: Vec<Patch> = pools
            .by_program
            .get(program)
            .map(|list| list.to_vec())
            .unwrap_or_default();
        if let Some(worker) = self.scope {
            if let Some(sites) = pools.quarantine_by_program.get(program) {
                for st in sites.values() {
                    if let Some((w, canary)) = &st.canary {
                        if *w == worker {
                            patches.extend(canary.iter().cloned());
                        }
                    }
                }
            }
        }
        PatchSet::from_patches(patches)
    }

    /// Builds one program's published entry from the writer state: fleet
    /// set, and merged base+canary overlays for each worker with an
    /// in-flight canary.
    fn rebuild_entry(pools: &Pools, program: &str, epoch: Arc<AtomicU64>) -> Published {
        let base: Vec<Patch> = pools.by_program.get(program).cloned().unwrap_or_default();
        let mut scoped: HashMap<u64, Arc<PatchSet>> = HashMap::new();
        if let Some(sites) = pools.quarantine_by_program.get(program) {
            let mut per_worker: HashMap<u64, Vec<Patch>> = HashMap::new();
            for st in sites.values() {
                if let Some((w, canary)) = &st.canary {
                    per_worker
                        .entry(*w)
                        .or_default()
                        .extend(canary.iter().cloned());
                }
            }
            for (worker, canaries) in per_worker {
                let mut merged = base.clone();
                merged.extend(canaries);
                scoped.insert(worker, Arc::new(PatchSet::from_patches(merged)));
            }
        }
        Published {
            epoch,
            set: Arc::new(PatchSet::from_patches(base)),
            scoped,
        }
    }

    /// Rebuilds `program`'s published entry. Called with the pool mutex
    /// held, after journaling, so locked readers can never observe state
    /// the journal does not yet hold.
    fn publish_program(pools: &mut Pools, program: &str) {
        let epoch = Arc::clone(pools.epoch_cell(program));
        let entry = Self::rebuild_entry(pools, program, epoch);
        pools.published.insert(program.to_owned(), entry);
    }

    /// Rebuilds every published entry from the writer state (journal
    /// replay). Called with the pool mutex held.
    fn republish_all(pools: &mut Pools) {
        let programs: Vec<String> = pools.programs().into_iter().cloned().collect();
        pools.published.clear();
        for program in programs {
            Self::publish_program(pools, &program);
        }
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
        match pools.published.get(program) {
            Some(entry) => {
                let set = self
                    .scope
                    .and_then(|w| entry.scoped.get(&w))
                    .unwrap_or(&entry.set);
                (Arc::clone(set), entry.epoch.load(Ordering::Relaxed))
            }
            // Every epoch bump publishes its program's entry before the
            // lock drops, so a program without one is still at epoch 0.
            None => (Arc::clone(&pools.empty), 0),
        }
    }

    /// Locked read that rebuilds the set from the writer-side state
    /// instead of handing out the published one. It is the oracle the
    /// published entries are checked against.
    pub fn get_locked_with_epoch(&self, program: &str) -> (PatchSet, u64) {
        let pools = lock(&self.inner);
        (self.set_for(&pools, program), pools.epoch(program))
    }

    /// Returns the per-program mutation counter (0 for an unknown
    /// program). One locked lookup; a worker that polls the epoch per
    /// input holds an [`EpochSignal`] instead.
    pub fn epoch(&self, program: &str) -> u64 {
        lock(&self.inner).epoch(program)
    }

    /// Hands out `program`'s [`EpochSignal`]: a read-only view of the
    /// pool's own epoch counter for the program, so every later publish
    /// moves it.
    pub fn epoch_signal(&self, program: &str) -> EpochSignal {
        EpochSignal(Arc::clone(lock(&self.inner).epoch_cell(program)))
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
            .published
            .get(program)
            .map_or(0, |e| e.set.len())
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
        let mut ops: Vec<WalOp> = Vec::new();
        let mut published: Vec<Patch> = Vec::new();
        let mut canaried = 0usize;
        let mut skipped_revoked = 0usize;

        for p in patches {
            let revoked = pools
                .revoked_by_program
                .get(program)
                .is_some_and(|s| s.contains(&p.site));
            if !revoked {
                let list = pools.by_program.entry(program.to_owned()).or_default();
                if !list.contains(&p) && !published.contains(&p) {
                    published.push(p);
                }
                continue;
            }
            if pools.policy.is_none() {
                skipped_revoked += 1;
                continue;
            }
            let scope = self.scope;
            let gate = {
                let st = pools
                    .quarantine_by_program
                    .entry(program.to_owned())
                    .or_default()
                    .entry(p.site)
                    .or_insert_with(SiteState::tracked);
                if st.quarantined {
                    match scope {
                        // Fleet-wide publication of a quarantined site is
                        // always refused: re-admission goes via a canary.
                        None => Gate::Refuse,
                        Some(worker) => {
                            if st.canary.is_some() {
                                Gate::Refuse
                            } else if st.denials < st.window {
                                st.denials += 1;
                                Gate::Deny(st.denials)
                            } else {
                                st.denials = 0;
                                Gate::Canary(worker)
                            }
                        }
                    }
                } else if st.denials < st.window {
                    st.denials += 1;
                    Gate::Deny(st.denials)
                } else {
                    st.denials = 0;
                    Gate::Publish
                }
            };
            match gate {
                Gate::Refuse => skipped_revoked += 1,
                Gate::Deny(denials) => {
                    skipped_revoked += 1;
                    ops.push(WalOp::SiteDenied(DenyOp {
                        program: program.to_owned(),
                        site: p.site,
                        denials,
                    }));
                }
                Gate::Canary(worker) => {
                    let site = p.site;
                    let candidate = vec![p];
                    if let Some(st) = pools
                        .quarantine_by_program
                        .get_mut(program)
                        .and_then(|m| m.get_mut(&site))
                    {
                        st.canary = Some((worker, candidate.clone()));
                    }
                    canaried += candidate.len();
                    pools.bump_epoch(program);
                    log::warn(format!(
                        "patch pool for {program}: quarantined site re-admitted \
                         as a canary on worker {worker}"
                    ));
                    ops.push(WalOp::CanaryAdmit(CanaryOp {
                        program: program.to_owned(),
                        site,
                        worker,
                        patches: candidate,
                    }));
                }
                Gate::Publish => {
                    // The denial window was served: the site may try again
                    // fleet-wide. Clear the tombstone and admit normally.
                    if let Some(set) = pools.revoked_by_program.get_mut(program) {
                        set.remove(&p.site);
                    }
                    let list = pools.by_program.entry(program.to_owned()).or_default();
                    if !list.contains(&p) && !published.contains(&p) {
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
        if !published.is_empty() {
            let list = pools.by_program.entry(program.to_owned()).or_default();
            list.extend(published.iter().cloned());
            pools.bump_epoch(program);
            ops.push(WalOp::PatchPublish(PublishOp {
                program: program.to_owned(),
                patches: published.clone(),
            }));
        }
        let added = published.len() + canaried;
        self.journal_ops(&mut pools, ops);
        if added > 0 {
            // Journal, then publish, both under the mutex: readers can
            // never observe state the journal does not yet hold.
            Self::publish_program(&mut pools, program);
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
        let newly_tombstoned = pools
            .revoked_by_program
            .entry(program.to_owned())
            .or_default()
            .insert(site);
        let removed = match pools.by_program.get_mut(program) {
            Some(list) => {
                let before = list.len();
                list.retain(|p| p.site != site);
                list.len() != before
            }
            None => false,
        };
        let canary_cancelled = pools.policy.is_some()
            && pools
                .quarantine_by_program
                .get_mut(program)
                .and_then(|m| m.get_mut(&site))
                .is_some_and(|st| st.canary.take().is_some());
        if !newly_tombstoned && !removed && !canary_cancelled {
            return false;
        }
        let mut ops: Vec<WalOp> = Vec::new();
        let mut flap = (0u32, 0u32, false);
        if let Some(policy) = pools.policy {
            if canary_cancelled {
                ops.push(WalOp::CanaryReject(SiteOp {
                    program: program.to_owned(),
                    site,
                }));
            }
            let st = pools
                .quarantine_by_program
                .entry(program.to_owned())
                .or_default()
                .entry(site)
                .or_insert_with(SiteState::tracked);
            st.flaps += 1;
            st.denials = 0;
            st.window = (1u32 << (st.flaps - 1).min(16)).min(policy.max_window.max(1));
            let was_quarantined = st.quarantined;
            st.quarantined = st.flaps >= policy.quarantine_after;
            flap = (st.flaps, st.window, st.quarantined);
            if st.quarantined && !was_quarantined {
                log::warn(format!(
                    "patch pool for {program}: site flapped {} times, quarantined \
                     (re-admission is canary-only)",
                    st.flaps
                ));
            }
        }
        ops.push(WalOp::PatchRevoke(RevokeOp {
            program: program.to_owned(),
            site,
            flaps: flap.0,
            window: flap.1,
            quarantined: flap.2,
        }));
        pools.bump_epoch(program);
        self.journal_ops(&mut pools, ops);
        Self::publish_program(&mut pools, program);
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
        let sites: Vec<CallSite> = pools
            .quarantine_by_program
            .get(program)
            .map(|m| {
                m.iter()
                    .filter(|(_, st)| st.canary.as_ref().is_some_and(|(w, _)| *w == worker))
                    .map(|(site, _)| *site)
                    .collect()
            })
            .unwrap_or_default();
        if sites.is_empty() {
            return 0;
        }
        let mut ops: Vec<WalOp> = Vec::new();
        let mut promoted = 0usize;
        for site in sites {
            let Some((_, candidate)) = pools
                .quarantine_by_program
                .get_mut(program)
                .and_then(|m| m.get_mut(&site))
                .and_then(|st| {
                    st.quarantined = false;
                    st.denials = 0;
                    st.canary.take()
                })
            else {
                continue;
            };
            if let Some(set) = pools.revoked_by_program.get_mut(program) {
                set.remove(&site);
            }
            let list = pools.by_program.entry(program.to_owned()).or_default();
            for p in candidate {
                if !list.contains(&p) {
                    list.push(p);
                    promoted += 1;
                }
            }
            pools.bump_epoch(program);
            log::warn(format!(
                "patch pool for {program}: canary on worker {worker} validated; \
                 patches promoted fleet-wide"
            ));
            ops.push(WalOp::CanaryPromote(SiteOp {
                program: program.to_owned(),
                site,
            }));
        }
        if !ops.is_empty() {
            self.journal_ops(&mut pools, ops);
            Self::publish_program(&mut pools, program);
        }
        promoted
    }

    /// Returns `true` if patches at `site` have been revoked.
    pub fn is_revoked(&self, program: &str, site: CallSite) -> bool {
        lock(&self.inner)
            .revoked_by_program
            .get(program)
            .is_some_and(|s| s.contains(&site))
    }

    /// Number of revoked (tombstoned) call-sites for a program.
    pub fn revoked_count(&self, program: &str) -> usize {
        lock(&self.inner)
            .revoked_by_program
            .get(program)
            .map_or(0, HashSet::len)
    }

    /// Returns `true` if `site` is quarantined (canary-only re-admission).
    pub fn is_quarantined(&self, program: &str, site: CallSite) -> bool {
        lock(&self.inner)
            .quarantine_by_program
            .get(program)
            .and_then(|m| m.get(&site))
            .is_some_and(|st| st.quarantined)
    }

    /// Fleet-wide flap count of `site` (revocations under the policy).
    pub fn flap_count(&self, program: &str, site: CallSite) -> u32 {
        lock(&self.inner)
            .quarantine_by_program
            .get(program)
            .and_then(|m| m.get(&site))
            .map_or(0, |st| st.flaps)
    }

    /// Returns `true` if a canary for `site` is in flight.
    pub fn has_canary(&self, program: &str, site: CallSite) -> bool {
        lock(&self.inner)
            .quarantine_by_program
            .get(program)
            .and_then(|m| m.get(&site))
            .is_some_and(|st| st.canary.is_some())
    }

    /// Removes all patches at the given call-site (validation failure).
    pub fn remove_site(&self, program: &str, site: fa_proc::CallSite) {
        let mut pools = lock(&self.inner);
        let Some(list) = pools.by_program.get_mut(program) else {
            return;
        };
        let before = list.len();
        list.retain(|p| p.site != site);
        if list.len() == before {
            return;
        }
        pools.bump_epoch(program);
        let ops = vec![WalOp::PatchRemove(SiteOp {
            program: program.to_owned(),
            site,
        })];
        self.journal_ops(&mut pools, ops);
        Self::publish_program(&mut pools, program);
    }

    /// Canonical JSON of one program's complete pool state (patches,
    /// tombstones, quarantine bookkeeping, epoch), with every unordered
    /// collection sorted — byte-identical across pools holding the same
    /// state, which is what the crash acceptance sweep compares.
    // `ProgramSnapshot` is plain data with string map keys, so
    // serializing it cannot fail.
    #[allow(clippy::expect_used)]
    pub fn export_state(&self, program: &str) -> String {
        let pools = lock(&self.inner);
        let snap = Self::program_snapshot(&pools, program);
        serde_json::to_string(&snap).expect("pool state always serializes")
    }

    fn program_snapshot(pools: &Pools, program: &str) -> ProgramSnapshot {
        let mut patches = pools.by_program.get(program).cloned().unwrap_or_default();
        patches.sort_by_key(|p| {
            // A `Patch` is plain data, so serializing it cannot fail.
            #[allow(clippy::expect_used)]
            let json = serde_json::to_string(p).expect("patches always serialize");
            (p.site, json)
        });
        let mut revoked: Vec<CallSite> = pools
            .revoked_by_program
            .get(program)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        revoked.sort();
        let mut quarantine: Vec<QuarantineEntry> = pools
            .quarantine_by_program
            .get(program)
            .map(|m| {
                m.iter()
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
                    .collect()
            })
            .unwrap_or_default();
        quarantine.sort_by_key(|e| e.site);
        ProgramSnapshot {
            program: program.to_owned(),
            epoch: pools.epoch(program),
            patches,
            revoked,
            quarantine,
        }
    }

    fn full_snapshot(pools: &Pools) -> PoolSnapshot {
        PoolSnapshot {
            programs: pools
                .programs()
                .into_iter()
                .map(|p| Self::program_snapshot(pools, p))
                .collect(),
        }
    }

    /// Appends the mutation records just produced (in mutation order,
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
            let snapshot = Self::full_snapshot(pools);
            if let Some(seq) = wal.compact(snapshot) {
                pools.last_seq = seq;
            }
        }
    }

    /// Applies one journal record to the pool state; `false` if it was
    /// at or below the watermark (already applied). Quarantine records
    /// carry their resulting counters, so replay needs no policy.
    fn apply_record(pools: &mut Pools, record: &WalRecord) -> bool {
        if record.seq <= pools.last_seq {
            return false;
        }
        pools.last_seq = record.seq;
        match &record.op {
            WalOp::PatchPublish(op) => {
                // A publish implies every carried site was admissible:
                // clear any tombstone (re-admission) and its denials.
                for p in &op.patches {
                    if let Some(set) = pools.revoked_by_program.get_mut(&op.program) {
                        set.remove(&p.site);
                    }
                    if let Some(st) = pools
                        .quarantine_by_program
                        .get_mut(&op.program)
                        .and_then(|m| m.get_mut(&p.site))
                    {
                        st.denials = 0;
                    }
                }
                let list = pools.by_program.entry(op.program.clone()).or_default();
                for p in &op.patches {
                    if !list.contains(p) {
                        list.push(p.clone());
                    }
                }
                pools.bump_epoch(&op.program);
            }
            WalOp::PatchRevoke(op) => {
                pools
                    .revoked_by_program
                    .entry(op.program.clone())
                    .or_default()
                    .insert(op.site);
                if let Some(list) = pools.by_program.get_mut(&op.program) {
                    list.retain(|p| p.site != op.site);
                }
                if op.flaps > 0 {
                    let st = pools
                        .quarantine_by_program
                        .entry(op.program.clone())
                        .or_default()
                        .entry(op.site)
                        .or_insert_with(SiteState::tracked);
                    st.flaps = op.flaps;
                    st.window = op.window;
                    st.denials = 0;
                    st.quarantined = op.quarantined;
                }
                pools.bump_epoch(&op.program);
            }
            WalOp::PatchRemove(op) => {
                if let Some(list) = pools.by_program.get_mut(&op.program) {
                    list.retain(|p| p.site != op.site);
                }
                pools.bump_epoch(&op.program);
            }
            WalOp::SiteDenied(op) => {
                let st = pools
                    .quarantine_by_program
                    .entry(op.program.clone())
                    .or_default()
                    .entry(op.site)
                    .or_insert_with(SiteState::tracked);
                st.denials = op.denials;
            }
            WalOp::CanaryAdmit(op) => {
                let st = pools
                    .quarantine_by_program
                    .entry(op.program.clone())
                    .or_default()
                    .entry(op.site)
                    .or_insert_with(SiteState::tracked);
                st.canary = Some((op.worker, op.patches.clone()));
                st.denials = 0;
                pools.bump_epoch(&op.program);
            }
            WalOp::CanaryPromote(op) => {
                let candidate = pools
                    .quarantine_by_program
                    .get_mut(&op.program)
                    .and_then(|m| m.get_mut(&op.site))
                    .and_then(|st| {
                        st.quarantined = false;
                        st.denials = 0;
                        st.canary.take()
                    });
                if let Some(set) = pools.revoked_by_program.get_mut(&op.program) {
                    set.remove(&op.site);
                }
                if let Some((_, patches)) = candidate {
                    let list = pools.by_program.entry(op.program.clone()).or_default();
                    for p in patches {
                        if !list.contains(&p) {
                            list.push(p);
                        }
                    }
                }
                pools.bump_epoch(&op.program);
            }
            WalOp::CanaryReject(op) => {
                if let Some(st) = pools
                    .quarantine_by_program
                    .get_mut(&op.program)
                    .and_then(|m| m.get_mut(&op.site))
                {
                    st.canary = None;
                }
            }
            WalOp::Snapshot(snap) => {
                pools.by_program.clear();
                pools.revoked_by_program.clear();
                pools.quarantine_by_program.clear();
                // Reset the counters in place: signals already handed
                // out must keep following them.
                for epoch in pools.epoch_by_program.values() {
                    epoch.store(0, Ordering::Relaxed);
                }
                for prog in &snap.programs {
                    pools
                        .by_program
                        .insert(prog.program.clone(), prog.patches.clone());
                    pools
                        .epoch_cell(&prog.program)
                        .store(prog.epoch, Ordering::Relaxed);
                    pools
                        .revoked_by_program
                        .insert(prog.program.clone(), prog.revoked.iter().copied().collect());
                    let sites: HashMap<CallSite, SiteState> = prog
                        .quarantine
                        .iter()
                        .map(|e| {
                            (
                                e.site,
                                SiteState {
                                    flaps: e.flaps,
                                    window: e.window,
                                    denials: e.denials,
                                    quarantined: e.quarantined,
                                    canary: e.canary_worker.map(|w| (w, e.canary_patches.clone())),
                                },
                            )
                        })
                        .collect();
                    if !sites.is_empty() {
                        pools
                            .quarantine_by_program
                            .insert(prog.program.clone(), sites);
                    }
                }
            }
            // Runtime/fleet records: not pool state, only the watermark
            // advances (so replay order stays strict).
            WalOp::CheckpointRegister(_)
            | WalOp::CheckpointPrune(_)
            | WalOp::SentrySuppress(_)
            | WalOp::LadderDescend(_)
            | WalOp::WorkerJoin(_)
            | WalOp::WorkerLeave(_) => {}
        }
        true
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
        use fa_wal::SentryOp;

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
        pool.journal().unwrap().set_compact_every(0);

        // A journal-only record is no mutation.
        let appends = pool.journal().unwrap().appends();
        pool.journal_append(WalOp::SentrySuppress(SentryOp {
            program: "apache".to_owned(),
            sites: vec![site],
            all: false,
        }));
        assert_eq!(pool.journal().unwrap().appends(), appends + 1);
        assert_eq!(signal.get(), last, "a journal-only record");

        // A later request, from any clone, reads the same epoch.
        assert_eq!(worker0.epoch_signal("apache").get(), last);
        assert_eq!(pool.epoch_signal("squid").get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
