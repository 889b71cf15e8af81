//! The per-object metadata table.
//!
//! The extension "adds 16 bytes of meta data for each memory object"
//! (paper §7.6.2). This table is that metadata. Each tracked object has a
//! hot [`ObjectRecord`] of at most 64 bytes: outer address, size,
//! allocation call-site, sequence number, padding and flag bits. That is
//! all that every malloc, free and access lookup reads. The rarely set
//! fields (the quarantine free site, the initialized ranges and the
//! sentry slot) live in a cold side table, which holds an entry only for
//! objects that have one of them. In normal mode that is no object at
//! all unless a patch or the sentry touched it, so tracking an object
//! costs no host allocation of its own. Range lookup classifies every
//! application load/store in O(log n).
//!
//! In the paper that metadata lives in the process image, so a fork-style
//! checkpoint shares it copy-on-write with everything else. The table
//! does the same on the host side: a clone shares every leaf of both
//! tables and costs O(leaves), and the first write to a leaf after a
//! checkpoint copies that leaf alone. A checkpoint therefore pays for the
//! metadata written since the last one, not for the whole live set.

use std::collections::BTreeMap;
use std::sync::Arc;

use fa_mem::Addr;
use fa_proc::CallSite;

use crate::intervals::IntervalSet;

/// Modeled metadata footprint per object, in bytes (paper §7.6.2).
pub const META_BYTES_PER_OBJECT: u64 = 16;

/// Allocation-time fill of an object's user area.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fill {
    /// Left as the heap handed it out.
    None,
    /// Zero-filled (preventive uninit-read change).
    Zero,
    /// Canary-filled (exposing uninit-read change).
    Canary,
}

/// Whether an object is live or sitting in the delay-free quarantine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjState {
    /// Allocated and not yet freed by the application.
    Live,
    /// Freed by the application but retained by a delay-free change.
    Quarantined {
        /// Deallocation call-site that freed it.
        freed_site: CallSite,
        /// The contents were canary-filled on free (exposing form).
        canary: bool,
    },
}

/// A padding change was applied (its width may be zero).
const PADDED: u8 = 1 << 0;
/// The padding is canary-filled (exposing form).
const PAD_CANARY: u8 = 1 << 1;
/// The user area was zero-filled at allocation.
const ZERO_FILLED: u8 = 1 << 2;
/// The user area was canary-filled at allocation.
const CANARY_FILLED: u8 = 1 << 3;
/// Freed by the application and held by the quarantine.
const QUARANTINED: u8 = 1 << 4;
/// The quarantined contents were canary-filled on free.
const FREE_CANARY: u8 = 1 << 5;
/// The cold table holds an entry for this object.
const COLD: u8 = 1 << 6;

/// The hot metadata of one tracked object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Outer pointer obtained from the heap or a sentry slot; the table
    /// key. It differs from the user pointer by the left padding.
    pub outer: Addr,
    /// Object size as requested by the application.
    pub size: u64,
    /// Allocation call-site.
    pub alloc_site: CallSite,
    /// Monotonic allocation sequence number.
    pub seq: u64,
    /// Padding on each side of the user area, in bytes.
    pad: u64,
    flags: u8,
}

impl ObjectRecord {
    /// A live record of an unpadded, unfilled object.
    pub(crate) fn new(outer: Addr, size: u64, alloc_site: CallSite, seq: u64) -> Self {
        ObjectRecord {
            outer,
            size,
            alloc_site,
            seq,
            pad: 0,
            flags: 0,
        }
    }

    /// The same record with `pad` bytes of padding on each side of the
    /// user area, canary-filled if `canary`.
    pub(crate) fn padded(mut self, pad: u64, canary: bool) -> Self {
        self.pad = pad;
        self.flags |= PADDED;
        if canary {
            self.flags |= PAD_CANARY;
        }
        self
    }

    /// The same record with its user area filled at allocation.
    pub(crate) fn filled(mut self, fill: Fill) -> Self {
        self.flags |= match fill {
            Fill::None => 0,
            Fill::Zero => ZERO_FILLED,
            Fill::Canary => CANARY_FILLED,
        };
        self
    }

    /// User pointer handed to the application.
    pub fn user(&self) -> Addr {
        self.outer.offset(self.pad)
    }

    /// Total heap footprint (user size + padding).
    pub fn outer_size(&self) -> u64 {
        self.size + 2 * self.pad
    }

    /// Padding per side, if a padding change was applied.
    pub fn pad(&self) -> Option<u64> {
        (self.flags & PADDED != 0).then_some(self.pad)
    }

    /// The padding is canary-filled (exposing form).
    pub fn pad_canary(&self) -> bool {
        self.flags & PAD_CANARY != 0
    }

    /// How the user area was filled at allocation.
    pub fn fill(&self) -> Fill {
        if self.flags & ZERO_FILLED != 0 {
            Fill::Zero
        } else if self.flags & CANARY_FILLED != 0 {
            Fill::Canary
        } else {
            Fill::None
        }
    }

    /// The object is held by the delay-free quarantine.
    pub fn is_quarantined(&self) -> bool {
        self.flags & QUARANTINED != 0
    }

    /// Returns `true` if `addr` lies within the user area.
    pub fn in_user(&self, addr: Addr) -> bool {
        let user = self.user();
        addr >= user && addr.0 < user.0 + self.size
    }

    /// Returns `true` if `addr` lies within the padding (either side).
    pub fn in_padding(&self, addr: Addr) -> bool {
        self.pad().is_some()
            && addr >= self.outer
            && addr.0 < self.outer.0 + self.outer_size()
            && !self.in_user(addr)
    }

    fn has_cold(&self) -> bool {
        self.flags & COLD != 0
    }
}

/// The cold metadata of one tracked object: the fields that only
/// changed, traced or sampled objects set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColdInfo {
    /// Deallocation call-site of a quarantined object.
    pub freed_site: Option<CallSite>,
    /// Initialized (written) byte ranges, tracked when an uninit-read
    /// change, tracing or the sentry tier is active.
    pub written: Option<IntervalSet>,
    /// The index of the guarded sentry slot this object was redirected
    /// into, when it was sampled by the sentry tier.
    pub sentried: Option<usize>,
}

impl ColdInfo {
    fn is_empty(&self) -> bool {
        self.freed_site.is_none() && self.written.is_none() && self.sentried.is_none()
    }
}

/// log2 of the key span one leaf of a [`CowMap`] covers (64 KiB of outer
/// addresses). Smaller leaves make a clone copy a longer directory;
/// larger ones make the first write after a checkpoint copy more objects.
const LEAF_SHIFT: u32 = 16;

/// An ordered map split into `Arc`-shared leaves, one per
/// `LEAF_SHIFT`-aligned key span. A clone copies the leaf directory only:
/// O(leaves), not O(entries). The first write to a leaf that a clone
/// still shares copies that leaf alone (`Arc::make_mut`). Leaves are
/// never empty, so a floor lookup visits at most two of them.
#[derive(Clone, Debug)]
struct CowMap<V> {
    leaves: BTreeMap<u64, Arc<BTreeMap<u64, V>>>,
    len: usize,
}

impl<V> Default for CowMap<V> {
    fn default() -> Self {
        CowMap {
            leaves: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<V: Clone> CowMap<V> {
    fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let leaf = self.leaves.entry(key >> LEAF_SHIFT).or_default();
        let old = Arc::make_mut(leaf).insert(key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the entry at exactly `key`.
    fn remove(&mut self, key: u64) -> Option<V> {
        let span = key >> LEAF_SHIFT;
        let leaf = Arc::make_mut(self.leaves.get_mut(&span)?);
        let value = leaf.remove(&key)?;
        if leaf.is_empty() {
            self.leaves.remove(&span);
        }
        self.len -= 1;
        Some(value)
    }

    fn get(&self, key: u64) -> Option<&V> {
        self.leaves.get(&(key >> LEAF_SHIFT))?.get(&key)
    }

    /// The entry at exactly `key`, mutably, after copying its leaf if a
    /// clone still shares it.
    fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let leaf = self.leaves.get_mut(&(key >> LEAF_SHIFT))?;
        Arc::make_mut(leaf).get_mut(&key)
    }

    /// The entry at exactly `key`, mutably, inserted as `V::default()`
    /// if absent.
    fn get_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        let leaf = Arc::make_mut(self.leaves.entry(key >> LEAF_SHIFT).or_default());
        let len = &mut self.len;
        leaf.entry(key).or_insert_with(|| {
            *len += 1;
            V::default()
        })
    }

    /// The entry with the greatest key `<= key`.
    fn floor(&self, key: u64) -> Option<&V> {
        let mut leaves = self.leaves.range(..=key >> LEAF_SHIFT).rev();
        let (_, leaf) = leaves.next()?;
        match leaf.range(..=key).next_back() {
            Some((_, value)) => Some(value),
            // Every entry in this leaf is above `key`, and leaves are
            // never empty: the floor is the previous leaf's last.
            None => leaves.next()?.1.values().next_back(),
        }
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.leaves.values().flat_map(|leaf| leaf.values())
    }
}

/// Range-queryable table of tracked objects, keyed by outer address.
///
/// The table is copy-on-write, so a checkpoint shares it the way a forked
/// process shares its heap pages. Hot records sit inline in the leaves of
/// one [`CowMap`], so a leaf copy is one flat copy of small records; the
/// cold fields sit in a second `CowMap` under the same key, and a hot
/// flag says whether an object has an entry there, so the hot paths of an
/// untouched object never look.
///
/// There is no user-pointer index. A user pointer lies in
/// `[outer, outer + left padding]` of its own object, and object
/// footprints never overlap, so the owner of user pointer `u` is the
/// object with the greatest outer address `<= u`, if its user pointer is
/// `u`.
#[derive(Clone, Debug, Default)]
pub struct ObjectTable {
    hot: CowMap<ObjectRecord>,
    cold: CowMap<ColdInfo>,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable::default()
    }

    /// Tracks an object, replacing any record at the same outer address.
    /// The cold table gets an entry only if `cold` has a field set.
    pub(crate) fn insert(&mut self, mut rec: ObjectRecord, cold: ColdInfo) {
        let key = rec.outer.0;
        if cold.is_empty() {
            rec.flags &= !COLD;
            if self.hot.insert(key, rec).is_some_and(|old| old.has_cold()) {
                self.cold.remove(key);
            }
        } else {
            rec.flags |= COLD;
            self.hot.insert(key, rec);
            self.cold.insert(key, cold);
        }
    }

    /// Stops tracking the object at exactly `outer`, with its cold entry.
    pub(crate) fn remove(&mut self, outer: Addr) -> Option<ObjectRecord> {
        let rec = self.hot.remove(outer.0)?;
        if rec.has_cold() {
            self.cold.remove(outer.0);
        }
        Some(rec)
    }

    /// Marks the object at `outer` quarantined: freed at `freed_site`,
    /// its contents canary-filled if `canary`.
    pub(crate) fn quarantine(&mut self, outer: Addr, freed_site: CallSite, canary: bool) {
        let Some(rec) = self.hot.get_mut(outer.0) else {
            return;
        };
        rec.flags |= QUARANTINED | COLD;
        if canary {
            rec.flags |= FREE_CANARY;
        }
        self.cold.get_or_default(outer.0).freed_site = Some(freed_site);
    }

    /// Looks up the object owning the user pointer.
    pub fn get_by_user(&self, user: Addr) -> Option<&ObjectRecord> {
        self.hot.floor(user.0).filter(|rec| rec.user() == user)
    }

    /// Finds the tracked object whose footprint (padding included)
    /// contains `addr`.
    pub fn find_containing(&self, addr: Addr) -> Option<&ObjectRecord> {
        self.hot
            .floor(addr.0)
            .filter(|rec| addr.0 < rec.outer.0 + rec.outer_size())
    }

    /// The cold fields of a tracked object, if it has any set.
    pub fn cold(&self, rec: &ObjectRecord) -> Option<&ColdInfo> {
        if rec.has_cold() {
            self.cold.get(rec.outer.0)
        } else {
            None
        }
    }

    /// The initialized ranges of a tracked object, mutably, if they are
    /// tracked.
    pub(crate) fn written_mut(&mut self, rec: &ObjectRecord) -> Option<&mut IntervalSet> {
        if !rec.has_cold() {
            return None;
        }
        self.cold.get_mut(rec.outer.0)?.written.as_mut()
    }

    /// The liveness state of a tracked object.
    pub fn state(&self, rec: &ObjectRecord) -> ObjState {
        if !rec.is_quarantined() {
            return ObjState::Live;
        }
        ObjState::Quarantined {
            // `quarantine` records the site together with the flag.
            freed_site: self
                .cold(rec)
                .and_then(|c| c.freed_site)
                .unwrap_or_default(),
            canary: rec.flags & FREE_CANARY != 0,
        }
    }

    /// Iterates over all tracked objects in address order.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectRecord> {
        self.hot.values()
    }

    /// Returns the number of tracked objects (live + quarantined).
    pub fn len(&self) -> usize {
        self.hot.len
    }

    /// Returns `true` if no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.hot.len == 0
    }

    /// Returns the modeled metadata footprint (paper Table 6 input).
    pub fn meta_bytes(&self) -> u64 {
        self.len() as u64 * META_BYTES_PER_OBJECT
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    use super::*;

    const LEAF: u64 = 1 << LEAF_SHIFT;

    fn obj(outer: u64, pad: u64, size: u64, seq: u64) -> ObjectRecord {
        let rec = ObjectRecord::new(Addr(outer), size, CallSite::default(), seq);
        if pad > 0 {
            rec.padded(pad, false)
        } else {
            rec
        }
    }

    fn site(id: u64) -> CallSite {
        CallSite([id, 0, 0])
    }

    /// Tracks `rec` with no cold fields, and returns its user pointer.
    fn track(t: &mut ObjectTable, rec: ObjectRecord) -> Addr {
        t.insert(rec, ColdInfo::default());
        rec.user()
    }

    /// Looks up the owner of `user` and stops tracking it: the free path.
    fn free(t: &mut ObjectTable, user: Addr) -> Option<ObjectRecord> {
        let outer = t.get_by_user(user)?.outer;
        t.remove(outer)
    }

    #[test]
    fn hot_record_fits_a_cache_line() {
        assert!(std::mem::size_of::<ObjectRecord>() <= 64);
    }

    #[test]
    fn user_lookup() {
        let mut t = ObjectTable::new();
        let user = track(&mut t, obj(0x1000, 0, 64, 1));
        assert!(t.get_by_user(user).is_some());
        assert!(t.get_by_user(Addr(0x1001)).is_none());
        assert_eq!(free(&mut t, user).unwrap().seq, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn containing_lookup_with_padding() {
        let mut t = ObjectTable::new();
        track(&mut t, obj(0x1000, 16, 64, 1));
        // Left padding.
        let o = t.find_containing(Addr(0x1008)).unwrap();
        assert!(o.in_padding(Addr(0x1008)));
        // User area.
        let o = t.find_containing(Addr(0x1010)).unwrap();
        assert!(o.in_user(Addr(0x1010)));
        assert_eq!(Addr(0x1014) - o.user(), 4);
        // Right padding: user ends at 0x1050.
        let o = t.find_containing(Addr(0x1055)).unwrap();
        assert!(o.in_padding(Addr(0x1055)));
        // Past the object.
        assert!(t.find_containing(Addr(0x1000 + 96)).is_none());
        assert!(t.find_containing(Addr(0x500)).is_none());
    }

    #[test]
    fn adjacent_objects_resolve_correctly() {
        let mut t = ObjectTable::new();
        track(&mut t, obj(0x1000, 0, 64, 1));
        track(&mut t, obj(0x1040, 0, 64, 2));
        assert_eq!(t.find_containing(Addr(0x103f)).unwrap().seq, 1);
        assert_eq!(t.find_containing(Addr(0x1040)).unwrap().seq, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.meta_bytes(), 32);
    }

    #[test]
    fn records_hold_their_flags() {
        let rec = obj(0x1000, 0, 64, 1);
        assert_eq!(
            (rec.pad(), rec.pad_canary(), rec.fill()),
            (None, false, Fill::None)
        );
        let rec = rec.padded(0, true).filled(Fill::Canary);
        assert_eq!(
            (rec.pad(), rec.pad_canary(), rec.fill()),
            (Some(0), true, Fill::Canary)
        );
        assert!(
            !rec.in_padding(Addr(0x1000)),
            "zero-width padding holds no byte"
        );
        let mut t = ObjectTable::new();
        track(&mut t, rec);
        assert_eq!(t.state(&rec), ObjState::Live);
        t.quarantine(rec.outer, site(7), true);
        let back = *t.get_by_user(rec.user()).unwrap();
        assert!(back.is_quarantined());
        let state = ObjState::Quarantined {
            freed_site: site(7),
            canary: true,
        };
        assert_eq!(t.state(&back), state);
        assert_eq!(
            back.fill(),
            Fill::Canary,
            "quarantine keeps the other flags"
        );
    }

    #[test]
    fn a_write_after_a_clone_copies_only_its_leaf() {
        let mut t = ObjectTable::new();
        for i in 0..8 {
            track(&mut t, obj(i * LEAF + 0x100, 0, 64, i));
        }
        let snap = t.clone();
        t.quarantine(Addr(3 * LEAF + 0x100), site(1), false);
        assert_eq!(t.hot.leaves.len(), 8);
        for (key, leaf) in &t.hot.leaves {
            assert_eq!(
                Arc::ptr_eq(leaf, &snap.hot.leaves[key]),
                *key != 3,
                "leaf {key}"
            );
        }
        let before = snap.get_by_user(Addr(3 * LEAF + 0x100)).unwrap();
        assert_eq!(snap.state(before), ObjState::Live);
        assert!(snap.cold(before).is_none() && snap.cold.leaves.is_empty());
        // Lookups never copy a leaf.
        assert!(t.find_containing(Addr(5 * LEAF + 0x80)).is_none());
        assert!(t.get_by_user(Addr(5 * LEAF + 0x100)).is_some());
        assert!(Arc::ptr_eq(&t.hot.leaves[&5], &snap.hot.leaves[&5]));
    }

    #[test]
    fn floor_lookups_cross_leaves_and_empty_leaves_go() {
        let mut t = ObjectTable::new();
        // Starts in leaf 0 and ends at 3 * LEAF + 0x60, inside leaf 3.
        track(&mut t, obj(LEAF - 0x40, 16, 2 * LEAF + 0x80, 1));
        track(&mut t, obj(3 * LEAF + 0x100, 0, 0, 2));
        assert_eq!(t.hot.leaves.len(), 2);
        assert_eq!(t.find_containing(Addr(2 * LEAF + 5)).unwrap().seq, 1);
        // Leaf 3's only object starts above the address, so the floor is
        // leaf 0's last object.
        assert_eq!(t.find_containing(Addr(3 * LEAF + 0x10)).unwrap().seq, 1);
        assert!(t.find_containing(Addr(3 * LEAF + 0x60)).is_none());
        assert!(t.get_by_user(Addr(3 * LEAF + 0x10)).is_none());
        // A zero-size object owns its user pointer but contains nothing.
        assert_eq!(t.get_by_user(Addr(3 * LEAF + 0x100)).unwrap().seq, 2);
        assert!(t.find_containing(Addr(3 * LEAF + 0x100)).is_none());
        assert_eq!(free(&mut t, Addr(3 * LEAF + 0x100)).unwrap().seq, 2);
        assert_eq!(t.hot.leaves.len(), 1);
        assert!(
            free(&mut t, Addr(LEAF - 0x40)).is_none(),
            "outer is not user"
        );
        assert_eq!(free(&mut t, Addr(LEAF - 0x30)).unwrap().seq, 1);
        assert!(t.hot.leaves.is_empty() && t.is_empty());
    }

    /// One object of the reference model: its hot record and its cold
    /// fields, empty or not.
    type Entry = (ObjectRecord, ColdInfo);

    /// The reference semantics: a flat map by outer address, searched
    /// linearly, with every object's cold fields stored beside it.
    #[derive(Clone, Default)]
    struct Oracle(BTreeMap<u64, Entry>);

    impl Oracle {
        /// The outer address of the object that owns user pointer `user`.
        fn by_user(&self, user: Addr) -> Option<u64> {
            let (o, _) = self.0.values().find(|(o, _)| o.user() == user)?;
            Some(o.outer.0)
        }

        /// The outer address of the object whose footprint holds `addr`.
        fn containing(&self, addr: Addr) -> Option<u64> {
            let (o, _) = self
                .0
                .values()
                .find(|(o, _)| o.outer <= addr && addr.0 < o.outer.0 + o.outer_size())?;
            Some(o.outer.0)
        }

        fn get(&self, outer: Option<u64>) -> Option<&ObjectRecord> {
            self.0.get(&outer?).map(|(o, _)| o)
        }

        /// Whether `[lo, hi)` misses every footprint. A zero-size
        /// footprint still takes a byte, as a heap chunk would.
        fn is_clear(&self, lo: u64, hi: u64) -> bool {
            self.0
                .values()
                .all(|(o, _)| hi <= o.outer.0 || o.outer.0 + o.outer_size().max(1) <= lo)
        }

        /// One probe: the user pointer or an edge of a tracked object,
        /// or any address.
        fn probe(&self, rng: &mut SmallRng) -> Addr {
            if self.0.is_empty() || rng.random_ratio(1, 4) {
                return random_addr(rng);
            }
            let o = self.0.values().nth(rng.random_range(0..self.0.len()));
            let (o, _) = o.expect("index below len");
            if rng.random_bool(0.5) {
                o.user()
            } else {
                edges(o)[rng.random_range(0..8usize)]
            }
        }

        /// Every tracked object's edges, plus a few random addresses.
        fn probes(&self, rng: &mut SmallRng) -> Vec<Addr> {
            let mut out: Vec<Addr> = (0..16).map(|_| random_addr(rng)).collect();
            out.extend(self.0.values().flat_map(|(o, _)| edges(o)));
            out
        }
    }

    /// Addresses worth probing around `o`: its edges, padding, user
    /// pointer and interior, and the gaps next to it.
    fn edges(o: &ObjectRecord) -> [Addr; 8] {
        let (outer, user, end) = (o.outer.0, o.user().0, o.outer.0 + o.outer_size());
        [
            outer - 1,
            outer,
            outer + 1,
            user,
            user + o.size / 2,
            user + o.size,
            end - 1,
            end,
        ]
        .map(Addr)
    }

    const BASE: u64 = 0x1000_0000;
    const SPAN: u64 = 16 * LEAF;

    fn random_addr(rng: &mut SmallRng) -> Addr {
        Addr(BASE + rng.random_range(0..SPAN))
    }

    /// A random object that does not overlap any in `oracle`: padded or
    /// not, zero-size, small, or wider than one leaf. One in eight
    /// instead reuses a tracked object's outer address, padding and at
    /// most its size, and so replaces it, as a recycled sentry slot
    /// does. Either way it gets the cold fields a malloc may set.
    fn random_object(rng: &mut SmallRng, oracle: &Oracle, seq: u64) -> Option<Entry> {
        let cold = ColdInfo {
            freed_site: None,
            written: rng.random_ratio(1, 3).then(IntervalSet::new),
            sentried: rng.random_ratio(1, 4).then(|| rng.random_range(0..64usize)),
        };
        if !oracle.0.is_empty() && rng.random_ratio(1, 8) {
            let old = oracle.0.values().nth(rng.random_range(0..oracle.0.len()));
            let (old, _) = old.expect("index below len");
            let size = rng.random_range(0..=old.size);
            return Some((obj(old.outer.0, old.pad().unwrap_or(0), size, seq), cold));
        }
        let size = match rng.random_range(0..8u32) {
            0 => 0,
            1..=4 => rng.random_range(1..512u64),
            5 | 6 => rng.random_range(512..8192u64),
            _ => rng.random_range(LEAF..3 * LEAF),
        };
        let pad = [0, 0, 16, 508][rng.random_range(0..4usize)];
        let outer = BASE + rng.random_range(0..SPAN / 16) * 16;
        let o = obj(outer, pad, size, seq);
        oracle
            .is_clear(outer, outer + o.outer_size().max(1))
            .then_some((o, cold))
    }

    fn assert_probe(t: &ObjectTable, oracle: &Oracle, a: Addr) {
        let by_user = oracle.get(oracle.by_user(a));
        assert_eq!(t.get_by_user(a), by_user, "get_by_user({a:?})");
        let containing = oracle.get(oracle.containing(a));
        assert_eq!(t.find_containing(a), containing, "find_containing({a:?})");
    }

    fn assert_matches(t: &ObjectTable, oracle: &Oracle, probes: &[Addr]) {
        assert_eq!(t.len(), oracle.0.len());
        let hot = oracle.0.values().map(|(o, _)| o);
        assert!(t.iter().eq(hot), "iter() order or contents");
        assert!(t.hot.leaves.values().all(|leaf| !leaf.is_empty()));
        assert!(t.cold.leaves.values().all(|leaf| !leaf.is_empty()));
        // Every object reads back its own cold fields and state, and the
        // cold table holds exactly the objects with a field set.
        for (o, cold) in oracle.0.values() {
            let rec = t.get_by_user(o.user()).expect("tracked");
            let expected = (!cold.is_empty()).then_some(cold);
            assert_eq!(t.cold(rec), expected, "cold fields of {:?}", o.outer);
            let state = match cold.freed_site {
                Some(freed_site) => ObjState::Quarantined {
                    freed_site,
                    canary: o.flags & FREE_CANARY != 0,
                },
                None => ObjState::Live,
            };
            assert_eq!(t.state(rec), state, "state of {:?}", o.outer);
        }
        let with_cold = oracle.0.values().filter(|(_, c)| !c.is_empty()).count();
        assert_eq!(t.cold.len, with_cold, "cold entries");
        assert!(t.cold.values().count() == with_cold);
        for &a in probes {
            assert_probe(t, oracle, a);
        }
    }

    #[test]
    fn random_ops_and_clones_match_a_flat_map() {
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = ObjectTable::new();
            let mut oracle = Oracle::default();
            let mut clones: Vec<(ObjectTable, Oracle)> = Vec::new();
            for step in 0..2_000u64 {
                let a = oracle.probe(&mut rng);
                match rng.random_range(0..20u32) {
                    0..=6 => {
                        if let Some((o, cold)) = random_object(&mut rng, &oracle, step) {
                            t.insert(o, cold.clone());
                            let flag = if cold.is_empty() { 0 } else { COLD };
                            let o = ObjectRecord {
                                flags: o.flags | flag,
                                ..o
                            };
                            oracle.0.insert(o.outer.0, (o, cold));
                        }
                    }
                    7..=11 => {
                        // Remove clears every cold field with the object.
                        let removed = oracle.by_user(a).and_then(|k| oracle.0.remove(&k));
                        assert_eq!(free(&mut t, a), removed.map(|(o, _)| o));
                    }
                    12..=15 => {
                        // Quarantine sets the free site, creating a cold
                        // entry where there was none.
                        let canary = rng.random_bool(0.5);
                        let freed_site = site(step);
                        if let Some((o, cold)) =
                            oracle.by_user(a).and_then(|k| oracle.0.get_mut(&k))
                        {
                            o.flags |= QUARANTINED | COLD | if canary { FREE_CANARY } else { 0 };
                            cold.freed_site = Some(freed_site);
                            t.quarantine(o.outer, freed_site, canary);
                        } else {
                            assert!(t.get_by_user(a).is_none());
                        }
                    }
                    _ => {
                        // An observed store: grows the initialized ranges
                        // of a tracked object only.
                        let found = t.find_containing(a).copied();
                        assert_eq!(found.map(|o| o.outer.0), oracle.containing(a));
                        if let Some(rec) = found {
                            let off = a.0 - rec.outer.0;
                            let (_, cold) = oracle.0.get_mut(&rec.outer.0).expect("containing");
                            if let Some(w) = cold.written.as_mut() {
                                w.insert(off, off + 1);
                            }
                            if let Some(w) = t.written_mut(&rec) {
                                w.insert(off, off + 1);
                            }
                        }
                    }
                }
                assert_probe(&t, &oracle, a);
                if rng.random_ratio(1, 100) {
                    clones.push((t.clone(), oracle.clone()));
                }
                if step % 250 == 0 {
                    assert_matches(&t, &oracle, &oracle.probes(&mut rng));
                }
            }
            assert_matches(&t, &oracle, &oracle.probes(&mut rng));
            // Every clone still holds the state it was taken in, cold
            // fields included.
            for (snap, at_clone) in &clones {
                assert_matches(snap, at_clone, &at_clone.probes(&mut rng));
            }
        }
    }
}
