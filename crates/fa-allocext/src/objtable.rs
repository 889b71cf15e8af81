//! The per-object metadata table.
//!
//! The extension "adds 16 bytes of meta data for each memory object"
//! (paper §7.6.2). This table is that metadata: for every live or
//! delay-freed object it records size, allocation call-site, applied
//! changes, and (when needed) initialized ranges. It supports range lookup
//! so every application load/store can be classified in O(log n).
//!
//! In the paper that metadata lives in the process image, so a fork-style
//! checkpoint shares it copy-on-write with everything else. The table
//! does the same on the host side: a clone shares every leaf and costs
//! O(leaves), and the first write to a leaf after a checkpoint copies that
//! leaf alone. A checkpoint therefore pays for the metadata written since
//! the last one, not for the whole live set.

use std::collections::BTreeMap;
use std::sync::Arc;

use fa_mem::Addr;
use fa_proc::CallSite;

use crate::intervals::IntervalSet;

/// Modeled metadata footprint per object, in bytes (paper §7.6.2).
pub const META_BYTES_PER_OBJECT: u64 = 16;

/// Padding applied around an object by the overflow change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PadInfo {
    /// Bytes of padding before the user area.
    pub left: u64,
    /// Bytes of padding after the user area.
    pub right: u64,
    /// The padding is canary-filled (exposing form).
    pub canary: bool,
}

/// Whether an object is live or sitting in the delay-free quarantine.
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// Metadata for one tracked object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectInfo {
    /// User pointer handed to the application.
    pub user: Addr,
    /// Object size as requested by the application.
    pub size: u64,
    /// Outer pointer actually obtained from the heap (differs from `user`
    /// when left padding was applied).
    pub outer: Addr,
    /// Total heap footprint (user size + padding).
    pub outer_size: u64,
    /// Allocation call-site.
    pub alloc_site: CallSite,
    /// Monotonic allocation sequence number.
    pub seq: u64,
    /// Applied padding, if any.
    pub pad: Option<PadInfo>,
    /// The object was zero-filled at allocation.
    pub zero_filled: bool,
    /// The object was canary-filled at allocation (uninit exposing form).
    pub canary_filled: bool,
    /// Liveness state.
    pub state: ObjState,
    /// Initialized (written) byte ranges, tracked when an uninit-read
    /// change or tracing is active.
    pub written: Option<IntervalSet>,
    /// The index of the guarded sentry slot this object was redirected
    /// into, when it was sampled by the sentry tier.
    pub sentried: Option<usize>,
}

impl ObjectInfo {
    /// Returns `true` if `addr` lies within the user area.
    pub fn in_user(&self, addr: Addr) -> bool {
        addr >= self.user && addr.0 < self.user.0 + self.size
    }

    /// Returns `true` if `addr` lies within the padding (either side).
    pub fn in_padding(&self, addr: Addr) -> bool {
        if self.pad.is_none() {
            return false;
        }
        addr >= self.outer && addr.0 < self.outer.0 + self.outer_size && !self.in_user(addr)
    }

    /// Returns the offset of `addr` within the user area, if inside.
    pub fn user_offset(&self, addr: Addr) -> Option<u64> {
        self.in_user(addr).then(|| addr - self.user)
    }
}

/// log2 of the address span one leaf of an [`ObjectTable`] covers
/// (64 KiB). Smaller leaves make a clone copy a longer directory; larger
/// ones make the first write after a checkpoint copy more objects.
const LEAF_SHIFT: u32 = 16;

/// The objects whose outer address falls in one leaf span, by outer
/// address.
type Leaf = BTreeMap<u64, ObjectInfo>;

/// Range-queryable table of tracked objects, keyed by outer address.
///
/// The table is copy-on-write, so a checkpoint shares it the way a forked
/// process shares its heap pages. Objects live in leaves, one per
/// `LEAF_SHIFT`-aligned span of outer addresses, and each leaf sits behind
/// an `Arc`. A clone copies the leaf directory only: O(leaves), not
/// O(objects). The first write to a leaf that a clone still shares copies
/// that leaf alone (`Arc::make_mut`). Leaves are never empty, so a floor
/// lookup visits at most two of them.
///
/// There is no user-pointer index. A user pointer lies in
/// `[outer, outer + left padding]` of its own object, and object
/// footprints never overlap, so the owner of user pointer `u` is the
/// object with the greatest outer address `<= u`, if its user pointer is
/// `u`.
#[derive(Clone, Debug, Default)]
pub struct ObjectTable {
    leaves: BTreeMap<u64, Arc<Leaf>>,
    len: usize,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable::default()
    }

    /// Inserts a tracked object.
    pub fn insert(&mut self, info: ObjectInfo) {
        let leaf = self.leaves.entry(info.outer.0 >> LEAF_SHIFT).or_default();
        if Arc::make_mut(leaf).insert(info.outer.0, info).is_none() {
            self.len += 1;
        }
    }

    /// Removes the object with the given user pointer.
    pub fn remove_by_user(&mut self, user: Addr) -> Option<ObjectInfo> {
        let outer = self.get_by_user(user)?.outer.0;
        let key = outer >> LEAF_SHIFT;
        let leaf = Arc::make_mut(self.leaves.get_mut(&key)?);
        let info = leaf.remove(&outer)?;
        if leaf.is_empty() {
            self.leaves.remove(&key);
        }
        self.len -= 1;
        Some(info)
    }

    /// Looks up the object owning the user pointer.
    pub fn get_by_user(&self, user: Addr) -> Option<&ObjectInfo> {
        self.floor(user.0).filter(|info| info.user == user)
    }

    /// Looks up the object owning the user pointer, mutably.
    pub fn get_by_user_mut(&mut self, user: Addr) -> Option<&mut ObjectInfo> {
        let outer = self.get_by_user(user)?.outer;
        self.get_mut(outer)
    }

    /// Finds the tracked object whose footprint (padding included)
    /// contains `addr`.
    pub fn find_containing(&self, addr: Addr) -> Option<&ObjectInfo> {
        self.floor(addr.0)
            .filter(|info| addr.0 < info.outer.0 + info.outer_size)
    }

    /// Finds the containing object mutably.
    pub fn find_containing_mut(&mut self, addr: Addr) -> Option<&mut ObjectInfo> {
        let outer = self.find_containing(addr)?.outer;
        self.get_mut(outer)
    }

    /// Iterates over all tracked objects in address order.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectInfo> {
        self.leaves.values().flat_map(|leaf| leaf.values())
    }

    /// Returns the number of tracked objects (live + quarantined).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the modeled metadata footprint (paper Table 6 input).
    pub fn meta_bytes(&self) -> u64 {
        self.len() as u64 * META_BYTES_PER_OBJECT
    }

    /// The object with the greatest outer address `<= addr`.
    fn floor(&self, addr: u64) -> Option<&ObjectInfo> {
        let mut leaves = self.leaves.range(..=addr >> LEAF_SHIFT).rev();
        let (_, leaf) = leaves.next()?;
        match leaf.range(..=addr).next_back() {
            Some((_, info)) => Some(info),
            // Every object in this leaf starts above `addr`, and leaves
            // are never empty: the floor is the previous leaf's last.
            None => leaves.next()?.1.values().next_back(),
        }
    }

    /// The object at `outer`, mutably, after copying its leaf if a clone
    /// still shares it.
    fn get_mut(&mut self, outer: Addr) -> Option<&mut ObjectInfo> {
        let leaf = self.leaves.get_mut(&(outer.0 >> LEAF_SHIFT))?;
        Arc::make_mut(leaf).get_mut(&outer.0)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    use super::*;

    const LEAF: u64 = 1 << LEAF_SHIFT;

    fn obj(outer: u64, left: u64, size: u64, right: u64, seq: u64) -> ObjectInfo {
        ObjectInfo {
            user: Addr(outer + left),
            size,
            outer: Addr(outer),
            outer_size: left + size + right,
            alloc_site: CallSite::default(),
            seq,
            pad: (left + right > 0).then_some(PadInfo {
                left,
                right,
                canary: false,
            }),
            zero_filled: false,
            canary_filled: false,
            state: ObjState::Live,
            written: None,
            sentried: None,
        }
    }

    #[test]
    fn user_lookup() {
        let mut t = ObjectTable::new();
        t.insert(obj(0x1000, 0, 64, 0, 1));
        assert!(t.get_by_user(Addr(0x1000)).is_some());
        assert!(t.get_by_user(Addr(0x1001)).is_none());
        let removed = t.remove_by_user(Addr(0x1000)).unwrap();
        assert_eq!(removed.seq, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn containing_lookup_with_padding() {
        let mut t = ObjectTable::new();
        t.insert(obj(0x1000, 16, 64, 16, 1));
        // Left padding.
        let o = t.find_containing(Addr(0x1008)).unwrap();
        assert!(o.in_padding(Addr(0x1008)));
        // User area.
        let o = t.find_containing(Addr(0x1010)).unwrap();
        assert!(o.in_user(Addr(0x1010)));
        assert_eq!(o.user_offset(Addr(0x1014)), Some(4));
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
        t.insert(obj(0x1000, 0, 64, 0, 1));
        t.insert(obj(0x1040, 0, 64, 0, 2));
        assert_eq!(t.find_containing(Addr(0x103f)).unwrap().seq, 1);
        assert_eq!(t.find_containing(Addr(0x1040)).unwrap().seq, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.meta_bytes(), 32);
    }

    #[test]
    fn a_write_after_a_clone_copies_only_its_leaf() {
        let mut t = ObjectTable::new();
        for i in 0..8 {
            t.insert(obj(i * LEAF + 0x100, 0, 64, 0, i));
        }
        let snap = t.clone();
        t.get_by_user_mut(Addr(3 * LEAF + 0x100)).unwrap().seq = 99;
        assert_eq!(t.leaves.len(), 8);
        for (key, leaf) in &t.leaves {
            assert_eq!(
                Arc::ptr_eq(leaf, &snap.leaves[key]),
                *key != 3,
                "leaf {key}"
            );
        }
        assert_eq!(snap.get_by_user(Addr(3 * LEAF + 0x100)).unwrap().seq, 3);
        // A miss never copies a leaf.
        assert!(t.find_containing_mut(Addr(5 * LEAF + 0x80)).is_none());
        assert!(Arc::ptr_eq(&t.leaves[&5], &snap.leaves[&5]));
    }

    #[test]
    fn floor_lookups_cross_leaves_and_empty_leaves_go() {
        let mut t = ObjectTable::new();
        // Starts in leaf 0 and ends at 3 * LEAF + 0x60, inside leaf 3.
        t.insert(obj(LEAF - 0x40, 16, 2 * LEAF + 0x80, 16, 1));
        t.insert(obj(3 * LEAF + 0x100, 0, 0, 0, 2));
        assert_eq!(t.leaves.len(), 2);
        assert_eq!(t.find_containing(Addr(2 * LEAF + 5)).unwrap().seq, 1);
        // Leaf 3's only object starts above the address, so the floor is
        // leaf 0's last object.
        assert_eq!(t.find_containing(Addr(3 * LEAF + 0x10)).unwrap().seq, 1);
        assert!(t.find_containing(Addr(3 * LEAF + 0x60)).is_none());
        assert!(t.get_by_user(Addr(3 * LEAF + 0x10)).is_none());
        // A zero-size object owns its user pointer but contains nothing.
        assert_eq!(t.get_by_user(Addr(3 * LEAF + 0x100)).unwrap().seq, 2);
        assert!(t.find_containing(Addr(3 * LEAF + 0x100)).is_none());
        assert_eq!(t.remove_by_user(Addr(3 * LEAF + 0x100)).unwrap().seq, 2);
        assert_eq!(t.leaves.len(), 1);
        assert!(
            t.remove_by_user(Addr(LEAF - 0x40)).is_none(),
            "outer is not user"
        );
        assert_eq!(t.remove_by_user(Addr(LEAF - 0x30)).unwrap().seq, 1);
        assert!(t.leaves.is_empty() && t.is_empty());
    }

    /// The reference semantics: a flat map by outer address, searched
    /// linearly.
    #[derive(Clone, Default)]
    struct Oracle(BTreeMap<u64, ObjectInfo>);

    impl Oracle {
        /// The outer address of the object that owns user pointer `user`.
        fn by_user(&self, user: Addr) -> Option<u64> {
            let o = self.0.values().find(|o| o.user == user)?;
            Some(o.outer.0)
        }

        /// The outer address of the object whose footprint holds `addr`.
        fn containing(&self, addr: Addr) -> Option<u64> {
            let o = self
                .0
                .values()
                .find(|o| o.outer <= addr && addr.0 < o.outer.0 + o.outer_size)?;
            Some(o.outer.0)
        }

        fn get(&self, outer: Option<u64>) -> Option<&ObjectInfo> {
            self.0.get(&outer?)
        }

        fn get_mut(&mut self, outer: Option<u64>) -> Option<&mut ObjectInfo> {
            self.0.get_mut(&outer?)
        }

        /// Whether `[lo, hi)` misses every footprint. A zero-size
        /// footprint still takes a byte, as a heap chunk would.
        fn is_clear(&self, lo: u64, hi: u64) -> bool {
            self.0
                .values()
                .all(|o| hi <= o.outer.0 || o.outer.0 + o.outer_size.max(1) <= lo)
        }

        /// One probe: the user pointer or an edge of a tracked object,
        /// or any address.
        fn probe(&self, rng: &mut SmallRng) -> Addr {
            if self.0.is_empty() || rng.random_ratio(1, 4) {
                return random_addr(rng);
            }
            let o = self.0.values().nth(rng.random_range(0..self.0.len()));
            let o = o.expect("index below len");
            if rng.random_bool(0.5) {
                o.user
            } else {
                edges(o)[rng.random_range(0..8usize)]
            }
        }

        /// Every tracked object's edges, plus a few random addresses.
        fn probes(&self, rng: &mut SmallRng) -> Vec<Addr> {
            let mut out: Vec<Addr> = (0..16).map(|_| random_addr(rng)).collect();
            out.extend(self.0.values().flat_map(edges));
            out
        }
    }

    /// Addresses worth probing around `o`: its edges, padding, user
    /// pointer and interior, and the gaps next to it.
    fn edges(o: &ObjectInfo) -> [Addr; 8] {
        let (outer, user, end) = (o.outer.0, o.user.0, o.outer.0 + o.outer_size);
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
    /// not, zero-size, small, or wider than one leaf.
    fn random_object(rng: &mut SmallRng, oracle: &Oracle, seq: u64) -> Option<ObjectInfo> {
        let size = match rng.random_range(0..8u32) {
            0 => 0,
            1..=4 => rng.random_range(1..512u64),
            5 | 6 => rng.random_range(512..8192u64),
            _ => rng.random_range(LEAF..3 * LEAF),
        };
        let pad = [0, 0, 16, 508][rng.random_range(0..4usize)];
        let outer = BASE + rng.random_range(0..SPAN / 16) * 16;
        let o = obj(outer, pad, size, pad, seq);
        oracle
            .is_clear(outer, outer + o.outer_size.max(1))
            .then_some(o)
    }

    fn assert_probe(t: &ObjectTable, oracle: &Oracle, a: Addr) {
        let by_user = oracle.get(oracle.by_user(a));
        assert_eq!(t.get_by_user(a), by_user, "get_by_user({a:?})");
        let containing = oracle.get(oracle.containing(a));
        assert_eq!(t.find_containing(a), containing, "find_containing({a:?})");
    }

    fn assert_matches(t: &ObjectTable, oracle: &Oracle, probes: &[Addr]) {
        assert_eq!(t.len(), oracle.0.len());
        assert!(t.iter().eq(oracle.0.values()), "iter() order or contents");
        assert!(t.leaves.values().all(|leaf| !leaf.is_empty()));
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
                        if let Some(o) = random_object(&mut rng, &oracle, step) {
                            oracle.0.insert(o.outer.0, o.clone());
                            t.insert(o);
                        }
                    }
                    7..=12 => {
                        let removed = oracle.by_user(a).and_then(|k| oracle.0.remove(&k));
                        assert_eq!(t.remove_by_user(a), removed);
                    }
                    13..=15 => {
                        let bump = |o: &mut ObjectInfo| {
                            o.seq += 1_000_000;
                            o.clone()
                        };
                        let expected = oracle.get_mut(oracle.by_user(a)).map(bump);
                        assert_eq!(t.get_by_user_mut(a).map(bump), expected);
                    }
                    _ => {
                        let write = |o: &mut ObjectInfo| {
                            let off = a.0 - o.outer.0;
                            let w = o.written.get_or_insert_with(IntervalSet::new);
                            w.insert(off, off + 1);
                            o.clone()
                        };
                        let expected = oracle.get_mut(oracle.containing(a)).map(write);
                        assert_eq!(t.find_containing_mut(a).map(write), expected);
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
            // Every clone still holds the state it was taken in.
            for (snap, at_clone) in &clones {
                assert_matches(snap, at_clone, &at_clone.probes(&mut rng));
            }
        }
    }
}
