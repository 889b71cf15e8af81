//! Multi-level page table.
//!
//! A 3-level radix tree (rustos-style; see SNIPPETS.md snippets 2–3 for the
//! vendored excerpts this follows) translating 27-bit page numbers to
//! [`PageEntry`]s: frame reference + per-page [`Perms`]. Every node is
//! `Arc`-shared, so the whole table is a persistent data structure:
//!
//! * **snapshot** is an `Arc` clone of the root — O(1);
//! * **restore** swaps the root back — O(1);
//! * a store after a snapshot path-copies root → mid → leaf via
//!   `Arc::make_mut` and replicates only the written frame — the
//!   fork-based copy-on-write cost model of the paper's Flashback
//!   substrate, now paid per *dirty* page instead of per resident page.
//!
//! Layout: 9 bits per level (512-way fanout), 12-bit page offset, for a
//! 39-bit simulated virtual address space (512 GiB).

use std::sync::Arc;

use crate::page::SharedPage;
use crate::perm::Perms;

/// Bits of page-number index consumed per level.
pub(crate) const LEVEL_BITS: u32 = 9;
/// Children per node.
pub(crate) const FANOUT: usize = 1 << LEVEL_BITS;
/// Bits of a page number (3 levels × 9 bits).
pub(crate) const PAGE_INDEX_BITS: u32 = 3 * LEVEL_BITS;
/// Number of addressable pages.
pub(crate) const MAX_PAGES: u64 = 1 << PAGE_INDEX_BITS;
/// Bits of a simulated virtual address (page index + 12-bit offset).
pub const VA_BITS: u32 = PAGE_INDEX_BITS + 12;
/// One past the highest mappable address: 512 GiB.
pub const VA_LIMIT: u64 = 1 << VA_BITS;

/// Splits a page number into (root, mid, leaf) slot indices.
#[inline]
pub(crate) fn indices(pageno: u64) -> (usize, usize, usize) {
    debug_assert!(pageno < MAX_PAGES);
    (
        ((pageno >> (2 * LEVEL_BITS)) & (FANOUT as u64 - 1)) as usize,
        ((pageno >> LEVEL_BITS) & (FANOUT as u64 - 1)) as usize,
        (pageno & (FANOUT as u64 - 1)) as usize,
    )
}

/// One page-table entry: optional backing frame plus permission bits.
///
/// A *vacant* entry (no frame, [`Perms::RW`]) is indistinguishable from the
/// page having no entry at all — mapped pages default to read-write and
/// materialize a zero frame on first store. Entries are kept only while
/// they carry information: a frame, or non-default permissions.
#[derive(Clone)]
pub(crate) struct PageEntry {
    /// Backing frame; `None` until the first store (reads observe zeros).
    pub frame: Option<SharedPage>,
    /// Stored permission bits ([`Perms::COW`] is never stored).
    pub perms: Perms,
}

impl PageEntry {
    pub(crate) const fn vacant() -> Self {
        PageEntry {
            frame: None,
            perms: Perms::RW,
        }
    }

    /// True if the entry carries no information beyond the mapped default.
    #[inline]
    pub(crate) fn is_vacant(&self) -> bool {
        self.frame.is_none() && self.perms == Perms::RW
    }
}

/// Bottom-level node: 512 page entries.
pub(crate) struct Leaf {
    pub entries: Box<[PageEntry; FANOUT]>,
}

impl Leaf {
    pub(crate) fn new() -> Self {
        Leaf {
            entries: Box::new(std::array::from_fn(|_| PageEntry::vacant())),
        }
    }

    /// Number of entries with a backing frame.
    pub(crate) fn frames(&self) -> usize {
        self.entries.iter().filter(|e| e.frame.is_some()).count()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.iter().all(PageEntry::is_vacant)
    }
}

impl Clone for Leaf {
    fn clone(&self) -> Self {
        Leaf {
            entries: self.entries.clone(),
        }
    }
}

/// Middle-level node: 512 optional leaves.
pub(crate) struct Mid {
    pub children: Box<[Option<Arc<Leaf>>; FANOUT]>,
}

impl Mid {
    pub(crate) fn new() -> Self {
        Mid {
            children: Box::new(std::array::from_fn(|_| None)),
        }
    }

    pub(crate) fn frames(&self) -> usize {
        self.children
            .iter()
            .flatten()
            .map(|leaf| leaf.frames())
            .sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.children.iter().all(Option::is_none)
    }
}

impl Clone for Mid {
    fn clone(&self) -> Self {
        Mid {
            children: self.children.clone(),
        }
    }
}

/// Top-level node: 512 optional mid-level tables.
pub(crate) struct Root {
    pub children: Box<[Option<Arc<Mid>>; FANOUT]>,
}

impl Root {
    pub(crate) fn new() -> Self {
        Root {
            children: Box::new(std::array::from_fn(|_| None)),
        }
    }
}

impl Clone for Root {
    fn clone(&self) -> Self {
        Root {
            children: self.children.clone(),
        }
    }
}

/// Read-only walk to a non-vacant entry.
#[inline]
pub(crate) fn walk(root: &Root, pageno: u64) -> Option<&PageEntry> {
    let (i2, i1, i0) = indices(pageno);
    let mid = root.children[i2].as_deref()?;
    let leaf = mid.children[i1].as_deref()?;
    let entry = &leaf.entries[i0];
    if entry.is_vacant() {
        None
    } else {
        Some(entry)
    }
}

/// Mutable walk, path-copying shared nodes and materializing missing ones.
///
/// Returns the entry; the caller is responsible for keeping the vacancy
/// invariant (an entry left vacant is harmless but wastes the node).
pub(crate) fn walk_mut(root: &mut Arc<Root>, pageno: u64) -> &mut PageEntry {
    let (i2, i1, i0) = indices(pageno);
    let root = Arc::make_mut(root);
    let mid = root.children[i2].get_or_insert_with(|| Arc::new(Mid::new()));
    let mid = Arc::make_mut(mid);
    let leaf = mid.children[i1].get_or_insert_with(|| Arc::new(Leaf::new()));
    let leaf = Arc::make_mut(leaf);
    &mut leaf.entries[i0]
}

/// Returns `true` if any node on the path to `pageno`, or the entry's
/// frame itself, is `Arc`-shared — i.e. a store to the page would
/// replicate state (the dynamic [`Perms::COW`] condition).
///
/// The root's own sharing is passed in by the caller ([`crate::SimMemory`]
/// holds the root behind an `Arc` whose count reflects live snapshots).
pub(crate) fn path_shared(root: &Arc<Root>, pageno: u64) -> Option<bool> {
    let (i2, i1, i0) = indices(pageno);
    let mut shared = Arc::strong_count(root) > 1;
    let mid = root.children[i2].as_ref()?;
    shared |= Arc::strong_count(mid) > 1;
    let leaf = mid.children[i1].as_ref()?;
    shared |= Arc::strong_count(leaf) > 1;
    let frame = leaf.entries[i0].frame.as_ref()?;
    shared |= Arc::strong_count(frame) > 1;
    Some(shared)
}

/// Returns the lowest page number with a backing frame, if any.
pub(crate) fn first_frame(root: &Root) -> Option<u64> {
    for (i2, mid) in root.children.iter().enumerate() {
        let Some(mid) = mid else { continue };
        for (i1, leaf) in mid.children.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (i0, entry) in leaf.entries.iter().enumerate() {
                if entry.frame.is_some() {
                    return Some(
                        ((i2 as u64) << (2 * LEVEL_BITS)) | ((i1 as u64) << LEVEL_BITS) | i0 as u64,
                    );
                }
            }
        }
    }
    None
}

/// In-order traversal of all entries with a backing frame, ascending by
/// page number.
pub(crate) fn for_each_frame<F: FnMut(u64, &SharedPage)>(root: &Root, mut f: F) {
    for (i2, mid) in root.children.iter().enumerate() {
        let Some(mid) = mid else { continue };
        for (i1, leaf) in mid.children.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (i0, entry) in leaf.entries.iter().enumerate() {
                if let Some(frame) = &entry.frame {
                    let pageno =
                        ((i2 as u64) << (2 * LEVEL_BITS)) | ((i1 as u64) << LEVEL_BITS) | i0 as u64;
                    f(pageno, frame);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;

    #[test]
    fn index_split_roundtrip() {
        for pageno in [0u64, 1, 511, 512, 513, (1 << 18) + 5, MAX_PAGES - 1] {
            let (i2, i1, i0) = indices(pageno);
            let back = ((i2 as u64) << 18) | ((i1 as u64) << 9) | i0 as u64;
            assert_eq!(back, pageno);
        }
    }

    #[test]
    fn walk_mut_materializes_and_walk_reads_back() {
        let mut root = Arc::new(Root::new());
        assert!(walk(&root, 42).is_none());
        let e = walk_mut(&mut root, 42);
        e.frame = Some(Arc::new(Page::zeroed()));
        assert!(walk(&root, 42).is_some());
        assert!(walk(&root, 43).is_none(), "sibling entry stays vacant");
    }

    #[test]
    fn path_copy_isolates_snapshot() {
        let mut live = Arc::new(Root::new());
        let e = walk_mut(&mut live, 7);
        let mut page = Page::zeroed();
        page.bytes_mut()[0] = 1;
        e.frame = Some(Arc::new(page));
        let snap = Arc::clone(&live);
        // Store after the snapshot: path-copies and replicates the frame.
        let e = walk_mut(&mut live, 7);
        Arc::make_mut(e.frame.as_mut().unwrap()).bytes_mut()[0] = 2;
        let first_byte = |root: &Root| {
            let mut b = [0u8];
            walk(root, 7)
                .unwrap()
                .frame
                .as_ref()
                .unwrap()
                .read(0, &mut b);
            b[0]
        };
        assert_eq!(first_byte(&snap), 1);
        assert_eq!(first_byte(&live), 2);
    }

    #[test]
    fn path_shared_tracks_snapshots() {
        let mut live = Arc::new(Root::new());
        walk_mut(&mut live, 9).frame = Some(Arc::new(Page::zeroed()));
        assert_eq!(path_shared(&live, 9), Some(false));
        let snap = Arc::clone(&live);
        assert_eq!(path_shared(&live, 9), Some(true));
        // A store path-copies the spine; the page becomes private again.
        walk_mut(&mut live, 9).frame = Some(Arc::new(Page::zeroed()));
        assert_eq!(path_shared(&live, 9), Some(false));
        drop(snap);
        assert_eq!(path_shared(&live, 9), Some(false));
    }

    #[test]
    fn for_each_frame_is_ascending() {
        let mut root = Arc::new(Root::new());
        for pageno in [600u64, 3, 1 << 20] {
            walk_mut(&mut root, pageno).frame = Some(Arc::new(Page::zeroed()));
        }
        let mut seen = Vec::new();
        for_each_frame(&root, |pageno, _| seen.push(pageno));
        assert_eq!(seen, vec![3, 600, 1 << 20]);
    }
}
