//! Fixed-size memory pages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Size of a simulated page in bytes, matching the x86 page size the paper's
/// Flashback-based checkpointing operates on.
pub const PAGE_SIZE: usize = 4096;

/// Sentinel meaning "no content hash cached" — real hashes are forced
/// nonzero so the sentinel is unambiguous.
const HASH_UNCOMPUTED: u64 = 0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One 4 KiB page of simulated memory.
///
/// A page whose 4,096 bytes all hold one value is stored as that byte: a
/// fresh page is uniform zeros, and a fill over the whole page makes it
/// uniform again, whatever it held. The bytes are materialized on the heap
/// only when a store changes part of the page ([`Page::bytes_mut`], or a
/// partial fill with a different byte). Reads, compares and hashes of a
/// uniform page are O(1) and never materialize it, and a uniform page
/// hashes to the same value as the same bytes stored in full, so the
/// representation is invisible to every observer.
///
/// Pages are shared between the live address space and outstanding
/// snapshots via [`Arc`]; the first write after a snapshot replicates the
/// page (`Arc::make_mut`), which is exactly the cost model of fork-based
/// copy-on-write checkpointing. Replicating a uniform page copies one byte.
///
/// A materialized page lazily caches a hash of its contents so that
/// snapshot digests are incremental: a checkpoint only rehashes the pages
/// written since the previous one (every store goes through
/// [`Page::bytes_mut`] or a fill, which invalidate the cache),
/// while clean pages reuse the value computed for an earlier digest —
/// shared across `Arc` clones.
pub struct Page(Data);

/// The representation of a [`Page`]'s contents.
enum Data {
    /// Every byte of the page holds this value.
    Uniform(u8),
    /// The page's bytes in full.
    Bytes {
        bytes: Box<[u8; PAGE_SIZE]>,
        /// Cached content hash; [`HASH_UNCOMPUTED`] until first demanded
        /// and after any store.
        hash: AtomicU64,
    },
}

impl Page {
    /// Returns a fresh zero-filled page, like an anonymous mapping from the
    /// kernel.
    pub const fn zeroed() -> Self {
        Page::uniform(0)
    }

    /// Returns a page whose every byte is `byte`.
    pub(crate) const fn uniform(byte: u8) -> Self {
        Page(Data::Uniform(byte))
    }

    /// Returns the page contents mutably, materializing a uniform page and
    /// invalidating the cached content hash.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        if let Data::Uniform(byte) = self.0 {
            self.0 = Data::Bytes {
                bytes: Box::new([byte; PAGE_SIZE]),
                hash: AtomicU64::new(HASH_UNCOMPUTED),
            };
        }
        match &mut self.0 {
            Data::Bytes { bytes, hash } => {
                *hash.get_mut() = HASH_UNCOMPUTED;
                bytes
            }
            Data::Uniform(_) => unreachable!("materialized above"),
        }
    }

    /// Copies the bytes at `[off, off + buf.len())` into `buf`.
    #[inline]
    pub(crate) fn read(&self, off: usize, buf: &mut [u8]) {
        match &self.0 {
            Data::Uniform(byte) => buf.fill(*byte),
            Data::Bytes { bytes, .. } => buf.copy_from_slice(&bytes[off..off + buf.len()]),
        }
    }

    /// Stores `byte` at `[off, off + len)`. A fill of the whole page makes
    /// it uniform; a fill of part of a uniform page that already holds
    /// `byte` changes nothing; any other fill materializes the page and
    /// sets the slice in place.
    pub(crate) fn fill(&mut self, off: usize, len: usize, byte: u8) {
        if len == PAGE_SIZE {
            debug_assert_eq!(off, 0, "a whole-page fill starts at the page");
            self.0 = Data::Uniform(byte);
        } else if !matches!(self.0, Data::Uniform(b) if b == byte) {
            self.bytes_mut()[off..off + len].fill(byte);
        }
    }

    /// Compares `[off, off + len)` against `byte` without copying.
    ///
    /// Returns `None` if every byte equals `byte`, or `Some((first,
    /// count))`: the offset of the first differing byte relative to `off`,
    /// and the number of differing bytes. A uniform page answers in O(1);
    /// a materialized slice is compared a word at a time and walked byte
    /// by byte only if it differs.
    pub(crate) fn find_not(&self, off: usize, len: usize, byte: u8) -> Option<(usize, usize)> {
        match &self.0 {
            Data::Uniform(b) => (*b != byte && len > 0).then_some((0, len)),
            Data::Bytes { bytes, .. } => {
                let slice = &bytes[off..off + len];
                if all_equal(slice, byte) {
                    return None;
                }
                let mut differing = slice.iter().enumerate().filter(|&(_, &b)| b != byte);
                let (first, _) = differing.next()?;
                Some((first, 1 + differing.count()))
            }
        }
    }

    /// Returns a hash of the page contents: FNV-1a over its little-endian
    /// words, forced nonzero. A uniform page reads it from a table; a
    /// materialized page computes it on first demand and caches it.
    pub fn content_hash(&self) -> u64 {
        match &self.0 {
            Data::Uniform(byte) => UNIFORM_HASH[*byte as usize],
            Data::Bytes { bytes, hash } => {
                let cached = hash.load(Ordering::Relaxed);
                if cached != HASH_UNCOMPUTED {
                    return cached;
                }
                let h = hash_bytes(bytes);
                hash.store(h, Ordering::Relaxed);
                h
            }
        }
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page(match &self.0 {
            Data::Uniform(byte) => Data::Uniform(*byte),
            Data::Bytes { bytes, hash } => Data::Bytes {
                bytes: bytes.clone(),
                // The copy has identical contents, so the cached hash (if
                // any) carries over; a store to either copy re-invalidates.
                hash: AtomicU64::new(hash.load(Ordering::Relaxed)),
            },
        })
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

/// A shared, copy-on-write reference to a page.
pub type SharedPage = Arc<Page>;

/// The content hash of `bytes`: FNV-1a over little-endian words, forced
/// nonzero. [`crate::oracle::FlatMemory`] digests its byte-backed pages
/// with it too.
pub(crate) fn hash_bytes(bytes: &[u8; PAGE_SIZE]) -> u64 {
    let mut h = FNV_OFFSET;
    for chunk in bytes.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(FNV_PRIME);
    }
    nonzero(h)
}

/// [`hash_bytes`] of a page whose every byte is `byte`, for every `byte`.
static UNIFORM_HASH: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut byte = 0;
    while byte < 256 {
        let word = u64::from_le_bytes([byte as u8; 8]);
        let mut h = FNV_OFFSET;
        let mut i = 0;
        while i < PAGE_SIZE / 8 {
            h = (h ^ word).wrapping_mul(FNV_PRIME);
            i += 1;
        }
        table[byte] = nonzero(h);
        byte += 1;
    }
    table
};

const fn nonzero(h: u64) -> u64 {
    if h == HASH_UNCOMPUTED {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// Returns `true` if every byte of `bytes` equals `byte`.
///
/// The whole words are OR-folded without an early exit, so the loop
/// compiles to vector compares; the trailing partial word is checked byte
/// by byte.
fn all_equal(bytes: &[u8], byte: u8) -> bool {
    let pattern = u64::from_ne_bytes([byte; 8]);
    let mut words = bytes.chunks_exact(8);
    let diff = words.by_ref().fold(0, |acc, w| {
        acc | (u64::from_ne_bytes(w.try_into().expect("8-byte word")) ^ pattern)
    });
    diff == 0 && words.remainder().iter().all(|&b| b == byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(p: &Page) -> Vec<u8> {
        let mut buf = vec![0xee; PAGE_SIZE];
        p.read(0, &mut buf);
        buf
    }

    #[test]
    fn zeroed_pages_are_zero() {
        let p = Page::zeroed();
        assert!(read_all(&p).iter().all(|&b| b == 0));
        assert_eq!(p.find_not(0, PAGE_SIZE, 0), None);
    }

    #[test]
    fn cow_via_arc_make_mut() {
        let mut a: SharedPage = Arc::new(Page::zeroed());
        let b = Arc::clone(&a);
        Arc::make_mut(&mut a).bytes_mut()[0] = 0xff;
        assert_eq!(read_all(&a)[0], 0xff);
        assert_eq!(read_all(&b)[0], 0, "snapshot page must be unaffected");
    }

    #[test]
    fn content_hash_tracks_contents() {
        let mut p = Page::zeroed();
        p.bytes_mut();
        let zero_hash = p.content_hash();
        assert_ne!(zero_hash, 0);
        assert_eq!(p.content_hash(), zero_hash, "cached value is stable");
        p.bytes_mut()[100] = 7;
        let changed = p.content_hash();
        assert_ne!(changed, zero_hash);
        p.bytes_mut()[100] = 0;
        assert_eq!(p.content_hash(), zero_hash, "same bytes, same hash");
        p.fill(100, 1, 7);
        assert_eq!(p.content_hash(), changed, "a partial fill invalidates");
    }

    #[test]
    fn uniform_hash_matches_the_same_bytes_stored_in_full() {
        for byte in 0..=u8::MAX {
            let uniform = Page::uniform(byte);
            let mut full = Page::zeroed();
            full.bytes_mut().fill(byte);
            assert_eq!(
                uniform.content_hash(),
                full.content_hash(),
                "byte {byte:#04x}"
            );
            assert_eq!(uniform.content_hash(), hash_bytes(&[byte; PAGE_SIZE]));
        }
    }

    #[test]
    fn fill_keeps_whole_pages_uniform_and_materializes_partial_changes() {
        let mut p = Page::zeroed();
        p.fill(10, 20, 0);
        assert!(matches!(p.0, Data::Uniform(0)), "same-byte fill is a no-op");
        p.fill(10, 20, 0xab);
        assert!(matches!(p.0, Data::Bytes { .. }));
        assert_eq!(p.find_not(0, PAGE_SIZE, 0), Some((10, 20)));
        p.fill(0, PAGE_SIZE, 0x77);
        assert!(matches!(p.0, Data::Uniform(0x77)), "whole fill drops bytes");
        assert_eq!(p.find_not(5, 3, 0x77), None);
        assert_eq!(p.find_not(5, 3, 0), Some((0, 3)));
        assert_eq!(p.find_not(5, 0, 0), None);
        let mut buf = [0u8; 4];
        p.read(PAGE_SIZE - 4, &mut buf);
        assert_eq!(buf, [0x77; 4]);
    }

    #[test]
    fn clone_preserves_cached_hash_and_cow_invalidates() {
        let mut a: SharedPage = Arc::new(Page::zeroed());
        Arc::get_mut(&mut a).unwrap().bytes_mut()[1] = 1;
        let h = a.content_hash();
        let b = Arc::clone(&a);
        // CoW write: the clone made by make_mut starts from the cached
        // hash, but bytes_mut immediately invalidates it.
        Arc::make_mut(&mut a).bytes_mut()[0] = 1;
        assert_ne!(a.content_hash(), h);
        assert_eq!(b.content_hash(), h, "shared original keeps its hash");
    }
}
