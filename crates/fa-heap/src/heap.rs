//! The allocator proper: best-fit binned allocation, splitting, coalescing,
//! `sbrk`-style growth, and integrity checks.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use fa_mem::{Addr, RegionId, SimMemory};

use crate::chunk::{request_to_chunk_size, write_words, ChunkHeader, ALIGN, HDR_SIZE, MIN_CHUNK};
use crate::error::{CorruptKind, HeapError, InvalidFreeKind};

/// Free-list cookie written over the first user bytes of a freed chunk,
/// like dlmalloc's `fd`/`bk` pointers. Dangling reads of freshly freed
/// memory observe this garbage instead of the old contents.
const FREE_COOKIE: u64 = 0xfeed_face_cafe_beef;

/// Bytes mapped when a heap is created.
const INITIAL_BYTES: u64 = 64 * 1024;

/// Granularity of `sbrk` growth in bytes.
const GROW_GRANULARITY: u64 = 64 * 1024;

/// Aggregate allocator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Current heap extent (`brk - base`) in bytes.
    pub heap_bytes: u64,
    /// Sum of user-visible bytes in live chunks.
    pub in_use_user_bytes: u64,
    /// Number of live chunks.
    pub in_use_chunks: u64,
    /// Total successful `malloc` calls.
    pub allocs: u64,
    /// Total successful `free` calls.
    pub frees: u64,
}

/// A Lea-style best-fit allocator over a region of simulated memory.
///
/// The heap is a contiguous run of chunks from `base` to the break; the
/// final chunk is the *top*, grown on demand. Free chunks (except the top)
/// are indexed by size in best-fit bins. All boundary tags live in-band
/// and are validated on every operation — corruption caused by application
/// bugs surfaces as [`HeapError`]s, which the First-Aid error monitor
/// treats as failures.
///
/// The host-side state (`bins`, `top`, stats) is `Clone`, so a heap can be
/// checkpointed alongside a [`fa_mem::MemSnapshot`] and rolled back.
#[derive(Clone)]
pub struct Heap {
    base: Addr,
    brk: Addr,
    region: RegionId,
    /// Maximum heap size in bytes; growth beyond this reports
    /// [`HeapError::OutOfMemory`].
    limit: u64,
    /// Address of the top chunk; spans `[top, brk)`.
    top: Addr,
    /// Free chunks (excluding top): total size → chunk addresses.
    bins: BTreeMap<u64, BTreeSet<u64>>,
    /// Placement randomization for validation mode (paper §5).
    rng: Option<SmallRng>,
    /// Sampling hook on the alloc fast path (sentry tier).
    sentry: Option<SentryHook>,
    stats: HeapStats,
}

/// Seeded countdown deciding which allocations the sentry tier samples
/// (GWP-ASan style): the next sample is `U[1, 2·rate)` allocations away,
/// so the long-run frequency is `1/rate` without a fixed stride an
/// allocation pattern could alias against. The state is a splitmix64
/// stream, so cloning the heap (checkpointing) clones the exact decision
/// sequence — replay determinism.
#[derive(Clone, Debug)]
struct SentryHook {
    rate: u32,
    state: u64,
    countdown: u32,
}

impl SentryHook {
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_interval(state: &mut u64, rate: u32) -> u32 {
        let span = (2 * rate.max(1) as u64).saturating_sub(1).max(1);
        1 + (Self::next_u64(state) % span) as u32
    }

    fn new(rate: u32, seed: u64) -> SentryHook {
        let mut state = seed ^ 0x5e17_a1d5_e17a_1d05;
        let countdown = Self::next_interval(&mut state, rate);
        SentryHook {
            rate,
            state,
            countdown,
        }
    }

    fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = Self::next_interval(&mut self.state, self.rate);
            true
        } else {
            false
        }
    }
}

impl Heap {
    /// Creates a heap at `base` that may grow to `limit` bytes.
    pub fn new(mem: &mut SimMemory, base: Addr, limit: u64) -> Result<Heap, HeapError> {
        assert!(base.is_aligned(ALIGN), "heap base must be 16-byte aligned");
        let region = mem.map(base, INITIAL_BYTES, "heap")?;
        let brk = base.offset(INITIAL_BYTES);
        ChunkHeader {
            prev_size: 0,
            size: INITIAL_BYTES,
            in_use: false,
            // There is no previous chunk; claiming it is in use stops
            // coalescing from walking off the heap start.
            prev_in_use: true,
        }
        .write(mem, base)?;
        Ok(Heap {
            base,
            brk,
            region,
            top: base,
            bins: BTreeMap::new(),
            rng: None,
            sentry: None,
            stats: HeapStats {
                heap_bytes: INITIAL_BYTES,
                ..HeapStats::default()
            },
            limit,
        })
    }

    /// Enables seeded placement randomization (validation mode).
    ///
    /// Randomization adds small amounts of slack to requests and sometimes
    /// prefers a larger bin over the best fit, so object addresses differ
    /// between re-executions with different seeds while allocator behaviour
    /// stays legal. First-Aid's validation engine uses this to confirm a
    /// runtime patch's effect is layout-independent.
    pub fn randomize(&mut self, seed: u64) {
        self.rng = Some(SmallRng::seed_from_u64(seed));
    }

    /// Disables placement randomization.
    pub fn derandomize(&mut self) {
        self.rng = None;
    }

    /// Arms the sentry sampling hook: roughly one in `rate` allocations
    /// reported through [`Heap::sentry_tick`] is selected, on a seeded
    /// deterministic schedule. `rate == 0` disarms the hook.
    pub fn set_sentry_rate(&mut self, rate: u32, seed: u64) {
        self.sentry = (rate > 0).then(|| SentryHook::new(rate, seed));
    }

    /// Fast-path sampling decision for one allocation: `true` if the
    /// sentry tier should redirect it into a guarded slot. Costs one
    /// decrement on the non-sampled path.
    pub fn sentry_tick(&mut self) -> bool {
        match &mut self.sentry {
            Some(hook) => hook.tick(),
            None => false,
        }
    }

    /// Returns the heap base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Returns the current break (end of the heap).
    pub fn brk(&self) -> Addr {
        self.brk
    }

    /// Returns the address of the top chunk header.
    pub fn top(&self) -> Addr {
        self.top
    }

    /// Returns a copy of the allocator statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Returns the addresses and sizes of all binned free chunks.
    pub fn free_chunks(&self) -> Vec<(Addr, u64)> {
        self.bins
            .iter()
            .flat_map(|(&size, set)| set.iter().map(move |&a| (Addr(a), size)))
            .collect()
    }

    /// Returns `true` if `addr` lies within the heap extent.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.brk
    }

    // ------------------------------------------------------------------
    // malloc
    // ------------------------------------------------------------------

    /// Allocates `req` bytes and returns the user pointer.
    pub fn malloc(&mut self, mem: &mut SimMemory, req: u64) -> Result<Addr, HeapError> {
        if req > self.limit {
            return Err(HeapError::OutOfMemory { requested: req });
        }
        let mut csize = request_to_chunk_size(req);
        if let Some(rng) = &mut self.rng {
            // Random slack keeps requests legal but shifts later layout.
            csize += u64::from(rng.random_range(0u32..4)) * ALIGN;
        }
        let user = match self.pick_bin(csize) {
            Some((bin_size, chunk)) => self.alloc_from_bin(mem, chunk, bin_size, csize)?,
            None => self.alloc_from_top(mem, csize)?,
        };
        self.stats.allocs += 1;
        self.stats.in_use_chunks += 1;
        self.stats.in_use_user_bytes += ChunkHeader::usable(csize);
        Ok(user)
    }

    /// Allocates `req` bytes of zero-filled memory (`calloc` analog).
    ///
    /// Unlike plain [`Self::malloc`], the returned memory is always zero —
    /// reused chunks would otherwise expose stale contents, which is
    /// precisely the uninitialized-read hazard the paper patches with
    /// zero-filling.
    pub fn malloc_zeroed(&mut self, mem: &mut SimMemory, req: u64) -> Result<Addr, HeapError> {
        let user = self.malloc(mem, req)?;
        let usable = self.usable_size(mem, user)?;
        mem.fill(user, usable, 0)?;
        Ok(user)
    }

    /// Picks the best-fit bin chunk for `csize`, honouring randomization.
    fn pick_bin(&mut self, csize: u64) -> Option<(u64, u64)> {
        let skip = match &mut self.rng {
            Some(rng) => rng.random_range(0u32..3) as usize,
            None => 0,
        };
        // The `skip`-th fitting bin, or the best fit when fewer bins fit.
        let mut sizes = self.bins.range(csize..).map(|(&s, _)| s);
        let best = sizes.next()?;
        let bin_size = skip
            .checked_sub(1)
            .and_then(|n| sizes.nth(n))
            .unwrap_or(best);
        let set = self.bins.get_mut(&bin_size)?;
        let &chunk = set.iter().next()?;
        set.remove(&chunk);
        if set.is_empty() {
            self.bins.remove(&bin_size);
        }
        Some((bin_size, chunk))
    }

    fn alloc_from_bin(
        &mut self,
        mem: &mut SimMemory,
        chunk: u64,
        bin_size: u64,
        csize: u64,
    ) -> Result<Addr, HeapError> {
        let chunk = Addr(chunk);
        let hdr = ChunkHeader::read(mem, chunk)?;
        if hdr.in_use || hdr.size != bin_size {
            return Err(HeapError::CorruptChunk {
                chunk,
                kind: CorruptKind::BinInconsistency,
            });
        }
        if chunk.0 + bin_size > self.brk.0 {
            return Err(HeapError::CorruptChunk {
                chunk,
                kind: CorruptKind::OutOfHeap,
            });
        }
        let next = chunk.offset(bin_size);
        if bin_size - csize >= MIN_CHUNK {
            // Split: allocate the front, bin the remainder.
            let rem_size = bin_size - csize;
            let rem = chunk.offset(csize);
            ChunkHeader {
                prev_size: hdr.prev_size,
                size: csize,
                in_use: true,
                prev_in_use: hdr.prev_in_use,
            }
            .write(mem, chunk)?;
            ChunkHeader {
                prev_size: csize,
                size: rem_size,
                in_use: false,
                prev_in_use: true,
            }
            .write(mem, rem)?;
            let mut next_hdr = ChunkHeader::read(mem, next)?;
            next_hdr.prev_size = rem_size;
            next_hdr.prev_in_use = false;
            next_hdr.write(mem, next)?;
            self.bins.entry(rem_size).or_default().insert(rem.0);
        } else {
            ChunkHeader {
                in_use: true,
                ..hdr
            }
            .write(mem, chunk)?;
            let mut next_hdr = ChunkHeader::read(mem, next)?;
            next_hdr.prev_in_use = true;
            next_hdr.write(mem, next)?;
        }
        Ok(ChunkHeader::user_of(chunk))
    }

    fn alloc_from_top(&mut self, mem: &mut SimMemory, csize: u64) -> Result<Addr, HeapError> {
        let top_size = self.brk - self.top;
        // Validate the top header before trusting it; an overflow from the
        // last allocated chunk lands exactly here.
        let top_hdr = ChunkHeader::read(mem, self.top)?;
        if top_hdr.in_use || top_hdr.size != top_size {
            return Err(HeapError::CorruptChunk {
                chunk: self.top,
                kind: CorruptKind::BoundaryTagMismatch,
            });
        }
        // Placement randomization: occasionally leave a small free gap
        // chunk before the allocation, so object *addresses* differ
        // between seeds even for identical request sequences. This is
        // what lets the validation engine detect layout-dependent
        // (semantic) bugs masquerading as memory bugs (paper §5).
        #[allow(clippy::collapsible_match)]
        let gap = match &mut self.rng {
            Some(rng) => {
                if rng.random_bool(0.5) {
                    MIN_CHUNK * u64::from(rng.random_range(1u32..4))
                } else {
                    0
                }
            }
            None => 0,
        };
        let need = csize + gap + MIN_CHUNK;
        if top_size < need {
            let grow = (need - top_size).div_ceil(GROW_GRANULARITY) * GROW_GRANULARITY;
            let new_brk = self.brk.offset(grow);
            if new_brk - self.base > self.limit {
                return Err(HeapError::OutOfMemory { requested: csize });
            }
            mem.grow_region(self.region, new_brk)?;
            self.brk = new_brk;
            self.stats.heap_bytes = self.brk - self.base;
        }
        let mut chunk = self.top;
        let mut prev_size = top_hdr.prev_size;
        let mut prev_in_use = top_hdr.prev_in_use;
        if gap > 0 {
            // The gap stays behind as a small binned free chunk.
            ChunkHeader {
                prev_size,
                size: gap,
                in_use: false,
                prev_in_use,
            }
            .write(mem, chunk)?;
            self.bins.entry(gap).or_default().insert(chunk.0);
            chunk = chunk.offset(gap);
            prev_size = gap;
            prev_in_use = false;
        }
        ChunkHeader {
            prev_size,
            size: csize,
            in_use: true,
            prev_in_use,
        }
        .write(mem, chunk)?;
        let new_top = chunk.offset(csize);
        ChunkHeader {
            prev_size: csize,
            size: self.brk - new_top,
            in_use: false,
            prev_in_use: true,
        }
        .write(mem, new_top)?;
        self.top = new_top;
        Ok(ChunkHeader::user_of(chunk))
    }

    // ------------------------------------------------------------------
    // free
    // ------------------------------------------------------------------

    /// Frees the chunk owning the user pointer `user`.
    pub fn free(&mut self, mem: &mut SimMemory, user: Addr) -> Result<(), HeapError> {
        if !user.is_aligned(ALIGN) || user.0 < self.base.0 + HDR_SIZE || user >= self.brk {
            return Err(HeapError::InvalidFree {
                addr: user,
                kind: InvalidFreeKind::WildPointer,
            });
        }
        let chunk = ChunkHeader::chunk_of(user);
        let hdr = self.validated_header(mem, chunk)?;
        if !hdr.in_use {
            return Err(HeapError::InvalidFree {
                addr: user,
                kind: InvalidFreeKind::DoubleFree,
            });
        }
        let next = chunk.offset(hdr.size);
        let next_hdr = ChunkHeader::read(mem, next)?;
        if next_hdr.prev_size != hdr.size || !next_hdr.prev_in_use {
            return Err(HeapError::CorruptChunk {
                chunk,
                kind: CorruptKind::BoundaryTagMismatch,
            });
        }

        let mut start = chunk;
        let mut size = hdr.size;
        let mut prev_in_use = hdr.prev_in_use;
        let mut prev_size = hdr.prev_size;

        // Coalesce with the previous chunk if it is free.
        if !hdr.prev_in_use {
            let prev = chunk.back(hdr.prev_size);
            if prev < self.base {
                return Err(HeapError::CorruptChunk {
                    chunk,
                    kind: CorruptKind::BadSize,
                });
            }
            let prev_hdr = ChunkHeader::read(mem, prev)?;
            if prev_hdr.in_use || prev_hdr.size != hdr.prev_size {
                return Err(HeapError::CorruptChunk {
                    chunk: prev,
                    kind: CorruptKind::BoundaryTagMismatch,
                });
            }
            if !self.unbin(prev, prev_hdr.size) {
                return Err(HeapError::CorruptChunk {
                    chunk: prev,
                    kind: CorruptKind::BinInconsistency,
                });
            }
            start = prev;
            size += prev_hdr.size;
            prev_in_use = prev_hdr.prev_in_use;
            prev_size = prev_hdr.prev_size;
        }

        self.stats.frees += 1;
        self.stats.in_use_chunks = self.stats.in_use_chunks.saturating_sub(1);
        self.stats.in_use_user_bytes = self
            .stats
            .in_use_user_bytes
            .saturating_sub(ChunkHeader::usable(hdr.size));

        if next == self.top {
            // Merge into the top chunk.
            self.top = start;
            ChunkHeader {
                prev_size,
                size: self.brk - start,
                in_use: false,
                prev_in_use,
            }
            .write(mem, start)?;
            self.clobber_freed(mem, start)?;
            return Ok(());
        }

        let mut merged_next = next;
        if !next_hdr.in_use {
            // Coalesce with the following free chunk.
            if !self.unbin(next, next_hdr.size) {
                return Err(HeapError::CorruptChunk {
                    chunk: next,
                    kind: CorruptKind::BinInconsistency,
                });
            }
            size += next_hdr.size;
            merged_next = next.offset(next_hdr.size);
        }
        ChunkHeader {
            prev_size,
            size,
            in_use: false,
            prev_in_use,
        }
        .write(mem, start)?;
        // An in-use `next` is still the chunk after the merge: reuse its tag.
        let mut after = if merged_next == next {
            next_hdr
        } else {
            ChunkHeader::read(mem, merged_next)?
        };
        after.prev_size = size;
        after.prev_in_use = false;
        after.write(mem, merged_next)?;
        self.bins.entry(size).or_default().insert(start.0);
        self.clobber_freed(mem, start)
    }

    /// Writes the free-list cookie over the first user bytes of a freed
    /// chunk, mimicking dlmalloc's in-band `fd`/`bk` pointers.
    fn clobber_freed(&self, mem: &mut SimMemory, chunk: Addr) -> Result<(), HeapError> {
        let user = ChunkHeader::user_of(chunk);
        let (lo, hi) = (FREE_COOKIE ^ chunk.0, FREE_COOKIE.rotate_left(17) ^ chunk.0);
        write_words(mem, user, lo, hi)?;
        Ok(())
    }

    fn unbin(&mut self, chunk: Addr, size: u64) -> bool {
        match self.bins.get_mut(&size) {
            Some(set) => {
                let present = set.remove(&chunk.0);
                if set.is_empty() {
                    self.bins.remove(&size);
                }
                present
            }
            None => false,
        }
    }

    fn validated_header(&self, mem: &mut SimMemory, chunk: Addr) -> Result<ChunkHeader, HeapError> {
        let hdr = ChunkHeader::read(mem, chunk)?;
        if hdr.size < MIN_CHUNK || hdr.size % ALIGN != 0 {
            return Err(HeapError::CorruptChunk {
                chunk,
                kind: CorruptKind::BadSize,
            });
        }
        if chunk.0 + hdr.size > self.brk.0 {
            return Err(HeapError::CorruptChunk {
                chunk,
                kind: CorruptKind::OutOfHeap,
            });
        }
        Ok(hdr)
    }

    // ------------------------------------------------------------------
    // realloc / introspection
    // ------------------------------------------------------------------

    /// Resizes an allocation, moving it if necessary (`realloc` analog).
    pub fn realloc(
        &mut self,
        mem: &mut SimMemory,
        user: Addr,
        new_req: u64,
    ) -> Result<Addr, HeapError> {
        let chunk = ChunkHeader::chunk_of(user);
        let hdr = self.validated_header(mem, chunk)?;
        if !hdr.in_use {
            return Err(HeapError::InvalidFree {
                addr: user,
                kind: InvalidFreeKind::DoubleFree,
            });
        }
        if request_to_chunk_size(new_req) <= hdr.size {
            return Ok(user);
        }
        let new_user = self.malloc(mem, new_req)?;
        let old_usable = ChunkHeader::usable(hdr.size);
        mem.copy(new_user, user, old_usable.min(new_req))?;
        self.free(mem, user)?;
        Ok(new_user)
    }

    /// Returns the usable size of a live allocation.
    pub fn usable_size(&self, mem: &mut SimMemory, user: Addr) -> Result<u64, HeapError> {
        let chunk = ChunkHeader::chunk_of(user);
        let hdr = self.validated_header(mem, chunk)?;
        Ok(ChunkHeader::usable(hdr.size))
    }

    /// Returns the region id backing this heap.
    pub fn region(&self) -> RegionId {
        self.region
    }
}

#[cfg(test)]
mod sentry_tests {
    use super::*;

    fn heap() -> (SimMemory, Heap) {
        let mut mem = SimMemory::new();
        let heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
        (mem, heap)
    }

    #[test]
    fn disarmed_hook_never_samples() {
        let (_mem, mut h) = heap();
        assert!((0..10_000).all(|_| !h.sentry_tick()));
    }

    #[test]
    fn sampling_frequency_tracks_rate() {
        let (_mem, mut h) = heap();
        h.set_sentry_rate(64, 42);
        let hits = (0..64_000).filter(|_| h.sentry_tick()).count();
        // Mean interval is `rate`; allow generous slack for variance.
        assert!((700..1300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn tick_sequence_is_deterministic_and_cloned() {
        let (_mem, mut a) = heap();
        a.set_sentry_rate(8, 7);
        let mut b = a.clone();
        let sa: Vec<bool> = (0..1000).map(|_| a.sentry_tick()).collect();
        let sb: Vec<bool> = (0..1000).map(|_| b.sentry_tick()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&s| s));
    }

    #[test]
    fn rate_zero_disarms() {
        let (_mem, mut h) = heap();
        h.set_sentry_rate(4, 1);
        assert!((0..100).any(|_| h.sentry_tick()));
        h.set_sentry_rate(0, 1);
        assert!((0..100).all(|_| !h.sentry_tick()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimMemory, Heap) {
        let mut mem = SimMemory::new();
        let heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
        (mem, heap)
    }

    #[test]
    fn malloc_returns_aligned_disjoint_chunks() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 100).unwrap();
        let b = heap.malloc(&mut mem, 200).unwrap();
        assert!(a.is_aligned(ALIGN) && b.is_aligned(ALIGN));
        let a_end = a.0 + heap.usable_size(&mut mem, a).unwrap();
        assert!(a_end <= b.0 - HDR_SIZE);
    }

    #[test]
    fn write_read_full_allocation() {
        let (mut mem, mut heap) = setup();
        let p = heap.malloc(&mut mem, 64).unwrap();
        let data: Vec<u8> = (0..64).collect();
        mem.write(p, &data).unwrap();
        assert_eq!(mem.read_bytes(p, 64).unwrap(), data);
    }

    #[test]
    fn free_then_reuse_same_size() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 100).unwrap();
        let _b = heap.malloc(&mut mem, 100).unwrap(); // keep top away
        heap.free(&mut mem, a).unwrap();
        let c = heap.malloc(&mut mem, 100).unwrap();
        assert_eq!(a, c, "freed chunk must be reused for an equal request");
    }

    #[test]
    fn split_leaves_usable_remainder() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 1000).unwrap();
        let _hold = heap.malloc(&mut mem, 16).unwrap();
        heap.free(&mut mem, a).unwrap();
        let small = heap.malloc(&mut mem, 100).unwrap();
        assert_eq!(
            small, a,
            "split should allocate the front of the free chunk"
        );
        // The remainder is immediately reusable.
        let rest = heap.malloc(&mut mem, 500).unwrap();
        assert!(rest.0 > small.0 && rest.0 < a.0 + 1200);
    }

    #[test]
    fn coalesce_with_next() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 100).unwrap();
        let b = heap.malloc(&mut mem, 100).unwrap();
        let _hold = heap.malloc(&mut mem, 16).unwrap();
        heap.free(&mut mem, b).unwrap();
        heap.free(&mut mem, a).unwrap();
        // a+b coalesced: a request spanning both fits at a.
        let big = heap.malloc(&mut mem, 210).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn coalesce_with_prev() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 100).unwrap();
        let b = heap.malloc(&mut mem, 100).unwrap();
        let _hold = heap.malloc(&mut mem, 16).unwrap();
        heap.free(&mut mem, a).unwrap();
        heap.free(&mut mem, b).unwrap(); // merges backwards into a
        let big = heap.malloc(&mut mem, 210).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn free_last_chunk_merges_into_top() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 100).unwrap();
        let top_before = heap.top();
        heap.free(&mut mem, a).unwrap();
        assert!(heap.top() < top_before, "top must absorb the freed chunk");
        assert!(heap.free_chunks().is_empty());
    }

    #[test]
    fn double_free_detected() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 100).unwrap();
        let _b = heap.malloc(&mut mem, 100).unwrap();
        heap.free(&mut mem, a).unwrap();
        let err = heap.free(&mut mem, a).unwrap_err();
        assert!(
            matches!(
                err,
                HeapError::InvalidFree {
                    kind: InvalidFreeKind::DoubleFree,
                    ..
                } | HeapError::CorruptChunk { .. }
            ),
            "double free must abort: {err}"
        );
    }

    #[test]
    fn wild_free_detected() {
        let (mut mem, mut heap) = setup();
        let err = heap.free(&mut mem, Addr(0x10)).unwrap_err();
        assert!(matches!(
            err,
            HeapError::InvalidFree {
                kind: InvalidFreeKind::WildPointer,
                ..
            }
        ));
        let err = heap.free(&mut mem, Addr(0x1000_0000 + 24)).unwrap_err();
        assert!(matches!(err, HeapError::InvalidFree { .. }));
    }

    #[test]
    fn overflow_corrupts_next_and_is_caught_on_free() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 64).unwrap();
        let b = heap.malloc(&mut mem, 64).unwrap();
        let usable = heap.usable_size(&mut mem, a).unwrap();
        // Application bug: write 24 bytes past the end of `a`, trampling
        // b's boundary tag.
        mem.write(a.offset(usable), &[0xaa; 24]).unwrap();
        let err = heap.free(&mut mem, b).unwrap_err();
        assert!(
            matches!(err, HeapError::CorruptChunk { .. }),
            "overflow must be detected as metadata corruption: {err}"
        );
    }

    #[test]
    fn overflow_into_top_is_caught_on_malloc() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 64).unwrap();
        let usable = heap.usable_size(&mut mem, a).unwrap();
        mem.write(a.offset(usable), &[0xbb; 32]).unwrap(); // tramples top header
        let err = heap.malloc(&mut mem, 64).unwrap_err();
        assert!(matches!(err, HeapError::CorruptChunk { .. }));
    }

    #[test]
    fn heap_grows_on_demand() {
        let (mut mem, mut heap) = setup();
        let before = heap.stats().heap_bytes;
        let p = heap.malloc(&mut mem, 200 * 1024).unwrap();
        assert!(heap.stats().heap_bytes > before);
        mem.write_u8(p.offset(200 * 1024 - 1), 1).unwrap();
    }

    #[test]
    fn out_of_memory_reported() {
        let mut mem = SimMemory::new();
        let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 128 * 1024).unwrap();
        let err = heap.malloc(&mut mem, 1 << 20).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory { .. }));
    }

    #[test]
    fn freed_contents_clobbered() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 64).unwrap();
        let _b = heap.malloc(&mut mem, 64).unwrap();
        mem.write(a, b"sensitive-data-here-1234").unwrap();
        heap.free(&mut mem, a).unwrap();
        let after = mem.read_bytes(a, 16).unwrap();
        assert_ne!(&after[..], b"sensitive-data-h", "cookie must clobber head");
    }

    #[test]
    fn dangling_read_sees_reused_data() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 64).unwrap();
        let _b = heap.malloc(&mut mem, 64).unwrap();
        mem.write(a.offset(32), b"old-old-").unwrap();
        heap.free(&mut mem, a).unwrap();
        let c = heap.malloc(&mut mem, 64).unwrap();
        assert_eq!(c, a, "chunk reuse expected");
        mem.write(c.offset(32), b"new-new-").unwrap();
        // A dangling pointer to `a` now reads the new owner's data.
        assert_eq!(mem.read_bytes(a.offset(32), 8).unwrap(), b"new-new-");
    }

    #[test]
    fn realloc_grows_and_preserves() {
        let (mut mem, mut heap) = setup();
        let p = heap.malloc(&mut mem, 32).unwrap();
        mem.write(p, b"0123456789abcdef").unwrap();
        let q = heap.realloc(&mut mem, p, 4096).unwrap();
        assert_ne!(p, q);
        assert_eq!(mem.read_bytes(q, 16).unwrap(), b"0123456789abcdef");
    }

    #[test]
    fn realloc_within_chunk_is_in_place() {
        let (mut mem, mut heap) = setup();
        let p = heap.malloc(&mut mem, 64).unwrap();
        let q = heap.realloc(&mut mem, p, 48).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn malloc_zeroed_zeroes_reused_chunk() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 64).unwrap();
        mem.fill(a, 64, 0xff).unwrap();
        let _b = heap.malloc(&mut mem, 16).unwrap();
        heap.free(&mut mem, a).unwrap();
        let c = heap.malloc_zeroed(&mut mem, 64).unwrap();
        assert_eq!(c, a);
        assert!(mem.read_bytes(c, 64).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn stats_track_usage() {
        let (mut mem, mut heap) = setup();
        let a = heap.malloc(&mut mem, 100).unwrap();
        let s = heap.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.in_use_chunks, 1);
        assert!(s.in_use_user_bytes >= 100);
        heap.free(&mut mem, a).unwrap();
        let s = heap.stats();
        assert_eq!(s.frees, 1);
        assert_eq!(s.in_use_chunks, 0);
        assert_eq!(s.in_use_user_bytes, 0);
    }

    #[test]
    fn randomized_heaps_differ_across_seeds() {
        let mut layouts = Vec::new();
        for seed in [1u64, 2, 3] {
            let mut mem = SimMemory::new();
            let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
            heap.randomize(seed);
            let mut addrs = Vec::new();
            let mut live = Vec::new();
            for i in 0..40u64 {
                let p = heap.malloc(&mut mem, 32 + (i % 7) * 24).unwrap();
                live.push(p);
                addrs.push(p.0);
                if i % 3 == 0 {
                    let victim = live.remove(0);
                    heap.free(&mut mem, victim).unwrap();
                }
            }
            layouts.push(addrs);
        }
        assert!(
            layouts[0] != layouts[1] || layouts[1] != layouts[2],
            "seeds must perturb placement"
        );
    }

    #[test]
    fn freed_chunk_pages_stay_readable() {
        // Quarantine scans and heap marking read freed memory, so a free
        // must leave a binned chunk's interior pages mapped and readable.
        let (mut mem, mut heap) = setup();
        let page = fa_mem::PAGE_SIZE as u64;
        let p = heap.malloc(&mut mem, 4 * page).unwrap();
        // A plug behind it keeps the freed chunk off the top, so it lands
        // in a bin.
        let _plug = heap.malloc(&mut mem, 64).unwrap();
        heap.free(&mut mem, p).unwrap();
        assert!(mem.read_u8(p.offset(2 * page)).is_ok());
    }

    #[test]
    fn randomized_heap_stays_consistent() {
        let mut mem = SimMemory::new();
        let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 26).unwrap();
        heap.randomize(42);
        let mut live = Vec::new();
        for i in 0..200u64 {
            let p = heap.malloc(&mut mem, 16 + (i * 13) % 500).unwrap();
            live.push(p);
            if i % 2 == 1 {
                let victim = live.swap_remove((i as usize * 7) % live.len());
                heap.free(&mut mem, victim).unwrap();
            }
        }
        for p in live {
            heap.free(&mut mem, p).unwrap();
        }
        assert_eq!(heap.stats().in_use_chunks, 0);
    }
}
