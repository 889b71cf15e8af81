//! A Lea-style (dlmalloc-like) heap allocator operating **inside**
//! [`fa_mem::SimMemory`].
//!
//! The paper's First-Aid implementation extends the Lea allocator — the
//! default allocator of the GNU C library circa 2009 (paper §7.1). Its
//! diagnosis machinery depends on allocator *realism*: buffer overflows
//! corrupt the next chunk's boundary tags, dangling writes corrupt whatever
//! object reused a freed chunk, double frees trip the allocator's own
//! integrity checks, and heap-layout disturbance can mask failures
//! (paper Fig. 3). This crate reproduces those behaviours faithfully:
//!
//! * chunk metadata (boundary tags: `prev_size`, `size | flags`) lives
//!   **in-band**, inside the simulated memory, directly before each user
//!   area, where overflowing application writes can and do corrupt it;
//! * free chunks are binned by size with best-fit selection, split on
//!   allocation and coalesced with free neighbours on deallocation;
//! * the heap ends in a *top* chunk grown with `sbrk`-style region
//!   extension;
//! * every malloc/free validates the boundary tags it touches and reports
//!   [`HeapError::CorruptChunk`] / [`HeapError::InvalidFree`] — the analog
//!   of glibc's `malloc(): corrupted size vs. prev_size` aborts that killed
//!   Squid, BC, and CVS in the paper's experiments;
//! * an optional seeded randomization mode perturbs placement, used by
//!   First-Aid's validation engine (paper §5) to check that a runtime
//!   patch's effect is consistent under memory-layout randomization.
//!
//! The free-chunk *index* (the bins) is kept out-of-band in host memory for
//! simplicity; the boundary tags that matter for bug manifestation are
//! in-band. Freeing clobbers the first 16 bytes of the user area with a
//! free-list cookie, like dlmalloc's `fd`/`bk` pointers, so dangling reads
//! of freshly freed data observe garbage.
//!
//! # Examples
//!
//! ```
//! use fa_mem::{Addr, SimMemory};
//! use fa_heap::Heap;
//!
//! let mut mem = SimMemory::new();
//! let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 30).unwrap();
//! let p = heap.malloc(&mut mem, 100).unwrap();
//! mem.write(p, b"hello").unwrap();
//! heap.free(&mut mem, p).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod chunk;
pub mod error;
pub mod heap;
pub mod walk;

pub use chunk::{ChunkHeader, ALIGN, HDR_SIZE, MIN_CHUNK};
pub use error::{CorruptKind, HeapError, InvalidFreeKind};
pub use heap::{Heap, HeapConfig, HeapStats};
pub use walk::ChunkInfo;
