//! The process context: what a simulated application sees as "libc".
//!
//! Every allocation, deallocation, and memory access an application makes
//! goes through [`ProcessCtx`]. This is the reproduction's equivalent of
//! the paper's two interposition layers at once:
//!
//! * the **allocator extension seam** — `malloc`/`free`/`realloc` are
//!   routed through an [`AllocBackend`], where First-Aid's extension
//!   queries the patch pool and applies environmental changes;
//! * the **instrumentation seam** — loads and stores are announced to the
//!   backend before they execute, standing in for the Pin-based tracing
//!   the validation engine uses (paper §5).
//!
//! The context also owns the explicit call stack producing multi-level
//! call-sites, the virtual clock, the simulated file table, and the timing
//! seed used to model scheduling nondeterminism.

use fa_heap::Heap;
use fa_mem::{AccessKind, Addr, MemFault, MemSnapshot, SimMemory};

use crate::alloc_api::{AllocBackend, PlainAllocator};
use crate::callsite::{CallSite, CallStack, SymbolTable};
use crate::clock::{Clock, Costs};
use crate::fault::Fault;
use crate::files::FileTable;

/// Default base address of the simulated heap.
pub const DEFAULT_HEAP_BASE: Addr = Addr(0x1000_0000);

/// The execution context of a simulated process.
pub struct ProcessCtx {
    /// The address space.
    pub mem: SimMemory,
    alloc: Box<dyn AllocBackend>,
    /// The explicit call stack (produces allocation call-sites).
    pub stack: CallStack,
    /// Frame-id to function-name mapping for reports.
    pub symbols: SymbolTable,
    /// Virtual time.
    pub clock: Clock,
    /// Calibrated operation costs.
    pub costs: Costs,
    /// Simulated files (checkpointed and rolled back with the process).
    pub files: FileTable,
    /// Seed standing in for scheduling/timing nondeterminism.
    ///
    /// Deterministic apps ignore it; apps modelling races consult
    /// [`Self::timing`]. Diagnosis re-executions perturb it ("timing-based
    /// changes", paper §4.1).
    pub timing_seed: u64,
}

impl Clone for ProcessCtx {
    fn clone(&self) -> Self {
        ProcessCtx {
            mem: self.mem.clone(),
            alloc: self.alloc.clone_box(),
            stack: self.stack.clone(),
            symbols: self.symbols.clone(),
            clock: self.clock,
            costs: self.costs,
            files: self.files.clone(),
            timing_seed: self.timing_seed,
        }
    }
}

/// A checkpointable snapshot of a [`ProcessCtx`].
///
/// Like a fork, taking one shares the two large parts instead of copying
/// them. The memory snapshot shares the page-table root, in O(1). The
/// allocator is cloned through [`AllocBackend::clone_box`], and the
/// First-Aid extension's clone shares the leaves of its per-object
/// metadata table, in O(leaves). Either side copies a page or a leaf only
/// on its first write to it after the snapshot, so a checkpoint costs what
/// was written since the last one, not the size of the heap or the live
/// set. The call stack, symbols and file table are small and are cloned.
pub struct CtxSnapshot {
    pub(crate) mem: MemSnapshot,
    alloc: Box<dyn AllocBackend>,
    stack: CallStack,
    symbols: SymbolTable,
    pub(crate) clock: Clock,
    costs: Costs,
    files: FileTable,
    pub(crate) timing_seed: u64,
}

impl Clone for CtxSnapshot {
    fn clone(&self) -> Self {
        CtxSnapshot {
            mem: self.mem.clone(),
            alloc: self.alloc.clone_box(),
            stack: self.stack.clone(),
            symbols: self.symbols.clone(),
            clock: self.clock,
            costs: self.costs,
            files: self.files.clone(),
            timing_seed: self.timing_seed,
        }
    }
}

impl CtxSnapshot {
    /// A content-aware checksum over the snapshot: virtual clock, timing
    /// seed, memory shape, and the per-page content digest, mixed through
    /// SplitMix64. Two snapshots of diverged contexts collide only
    /// accidentally; a snapshot whose stored checksum no longer matches
    /// its `digest()` has rotted (fa-checkpoint uses this to detect
    /// corruption, including a single flipped byte inside a page).
    ///
    /// The content fold reuses hashes cached on the CoW-shared pages, so
    /// the rehash costs O(pages dirtied since the last checkpoint) and
    /// the fold O(resident pages).
    ///
    /// fa-checkpoint records this checksum when it takes a checkpoint:
    /// inline for small dirty sets, and for large ones on a helper thread
    /// through [`crate::ProcSnapshot::digest_job`], which runs this same
    /// function over a copy-on-write share of the memory snapshot. The
    /// shared frames cannot change while the helper holds them, because
    /// every write, rot included, copies its path first. So the helper
    /// hashes exactly the state the checkpoint captured, and rot that
    /// happens after the checkpoint still fails `verify`.
    pub fn digest(&self) -> u64 {
        digest(&self.mem, self.clock.now(), self.timing_seed)
    }

    /// Corrupts one byte of snapshotted page data in place (CoW-isolated
    /// from the live process and sibling snapshots). Test/fault-injection
    /// hook for checkpoint-rot detection; returns `false` if the snapshot
    /// holds no page data to rot.
    pub fn rot_page(&mut self) -> bool {
        self.mem.rot_page()
    }
}

/// The digest of [`CtxSnapshot::digest`] over its inputs.
pub(crate) fn digest(mem: &MemSnapshot, clock_ns: u64, timing_seed: u64) -> u64 {
    let mut h = mix64(0xfa1d ^ clock_ns);
    h = mix64(h ^ timing_seed);
    h = mix64(h ^ mem.page_count() as u64);
    h = mix64(h ^ mem.referenced_bytes());
    mix64(h ^ mem.content_digest())
}

/// SplitMix64 finalizer used by the snapshot digests.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ProcessCtx {
    /// Creates a context with a fresh memory, heap, and plain allocator.
    pub fn new(heap_limit: u64) -> Self {
        let mut mem = SimMemory::new();
        let heap = Heap::new(&mut mem, DEFAULT_HEAP_BASE, heap_limit)
            .expect("fresh address space must accommodate the heap");
        ProcessCtx {
            mem,
            alloc: Box::new(PlainAllocator::new(heap)),
            stack: CallStack::new(),
            symbols: SymbolTable::new(),
            clock: Clock::new(),
            costs: Costs::default(),
            files: FileTable::new(),
            timing_seed: 0,
        }
    }

    // ------------------------------------------------------------------
    // Allocator access
    // ------------------------------------------------------------------

    /// Returns the installed allocator backend.
    pub fn alloc(&self) -> &dyn AllocBackend {
        self.alloc.as_ref()
    }

    /// Borrows the allocator backend and the memory simultaneously.
    ///
    /// The diagnosis engine needs this to drive extension operations that
    /// touch simulated memory (mode switches that fill canaries, heap
    /// marking, scans).
    pub fn with_alloc_and_mem<R>(
        &mut self,
        f: impl FnOnce(&mut dyn AllocBackend, &mut SimMemory) -> R,
    ) -> R {
        let ProcessCtx { alloc, mem, .. } = self;
        f(alloc.as_mut(), mem)
    }

    /// Replaces the allocator backend (e.g. attaching the First-Aid
    /// extension), handing the old backend to the closure so its heap can
    /// be adopted.
    pub fn swap_alloc(&mut self, f: impl FnOnce(Box<dyn AllocBackend>) -> Box<dyn AllocBackend>) {
        // Temporarily park a dummy to take ownership.
        let old = std::mem::replace(
            &mut self.alloc,
            Box::new(PlainAllocator::new(fresh_dummy_heap())),
        );
        self.alloc = f(old);
    }

    // ------------------------------------------------------------------
    // Call stack
    // ------------------------------------------------------------------

    /// Enters a named function frame.
    pub fn enter(&mut self, name: &str) {
        let id = self.symbols.intern(name);
        self.stack.push(id);
        self.clock.advance(self.costs.frame);
    }

    /// Leaves the current function frame.
    pub fn leave(&mut self) {
        self.stack.pop();
    }

    /// Runs `f` inside a named frame, restoring the stack on exit.
    pub fn call<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut ProcessCtx) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        self.enter(name);
        let out = f(self);
        self.leave();
        out
    }

    /// Returns the current three-level call-site.
    pub fn site(&self) -> CallSite {
        self.stack.callsite()
    }

    // ------------------------------------------------------------------
    // Memory management API (what the app calls "malloc")
    // ------------------------------------------------------------------

    /// Allocates `req` bytes.
    pub fn malloc(&mut self, req: u64) -> Result<Addr, Fault> {
        self.clock.advance(self.costs.malloc);
        let site = self.stack.callsite();
        let ProcessCtx {
            alloc, mem, clock, ..
        } = self;
        alloc.malloc(mem, clock, req, site)
    }

    /// Allocates `req` zero-filled bytes (`calloc`).
    pub fn calloc(&mut self, req: u64) -> Result<Addr, Fault> {
        let p = self.malloc(req)?;
        self.clock.advance(self.costs.access(req));
        // Routed through the observe hook so the allocator sees the
        // zeroing as an initializing write.
        self.observed(p, req, AccessKind::Write)?;
        let r = self.mem.fill(p, req, 0);
        self.route(r)?;
        Ok(p)
    }

    /// Frees an allocation.
    pub fn free(&mut self, addr: Addr) -> Result<(), Fault> {
        self.clock.advance(self.costs.free);
        let site = self.stack.callsite();
        let ProcessCtx {
            alloc, mem, clock, ..
        } = self;
        alloc.free(mem, clock, addr, site)
    }

    /// Resizes an allocation.
    pub fn realloc(&mut self, addr: Addr, req: u64) -> Result<Addr, Fault> {
        self.clock.advance(self.costs.malloc + self.costs.free);
        let site = self.stack.callsite();
        let ProcessCtx {
            alloc, mem, clock, ..
        } = self;
        alloc.realloc(mem, clock, addr, req, site)
    }

    /// Returns the usable size of an allocation.
    pub fn usable_size(&mut self, addr: Addr) -> Result<u64, Fault> {
        self.alloc.usable_size(&mut self.mem, addr)
    }

    // ------------------------------------------------------------------
    // Memory access API (what the app sees as loads/stores)
    // ------------------------------------------------------------------

    fn observed(&mut self, addr: Addr, len: u64, kind: AccessKind) -> Result<(), Fault> {
        self.clock.advance(self.costs.access(len));
        let site = self.stack.callsite();
        let ProcessCtx { alloc, clock, .. } = self;
        alloc.observe_access(clock, addr, len, kind, site)
    }

    /// Routes a raw memory-access result back to the application.
    ///
    /// Permission-bit traps ([`MemFault::GuardTrap`] from
    /// [`fa_mem::Perms::GUARD`]/[`fa_mem::Perms::POISONED`] pages) are
    /// first announced to the allocator backend — the simulated SIGSEGV
    /// hand-off to First-Aid's error monitor — so the extension can
    /// attribute the trap before the fault reaches the application.
    fn route<T>(&mut self, res: Result<T, MemFault>) -> Result<T, Fault> {
        match res {
            Ok(v) => Ok(v),
            Err(MemFault::GuardTrap { addr, kind, len }) => {
                let site = self.stack.callsite();
                let ProcessCtx { alloc, clock, .. } = self;
                alloc.on_guard_trap(clock, addr, len, kind, site);
                Err(Fault::Mem(MemFault::GuardTrap { addr, kind, len }))
            }
            Err(f) => Err(Fault::Mem(f)),
        }
    }

    /// Stores `bytes` at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), Fault> {
        self.observed(addr, bytes.len() as u64, AccessKind::Write)?;
        let r = self.mem.write(addr, bytes);
        self.route(r)
    }

    /// Loads `len` bytes from `addr`.
    pub fn read_bytes(&mut self, addr: Addr, len: u64) -> Result<Vec<u8>, Fault> {
        self.observed(addr, len, AccessKind::Read)?;
        let r = self.mem.read_bytes(addr, len);
        self.route(r)
    }

    /// Stores a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) -> Result<(), Fault> {
        self.observed(addr, 8, AccessKind::Write)?;
        let r = self.mem.write_u64(addr, v);
        self.route(r)
    }

    /// Loads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: Addr) -> Result<u64, Fault> {
        self.observed(addr, 8, AccessKind::Read)?;
        let r = self.mem.read_u64(addr);
        self.route(r)
    }

    /// Stores a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, v: u32) -> Result<(), Fault> {
        self.observed(addr, 4, AccessKind::Write)?;
        let r = self.mem.write_u32(addr, v);
        self.route(r)
    }

    /// Loads a little-endian `u32`.
    pub fn read_u32(&mut self, addr: Addr) -> Result<u32, Fault> {
        self.observed(addr, 4, AccessKind::Read)?;
        let r = self.mem.read_u32(addr);
        self.route(r)
    }

    /// Stores one byte.
    pub fn write_u8(&mut self, addr: Addr, v: u8) -> Result<(), Fault> {
        self.observed(addr, 1, AccessKind::Write)?;
        let r = self.mem.write_u8(addr, v);
        self.route(r)
    }

    /// Loads one byte.
    pub fn read_u8(&mut self, addr: Addr) -> Result<u8, Fault> {
        self.observed(addr, 1, AccessKind::Read)?;
        let r = self.mem.read_u8(addr);
        self.route(r)
    }

    /// Fills `[addr, addr + len)` with `byte` (a `memset`).
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), Fault> {
        self.observed(addr, len, AccessKind::Write)?;
        let r = self.mem.fill(addr, len, byte);
        self.route(r)
    }

    /// Copies `len` bytes from `src` to `dst` (a `memcpy`).
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<(), Fault> {
        self.observed(src, len, AccessKind::Read)?;
        self.observed(dst, len, AccessKind::Write)?;
        let r = self.mem.copy(dst, src, len);
        self.route(r)
    }

    /// Writes a NUL-terminated string (a `strcpy`).
    pub fn write_cstr(&mut self, addr: Addr, s: &str) -> Result<(), Fault> {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.write_bytes(addr, &bytes)
    }

    /// Reads a NUL-terminated string of at most `max` bytes.
    pub fn read_cstr(&mut self, addr: Addr, max: u64) -> Result<String, Fault> {
        let bytes = self.read_bytes(addr, max)?;
        let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
        Ok(String::from_utf8_lossy(&bytes[..end]).into_owned())
    }

    // ------------------------------------------------------------------
    // Misc
    // ------------------------------------------------------------------

    /// Fails with an assertion fault if `cond` is false.
    pub fn check(&self, cond: bool, msg: &str) -> Result<(), Fault> {
        if cond {
            Ok(())
        } else {
            Err(Fault::assertion(msg, self.stack.callsite()))
        }
    }

    /// Returns a deterministic pseudo-random value derived from the timing
    /// seed — the hook through which nondeterministic (timing-dependent)
    /// bugs are modelled.
    pub fn timing(&self, salt: u64) -> u64 {
        let mut x = self
            .timing_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x
    }

    /// Takes a checkpointable snapshot of the full context.
    pub fn snapshot(&self) -> CtxSnapshot {
        CtxSnapshot {
            mem: self.mem.snapshot(),
            alloc: self.alloc.clone_box(),
            stack: self.stack.clone(),
            symbols: self.symbols.clone(),
            clock: self.clock,
            costs: self.costs,
            files: self.files.clone(),
            timing_seed: self.timing_seed,
        }
    }

    /// Restores the context from a snapshot.
    pub fn restore(&mut self, snap: &CtxSnapshot) {
        self.mem.restore(&snap.mem);
        self.alloc = snap.alloc.clone_box();
        self.stack = snap.stack.clone();
        self.symbols = snap.symbols.clone();
        self.clock = snap.clock;
        self.costs = snap.costs;
        self.files = snap.files.clone();
        self.timing_seed = snap.timing_seed;
    }
}

/// Builds a throwaway heap for [`ProcessCtx::swap_alloc`]'s placeholder.
fn fresh_dummy_heap() -> Heap {
    let mut mem = SimMemory::new();
    Heap::new(&mut mem, Addr(0x10_0000), 1 << 20).expect("dummy heap")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ProcessCtx {
        ProcessCtx::new(1 << 26)
    }

    #[test]
    fn malloc_free_through_ctx() {
        let mut c = ctx();
        c.enter("main");
        let p = c.malloc(64).unwrap();
        c.write_bytes(p, b"payload").unwrap();
        assert_eq!(c.read_bytes(p, 7).unwrap(), b"payload");
        c.free(p).unwrap();
        c.leave();
    }

    #[test]
    fn clock_advances_on_ops() {
        let mut c = ctx();
        let t0 = c.clock.now();
        c.enter("f");
        let p = c.malloc(64).unwrap();
        c.write_u64(p, 1).unwrap();
        assert!(c.clock.now() > t0);
    }

    #[test]
    fn call_restores_stack_on_error() {
        let mut c = ctx();
        c.enter("main");
        let site_before = c.site();
        let r: Result<(), Fault> = c.call("inner", |c| c.check(false, "boom"));
        assert!(r.is_err());
        assert_eq!(c.site(), site_before);
    }

    #[test]
    fn cstr_roundtrip() {
        let mut c = ctx();
        c.enter("main");
        let p = c.malloc(32).unwrap();
        c.write_cstr(p, "hello").unwrap();
        assert_eq!(c.read_cstr(p, 32).unwrap(), "hello");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut c = ctx();
        c.enter("main");
        let p = c.malloc(64).unwrap();
        c.write_u64(p, 42).unwrap();
        c.files.open("f");
        c.files.write("f", b"v1");
        let snap = c.snapshot();
        c.write_u64(p, 99).unwrap();
        c.free(p).unwrap();
        c.files.write("f", b"more");
        c.restore(&snap);
        assert_eq!(c.read_u64(p).unwrap(), 42);
        assert_eq!(c.files.contents("f").unwrap(), b"v1");
        // The allocation is live again; freeing succeeds exactly once.
        c.free(p).unwrap();
        assert!(c.free(p).is_err());
    }

    #[test]
    fn timing_depends_on_seed() {
        let mut c = ctx();
        let a = c.timing(7);
        c.timing_seed = 1;
        let b = c.timing(7);
        assert_ne!(a, b);
        // And is deterministic for a fixed seed.
        assert_eq!(c.timing(7), b);
    }

    #[test]
    fn swap_alloc_preserves_heap_state() {
        let mut c = ctx();
        c.enter("main");
        let p = c.malloc(64).unwrap();
        c.swap_alloc(|old| old); // identity swap
        c.free(p).unwrap();
    }
}
