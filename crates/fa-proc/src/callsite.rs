//! Call stacks and multi-level call-sites.
//!
//! First-Aid keys its runtime patches to the *call-site* of an allocation
//! or deallocation, defined as "the return addresses of the most recent
//! three functions on the stack" (paper §2). Objects allocated or freed at
//! the same call-site tend to share characteristics (e.g. the same
//! overflow), so the call-site serves as the signature of the
//! bug-triggering objects.
//!
//! Applications in this reproduction maintain an explicit call stack of
//! function identifiers (stable hashes of function names). A call-site is
//! the top three frames, which matches the paper's bug reports, e.g.
//! `util_ald_free ← util_ald_cache_purge ← util_ald_cache_insert`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Sentinel frame id for missing stack levels (stacks shallower than 3).
pub const NO_SITE: u64 = 0;

/// A three-level call-site signature: `[callee, caller, caller's caller]`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct CallSite(pub [u64; 3]);

impl CallSite {
    /// Returns the innermost (most recent) frame id.
    pub fn leaf(&self) -> u64 {
        self.0[0]
    }

    /// Renders the call-site using a symbol table, innermost first.
    pub fn render(&self, symbols: &SymbolTable) -> String {
        self.0
            .iter()
            .filter(|&&id| id != NO_SITE)
            .map(|&id| format!("0x{:07x}@{}", id & 0xfff_ffff, symbols.name(id)))
            .collect::<Vec<_>>()
            .join(" <- ")
    }
}

/// Stable 64-bit hash of a function name (FNV-1a).
///
/// Stability across runs and processes matters: patches stored
/// persistently must match call-sites of later executions of the same
/// program (paper §2, "Patch generation and application").
pub fn intern_name(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Never collide with the sentinel.
    if hash == NO_SITE {
        1
    } else {
        hash
    }
}

/// Hashes a frame id to itself: the id is already an FNV-1a hash, so
/// hashing it again (SipHash, the `HashMap` default) only costs time.
#[derive(Default)]
struct FrameIdHasher(u64);

impl Hasher for FrameIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached for `u64` keys; fold anything else.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }
}

/// Maps frame ids back to function names for reports.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    names: HashMap<u64, String, BuildHasherDefault<FrameIdHasher>>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> u64 {
        let id = intern_name(name);
        self.names.entry(id).or_insert_with(|| name.to_owned());
        id
    }

    /// Returns the name for `id`, or `"?"` if unknown.
    pub fn name(&self, id: u64) -> &str {
        self.names.get(&id).map(String::as_str).unwrap_or("?")
    }
}

/// The explicit function call stack of a simulated process.
#[derive(Clone, Debug, Default)]
pub struct CallStack {
    frames: Vec<u64>,
}

impl CallStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        CallStack::default()
    }

    /// Pushes a frame.
    pub fn push(&mut self, id: u64) {
        self.frames.push(id);
    }

    /// Pops the top frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty; that is a harness bug, not a simulated
    /// memory bug.
    pub fn pop(&mut self) {
        self.frames.pop().expect("call stack underflow");
    }

    /// Returns the current stack depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Returns the three-level call-site signature at this point.
    pub fn callsite(&self) -> CallSite {
        let mut site = [NO_SITE; 3];
        for (slot, frame) in self.frames.iter().rev().take(3).enumerate() {
            site[slot] = *frame;
        }
        CallSite(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_distinct() {
        assert_eq!(intern_name("malloc_wrapper"), intern_name("malloc_wrapper"));
        assert_ne!(intern_name("foo"), intern_name("bar"));
        assert_ne!(intern_name("foo"), NO_SITE);
    }

    #[test]
    fn callsite_is_top_three() {
        let mut st = CallStack::new();
        let mut sym = SymbolTable::new();
        for f in ["main", "serve", "cache_insert", "ald_alloc"] {
            st.push(sym.intern(f));
        }
        let cs = st.callsite();
        assert_eq!(cs.0[0], intern_name("ald_alloc"));
        assert_eq!(cs.0[1], intern_name("cache_insert"));
        assert_eq!(cs.0[2], intern_name("serve"));
    }

    #[test]
    fn shallow_stack_pads_with_sentinel() {
        let mut st = CallStack::new();
        st.push(intern_name("main"));
        let cs = st.callsite();
        assert_eq!(cs.0[0], intern_name("main"));
        assert_eq!(cs.0[1], NO_SITE);
        assert_eq!(cs.0[2], NO_SITE);
        assert_eq!(cs.leaf(), intern_name("main"));
    }

    #[test]
    fn push_pop_restores_site() {
        let mut st = CallStack::new();
        st.push(intern_name("a"));
        let before = st.callsite();
        st.push(intern_name("b"));
        st.pop();
        assert_eq!(st.callsite(), before);
    }

    #[test]
    fn render_uses_symbols() {
        let mut st = CallStack::new();
        let mut sym = SymbolTable::new();
        st.push(sym.intern("util_ald_free"));
        let s = st.callsite().render(&sym);
        assert!(s.contains("@util_ald_free"), "{s}");
    }

    #[test]
    fn serde_roundtrip() {
        let cs = CallSite([1, 2, 3]);
        let json = serde_json::to_string(&cs).unwrap();
        let back: CallSite = serde_json::from_str(&json).unwrap();
        assert_eq!(cs, back);
    }

    #[test]
    #[should_panic(expected = "call stack underflow")]
    fn pop_empty_panics() {
        CallStack::new().pop();
    }
}
