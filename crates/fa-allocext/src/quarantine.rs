//! The delay-free quarantine.
//!
//! The preventive change for dangling pointers and double frees "delay\[s\]
//! recycling of deallocated bug-triggering objects for a long time until
//! the memory occupied by these objects reaches a customizable threshold"
//! (paper §2). Quarantined objects keep their heap chunks allocated, so
//! dangling reads still see the old contents (preventive) and dangling
//! writes touch memory nothing else owns.

use std::collections::VecDeque;

use fa_mem::Addr;

/// Default quarantine budget: 1 MB, the threshold used in the paper's
/// experiments (§7.6.1).
pub const DEFAULT_QUARANTINE_BYTES: u64 = 1 << 20;

/// One delay-freed object awaiting real deallocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QEntry {
    /// User pointer of the quarantined object.
    pub user: Addr,
    /// Heap bytes the entry pins (outer size).
    pub bytes: u64,
    /// Allocation sequence number, for stable ordering in reports.
    pub seq: u64,
}

/// FIFO quarantine with a byte budget.
#[derive(Clone, Debug)]
pub struct Quarantine {
    entries: VecDeque<QEntry>,
    bytes: u64,
    threshold: u64,
    /// Cumulative bytes ever delay-freed (paper Table 5 reports the
    /// accumulated space occupied by delay-freed objects).
    pub accumulated_bytes: u64,
    /// Cumulative count of delay-freed objects.
    pub accumulated_objects: u64,
}

impl Quarantine {
    /// Creates a quarantine with the given byte threshold.
    pub fn new(threshold: u64) -> Self {
        Quarantine {
            entries: VecDeque::new(),
            bytes: 0,
            threshold,
            accumulated_bytes: 0,
            accumulated_objects: 0,
        }
    }

    /// Adds an object; returns entries evicted to stay under threshold.
    ///
    /// Eviction order is oldest-first: "deallocating very old delay-freed
    /// objects is usually safe" (paper §2).
    pub fn push(&mut self, entry: QEntry) -> Vec<QEntry> {
        self.bytes += entry.bytes;
        self.accumulated_bytes += entry.bytes;
        self.accumulated_objects += 1;
        self.entries.push_back(entry);
        let mut evicted = Vec::new();
        while self.bytes > self.threshold && self.entries.len() > 1 {
            let old = self
                .entries
                .pop_front()
                .expect("non-empty while over threshold");
            self.bytes -= old.bytes;
            evicted.push(old);
        }
        evicted
    }

    /// Adds an object without enforcing the threshold.
    ///
    /// Used while heap marks are live: real frees during a marked
    /// re-execution would scribble free-list cookies into marked regions
    /// and fake canary corruption, so eviction is suspended.
    pub fn push_unbounded(&mut self, entry: QEntry) -> Vec<QEntry> {
        self.bytes += entry.bytes;
        self.accumulated_bytes += entry.bytes;
        self.accumulated_objects += 1;
        self.entries.push_back(entry);
        Vec::new()
    }

    /// Current pinned bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the quarantine is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &QEntry> {
        self.entries.iter()
    }

    /// Drains all entries (used when disabling delay-free changes).
    pub fn drain(&mut self) -> Vec<QEntry> {
        self.bytes = 0;
        self.entries.drain(..).collect()
    }

    /// Returns the byte threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl Default for Quarantine {
    fn default() -> Self {
        Quarantine::new(DEFAULT_QUARANTINE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(user: u64, bytes: u64, seq: u64) -> QEntry {
        QEntry {
            user: Addr(user),
            bytes,
            seq,
        }
    }

    #[test]
    fn fifo_eviction_over_threshold() {
        let mut q = Quarantine::new(100);
        assert!(q.push(entry(1, 60, 1)).is_empty());
        assert!(q.push(entry(2, 30, 2)).is_empty());
        let evicted = q.push(entry(3, 50, 3));
        assert_eq!(evicted, vec![entry(1, 60, 1)]);
        assert_eq!(q.bytes(), 80);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn accumulated_accounting_survives_eviction() {
        let mut q = Quarantine::new(50);
        q.push(entry(1, 40, 1));
        q.push(entry(2, 40, 2));
        assert_eq!(q.accumulated_bytes, 80);
        assert_eq!(q.accumulated_objects, 2);
    }

    #[test]
    fn single_oversized_entry_is_retained() {
        // The newest entry is never evicted, even over budget: evicting
        // the object just freed would defeat the change entirely.
        let mut q = Quarantine::new(10);
        let evicted = q.push(entry(1, 100, 1));
        assert!(evicted.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_empties() {
        let mut q = Quarantine::new(100);
        q.push(entry(1, 10, 1));
        q.push(entry(2, 10, 2));
        let all = q.drain();
        assert_eq!(all.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
    }
}
