//! Shared I/O rings.
//!
//! Frontends and backends exchange requests/responses over single-page
//! shared rings (grant-mapped in the real system). The ring here is a
//! bounded queue with Xen-style producer/consumer counters; its backing
//! guest page is tracked so the cloning machinery can treat ring pages as
//! private memory.
//!
//! Per §4.2, ring handling differs per device on clone: network rings are
//! **copied** (their contents are tied to in-flight guest state and the RX
//! entries are guest-preallocated buffers carrying allocator metadata),
//! while the console ring is **not** (duplicating the parent's console
//! output would hinder debugging). [`SharedRing::clone_copy`] implements
//! the copy; a clone's console gets a new ring.

use sim_core::Pfn;

/// A bounded single-page shared ring.
#[derive(Debug, Clone)]
pub struct SharedRing<T> {
    /// The guest page backing this ring.
    pfn: Pfn,
    /// Ring capacity in entries (how many fit in one page).
    capacity: usize,
    /// Producer counter (total entries ever pushed).
    prod: u64,
    /// Consumer counter (total entries ever popped).
    cons: u64,
    entries: std::collections::VecDeque<T>,
    /// Entries dropped because the ring was full.
    dropped: u64,
}

impl<T> SharedRing<T> {
    /// Creates an empty ring backed by `pfn` holding up to `capacity`
    /// entries.
    pub fn new(pfn: Pfn, capacity: usize) -> Self {
        SharedRing {
            pfn,
            capacity: capacity.max(1),
            prod: 0,
            cons: 0,
            entries: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// The backing guest page.
    pub fn pfn(&self) -> Pfn {
        self.pfn
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the ring is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Pushes an entry; returns `false` (and counts a drop) when full.
    pub fn push(&mut self, entry: T) -> bool {
        if self.is_full() {
            self.dropped += 1;
            return false;
        }
        self.prod += 1;
        self.entries.push_back(entry);
        true
    }

    /// Pops the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        let e = self.entries.pop_front();
        if e.is_some() {
            self.cons += 1;
        }
        e
    }

    /// Total entries ever produced.
    pub fn produced(&self) -> u64 {
        self.prod
    }

    /// Total entries ever consumed.
    pub fn consumed(&self) -> u64 {
        self.cons
    }

    /// Entries dropped due to a full ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<T: Clone> SharedRing<T> {
    /// Clone policy for network-style rings: duplicate in-flight contents
    /// and counters onto the child's private ring page.
    pub fn clone_copy(&self, child_pfn: Pfn) -> SharedRing<T> {
        let mut r = self.clone();
        r.pfn = child_pfn;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_counters() {
        let mut r = SharedRing::new(Pfn(1), 3);
        assert!(r.push(1));
        assert!(r.push(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.produced(), 2);
        assert_eq!(r.consumed(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn full_ring_drops() {
        let mut r = SharedRing::new(Pfn(1), 2);
        assert!(r.push('a'));
        assert!(r.push('b'));
        assert!(!r.push('c'));
        assert_eq!(r.dropped(), 1);
        assert!(r.is_full());
    }

    #[test]
    fn clone_copy_preserves_contents() {
        let mut r = SharedRing::new(Pfn(1), 4);
        r.push("inflight");
        let mut c = r.clone_copy(Pfn(9));
        assert_eq!(c.pfn(), Pfn(9));
        assert_eq!(c.pop(), Some("inflight"));
        // Parent untouched.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn zero_capacity_clamped() {
        let r: SharedRing<u8> = SharedRing::new(Pfn(0), 0);
        assert_eq!(r.capacity(), 1);
    }
}
