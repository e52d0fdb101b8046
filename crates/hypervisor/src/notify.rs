//! The clone notification ring shared between the hypervisor and the
//! `xencloned` daemon.
//!
//! After completing the first stage of a clone, the hypervisor fills an
//! entry in this ring and raises [`Virq::Cloned`](crate::event::Virq::Cloned)
//! to wake `xencloned` (§5, step 1.2). A full ring exerts *backpressure*:
//! further clone requests fail with
//! [`HvError::NotificationRingFull`]
//! until the daemon drains entries, slowing down the first stage as the
//! paper describes.

use sim_core::{DomId, Mfn};

use crate::error::{HvError, Result};

/// One clone notification: the minimum information `xencloned` needs to run
/// the second stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloneNotification {
    /// The domain that was cloned.
    pub parent: DomId,
    /// The parent's creation serial ([`crate::domain::Domain::serial`]),
    /// which tells it from other holders of its id.
    pub parent_serial: u64,
    /// The freshly created child.
    pub child: DomId,
    /// Machine frame of the parent's `start_info` page.
    pub parent_start_info: Mfn,
    /// Machine frame of the child's (rewritten) `start_info` page.
    pub child_start_info: Mfn,
}

/// Fixed-capacity notification ring.
#[derive(Debug)]
pub struct NotificationRing {
    entries: Vec<CloneNotification>,
    capacity: usize,
}

impl NotificationRing {
    /// Default ring capacity (one shared page of entries).
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Creates a ring with the given capacity.
    pub fn new(capacity: usize) -> Self {
        NotificationRing {
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Pushes a notification; fails when the ring is full (backpressure).
    pub fn push(&mut self, n: CloneNotification) -> Result<()> {
        if self.entries.len() >= self.capacity {
            return Err(HvError::NotificationRingFull);
        }
        self.entries.push(n);
        Ok(())
    }

    /// Pops the oldest notification, if any (consumer side).
    pub fn pop(&mut self) -> Option<CloneNotification> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }

    /// Number of queued notifications.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the ring is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Total capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over the queued notifications, oldest first (used by the
    /// state auditor to check pending entries against live domains).
    pub fn pending(&self) -> impl Iterator<Item = &CloneNotification> {
        self.entries.iter()
    }

    /// Slots still available before the ring exerts backpressure. The
    /// batched clone first stage checks this for all N children up front,
    /// so a multi-clone call never fails halfway through.
    pub fn free_slots(&self) -> usize {
        self.capacity.saturating_sub(self.entries.len())
    }
}

impl Default for NotificationRing {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(p: u32, c: u32) -> CloneNotification {
        CloneNotification {
            parent: DomId(p),
            parent_serial: 0,
            child: DomId(c),
            parent_start_info: Mfn(0),
            child_start_info: Mfn(1),
        }
    }

    #[test]
    fn fifo_order() {
        let mut r = NotificationRing::new(4);
        r.push(n(1, 2)).unwrap();
        r.push(n(1, 3)).unwrap();
        assert_eq!(r.pop().unwrap().child, DomId(2));
        assert_eq!(r.pop().unwrap().child, DomId(3));
        assert!(r.pop().is_none());
    }

    #[test]
    fn backpressure_when_full() {
        let mut r = NotificationRing::new(2);
        r.push(n(1, 2)).unwrap();
        r.push(n(1, 3)).unwrap();
        assert!(r.is_full());
        assert_eq!(r.push(n(1, 4)), Err(HvError::NotificationRingFull));
        r.pop().unwrap();
        r.push(n(1, 4)).unwrap();
    }

    #[test]
    fn free_slots_track_occupancy() {
        let mut r = NotificationRing::new(3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.free_slots(), 3);
        r.push(n(1, 2)).unwrap();
        assert_eq!(r.free_slots(), 2);
        r.push(n(1, 3)).unwrap();
        r.push(n(1, 4)).unwrap();
        assert_eq!(r.free_slots(), 0);
        r.pop().unwrap();
        assert_eq!(r.free_slots(), 1);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut r = NotificationRing::new(0);
        r.push(n(1, 2)).unwrap();
        assert!(r.is_full());
    }
}
