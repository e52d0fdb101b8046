//! The paravirtualized console device.
//!
//! Guests write bytes into a single-page console ring; a Dom0 process
//! (xenconsoled/QEMU) drains it into a per-domain log. Cloning a console
//! involves *only* creating the child's Xenstore entries — the managing
//! process is notified through its watch and creates the state "without
//! needing any changes in its code base" (§5.2.1), and the ring is not
//! copied so the child's output does not replay the parent's (§4.2).

use std::collections::BTreeMap;

use sim_core::{DomId, Pfn};

use crate::ring::SharedRing;

/// Dom0-side console state for all domains: one map, so attach costs
/// one insert and detach one remove.
#[derive(Debug, Default)]
pub struct ConsoleBackend {
    consoles: BTreeMap<u32, Console>,
}

/// One domain's console: the ring the guest writes and the log Dom0
/// drains it into.
#[derive(Debug)]
struct Console {
    ring: SharedRing<u8>,
    output: Vec<u8>,
}

/// Ring capacity in bytes (one page of output buffer).
const CONSOLE_RING_BYTES: usize = 4096;

impl ConsoleBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        ConsoleBackend::default()
    }

    /// Creates console state for a domain whose ring lives at `ring_pfn`,
    /// with an empty output log.
    pub fn attach(&mut self, dom: DomId, ring_pfn: Pfn) {
        self.consoles.insert(
            dom.0,
            Console {
                ring: SharedRing::new(ring_pfn, CONSOLE_RING_BYTES),
                output: Vec::new(),
            },
        );
    }

    /// Creates console state for a clone: a fresh ring (never a copy of the
    /// parent's) and an empty output log.
    pub fn attach_clone(&mut self, parent: DomId, child: DomId, ring_pfn: Pfn) {
        debug_assert!(self.consoles.contains_key(&parent.0), "parent console missing");
        self.attach(child, ring_pfn);
    }

    /// Whether a domain has console state.
    pub fn is_attached(&self, dom: DomId) -> bool {
        self.consoles.contains_key(&dom.0)
    }

    /// Guest writes bytes into its console ring.
    pub fn guest_write(&mut self, dom: DomId, bytes: &[u8]) {
        if let Some(console) = self.consoles.get_mut(&dom.0) {
            for b in bytes {
                console.ring.push(*b);
            }
        }
    }

    /// Dom0 drains the ring into the per-domain log (normally triggered by
    /// the console event channel).
    pub fn drain(&mut self, dom: DomId) {
        if let Some(Console { ring, output }) = self.consoles.get_mut(&dom.0) {
            while let Some(b) = ring.pop() {
                output.push(b);
            }
        }
    }

    /// The accumulated output of a domain.
    pub fn output(&self, dom: DomId) -> &[u8] {
        self.consoles.get(&dom.0).map_or(&[], |c| c.output.as_slice())
    }

    /// Drops state for a destroyed domain.
    pub fn detach(&mut self, dom: DomId) {
        self.consoles.remove(&dom.0);
    }

    /// The domains with console state, in id order.
    pub fn attached(&self) -> impl Iterator<Item = DomId> + '_ {
        self.consoles.keys().map(|&d| DomId(d))
    }

    /// Number of attached consoles.
    pub fn attached_count(&self) -> usize {
        self.consoles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_drain_output() {
        let mut c = ConsoleBackend::new();
        c.attach(DomId(1), Pfn(100));
        c.guest_write(DomId(1), b"hello ");
        c.guest_write(DomId(1), b"world");
        c.drain(DomId(1));
        assert_eq!(c.output(DomId(1)), b"hello world");
    }

    #[test]
    fn clone_console_does_not_replay_parent_output() {
        let mut c = ConsoleBackend::new();
        c.attach(DomId(1), Pfn(100));
        c.guest_write(DomId(1), b"parent boot log");
        c.attach_clone(DomId(1), DomId(2), Pfn(200));
        c.drain(DomId(2));
        assert!(c.output(DomId(2)).is_empty(), "child console starts clean");
        c.drain(DomId(1));
        assert_eq!(c.output(DomId(1)), b"parent boot log");
    }

    #[test]
    fn detach_clears_state() {
        let mut c = ConsoleBackend::new();
        c.attach(DomId(1), Pfn(100));
        c.detach(DomId(1));
        assert!(!c.is_attached(DomId(1)));
        assert_eq!(c.attached_count(), 0);
        // Writing to a detached console is a no-op rather than a panic.
        c.guest_write(DomId(1), b"x");
        assert!(c.output(DomId(1)).is_empty());
    }
}
