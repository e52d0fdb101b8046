//! Event channels: Xen's inter-domain notification primitive.
//!
//! Channels connect a local port in one domain to a remote port in another
//! (interdomain channels) or to a virtual interrupt line (VIRQ channels).
//! Nephele adds two things (§5.1):
//!
//! * the `DOMID_CHILD` wildcard: a channel created with remote
//!   [`DomId::CHILD`] is connected to *all future clones* of the creating
//!   domain — on creation a clone is implicitly bound to all such IDC
//!   channels of its parent;
//! * a new virtual interrupt, [`Virq::Cloned`], used by the hypervisor to
//!   wake the `xencloned` daemon when clone notifications are pending.

use std::collections::{BTreeMap, BTreeSet};

use sim_core::DomId;

use crate::error::{HvError, Result};

/// A local event-channel port number.
pub type Port = u32;

/// Virtual interrupt lines. The model raises one: Nephele's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Virq {
    /// Nephele: a clone notification was queued (wakes `xencloned`).
    Cloned,
}

/// State of one channel slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Channel {
    /// Unallocated.
    Free,
    /// Connected to a remote domain's port.
    Interdomain {
        /// The peer domain (may be [`DomId::CHILD`] for parent-side IDC
        /// channels, in which case sends fan out to all bound clones).
        remote_dom: DomId,
        /// The peer's local port.
        remote_port: Port,
    },
    /// Bound to a virtual interrupt.
    VirqBound(Virq),
}

/// The per-domain event-channel table.
#[derive(Debug, Clone, Default)]
pub struct EventChannels {
    channels: Vec<Channel>,
    /// Pending (unacknowledged) notification flags, indexed by port.
    pending: Vec<bool>,
    /// Reverse index: peer domain → local ports of interdomain channels
    /// naming it. Maintained on every slot transition so that
    /// [`EventChannels::close_peer`] costs O(matching ports), not
    /// O(table) — on Dom0 the table grows with every live domain, which
    /// made peer teardown O(live domains).
    peers: BTreeMap<DomId, BTreeSet<Port>>,
}

impl EventChannels {
    /// Creates an empty table.
    pub fn new() -> Self {
        EventChannels::default()
    }

    /// Removes `port` from the peer index if its current channel is
    /// interdomain. Must run *before* the slot is overwritten.
    fn index_remove(&mut self, port: Port) {
        if let Some(Channel::Interdomain { remote_dom, .. }) = self.channels.get(port as usize) {
            let dom = *remote_dom;
            if let Some(ports) = self.peers.get_mut(&dom) {
                ports.remove(&port);
                if ports.is_empty() {
                    self.peers.remove(&dom);
                }
            }
        }
    }

    /// Adds `port` to the peer index if its current channel is
    /// interdomain. Must run *after* the slot is written.
    fn index_add(&mut self, port: Port) {
        if let Some(Channel::Interdomain { remote_dom, .. }) = self.channels.get(port as usize) {
            let dom = *remote_dom;
            self.peers.entry(dom).or_default().insert(port);
        }
    }

    fn alloc_slot(&mut self, ch: Channel) -> Port {
        let port = if let Some(idx) = self
            .channels
            .iter()
            .position(|c| matches!(c, Channel::Free))
        {
            self.channels[idx] = ch;
            idx as Port
        } else {
            self.channels.push(ch);
            self.pending.push(false);
            (self.channels.len() - 1) as Port
        };
        self.index_add(port);
        port
    }

    /// Installs a fully connected interdomain channel (used by the platform
    /// when wiring both ends at once, e.g. device setup).
    pub fn bind_interdomain(&mut self, remote_dom: DomId, remote_port: Port) -> Port {
        self.alloc_slot(Channel::Interdomain {
            remote_dom,
            remote_port,
        })
    }

    /// Binds a VIRQ line, returning the local port.
    pub fn bind_virq(&mut self, virq: Virq) -> Port {
        self.alloc_slot(Channel::VirqBound(virq))
    }

    /// Updates the remote port of an interdomain channel (used when wiring
    /// a pair whose second end is allocated after the first).
    pub fn set_remote_port(&mut self, port: Port, new_remote_port: Port) -> Result<()> {
        match self.channels.get_mut(port as usize) {
            Some(Channel::Interdomain { remote_port, .. }) => {
                *remote_port = new_remote_port;
                Ok(())
            }
            _ => Err(HvError::BadPort(port)),
        }
    }

    /// Replaces the channel behind `port` wholesale (used by the cloning
    /// path to re-wire a child's copied channels).
    pub fn replace(&mut self, port: Port, ch: Channel) -> Result<()> {
        if self.channels.get(port as usize).is_none() {
            return Err(HvError::BadPort(port));
        }
        self.index_remove(port);
        self.channels[port as usize] = ch;
        self.index_add(port);
        Ok(())
    }

    /// Returns the channel state behind `port`.
    pub fn channel(&self, port: Port) -> Result<&Channel> {
        self.channels.get(port as usize).ok_or(HvError::BadPort(port))
    }

    /// Closes a channel.
    pub fn close(&mut self, port: Port) -> Result<()> {
        match self.channels.get(port as usize) {
            Some(c) if !matches!(c, Channel::Free) => {}
            _ => return Err(HvError::BadPort(port)),
        }
        self.index_remove(port);
        self.channels[port as usize] = Channel::Free;
        if let Some(p) = self.pending.get_mut(port as usize) {
            *p = false;
        }
        Ok(())
    }

    /// Marks a port pending; returns `true` if it was not already pending
    /// (i.e. an upcall should be injected).
    pub fn set_pending(&mut self, port: Port) -> bool {
        if let Some(p) = self.pending.get_mut(port as usize) {
            let was = *p;
            *p = true;
            !was
        } else {
            false
        }
    }

    /// Clears and returns the pending flag for a port.
    pub fn take_pending(&mut self, port: Port) -> bool {
        if let Some(p) = self.pending.get_mut(port as usize) {
            std::mem::take(p)
        } else {
            false
        }
    }

    /// Finds the port bound to `virq`, if any.
    pub fn virq_port(&self, virq: Virq) -> Option<Port> {
        self.channels
            .iter()
            .position(|c| matches!(c, Channel::VirqBound(v) if *v == virq))
            .map(|i| i as Port)
    }

    /// Number of allocated (non-free) channels.
    pub fn active_channels(&self) -> usize {
        self.channels
            .iter()
            .filter(|c| !matches!(c, Channel::Free))
            .count()
    }

    /// Iterates over `(port, channel)` for allocated slots.
    pub fn iter_active(&self) -> impl Iterator<Item = (Port, &Channel)> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| !matches!(c, Channel::Free))
            .map(|(i, c)| (i as Port, c))
    }

    /// Closes every interdomain channel whose remote end is `peer` and
    /// returns how many were closed. Used when `peer` is destroyed so no
    /// live table keeps a binding to a dead domain.
    ///
    /// Cost: O(channels actually naming `peer`) via the reverse index —
    /// independent of table size, hence of live-domain count.
    pub fn close_peer(&mut self, peer: DomId) -> usize {
        let Some(ports) = self.peers.remove(&peer) else {
            return 0;
        };
        let closed = ports.len();
        for port in ports {
            debug_assert!(
                matches!(
                    self.channels.get(port as usize),
                    Some(Channel::Interdomain { remote_dom, .. }) if *remote_dom == peer
                ),
                "peer index out of sync with channel table at port {port}"
            );
            self.channels[port as usize] = Channel::Free;
            if let Some(p) = self.pending.get_mut(port as usize) {
                *p = false;
            }
        }
        debug_assert!(
            !self
                .channels
                .iter()
                .any(|c| matches!(c, Channel::Interdomain { remote_dom, .. } if *remote_dom == peer)),
            "close_peer left a channel naming the dead peer"
        );
        closed
    }

    /// Per-peer count of interdomain channels naming each remote domain,
    /// read from the maintained reverse index (O(distinct peers)). Used
    /// by the platform auditor to cross-check the index against a scan.
    pub fn peer_counts(&self) -> impl Iterator<Item = (DomId, u64)> + '_ {
        self.peers.iter().map(|(d, ports)| (*d, ports.len() as u64))
    }

    /// Produces a child's channel table at clone time. Interdomain channels
    /// keep their port numbers (the peers are re-wired by the hypervisor's
    /// cloning logic); pending bits are cleared.
    pub fn clone_for_child(&self) -> EventChannels {
        EventChannels {
            channels: self.channels.clone(),
            pending: vec![false; self.pending.len()],
            peers: self.peers.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virq_binding_lookup() {
        let mut t = EventChannels::new();
        assert_eq!(t.virq_port(Virq::Cloned), None);
        let p = t.bind_virq(Virq::Cloned);
        assert_eq!(t.virq_port(Virq::Cloned), Some(p));
    }

    #[test]
    fn pending_flag_semantics() {
        let mut t = EventChannels::new();
        let p = t.bind_virq(Virq::Cloned);
        assert!(t.set_pending(p), "first set should request an upcall");
        assert!(!t.set_pending(p), "second set is coalesced");
        assert!(t.take_pending(p));
        assert!(!t.take_pending(p));
    }

    #[test]
    fn close_frees_slot_for_reuse() {
        let mut t = EventChannels::new();
        let a = t.bind_virq(Virq::Cloned);
        t.close(a).unwrap();
        assert_eq!(t.virq_port(Virq::Cloned), None);
        let b = t.bind_interdomain(DomId::CHILD, 0);
        assert_eq!(a, b);
        assert!(t.close(99).is_err());
    }

    #[test]
    fn peer_index_tracks_every_transition() {
        let mut t = EventChannels::new();
        let a = t.bind_interdomain(DomId(3), 0);
        let b = t.bind_virq(Virq::Cloned);
        t.replace(
            b,
            Channel::Interdomain {
                remote_dom: DomId(3),
                remote_port: 1,
            },
        )
        .unwrap();
        let c = t.bind_interdomain(DomId(4), 0);
        t.replace(
            c,
            Channel::Interdomain {
                remote_dom: DomId(3),
                remote_port: 2,
            },
        )
        .unwrap();
        t.close(a).unwrap();
        // a closed; b and c name DomId(3): the replace indexed b's
        // former VIRQ slot and moved c off DomId(4)'s index entry.
        assert_eq!(t.close_peer(DomId(4)), 0);
        assert_eq!(t.close_peer(DomId(3)), 2);
        assert_eq!(t.close_peer(DomId(3)), 0);
        assert_eq!(t.active_channels(), 0);
    }

    #[test]
    fn clone_keeps_peer_index() {
        let mut t = EventChannels::new();
        t.bind_interdomain(DomId(7), 1);
        let c = t.clone_for_child();
        let counts: Vec<_> = c.peer_counts().collect();
        assert_eq!(counts, vec![(DomId(7), 1)]);
    }

    #[test]
    fn clone_clears_pending() {
        let mut t = EventChannels::new();
        let p = t.bind_interdomain(DomId(0), 3);
        t.set_pending(p);
        let c = t.clone_for_child();
        assert_eq!(c.active_channels(), 1);
        assert!(!c.pending[p as usize]);
    }
}
