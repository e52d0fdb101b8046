//! Open vSwitch select groups.
//!
//! The paper's second multiplexing option (§5.2.1): an OVS group of type
//! `select` whose buckets are the clone vifs. As in vanilla OVS, a bucket
//! is picked by hashing the flow 4-tuple, so the group keeps no per-flow
//! state.

use sim_core::{CostModel, SimDuration};

use crate::packet::Packet;
use crate::{CloneMux, IfaceId};

/// An OVS select group whose buckets are clone interfaces.
#[derive(Debug, Default)]
pub struct SelectGroup {
    buckets: Vec<IfaceId>,
}

impl SelectGroup {
    /// Creates an empty group.
    pub fn new() -> Self {
        SelectGroup::default()
    }

    /// The bucket index a packet hashes to: the flow 4-tuple through the
    /// SplitMix64 finalizer, for good avalanche on low-entropy tuples.
    fn hash_index(pkt: &Packet, n: usize) -> usize {
        let f = pkt.flow();
        let mut h = ((u32::from(f.src_ip) as u64) << 32) | u32::from(f.dst_ip) as u64;
        h ^= ((f.src_port as u64) << 16) | f.dst_port as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h % n as u64) as usize
    }
}

impl CloneMux for SelectGroup {
    fn add_member(&mut self, iface: IfaceId) {
        if !self.buckets.contains(&iface) {
            self.buckets.push(iface);
        }
    }

    fn remove_member(&mut self, iface: IfaceId) {
        self.buckets.retain(|b| *b != iface);
    }

    fn select(&mut self, pkt: &Packet) -> Option<IfaceId> {
        if self.buckets.is_empty() {
            return None;
        }
        Some(self.buckets[Self::hash_index(pkt, self.buckets.len())])
    }

    fn members(&self) -> &[IfaceId] {
        &self.buckets
    }

    fn add_member_cost(&self, costs: &CostModel) -> SimDuration {
        costs.ovs_group_add
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use crate::packet::MacAddr;

    use super::*;

    fn pkt(src_port: u16) -> Packet {
        Packet::udp(
            MacAddr::xen(0, 0),
            MacAddr::xen(1, 0),
            Ipv4Addr::new(10, 0, 0, 100),
            Ipv4Addr::new(10, 0, 0, 1),
            src_port,
            80,
            vec![],
        )
    }

    #[test]
    fn hashed_group_is_deterministic() {
        let mut g = SelectGroup::new();
        for i in 0..4 {
            g.add_member(IfaceId(i));
        }
        let a = g.select(&pkt(55)).unwrap();
        assert_eq!(g.select(&pkt(55)).unwrap(), a);
    }

    #[test]
    fn hashed_group_spreads_ports() {
        let mut g = SelectGroup::new();
        for i in 0..4 {
            g.add_member(IfaceId(i));
        }
        let mut seen = std::collections::HashSet::new();
        for p in 0..64 {
            seen.insert(g.select(&pkt(p)).unwrap());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn empty_group_selects_nothing() {
        let mut g = SelectGroup::new();
        assert_eq!(g.select(&pkt(1)), None);
    }
}
