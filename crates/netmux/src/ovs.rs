//! Open vSwitch select groups.
//!
//! The paper's second multiplexing option (§5.2.1): an OVS group of type
//! `select` whose buckets are the clone vifs. Vanilla OVS picks buckets by
//! hashing, but the point of the OVS path is extensibility — selection can
//! use the per-flow state OVS keeps. Both are provided:
//!
//! * [`HashSelect`] — stateless 4-tuple hashing (vanilla behaviour);
//! * [`FlowAwareSelect`] — sticky flow pinning with least-connections
//!   assignment for new flows, an example of the "more complex selection
//!   criteria" the paper says the approach enables.

use std::collections::HashMap;

use sim_core::{CostModel, SimDuration};

use crate::packet::{FlowKey, Packet};
use crate::{CloneMux, IfaceId};

/// Strategy for picking a bucket from a select group.
pub trait SelectionStrategy: std::fmt::Debug {
    /// Chooses a bucket index in `[0, n)` for `pkt`.
    fn select(&mut self, pkt: &Packet, n: usize) -> usize;
    /// Informs the strategy that a bucket was removed so any retained flow
    /// state can be fixed up.
    fn bucket_removed(&mut self, idx: usize);
}

/// Stateless hash selection over the flow 4-tuple.
#[derive(Debug, Default)]
pub struct HashSelect;

impl SelectionStrategy for HashSelect {
    fn select(&mut self, pkt: &Packet, n: usize) -> usize {
        let f = pkt.flow();
        let mut h = ((u32::from(f.src_ip) as u64) << 32) | u32::from(f.dst_ip) as u64;
        h ^= ((f.src_port as u64) << 16) | f.dst_port as u64;
        // SplitMix64 finalizer for good avalanche on low-entropy tuples.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h % n as u64) as usize
    }

    fn bucket_removed(&mut self, _idx: usize) {}
}

/// Flow-aware selection: remembers each flow's bucket; new flows go to the
/// bucket with the fewest active flows.
#[derive(Debug, Default)]
pub struct FlowAwareSelect {
    flows: HashMap<FlowKey, usize>,
    loads: Vec<u64>,
}

impl SelectionStrategy for FlowAwareSelect {
    fn select(&mut self, pkt: &Packet, n: usize) -> usize {
        self.loads.resize(n, 0);
        let key = pkt.flow();
        if let Some(&idx) = self.flows.get(&key) {
            if idx < n {
                return idx;
            }
        }
        let idx = self
            .loads
            .iter()
            .take(n)
            .enumerate()
            .min_by_key(|(i, l)| (**l, *i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.flows.insert(key, idx);
        self.loads[idx] += 1;
        idx
    }

    fn bucket_removed(&mut self, idx: usize) {
        self.flows.retain(|_, v| {
            if *v == idx {
                return false;
            }
            if *v > idx {
                *v -= 1;
            }
            true
        });
        if idx < self.loads.len() {
            self.loads.remove(idx);
        }
    }
}

/// An OVS select group whose buckets are clone interfaces.
#[derive(Debug)]
pub struct SelectGroup<S: SelectionStrategy> {
    buckets: Vec<IfaceId>,
    strategy: S,
}

impl<S: SelectionStrategy> SelectGroup<S> {
    /// Creates an empty group with the given strategy.
    pub fn new(strategy: S) -> Self {
        SelectGroup {
            buckets: Vec::new(),
            strategy,
        }
    }
}

impl SelectGroup<HashSelect> {
    /// A vanilla hash-selected group.
    pub fn hashed() -> Self {
        SelectGroup::new(HashSelect)
    }
}

impl SelectGroup<FlowAwareSelect> {
    /// A flow-aware (sticky, least-connections) group.
    pub fn flow_aware() -> Self {
        SelectGroup::new(FlowAwareSelect::default())
    }
}

impl<S: SelectionStrategy> CloneMux for SelectGroup<S> {
    fn add_member(&mut self, iface: IfaceId) {
        if !self.buckets.contains(&iface) {
            self.buckets.push(iface);
        }
    }

    fn remove_member(&mut self, iface: IfaceId) {
        if let Some(idx) = self.buckets.iter().position(|b| *b == iface) {
            self.buckets.remove(idx);
            self.strategy.bucket_removed(idx);
        }
    }

    fn select(&mut self, pkt: &Packet) -> Option<IfaceId> {
        if self.buckets.is_empty() {
            return None;
        }
        let idx = self.strategy.select(pkt, self.buckets.len());
        Some(self.buckets[idx])
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
        let mut g = SelectGroup::hashed();
        for i in 0..4 {
            g.add_member(IfaceId(i));
        }
        let a = g.select(&pkt(55)).unwrap();
        assert_eq!(g.select(&pkt(55)).unwrap(), a);
    }

    #[test]
    fn hashed_group_spreads_ports() {
        let mut g = SelectGroup::hashed();
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
    fn flow_aware_balances_new_flows() {
        let mut g = SelectGroup::flow_aware();
        for i in 0..3 {
            g.add_member(IfaceId(i));
        }
        // Nine distinct flows: exactly three per bucket.
        let mut counts = std::collections::HashMap::new();
        for p in 0..9 {
            *counts.entry(g.select(&pkt(p)).unwrap()).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn flow_aware_is_sticky() {
        let mut g = SelectGroup::flow_aware();
        g.add_member(IfaceId(0));
        g.add_member(IfaceId(1));
        let first = g.select(&pkt(7)).unwrap();
        // Interleave other flows; flow 7 must stay pinned.
        for p in 100..110 {
            g.select(&pkt(p)).unwrap();
        }
        assert_eq!(g.select(&pkt(7)).unwrap(), first);
    }

    #[test]
    fn removal_reroutes_orphaned_flows() {
        let mut g = SelectGroup::flow_aware();
        g.add_member(IfaceId(0));
        g.add_member(IfaceId(1));
        let victim = g.select(&pkt(7)).unwrap();
        g.remove_member(victim);
        let next = g.select(&pkt(7)).unwrap();
        assert_ne!(next, victim);
        assert_eq!(g.member_count(), 1);
    }

    #[test]
    fn empty_group_selects_nothing() {
        let mut g = SelectGroup::hashed();
        assert_eq!(g.select(&pkt(1)), None);
    }
}
