//! Linux bonding in `balance-xor` mode.
//!
//! The paper's stateless solution for clone networking (§5.2.1, §6.1): all
//! clone vifs share one MAC/IP and are enslaved to a bond whose
//! `layer3+4` transmit hash picks the slave from the IP/port 4-tuple. The
//! bond keeps no per-flow state; its only overhead is computing the hash.
//!
//! The hash mirrors the kernel's `bond_xmit_hash` for `layer3+4`: XOR of
//! source/destination IPs folded with the XOR of the ports, reduced modulo
//! the slave count. As in the paper's experiment, distinct `<address,
//! port>` tuples may collide on the same slave — the evaluation works
//! around this by assigning each UDP server a unique port.

use sim_core::{CostModel, SimDuration};

use crate::packet::Packet;
use crate::{CloneMux, IfaceId};

/// A bond interface aggregating clone vifs, hashing with the `layer3+4`
/// transmit policy.
#[derive(Debug, Default)]
pub struct Bond {
    slaves: Vec<IfaceId>,
}

impl Bond {
    /// Creates an empty bond.
    pub fn new() -> Self {
        Bond::default()
    }

    /// The slave index a packet hashes to (exposed for tests and for the
    /// collision-avoidance logic in the experiments).
    pub fn hash_index(&self, pkt: &Packet, n: usize) -> usize {
        debug_assert!(n > 0);
        let sip = u32::from(pkt.src_ip) as u64;
        let dip = u32::from(pkt.dst_ip) as u64;
        let ports = (pkt.src_port() ^ pkt.dst_port()) as u64;
        // Fold IPs and ports the way bond_xmit_hash does.
        let mut h = sip ^ dip;
        h ^= h >> 16;
        h ^= ports;
        (h % n as u64) as usize
    }
}

impl CloneMux for Bond {
    fn add_member(&mut self, iface: IfaceId) {
        if !self.slaves.contains(&iface) {
            self.slaves.push(iface);
        }
    }

    fn remove_member(&mut self, iface: IfaceId) {
        self.slaves.retain(|s| *s != iface);
    }

    fn select(&mut self, pkt: &Packet) -> Option<IfaceId> {
        if self.slaves.is_empty() {
            return None;
        }
        let idx = self.hash_index(pkt, self.slaves.len());
        Some(self.slaves[idx])
    }

    fn members(&self) -> &[IfaceId] {
        &self.slaves
    }

    fn add_member_cost(&self, costs: &CostModel) -> SimDuration {
        costs.bond_enslave
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
            7,
            vec![],
        )
    }

    fn bond_with(n: u32) -> Bond {
        let mut b = Bond::new();
        for i in 0..n {
            b.add_member(IfaceId(i));
        }
        b
    }

    #[test]
    fn empty_bond_selects_nothing() {
        let mut b = Bond::new();
        assert_eq!(b.select(&pkt(1)), None);
    }

    #[test]
    fn selection_is_deterministic_per_flow() {
        let mut b = bond_with(8);
        let a = b.select(&pkt(1234)).unwrap();
        for _ in 0..10 {
            assert_eq!(b.select(&pkt(1234)).unwrap(), a, "same flow, same slave");
        }
    }

    #[test]
    fn ports_spread_across_slaves() {
        let mut b = bond_with(8);
        let mut seen = std::collections::HashSet::new();
        for port in 0..64 {
            seen.insert(b.select(&pkt(port)).unwrap());
        }
        assert_eq!(seen.len(), 8, "64 ports must cover all 8 slaves");
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let mut b = bond_with(4);
        let mut counts = [0u32; 4];
        for port in 1000..3000 {
            let IfaceId(i) = b.select(&pkt(port)).unwrap();
            counts[i as usize] += 1;
        }
        for c in counts {
            assert!((400..600).contains(&c), "counts {counts:?} unbalanced");
        }
    }

    #[test]
    fn unique_ports_can_map_distinct_slaves() {
        // The paper assigns each clone's UDP server a unique port so no two
        // <address, port> tuples collide; verify such an assignment exists.
        let mut b = bond_with(4);
        let mut covered = std::collections::HashSet::new();
        let mut port = 9000;
        while covered.len() < 4 {
            if covered.insert(b.select(&pkt(port)).unwrap()) {
                // New slave covered by this port.
            }
            port += 1;
            assert!(port < 9100, "should cover 4 slaves within 100 ports");
        }
    }

    #[test]
    fn enslave_remove_roundtrip() {
        let mut b = bond_with(2);
        b.add_member(IfaceId(0));
        assert_eq!(b.member_count(), 2, "duplicate enslave ignored");
        b.remove_member(IfaceId(0));
        assert_eq!(b.member_count(), 1);
        assert_eq!(b.members(), [IfaceId(1)]);
        assert_eq!(b.select(&pkt(5)).unwrap(), IfaceId(1));
    }
}
