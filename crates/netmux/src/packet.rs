//! A minimal Ethernet/IPv4/L4 packet model.
//!
//! Only what the simulated data path needs: addressing for switching and
//! hashing, ports and payload for the guest network stacks. No
//! checksums or wire encoding — packets move between components as values.

use std::fmt;
use std::net::Ipv4Addr;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Returns the Xen-style locally administered MAC for a domain/device
    /// pair (`00:16:3e` is the Xen OUI).
    pub fn xen(domid: u32, dev: u8) -> MacAddr {
        let d = domid.to_be_bytes();
        MacAddr([0x00, 0x16, 0x3e, d[2], d[3], dev])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// TCP control flags (only what the mini TCP state machine uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Connection open request.
    pub syn: bool,
    /// Acknowledgement.
    pub ack: bool,
    /// Orderly close.
    pub fin: bool,
    /// Abort.
    pub rst: bool,
}

impl TcpFlags {
    /// A bare SYN.
    pub const SYN: TcpFlags = TcpFlags { syn: true, ack: false, fin: false, rst: false };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, fin: false, rst: false };
    /// A bare ACK.
    pub const ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: false, rst: false };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: true, rst: false };
}

/// Transport-layer content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4 {
    /// A UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// A TCP segment.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgement number.
        ack: u32,
        /// Control flags.
        flags: TcpFlags,
        /// Payload bytes.
        payload: Vec<u8>,
    },
}

/// The 4-tuple used by layer3+4 hashing and flow tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

/// An Ethernet/IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Transport content.
    pub l4: L4,
}

impl Packet {
    /// Builds a UDP packet.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Packet {
        Packet {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            l4: L4::Udp {
                src_port,
                dst_port,
                payload,
            },
        }
    }

    /// Builds a TCP packet.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: Vec<u8>,
    ) -> Packet {
        Packet {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            l4: L4::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                payload,
            },
        }
    }

    /// Source port, whatever the transport.
    pub fn src_port(&self) -> u16 {
        match &self.l4 {
            L4::Udp { src_port, .. } | L4::Tcp { src_port, .. } => *src_port,
        }
    }

    /// Destination port, whatever the transport.
    pub fn dst_port(&self) -> u16 {
        match &self.l4 {
            L4::Udp { dst_port, .. } | L4::Tcp { dst_port, .. } => *dst_port,
        }
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        match &self.l4 {
            L4::Udp { payload, .. } | L4::Tcp { payload, .. } => payload,
        }
    }

    /// Total modelled length in bytes (headers + payload).
    pub fn len(&self) -> usize {
        let hdr = match &self.l4 {
            L4::Udp { .. } => 14 + 20 + 8,
            L4::Tcp { .. } => 14 + 20 + 20,
        };
        hdr + self.payload().len()
    }

    /// Whether the packet carries no payload.
    pub fn is_empty(&self) -> bool {
        self.payload().is_empty()
    }

    /// The flow 4-tuple.
    pub fn flow(&self) -> FlowKey {
        FlowKey {
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port: self.src_port(),
            dst_port: self.dst_port(),
        }
    }

    /// The reply direction of this packet's flow.
    pub fn reverse_flow(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port(),
            dst_port: self.src_port(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::udp(
            MacAddr::xen(1, 0),
            MacAddr::xen(2, 0),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            53,
            vec![1, 2, 3],
        )
    }

    #[test]
    fn xen_mac_uses_oui_and_domid() {
        let m = MacAddr::xen(0x0102, 3);
        assert_eq!(m.0, [0x00, 0x16, 0x3e, 0x01, 0x02, 0x03]);
        assert_eq!(m.to_string(), "00:16:3e:01:02:03");
    }

    #[test]
    fn ports_and_payload_accessors() {
        let p = sample();
        assert_eq!(p.src_port(), 4000);
        assert_eq!(p.dst_port(), 53);
        assert_eq!(p.payload(), &[1, 2, 3]);
        assert_eq!(p.len(), 14 + 20 + 8 + 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn flow_and_reverse() {
        let p = sample();
        let f = p.flow();
        let r = p.reverse_flow();
        assert_eq!(f.src_ip, r.dst_ip);
        assert_eq!(f.src_port, r.dst_port);
        assert_ne!(f, r);
    }

    #[test]
    fn tcp_flag_constants() {
        assert!(TcpFlags::SYN.syn && !TcpFlags::SYN.ack);
        assert!(TcpFlags::SYN_ACK.syn && TcpFlags::SYN_ACK.ack);
        assert!(TcpFlags::FIN_ACK.fin && TcpFlags::FIN_ACK.ack);
    }
}
