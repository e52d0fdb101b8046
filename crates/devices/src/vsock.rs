//! The vsock-like host↔guest stream device.
//!
//! A paravirtualized stream transport between the guest and a Dom0
//! service, identified by a host-side port. A stream connection is
//! *stateful in the host endpoint* — sequence numbers, socket buffers —
//! so cloning cannot copy it the way vif rings are copied: the child
//! would alias the parent's connection. Instead the device follows the
//! [`crate::bus::CloneSemantics::Reconnect`] heuristic (the console's
//! too): the child's Xenstore entries are cloned, but the transport is
//! a *fresh* connection on a deterministically reallocated port, with
//! none of the parent's in-flight data inherited.
//!
//! Port allocation is a pure function of the domain id
//! ([`vsock_port_for`]), keeping clone batches reproducible regardless
//! of dispatch order.

use sim_core::DomId;

/// First host-side port of the deterministic vsock port range.
pub const VSOCK_PORT_BASE: u32 = 52000;

/// The deterministic host-side port of a domain's vsock connection.
pub fn vsock_port_for(dom: DomId) -> u32 {
    VSOCK_PORT_BASE + dom.0
}

/// The Dom0-side state of one domain's vsock connection.
#[derive(Debug, Clone)]
pub struct VsockConn {
    /// Owning domain.
    pub dom: DomId,
    /// Host-side port (deterministic; see [`vsock_port_for`]).
    pub port: u32,
    /// Whether the stream is established.
    pub connected: bool,
    /// Messages sent since this connection was (re)established. A clone
    /// starts empty — buffered parent data is never inherited.
    pub sent: Vec<Vec<u8>>,
}

impl VsockConn {
    /// Establishes a fresh connection for `dom`.
    pub fn connect(dom: DomId) -> Self {
        VsockConn {
            dom,
            port: vsock_port_for(dom),
            connected: true,
            sent: Vec::new(),
        }
    }

    /// The child's connection at clone time: a fresh stream on the
    /// child's own deterministic port; nothing of the parent's buffered
    /// data survives.
    pub fn reconnect_for_child(&self, child: DomId) -> VsockConn {
        debug_assert!(self.connected, "cloning a disconnected vsock");
        VsockConn::connect(child)
    }

    /// Sends one message on the stream; `false` when disconnected.
    pub fn send(&mut self, payload: Vec<u8>) -> bool {
        if !self.connected {
            return false;
        }
        self.sent.push(payload);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_deterministic_per_domain() {
        assert_eq!(vsock_port_for(DomId(1)), VSOCK_PORT_BASE + 1);
        assert_eq!(VsockConn::connect(DomId(3)).port, vsock_port_for(DomId(3)));
    }

    #[test]
    fn clone_reconnects_without_inheriting_data() {
        let mut parent = VsockConn::connect(DomId(1));
        parent.send(b"hello".to_vec());
        let child = parent.reconnect_for_child(DomId(2));
        assert!(child.connected);
        assert_eq!(child.port, vsock_port_for(DomId(2)));
        assert_ne!(child.port, parent.port, "port reallocated, not shared");
        assert!(child.sent.is_empty(), "no buffered-data inheritance");
        assert_eq!(parent.sent.len(), 1);
    }

    #[test]
    fn send_requires_connection() {
        let mut c = VsockConn::connect(DomId(1));
        c.connected = false;
        assert!(!c.send(b"x".to_vec()));
    }
}
