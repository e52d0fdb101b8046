//! Host-side network multiplexing for cloned unikernels.
//!
//! Clone network devices keep the *same MAC and IP address* as the parent
//! (transparent cloning, §5.2.1). The host therefore needs a stateless or
//! state-aware mechanism to pick which clone interface receives each flow.
//! The paper evaluates two off-the-shelf solutions, both implemented here:
//!
//! * [`bond::Bond`] — a Linux bonding interface in `balance-xor` mode with
//!   the `layer3+4` transmit hash policy: the slave is chosen by hashing IP
//!   addresses and ports, keeping no per-flow state;
//! * [`ovs::SelectGroup`] — an Open vSwitch select group whose bucket is
//!   chosen by hashing the flow 4-tuple, also keeping no per-flow state.

pub mod bond;
pub mod ovs;
pub mod packet;
pub mod stack;

pub use bond::Bond;
pub use ovs::SelectGroup;
pub use packet::{FlowKey, L4, MacAddr, Packet, TcpFlags};
pub use stack::{ConnId, NetStack, SockEvent};

use sim_core::{CostModel, SimDuration};

/// Identifies a virtual interface attached to a mux (e.g. a vif).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfaceId(pub u32);

/// A clone-interface multiplexer: given a packet destined to the shared
/// MAC/IP, pick the member interface that should receive it.
pub trait CloneMux: std::fmt::Debug {
    /// Adds a member interface (e.g. when `xencloned` enslaves a new clone
    /// vif).
    fn add_member(&mut self, iface: IfaceId);
    /// Removes a member interface (clone destroyed), keeping the
    /// survivors' enslavement order.
    fn remove_member(&mut self, iface: IfaceId);
    /// Selects the member for `pkt`, or `None` when the mux is empty.
    fn select(&mut self, pkt: &Packet) -> Option<IfaceId>;
    /// Current members, in enslavement order.
    fn members(&self) -> &[IfaceId];
    /// Current member count.
    fn member_count(&self) -> usize {
        self.members().len()
    }
    /// The Dom0 userspace cost of adding one member, which `xencloned`
    /// charges for every clone vif it enslaves.
    fn add_member_cost(&self, costs: &CostModel) -> SimDuration;
}
