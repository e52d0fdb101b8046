//! Device classes and their clone heuristics: the paper's §4.2 table.
//!
//! The paper gives each device class one heuristic for what cloning a
//! device means: consoles get fresh rings, network devices get their
//! rings copied, 9pfs shares the parent's backend process. This module
//! states that table as types: a device is a [`DeviceId`] (its class
//! plus its per-domain device index), each [`DeviceClass`] variant
//! documents its heuristic, and a [`ClonePolicy`] says which classes the
//! second stage clones.
//!
//! The device manager's per-class state is the one registry of live
//! devices: [`DeviceManager::devices`](crate::DeviceManager::devices)
//! lists a domain's devices from it in `(class, devid)` order, and
//! [`DeviceManager::clone_device`](crate::DeviceManager::clone_device)
//! clones one by a `match` on its class. The second stage is then a
//! single loop over the parent's devices the policy clones, resolved
//! once per run of its children:
//!
//! ```text
//! let sources = dm.clone_sources(xs, parent, &policy); // console, vifs, 9pfs
//! for src in &sources {
//!     dm.clone_device(hv, xs, udev, src, child, deep_copy)?;
//! }
//! ```

use std::collections::BTreeMap;

use sim_core::DomId;

/// The device classes the platform models, in dispatch order: the three
/// the paper clones (§4.2), each with its own clone heuristic.
///
/// The `Ord` derivation is load-bearing: device lists sort by `(class,
/// devid)`, and `Console < Vif < P9fs` is the order the second stage
/// has always cloned in (console first, then vifs by device index, then
/// 9pfs), which the determinism-gated figures pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// The PV console (xenconsoled-managed). Cloning copies only its
    /// Xenstore entries; the backend attaches the child on a fresh ring,
    /// so the parent's output is not replayed.
    Console,
    /// A PV network interface (netfront/netback). Cloning copies its
    /// rings verbatim, because they embed guest-owned allocator metadata
    /// (the preallocated RX buffers), and connects the child's backend
    /// without a Xenbus negotiation.
    Vif,
    /// The 9pfs root filesystem (QEMU-hosted backend). The child keeps
    /// using the parent's backend process: cloning is one QMP request
    /// that duplicates the parent's fid table in that same process.
    P9fs,
}

impl DeviceClass {
    /// Every class, in dispatch order.
    pub const ALL: [DeviceClass; 3] = [DeviceClass::Console, DeviceClass::Vif, DeviceClass::P9fs];

    /// The Xenstore directory name of this class (`device/<name>/...`).
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Console => "console",
            DeviceClass::Vif => "vif",
            DeviceClass::P9fs => "9pfs",
        }
    }
}

/// A device's identity within its domain: its class plus its device
/// index. Sorting by `DeviceId` gives the canonical dispatch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId {
    /// The device class.
    pub class: DeviceClass,
    /// Device index within the owning domain (0 for singleton classes).
    pub devid: u32,
}

impl DeviceId {
    /// Convenience constructor.
    pub fn new(class: DeviceClass, devid: u32) -> Self {
        DeviceId { class, devid }
    }

    /// The frontend directory of `owner`'s device:
    /// `/local/domain/<owner>/device/<class>/<devid>`, except the
    /// console's one node, `/local/domain/<owner>/console`.
    pub fn frontend_dir(self, owner: DomId) -> String {
        match self.class {
            DeviceClass::Console => format!("/local/domain/{}/console", owner.0),
            class => format!("/local/domain/{}/device/{}/{}", owner.0, class.name(), self.devid),
        }
    }

    /// The Dom0 backend directory of `owner`'s device:
    /// `/local/domain/0/backend/<class>/<owner>/<devid>`. The console has
    /// none.
    pub fn backend_dir(self, owner: DomId) -> Option<String> {
        (self.class != DeviceClass::Console).then(|| {
            format!("/local/domain/0/backend/{}/{}/{}", self.class.name(), owner.0, self.devid)
        })
    }
}

/// Per-class clone policy: which device classes the second stage clones.
///
/// Every class defaults to enabled; §7.1's Redis experiment disables the
/// network class ("the I/O cloning is optimized to clone only the devices
/// that are needed by the clones").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClonePolicy {
    /// Classes explicitly overridden away from the enabled default.
    overrides: BTreeMap<DeviceClass, bool>,
}

impl ClonePolicy {
    /// The default policy: every class cloned.
    pub fn all() -> Self {
        ClonePolicy::default()
    }

    /// Sets whether `class` is cloned (builder-style).
    pub fn set(mut self, class: DeviceClass, enabled: bool) -> Self {
        if enabled {
            self.overrides.remove(&class);
        } else {
            self.overrides.insert(class, false);
        }
        self
    }

    /// Whether the second stage clones devices of `class`.
    pub fn clones(&self, class: DeviceClass) -> bool {
        *self.overrides.get(&class).unwrap_or(&true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_class_order_matches_legacy_dispatch() {
        assert!(DeviceClass::Console < DeviceClass::Vif);
        assert!(DeviceClass::Vif < DeviceClass::P9fs);
        assert_eq!(DeviceClass::ALL.len(), 3);
    }

    #[test]
    fn policy_defaults_to_all_enabled() {
        let p = ClonePolicy::all();
        for c in DeviceClass::ALL {
            assert!(p.clones(c));
        }
        let p = p.set(DeviceClass::Vif, false);
        assert!(!p.clones(DeviceClass::Vif));
        assert!(p.clones(DeviceClass::Console));
        let p = p.set(DeviceClass::Vif, true);
        assert_eq!(p, ClonePolicy::all(), "re-enabling restores the default");
    }

    #[test]
    fn device_dirs_pin_the_xenstore_layout() {
        use DeviceClass::{Console, P9fs, Vif};
        let owner = DomId(7);
        let split = |class: &str, devid: u32| {
            (
                format!("/local/domain/7/device/{class}/{devid}"),
                Some(format!("/local/domain/0/backend/{class}/7/{devid}")),
            )
        };
        let console = || ("/local/domain/7/console".to_string(), None);
        // 9pfs is one per domain, always devid 0.
        let cases = [
            (Console, 0, console()),
            (Console, 2, console()),
            (Vif, 0, split("vif", 0)),
            (Vif, 2, split("vif", 2)),
            (P9fs, 0, split("9pfs", 0)),
        ];
        assert_eq!(DeviceClass::ALL.len(), 3);
        for (class, devid, want) in cases {
            let id = DeviceId::new(class, devid);
            assert_eq!((id.frontend_dir(owner), id.backend_dir(owner)), want, "{id:?}");
        }
    }
}
