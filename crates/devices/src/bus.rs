//! Device classes and their clone semantics: the paper's §4.2 table.
//!
//! The paper gives each device class one heuristic for what cloning a
//! device means: consoles get fresh rings, network devices get their
//! rings copied, 9pfs shares the parent's backend process. This module
//! states that table as types: a device is a [`DeviceId`] (its class
//! plus its per-domain device index), each [`DeviceClass`] declares its
//! [`CloneSemantics`], and a [`ClonePolicy`] says which classes the
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
//! let sources = dm.clone_sources(xs, parent, &policy); // console, vifs, 9pfs, ...
//! for src in &sources {
//!     dm.clone_device(hv, xs, udev, src, child, deep_copy)?;
//! }
//! ```

use std::collections::BTreeMap;

use sim_core::DomId;

/// The device classes the platform models, in dispatch order.
///
/// The `Ord` derivation is load-bearing: device lists sort by `(class,
/// devid)`, and `Console < Vif < P9fs` is the order the second stage
/// has always cloned in (console first, then vifs by device index, then
/// 9pfs), which the determinism-gated figures pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// The PV console (xenconsoled-managed).
    Console,
    /// A PV network interface (netfront/netback).
    Vif,
    /// The 9pfs root filesystem (QEMU-hosted backend).
    P9fs,
    /// A PV block device: shared read-only base image + per-clone COW
    /// overlay.
    Vbd,
    /// A vsock-like host↔guest stream device.
    Vsock,
    /// USB/IP passthrough of an exclusively-assigned host device.
    Usb,
}

impl DeviceClass {
    /// Every class, in dispatch order.
    pub const ALL: [DeviceClass; 6] = [
        DeviceClass::Console,
        DeviceClass::Vif,
        DeviceClass::P9fs,
        DeviceClass::Vbd,
        DeviceClass::Vsock,
        DeviceClass::Usb,
    ];

    /// The Xenstore directory name of this class (`device/<name>/...`).
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Console => "console",
            DeviceClass::Vif => "vif",
            DeviceClass::P9fs => "9pfs",
            DeviceClass::Vbd => "vbd",
            DeviceClass::Vsock => "vsock",
            DeviceClass::Usb => "vusb",
        }
    }

    /// The clone heuristic every device of this class declares (§4.2).
    pub fn semantics(self) -> CloneSemantics {
        match self {
            DeviceClass::Console => CloneSemantics::Reconnect,
            DeviceClass::Vif => CloneSemantics::DeepCopy,
            DeviceClass::P9fs => CloneSemantics::ShareRing,
            DeviceClass::Vbd => CloneSemantics::CowOverlay,
            DeviceClass::Vsock => CloneSemantics::Reconnect,
            DeviceClass::Usb => CloneSemantics::DetachOnClone,
        }
    }
}

/// How a device class reacts to its owner being cloned — the typed form
/// of the paper's per-device heuristics (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloneSemantics {
    /// Only registry state is cloned; the backend builds fresh transport
    /// state for the child (console: a new ring so the parent's output is
    /// not replayed; vsock: a new connection on a reallocated port).
    Reconnect,
    /// The child keeps using the *parent's* backend instance; cloning is
    /// a control-plane request to that backend (9pfs: one QMP fid-table
    /// duplication against the same QEMU process).
    ShareRing,
    /// Transport state is copied verbatim because it embeds guest-owned
    /// allocator metadata (vif rings + preallocated RX buffers).
    DeepCopy,
    /// The child shares the parent's read-only base and gets a thin
    /// private overlay for its writes (block devices).
    CowOverlay,
    /// The device cannot be shared or duplicated (exclusive host
    /// resource); the child comes up without it and the parent keeps it.
    DetachOnClone,
}

impl CloneSemantics {
    /// Short lower-case label (used in docs, traces and audits).
    pub fn name(self) -> &'static str {
        match self {
            CloneSemantics::Reconnect => "reconnect",
            CloneSemantics::ShareRing => "share-ring",
            CloneSemantics::DeepCopy => "deep-copy",
            CloneSemantics::CowOverlay => "cow-overlay",
            CloneSemantics::DetachOnClone => "detach-on-clone",
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
/// that are needed by the clones"). Disabling
/// [`DeviceClass::Usb`] is a no-op in spirit: its
/// [`CloneSemantics::DetachOnClone`] already leaves the child without the
/// device either way.
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
        assert!(DeviceClass::P9fs < DeviceClass::Vbd);
        assert_eq!(DeviceClass::ALL.len(), 6);
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
        use DeviceClass::{Console, P9fs, Usb, Vbd, Vif, Vsock};
        let owner = DomId(7);
        let split = |class: &str, devid: u32| {
            (
                format!("/local/domain/7/device/{class}/{devid}"),
                Some(format!("/local/domain/0/backend/{class}/7/{devid}")),
            )
        };
        let console = || ("/local/domain/7/console".to_string(), None);
        // 9pfs and vsock are one per domain, always devid 0.
        let cases = [
            (Console, 0, console()),
            (Console, 2, console()),
            (Vif, 0, split("vif", 0)),
            (Vif, 2, split("vif", 2)),
            (P9fs, 0, split("9pfs", 0)),
            (Vbd, 0, split("vbd", 0)),
            (Vbd, 2, split("vbd", 2)),
            (Vsock, 0, split("vsock", 0)),
            (Usb, 0, split("vusb", 0)),
            (Usb, 2, split("vusb", 2)),
        ];
        for (class, devid, want) in cases {
            let id = DeviceId::new(class, devid);
            assert_eq!((id.frontend_dir(owner), id.backend_dir(owner)), want, "{id:?}");
        }
    }

    #[test]
    fn semantics_table_matches_the_paper() {
        assert_eq!(DeviceClass::Console.semantics(), CloneSemantics::Reconnect);
        assert_eq!(DeviceClass::Vif.semantics(), CloneSemantics::DeepCopy);
        assert_eq!(DeviceClass::P9fs.semantics(), CloneSemantics::ShareRing);
        assert_eq!(DeviceClass::Vbd.semantics(), CloneSemantics::CowOverlay);
        assert_eq!(DeviceClass::Vsock.semantics(), CloneSemantics::Reconnect);
        assert_eq!(DeviceClass::Usb.semantics(), CloneSemantics::DetachOnClone);
    }
}
