//! The uniform device bus: one registry, per-device clone semantics.
//!
//! The paper's §4.2 describes a *heuristic per device class* for what
//! cloning a device means: consoles get fresh rings, network devices get
//! their rings copied, 9pfs shares the parent's backend process. Earlier
//! revisions hard-coded that knowledge as an `if`-chain inside the
//! `xencloned` second stage; every new device class meant editing the
//! daemon, the device model, the toolstack and the auditor in lockstep.
//!
//! This module turns the heuristics into data. Each live device registers
//! itself on the [`DeviceBus`] as a [`CloneDevice`]: a small identity
//! object declaring *who* owns it ([`CloneDevice::owner`]), *what* it is
//! ([`DeviceId`]: class + device index), *how* it clones
//! ([`CloneSemantics`]) and how to do so ([`CloneDevice::clone_into`]).
//! The second stage is then a single loop:
//!
//! ```text
//! for dev in dm.bus_devices(parent) {      // sorted: console, vifs, 9pfs, ...
//!     if policy.clones(dev.id().class) {
//!         dev.clone_into(&mut ctx)?;
//!     }
//! }
//! ```
//!
//! Devices are registered by the boot paths (`DeviceManager::setup_*_boot`)
//! and by the clone paths (a cloned child registers its own bus entries —
//! except under [`CloneSemantics::DetachOnClone`], where the child
//! deliberately gets nothing). Registration itself is host-side
//! bookkeeping and charges no virtual time, so migrating the legacy
//! devices onto the bus left every figure CSV byte-identical.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use netmux::IfaceId;
use sim_core::DomId;
use xenstore::Xenstore;

use crate::udev::UdevBus;
use crate::{DeviceManager, Result};
use hypervisor::Hypervisor;

/// The device classes the platform models, in bus-dispatch order.
///
/// The `Ord` derivation is load-bearing: [`DeviceBus::devices`] returns
/// devices sorted by `(class, devid)`, and `Console < Vif < P9fs`
/// reproduces the exact dispatch order of the legacy hand-enumerated
/// second stage (console first, then vifs by device index, then 9pfs).
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

/// A device's identity on the bus: its class plus its per-domain device
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

/// Everything a device needs to clone itself for one child: the clone
/// pair, the copy mode, and mutable access to the platform services the
/// legacy clone paths used.
pub struct CloneCtx<'a> {
    /// The domain being cloned.
    pub parent: DomId,
    /// The new child.
    pub child: DomId,
    /// `true` selects the per-entry deep copy instead of `xs_clone` (the
    /// Fig. 4 comparison).
    pub deep_copy: bool,
    /// Hypervisor access (event channels, per-domain pages).
    pub hv: &'a mut Hypervisor,
    /// The Xenstore daemon.
    pub xs: &'a mut Xenstore,
    /// The udev event bus (vif hotplug announcements).
    pub udev: &'a mut UdevBus,
    /// The device model (backend state lives here).
    pub dm: &'a mut DeviceManager,
}

/// What one device's clone step produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CloneOutcome {
    /// Host interfaces created for the child (vifs only); the daemon
    /// enlists them in the clone mux afterwards.
    pub ifaces: Vec<IfaceId>,
    /// `true` when the device was *not* given to the child
    /// ([`CloneSemantics::DetachOnClone`]).
    pub detached: bool,
    /// Device-specific work count (9pfs: fids duplicated; vbd: overlay
    /// entries inherited; vsock: the child's reallocated port).
    pub units: u64,
}

/// A device registered on the bus.
///
/// Implementations are cheap identity objects — the actual backend state
/// stays inside [`DeviceManager`], and `clone_into` dispatches back into
/// it.
pub trait CloneDevice: fmt::Debug {
    /// The owning domain.
    fn owner(&self) -> DomId;

    /// Class + device index.
    fn id(&self) -> DeviceId;

    /// The declared clone heuristic.
    fn semantics(&self) -> CloneSemantics;

    /// Clones this device for `ctx.child`, registering the child's bus
    /// entry (unless the semantics detach).
    fn clone_into(&self, ctx: &mut CloneCtx<'_>) -> Result<CloneOutcome>;

    /// The Xenstore directories this device owns (frontend and backend).
    /// The auditor requires each to exist and to be claimed by exactly
    /// one registered device.
    fn xenstore_paths(&self) -> Vec<String>;

    /// Device-specific invariant checks; each returned string is one
    /// violation detail. `dm`/`xs` access is read-only and must not
    /// charge virtual time.
    fn audit(&self, dm: &DeviceManager, xs: &Xenstore) -> Vec<String>;
}

/// The per-host registry of live devices, keyed `(owner, DeviceId)`.
#[derive(Debug, Default)]
pub struct DeviceBus {
    devices: BTreeMap<(u32, DeviceId), Rc<dyn CloneDevice>>,
}

impl DeviceBus {
    /// An empty bus.
    pub fn new() -> Self {
        DeviceBus::default()
    }

    /// Registers a device under its `(owner, id)` key, replacing any
    /// previous registration of the same key.
    pub fn register(&mut self, dev: Rc<dyn CloneDevice>) {
        self.devices.insert((dev.owner().0, dev.id()), dev);
    }

    /// Removes one device.
    pub fn unregister(&mut self, owner: DomId, id: DeviceId) {
        self.devices.remove(&(owner.0, id));
    }

    /// Whether `(owner, id)` is registered.
    pub fn contains(&self, owner: DomId, id: DeviceId) -> bool {
        self.devices.contains_key(&(owner.0, id))
    }

    /// The devices a domain owns, sorted by `(class, devid)` — the
    /// canonical second-stage dispatch order.
    pub fn devices(&self, owner: DomId) -> Vec<Rc<dyn CloneDevice>> {
        self.devices
            .range((owner.0, DeviceId::new(DeviceClass::Console, 0))..)
            .take_while(|((d, _), _)| *d == owner.0)
            .map(|(_, dev)| Rc::clone(dev))
            .collect()
    }

    /// Every registered device, sorted by `(owner, class, devid)`.
    pub fn all(&self) -> Vec<Rc<dyn CloneDevice>> {
        self.devices.values().map(Rc::clone).collect()
    }

    /// Total registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the bus is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Drops every registration of a destroyed domain. O(own devices +
    /// log total): the `(owner, id)` key order makes the owner's devices
    /// one contiguous range, so teardown never scans the other domains'
    /// registrations — with 10^5 live domains a full-registry `retain`
    /// here dominated the destroy path.
    pub fn forget_domain(&mut self, owner: DomId) {
        let keys: Vec<(u32, DeviceId)> = self
            .devices
            .range((owner.0, DeviceId::new(DeviceClass::Console, 0))..)
            .take_while(|((d, _), _)| *d == owner.0)
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            self.devices.remove(&k);
        }
    }
}

// ----------------------------------------------------------------------
// The six device identity objects
// ----------------------------------------------------------------------

/// The PV console of one domain.
#[derive(Debug, Clone, Copy)]
pub struct ConsoleDev {
    /// Owning domain.
    pub dom: DomId,
}

impl CloneDevice for ConsoleDev {
    fn owner(&self) -> DomId {
        self.dom
    }
    fn id(&self) -> DeviceId {
        DeviceId::new(DeviceClass::Console, 0)
    }
    fn semantics(&self) -> CloneSemantics {
        DeviceClass::Console.semantics()
    }
    fn clone_into(&self, ctx: &mut CloneCtx<'_>) -> Result<CloneOutcome> {
        debug_assert_eq!(self.dom, ctx.parent, "console clone for foreign parent");
        ctx.dm
            .clone_console_impl(ctx.hv, ctx.xs, self.dom, ctx.child, ctx.deep_copy)?;
        Ok(CloneOutcome::default())
    }
    fn xenstore_paths(&self) -> Vec<String> {
        vec![crate::console_dir(self.dom)]
    }
    fn audit(&self, dm: &DeviceManager, _xs: &Xenstore) -> Vec<String> {
        if dm.console_attached(self.dom) {
            Vec::new()
        } else {
            vec![format!("console of {} registered but not attached", self.dom)]
        }
    }
}

/// One PV network interface of one domain.
#[derive(Debug, Clone, Copy)]
pub struct VifDev {
    /// Owning domain.
    pub dom: DomId,
    /// Device index.
    pub devid: u32,
}

impl CloneDevice for VifDev {
    fn owner(&self) -> DomId {
        self.dom
    }
    fn id(&self) -> DeviceId {
        DeviceId::new(DeviceClass::Vif, self.devid)
    }
    fn semantics(&self) -> CloneSemantics {
        DeviceClass::Vif.semantics()
    }
    fn clone_into(&self, ctx: &mut CloneCtx<'_>) -> Result<CloneOutcome> {
        debug_assert_eq!(self.dom, ctx.parent, "vif clone for foreign parent");
        let iface = ctx.dm.clone_vif_impl(
            ctx.hv,
            ctx.xs,
            ctx.udev,
            self.dom,
            ctx.child,
            self.devid,
            ctx.deep_copy,
        )?;
        Ok(CloneOutcome {
            ifaces: vec![iface],
            ..CloneOutcome::default()
        })
    }
    fn xenstore_paths(&self) -> Vec<String> {
        vec![
            crate::vif_front_dir(self.dom, self.devid),
            crate::vif_back_dir(self.dom, self.devid),
        ]
    }
    fn audit(&self, dm: &DeviceManager, _xs: &Xenstore) -> Vec<String> {
        match dm.vif(self.dom, self.devid) {
            Some(v) if v.is_connected() => Vec::new(),
            Some(_) => vec![format!("vif {}/{} registered but not connected", self.dom, self.devid)],
            None => vec![format!("vif {}/{} registered on bus but absent from the device model", self.dom, self.devid)],
        }
    }
}

/// The 9pfs root filesystem of one domain.
#[derive(Debug, Clone, Copy)]
pub struct P9fsDev {
    /// Owning domain.
    pub dom: DomId,
}

impl CloneDevice for P9fsDev {
    fn owner(&self) -> DomId {
        self.dom
    }
    fn id(&self) -> DeviceId {
        DeviceId::new(DeviceClass::P9fs, 0)
    }
    fn semantics(&self) -> CloneSemantics {
        DeviceClass::P9fs.semantics()
    }
    fn clone_into(&self, ctx: &mut CloneCtx<'_>) -> Result<CloneOutcome> {
        debug_assert_eq!(self.dom, ctx.parent, "9pfs clone for foreign parent");
        let fids = ctx
            .dm
            .clone_9pfs_impl(ctx.xs, self.dom, ctx.child, ctx.deep_copy)?;
        Ok(CloneOutcome {
            units: fids as u64,
            ..CloneOutcome::default()
        })
    }
    fn xenstore_paths(&self) -> Vec<String> {
        vec![crate::p9_front_dir(self.dom), crate::p9_back_dir(self.dom)]
    }
    fn audit(&self, dm: &DeviceManager, _xs: &Xenstore) -> Vec<String> {
        if dm.p9_served(self.dom) {
            Vec::new()
        } else {
            vec![format!("9pfs of {} registered but no backend process serves it", self.dom)]
        }
    }
}

/// One COW block device of one domain.
#[derive(Debug, Clone, Copy)]
pub struct BlockDev {
    /// Owning domain.
    pub dom: DomId,
    /// Device index.
    pub devid: u32,
}

impl CloneDevice for BlockDev {
    fn owner(&self) -> DomId {
        self.dom
    }
    fn id(&self) -> DeviceId {
        DeviceId::new(DeviceClass::Vbd, self.devid)
    }
    fn semantics(&self) -> CloneSemantics {
        DeviceClass::Vbd.semantics()
    }
    fn clone_into(&self, ctx: &mut CloneCtx<'_>) -> Result<CloneOutcome> {
        debug_assert_eq!(self.dom, ctx.parent, "vbd clone for foreign parent");
        let inherited = ctx.dm.clone_vbd_impl(
            ctx.xs,
            self.dom,
            ctx.child,
            self.devid,
            ctx.deep_copy,
        )?;
        Ok(CloneOutcome {
            units: inherited,
            ..CloneOutcome::default()
        })
    }
    fn xenstore_paths(&self) -> Vec<String> {
        vec![
            crate::vbd_front_dir(self.dom, self.devid),
            crate::vbd_back_dir(self.dom, self.devid),
        ]
    }
    fn audit(&self, dm: &DeviceManager, _xs: &Xenstore) -> Vec<String> {
        match dm.vbd(self.dom, self.devid) {
            Some(v) if v.overlay_is_canonical() => Vec::new(),
            Some(_) => vec![format!(
                "vbd {}/{} overlay is not canonical (entry equal to the base image)",
                self.dom, self.devid
            )],
            None => vec![format!(
                "vbd {}/{} registered on bus but absent from the device model",
                self.dom, self.devid
            )],
        }
    }
}

/// The vsock-like stream device of one domain.
#[derive(Debug, Clone, Copy)]
pub struct VsockDev {
    /// Owning domain.
    pub dom: DomId,
}

impl CloneDevice for VsockDev {
    fn owner(&self) -> DomId {
        self.dom
    }
    fn id(&self) -> DeviceId {
        DeviceId::new(DeviceClass::Vsock, 0)
    }
    fn semantics(&self) -> CloneSemantics {
        DeviceClass::Vsock.semantics()
    }
    fn clone_into(&self, ctx: &mut CloneCtx<'_>) -> Result<CloneOutcome> {
        debug_assert_eq!(self.dom, ctx.parent, "vsock clone for foreign parent");
        let port = ctx
            .dm
            .clone_vsock_impl(ctx.hv, ctx.xs, self.dom, ctx.child, ctx.deep_copy)?;
        Ok(CloneOutcome {
            units: port as u64,
            ..CloneOutcome::default()
        })
    }
    fn xenstore_paths(&self) -> Vec<String> {
        vec![
            crate::vsock_front_dir(self.dom),
            crate::vsock_back_dir(self.dom),
        ]
    }
    fn audit(&self, dm: &DeviceManager, _xs: &Xenstore) -> Vec<String> {
        match dm.vsock(self.dom) {
            Some(c) if c.connected && c.port == crate::vsock::vsock_port_for(self.dom) => Vec::new(),
            Some(c) if !c.connected => {
                vec![format!("vsock of {} registered but disconnected", self.dom)]
            }
            Some(c) => vec![format!(
                "vsock of {} on non-deterministic port {} (expected {})",
                self.dom,
                c.port,
                crate::vsock::vsock_port_for(self.dom)
            )],
            None => vec![format!(
                "vsock of {} registered on bus but absent from the device model",
                self.dom
            )],
        }
    }
}

/// One exclusively-assigned USB/IP passthrough device.
#[derive(Debug, Clone)]
pub struct UsbDev {
    /// Owning domain.
    pub dom: DomId,
    /// Device index.
    pub devid: u32,
}

impl CloneDevice for UsbDev {
    fn owner(&self) -> DomId {
        self.dom
    }
    fn id(&self) -> DeviceId {
        DeviceId::new(DeviceClass::Usb, self.devid)
    }
    fn semantics(&self) -> CloneSemantics {
        DeviceClass::Usb.semantics()
    }
    fn clone_into(&self, ctx: &mut CloneCtx<'_>) -> Result<CloneOutcome> {
        debug_assert_eq!(self.dom, ctx.parent, "usb clone for foreign parent");
        ctx.dm
            .clone_usb_detach_impl(self.dom, ctx.child, self.devid)?;
        Ok(CloneOutcome {
            detached: true,
            ..CloneOutcome::default()
        })
    }
    fn xenstore_paths(&self) -> Vec<String> {
        vec![
            crate::usb_front_dir(self.dom, self.devid),
            crate::usb_back_dir(self.dom, self.devid),
        ]
    }
    fn audit(&self, dm: &DeviceManager, _xs: &Xenstore) -> Vec<String> {
        let Some(u) = dm.usb(self.dom, self.devid) else {
            return vec![format!(
                "usb {}/{} registered on bus but absent from the device model",
                self.dom, self.devid
            )];
        };
        let mut v = Vec::new();
        if !u.attached {
            v.push(format!("usb {}/{} registered but detached", self.dom, self.devid));
        }
        if !dm.usb_busid_exclusive(&u.busid, self.dom, self.devid) {
            v.push(format!(
                "usb busid {} held by more than one domain (exclusive assignment violated)",
                u.busid
            ));
        }
        v
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
    fn bus_sorts_and_scopes_by_owner() {
        let mut bus = DeviceBus::new();
        bus.register(Rc::new(P9fsDev { dom: DomId(1) }));
        bus.register(Rc::new(VifDev { dom: DomId(1), devid: 1 }));
        bus.register(Rc::new(VifDev { dom: DomId(1), devid: 0 }));
        bus.register(Rc::new(ConsoleDev { dom: DomId(1) }));
        bus.register(Rc::new(ConsoleDev { dom: DomId(2) }));
        let ids: Vec<DeviceId> = bus.devices(DomId(1)).iter().map(|d| d.id()).collect();
        assert_eq!(
            ids,
            vec![
                DeviceId::new(DeviceClass::Console, 0),
                DeviceId::new(DeviceClass::Vif, 0),
                DeviceId::new(DeviceClass::Vif, 1),
                DeviceId::new(DeviceClass::P9fs, 0),
            ]
        );
        assert_eq!(bus.devices(DomId(2)).len(), 1);
        bus.forget_domain(DomId(1));
        assert!(bus.devices(DomId(1)).is_empty());
        assert_eq!(bus.len(), 1);
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
