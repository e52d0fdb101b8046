//! Split-driver paravirtualized devices and their Dom0 management.
//!
//! This crate implements both halves of Xen's split-device model for the
//! device types Nephele supports — console, network, 9pfs, COW block
//! devices ([`block`]), vsock-like streams ([`vsock`]) and USB/IP
//! passthrough ([`usb`]) — plus the plumbing around them: Xenbus
//! negotiation ([`xenbus`]), shared rings ([`ring`]), the udev event bus
//! ([`udev`]), the QEMU process model ([`qemu`]) and the Dom0 ramdisk
//! ([`memfs`]).
//!
//! [`DeviceManager`] is the Dom0-side registry gluing it together. It
//! offers two setup paths per device, mirroring the paper:
//!
//! * the **boot path** walks the full frontend/backend Xenbus negotiation
//!   and writes every Xenstore entry individually;
//! * the **clone path** copies the Xenstore state with `xs_clone` (or a
//!   deep per-entry copy, for the Fig. 4 comparison), creates the backend
//!   state directly in the Connected state, and reuses backend processes
//!   across the clone family.
//!
//! Each live device also registers itself on the [`bus::DeviceBus`] as a
//! [`bus::CloneDevice`], declaring its clone heuristic as a typed
//! [`bus::CloneSemantics`] value; the `xencloned` second stage dispatches
//! through the bus rather than enumerating device classes by hand.
//!
//! The network side is event-driven, as netback is in Xen: the manager
//! keeps the set of vifs with queued TX packets and the set with queued
//! RX packets, updated at every ring transition, so the platform's event
//! loop visits only vifs with work instead of walking every live vif. It
//! also owns each vif's host-side attachments (the clone mux and the
//! bridge's MAC table), so every destroy path detaches them.

pub mod block;
pub mod bus;
pub mod console;
pub mod memfs;
pub mod net;
pub mod p9fs;
pub mod qemu;
pub mod ring;
pub mod udev;
pub mod usb;
pub mod vsock;
pub mod xenbus;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::net::Ipv4Addr;
use std::rc::Rc;

use hypervisor::domain::PrivatePolicy;
use hypervisor::error::HvError;
use hypervisor::Hypervisor;
use netmux::{CloneMux, IfaceId, MacAddr, Packet};
use sim_core::{Clock, CostModel, DomId, Pfn, TraceSink};
use xenstore::{XsCloneOp, XsError, Xenstore};

use crate::block::{Sector, Vbd, VbdSharing, SECTOR_SIZE};
use crate::bus::{
    BlockDev, CloneDevice, ConsoleDev, DeviceBus, P9fsDev, UsbDev, VifDev, VsockDev,
};
use crate::console::ConsoleBackend;
use crate::memfs::MemFs;
use crate::net::{Vif, RX_RING_SLOTS, TX_RING_SLOTS};
use crate::p9fs::{P9Request, P9Response};
use crate::qemu::{QemuProcess, QmpRequest};
use crate::ring::SharedRing;
use crate::udev::{UdevBus, UdevEvent};
use crate::usb::UsbPassthrough;
use crate::vsock::VsockConn;
use crate::xenbus::{XenbusState, NEGOTIATION_STEPS};

/// Errors from device management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevError {
    /// Underlying Xenstore failure.
    Xs(XsError),
    /// Underlying hypervisor failure.
    Hv(HvError),
    /// The referenced device does not exist.
    NoSuchDevice(DomId, u32),
    /// No backend process serves this domain.
    NoBackend(DomId),
    /// The physical USB device is already passed through to a domain.
    UsbBusy(String),
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::Xs(e) => write!(f, "xenstore: {e}"),
            DevError::Hv(e) => write!(f, "hypervisor: {e}"),
            DevError::NoSuchDevice(d, i) => write!(f, "no device {i} on {d}"),
            DevError::NoBackend(d) => write!(f, "no backend process for {d}"),
            DevError::UsbBusy(busid) => write!(f, "usb device {busid} already assigned"),
        }
    }
}

impl std::error::Error for DevError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DevError::Xs(e) => Some(e),
            DevError::Hv(e) => Some(e),
            DevError::NoSuchDevice(..) | DevError::NoBackend(_) | DevError::UsbBusy(_) => None,
        }
    }
}

impl From<XsError> for DevError {
    fn from(e: XsError) -> Self {
        DevError::Xs(e)
    }
}

impl From<HvError> for DevError {
    fn from(e: HvError) -> Self {
        DevError::Hv(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DevError>;

/// Frontend-supplied parameters for creating a vif at boot.
#[derive(Debug, Clone)]
pub struct VifConfig {
    /// Device index within the guest.
    pub devid: u32,
    /// The guest's IP address.
    pub ip: Ipv4Addr,
    /// Guest page backing the TX ring.
    pub tx_pfn: Pfn,
    /// Guest page backing the RX ring.
    pub rx_pfn: Pfn,
    /// Guest pages preallocated for RX payloads (one per RX slot).
    pub rx_buffers: Vec<Pfn>,
}

pub(crate) fn vif_front_dir(dom: DomId, devid: u32) -> String {
    format!("/local/domain/{}/device/vif/{devid}", dom.0)
}

pub(crate) fn vif_back_dir(dom: DomId, devid: u32) -> String {
    format!("/local/domain/0/backend/vif/{}/{devid}", dom.0)
}

pub(crate) fn console_dir(dom: DomId) -> String {
    format!("/local/domain/{}/console", dom.0)
}

pub(crate) fn p9_front_dir(dom: DomId) -> String {
    format!("/local/domain/{}/device/9pfs/0", dom.0)
}

pub(crate) fn p9_back_dir(dom: DomId) -> String {
    format!("/local/domain/0/backend/9pfs/{}/0", dom.0)
}

pub(crate) fn vbd_front_dir(dom: DomId, devid: u32) -> String {
    format!("/local/domain/{}/device/vbd/{devid}", dom.0)
}

pub(crate) fn vbd_back_dir(dom: DomId, devid: u32) -> String {
    format!("/local/domain/0/backend/vbd/{}/{devid}", dom.0)
}

pub(crate) fn vsock_front_dir(dom: DomId) -> String {
    format!("/local/domain/{}/device/vsock/0", dom.0)
}

pub(crate) fn vsock_back_dir(dom: DomId) -> String {
    format!("/local/domain/0/backend/vsock/{}/0", dom.0)
}

pub(crate) fn usb_front_dir(dom: DomId, devid: u32) -> String {
    format!("/local/domain/{}/device/vusb/{devid}", dom.0)
}

pub(crate) fn usb_back_dir(dom: DomId, devid: u32) -> String {
    format!("/local/domain/0/backend/vusb/{}/{devid}", dom.0)
}

/// The Dom0 device registry and backend host.
#[derive(Debug)]
pub struct DeviceManager {
    clock: Clock,
    costs: Rc<CostModel>,
    /// The Dom0 ramdisk filesystem (9pfs exports live here).
    pub fs: MemFs,
    /// Keyed `(owner, devid)` in a BTreeMap so one domain's devices form
    /// a contiguous range: teardown removes exactly that range instead of
    /// retaining over every live domain's devices.
    vifs: BTreeMap<(u32, u32), Vif>,
    iface_map: HashMap<IfaceId, (DomId, u32)>,
    /// Vifs whose TX ring holds packets, in key order: the backend kicks
    /// still to be serviced. Maintained at every ring transition, so a
    /// pump round costs O(queued vifs · log vifs), not O(live vifs).
    tx_pending: BTreeSet<(u32, u32)>,
    /// Vifs whose RX ring holds packets, in key order.
    rx_pending: BTreeSet<(u32, u32)>,
    /// IP → the vifs carrying it, in key order. A clone family shares one
    /// IP, so resolving a host send is one lookup instead of a vif scan.
    ip_vifs: BTreeMap<Ipv4Addr, BTreeSet<(u32, u32)>>,
    /// The clone mux (bond or OVS select group) clone vifs are enslaved
    /// to, when the host runs one.
    mux: Option<Box<dyn CloneMux>>,
    /// The bridge's MAC table: MAC → the first registered interface
    /// carrying it (clones share their parent's MAC, so only booted
    /// domains register).
    mac_first: HashMap<MacAddr, IfaceId>,
    next_iface: u32,
    console: ConsoleBackend,
    /// QEMU processes by pid; resolved through [`Self::served_by`], never
    /// by scanning.
    qemus: BTreeMap<u32, QemuProcess>,
    /// Served domain → pid of the QEMU process hosting its 9pfs backend.
    /// One process serves a whole clone family (§5.2.1), so without this
    /// index every 9p RPC and every destroy searched all processes and
    /// their (family-sized) serve lists.
    served_by: HashMap<u32, u32>,
    next_pid: u32,
    vbds: BTreeMap<(u32, u32), Vbd>,
    vsocks: HashMap<u32, VsockConn>,
    usbs: BTreeMap<(u32, u32), UsbPassthrough>,
    bus: DeviceBus,
    trace: TraceSink,
}

impl DeviceManager {
    /// Creates an empty manager.
    pub fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        DeviceManager {
            clock,
            costs,
            fs: MemFs::new(),
            vifs: BTreeMap::new(),
            iface_map: HashMap::new(),
            tx_pending: BTreeSet::new(),
            rx_pending: BTreeSet::new(),
            ip_vifs: BTreeMap::new(),
            mux: None,
            mac_first: HashMap::new(),
            next_iface: 1,
            console: ConsoleBackend::new(),
            qemus: BTreeMap::new(),
            served_by: HashMap::new(),
            next_pid: 1000,
            vbds: BTreeMap::new(),
            vsocks: HashMap::new(),
            usbs: BTreeMap::new(),
            bus: DeviceBus::new(),
            trace: TraceSink::default(),
        }
    }

    /// The device bus: every live device's identity and clone semantics.
    pub fn bus(&self) -> &DeviceBus {
        &self.bus
    }

    /// The devices `owner` holds, sorted by `(class, devid)` — the
    /// canonical second-stage dispatch order (console, vifs, 9pfs, ...).
    pub fn bus_devices(&self, owner: DomId) -> Vec<std::rc::Rc<dyn CloneDevice>> {
        self.bus.devices(owner)
    }

    /// Attaches a trace sink (disabled by default); device-clone spans and
    /// ring counters are recorded into it.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    fn alloc_iface(&mut self) -> IfaceId {
        let id = IfaceId(self.next_iface);
        self.next_iface += 1;
        id
    }

    // ------------------------------------------------------------------
    // Console
    // ------------------------------------------------------------------

    /// Boot-path console setup: Xenstore entries plus backend attach.
    pub fn setup_console_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        dom: DomId,
    ) -> Result<()> {
        let _ = udev;
        let ring_pfn = hv.domain(dom)?.console_pfn;
        let dir = console_dir(dom);
        xs.write(DomId::DOM0, &format!("{dir}/ring-ref"), &ring_pfn.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{dir}/port"), "2")?;
        xs.write(DomId::DOM0, &format!("{dir}/type"), "xenconsoled")?;
        xs.write(DomId::DOM0, &format!("{dir}/output"), "pty")?;
        self.clock.advance(self.costs.console_attach);
        self.console.attach(dom, ring_pfn);
        self.bus.register(Rc::new(ConsoleDev { dom }));
        Ok(())
    }

    /// Clone-path console setup, reached through
    /// [`bus::ConsoleDev::clone_into`]: only the Xenstore entries are
    /// cloned; the managing process picks the change up via its watch and
    /// creates the child state with a fresh ring (§4.2, §5.2.1).
    pub(crate) fn clone_console_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        deep_copy: bool,
    ) -> Result<()> {
        let span = self.trace.span("dev.clone_console");
        span.attr("deep_copy", deep_copy);
        if deep_copy {
            self.deep_copy_dir(xs, &console_dir(parent), &console_dir(child), parent, child)?;
        } else {
            xs.xs_clone(
                DomId::DOM0,
                XsCloneOp::DevConsole,
                parent,
                child,
                &console_dir(parent),
                &console_dir(child),
            )?;
        }
        let ring_pfn = hv.domain(child)?.console_pfn;
        self.clock.advance(self.costs.console_attach);
        self.console.attach_clone(parent, child, ring_pfn);
        self.bus.register(Rc::new(ConsoleDev { dom: child }));
        Ok(())
    }

    /// Guest-side console write.
    pub fn console_write(&mut self, dom: DomId, bytes: &[u8]) {
        self.console.guest_write(dom, bytes);
        self.console.drain(dom);
    }

    /// The accumulated console output of a domain.
    pub fn console_output(&self, dom: DomId) -> &[u8] {
        self.console.output(dom)
    }

    /// Whether a console is attached for `dom`.
    pub fn console_attached(&self, dom: DomId) -> bool {
        self.console.is_attached(dom)
    }

    // ------------------------------------------------------------------
    // Network
    // ------------------------------------------------------------------

    /// Boot-path vif setup: full Xenstore population plus Xenbus
    /// negotiation, backend creation and a udev event for userspace.
    pub fn setup_vif_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        dom: DomId,
        cfg: VifConfig,
    ) -> Result<IfaceId> {
        let mac = MacAddr::xen(dom.0, cfg.devid as u8);
        let f = vif_front_dir(dom, cfg.devid);
        let b = vif_back_dir(dom, cfg.devid);

        // Frontend entries.
        xs.write(DomId::DOM0, &format!("{f}/backend"), &b)?;
        xs.write(DomId::DOM0, &format!("{f}/backend-id"), "0")?;
        xs.write(DomId::DOM0, &format!("{f}/mac"), &mac.to_string())?;
        xs.write(DomId::DOM0, &format!("{f}/handle"), &cfg.devid.to_string())?;
        xs.write(DomId::DOM0, &format!("{f}/tx-ring-ref"), &cfg.tx_pfn.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{f}/rx-ring-ref"), &cfg.rx_pfn.0.to_string())?;
        // Backend entries.
        xs.write(DomId::DOM0, &format!("{b}/frontend"), &f)?;
        xs.write(DomId::DOM0, &format!("{b}/frontend-id"), &dom.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/mac"), &mac.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/handle"), &cfg.devid.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/bridge"), "xenbr0")?;

        // Ring pages and RX buffers are private on clone (§4.1/§4.2).
        hv.register_private_pfn(dom, cfg.tx_pfn, PrivatePolicy::Copy)?;
        hv.register_private_pfn(dom, cfg.rx_pfn, PrivatePolicy::Copy)?;
        for pfn in &cfg.rx_buffers {
            hv.register_private_pfn(dom, *pfn, PrivatePolicy::Copy)?;
        }

        // Full Xenbus negotiation, one state write per end per step.
        for (front, back) in NEGOTIATION_STEPS {
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{f}/state"), front.to_xs())?;
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{b}/state"), back.to_xs())?;
        }

        // Backend creates the in-kernel vif and announces it via udev.
        self.clock.advance(self.costs.backend_create);
        let (guest_port, back_port) = hv.evtchn_connect_pair(dom, DomId::DOM0)?;
        let iface = self.alloc_iface();
        let vif = Vif {
            dom,
            devid: cfg.devid,
            mac,
            ip: cfg.ip,
            iface,
            frontend_state: XenbusState::Connected,
            backend_state: XenbusState::Connected,
            tx: SharedRing::new(cfg.tx_pfn, TX_RING_SLOTS),
            rx: SharedRing::new(cfg.rx_pfn, RX_RING_SLOTS),
            rx_buffers: cfg.rx_buffers,
            guest_port,
            back_port,
        };
        self.insert_vif(vif);
        self.bus.register(Rc::new(VifDev { dom, devid: cfg.devid }));
        self.clock.advance(self.costs.udev_event);
        udev.emit(UdevEvent::VifCreated { dom, devid: cfg.devid });
        Ok(iface)
    }

    /// Clone-path vif setup, reached through [`bus::VifDev::clone_into`]:
    /// Xenstore state is cloned (via `xs_clone` or a deep per-entry copy),
    /// the backend shortcuts the negotiation and the rings are copied.
    /// Emits the udev event that prompts userspace to enslave the new
    /// interface.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn clone_vif_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        parent: DomId,
        child: DomId,
        devid: u32,
        deep_copy: bool,
    ) -> Result<IfaceId> {
        let span = self.trace.span("dev.clone_vif");
        span.attr("devid", devid);
        span.attr("deep_copy", deep_copy);
        let pf = vif_front_dir(parent, devid);
        let pb = vif_back_dir(parent, devid);
        let cf = vif_front_dir(child, devid);
        let cb = vif_back_dir(child, devid);
        if deep_copy {
            self.deep_copy_dir(xs, &pf, &cf, parent, child)?;
            self.deep_copy_dir(xs, &pb, &cb, parent, child)?;
        } else {
            xs.xs_clone(DomId::DOM0, XsCloneOp::DevVif, parent, child, &pf, &cf)?;
            xs.xs_clone(DomId::DOM0, XsCloneOp::DevVif, parent, child, &pb, &cb)?;
        }

        if !self.vifs.contains_key(&(parent.0, devid)) {
            return Err(DevError::NoSuchDevice(parent, devid));
        }

        // The netback shortcut: connect directly, no negotiation.
        self.clock.advance(self.costs.backend_create);
        let (guest_port, back_port) = hv.evtchn_connect_pair(child, DomId::DOM0)?;
        let iface = self.alloc_iface();
        let vif = self.vifs[&(parent.0, devid)].clone_for_child(child, iface, guest_port, back_port);
        self.insert_vif(vif);
        self.bus.register(Rc::new(VifDev { dom: child, devid }));
        self.clock.advance(self.costs.udev_event);
        udev.emit(UdevEvent::VifCreated { dom: child, devid });
        Ok(iface)
    }

    /// Looks up a vif.
    pub fn vif(&self, dom: DomId, devid: u32) -> Option<&Vif> {
        self.vifs.get(&(dom.0, devid))
    }

    /// Device ids of the vifs a domain owns (sorted). O(own vifs): the
    /// key order yields the domain's range directly, already sorted.
    pub fn vif_devids(&self, dom: DomId) -> Vec<u32> {
        self.vifs
            .range((dom.0, 0)..=(dom.0, u32::MAX))
            .map(|((_, i), _)| *i)
            .collect()
    }

    /// Total vifs registered.
    pub fn vif_count(&self) -> usize {
        self.vifs.len()
    }

    /// All `(domain, devid)` vif keys, sorted (the map's key order). For
    /// full walks such as the auditor's; the event loop visits only the
    /// pending sets ([`tx_pending`](Self::tx_pending),
    /// [`rx_pending`](Self::rx_pending)).
    pub fn all_vif_keys(&self) -> Vec<(DomId, u32)> {
        self.vifs.keys().map(|(d, i)| (DomId(*d), *i)).collect()
    }

    /// The vifs with queued TX packets, in key order: a snapshot the
    /// event loop iterates while draining them.
    pub fn tx_pending(&self) -> Vec<(DomId, u32)> {
        self.tx_pending.iter().map(|(d, i)| (DomId(*d), *i)).collect()
    }

    /// The vifs with queued RX packets, in key order (a snapshot).
    pub fn rx_pending(&self) -> Vec<(DomId, u32)> {
        self.rx_pending.iter().map(|(d, i)| (DomId(*d), *i)).collect()
    }

    /// The first vif, in `(domain, devid)` order, carrying `ip`.
    /// O(log vifs).
    pub fn vif_for_ip(&self, ip: Ipv4Addr) -> Option<&Vif> {
        let key = self.ip_vifs.get(&ip)?.first()?;
        self.vifs.get(key)
    }

    /// Resolves a host interface to its (domain, devid).
    pub fn iface_target(&self, iface: IfaceId) -> Option<(DomId, u32)> {
        self.iface_map.get(&iface).copied()
    }

    /// Registers a vif, indexing its interface, its IP and whatever its
    /// rings already hold: a clone copies its parent's rings (§4.2), so a
    /// child born with queued packets is pending from birth.
    fn insert_vif(&mut self, vif: Vif) {
        let key = (vif.dom.0, vif.devid);
        if !vif.tx.is_empty() {
            self.tx_pending.insert(key);
        }
        if !vif.rx.is_empty() {
            self.rx_pending.insert(key);
        }
        self.ip_vifs.entry(vif.ip).or_default().insert(key);
        self.iface_map.insert(vif.iface, (vif.dom, vif.devid));
        self.vifs.insert(key, vif);
    }

    /// Unregisters a vif and everything that names it: its interface,
    /// pending-set and IP-index entries, its mux membership and its
    /// bridge MAC-table entry (dropped only when it names this vif's
    /// interface; found by the vif's MAC, O(1)). Like the hotplug
    /// script's offline action, this charges no virtual time.
    fn remove_vif(&mut self, key: (u32, u32)) -> Option<Vif> {
        let v = self.vifs.remove(&key)?;
        self.iface_map.remove(&v.iface);
        self.tx_pending.remove(&key);
        self.rx_pending.remove(&key);
        if let Some(keys) = self.ip_vifs.get_mut(&v.ip) {
            keys.remove(&key);
            if keys.is_empty() {
                self.ip_vifs.remove(&v.ip);
            }
        }
        if let Some(m) = self.mux.as_deref_mut() {
            m.remove_member(v.iface);
        }
        if self.mac_first.get(&v.mac) == Some(&v.iface) {
            self.mac_first.remove(&v.mac);
        }
        Some(v)
    }

    /// Installs the host's clone mux. Clone vifs are enslaved to it, and
    /// each vif leaves it when its domain is destroyed.
    pub fn set_mux(&mut self, mux: Box<dyn CloneMux>) {
        self.mux = Some(mux);
    }

    /// The clone mux, when the host runs one.
    pub fn mux(&self) -> Option<&dyn CloneMux> {
        self.mux.as_deref()
    }

    /// Enslaves `iface` to the clone mux; `false` when there is none.
    pub fn enslave(&mut self, iface: IfaceId) -> bool {
        match self.mux.as_deref_mut() {
            Some(m) => {
                m.add_member(iface);
                true
            }
            None => false,
        }
    }

    /// The mux member that should receive `pkt`; `None` without a mux or
    /// with an empty one.
    pub fn mux_select(&mut self, pkt: &Packet) -> Option<IfaceId> {
        self.mux.as_deref_mut()?.select(pkt)
    }

    /// Enters `iface` in the bridge's MAC table under its vif's MAC,
    /// unless another interface already holds that MAC.
    pub fn register_mac(&mut self, iface: IfaceId) {
        let Some(mac) = self
            .iface_map
            .get(&iface)
            .and_then(|(d, i)| self.vifs.get(&(d.0, *i)))
            .map(|v| v.mac)
        else {
            return;
        };
        self.mac_first.entry(mac).or_insert(iface);
    }

    /// The interface the bridge's MAC table names for `mac`.
    pub fn mac_target(&self, mac: &MacAddr) -> Option<IfaceId> {
        self.mac_first.get(mac).copied()
    }

    /// Every MAC-table entry, sorted by MAC.
    pub fn mac_table(&self) -> Vec<(MacAddr, IfaceId)> {
        let mut entries: Vec<_> = self.mac_first.iter().map(|(m, i)| (*m, *i)).collect();
        entries.sort_unstable();
        entries
    }

    /// Guest transmits a packet: pushed onto the TX ring (dropped if full).
    pub fn guest_tx(&mut self, dom: DomId, devid: u32, pkt: Packet) -> Result<bool> {
        let start = self.clock.now();
        self.clock.advance(
            self.costs
                .net_per_byte
                .saturating_mul(pkt.len() as u64),
        );
        let vif = self
            .vifs
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?;
        let pushed = vif.tx.push(pkt);
        if pushed {
            self.tx_pending.insert((dom.0, devid));
        }
        self.trace
            .count_dom(if pushed { "dev.ring.tx" } else { "dev.ring.tx_drop" }, dom, 1);
        self.trace
            .record_ns("dev.ring.tx", self.clock.now().since(start).as_ns());
        Ok(pushed)
    }

    /// Backend drains all pending TX packets from a vif.
    pub fn take_tx(&mut self, dom: DomId, devid: u32) -> Vec<Packet> {
        let Some(vif) = self.vifs.get_mut(&(dom.0, devid)) else {
            return Vec::new();
        };
        self.tx_pending.remove(&(dom.0, devid));
        std::iter::from_fn(|| vif.tx.pop()).collect()
    }

    /// Backend delivers a packet into a vif's RX ring; `false` if dropped.
    pub fn deliver_rx(&mut self, iface: IfaceId, pkt: Packet) -> bool {
        let Some((dom, devid)) = self.iface_map.get(&iface).copied() else {
            return false;
        };
        let start = self.clock.now();
        self.clock.advance(
            self.costs
                .net_per_byte
                .saturating_mul(pkt.len() as u64),
        );
        let pushed = match self.vifs.get_mut(&(dom.0, devid)) {
            Some(vif) => vif.rx.push(pkt),
            None => false,
        };
        if pushed {
            self.rx_pending.insert((dom.0, devid));
        }
        self.trace
            .count_dom(if pushed { "dev.ring.rx" } else { "dev.ring.rx_drop" }, dom, 1);
        self.trace
            .record_ns("dev.ring.rx", self.clock.now().since(start).as_ns());
        pushed
    }

    /// Guest drains its RX ring.
    pub fn take_rx(&mut self, dom: DomId, devid: u32) -> Vec<Packet> {
        let Some(vif) = self.vifs.get_mut(&(dom.0, devid)) else {
            return Vec::new();
        };
        self.rx_pending.remove(&(dom.0, devid));
        std::iter::from_fn(|| vif.rx.pop()).collect()
    }

    /// The vif indices checked against the scans they replace: each
    /// pending set must equal the vifs whose ring is non-empty, and the
    /// IP index must equal the vifs grouped by IP. Returns one line per
    /// divergence, naming the vif (audit invariant 13).
    pub fn audit_vif_indices(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let rings = [("TX", &self.tx_pending), ("RX", &self.rx_pending)];
        let mut by_ip: BTreeMap<Ipv4Addr, BTreeSet<(u32, u32)>> = BTreeMap::new();
        for (key, v) in &self.vifs {
            by_ip.entry(v.ip).or_default().insert(*key);
            for ((ring, set), queued) in rings.iter().zip([v.tx.len(), v.rx.len()]) {
                if (queued > 0) != set.contains(key) {
                    let (dom, devid) = key;
                    let status = if queued > 0 { "missing from" } else { "listed in" };
                    bad.push(format!(
                        "vif {dom}/{devid} holds {queued} queued {ring} packet(s) but is {status} \
                         the {ring} pending set"
                    ));
                }
            }
        }
        for (ring, set) in rings {
            for (dom, devid) in set.iter().filter(|k| !self.vifs.contains_key(k)) {
                bad.push(format!("{ring} pending set names vif {dom}/{devid}, which is not registered"));
            }
        }
        for ip in by_ip.keys().chain(self.ip_vifs.keys()).collect::<BTreeSet<_>>() {
            let (want, got) = (by_ip.get(ip), self.ip_vifs.get(ip));
            if want != got {
                bad.push(format!("IP index maps {ip} to vifs {got:?}, a scan finds {want:?}"));
            }
        }
        bad
    }

    /// Test-only: plants (`insert`) or removes a TX-pending entry for a
    /// vif without touching its ring, so the index-consistency audit can
    /// prove it detects drift between the set and the scan it replaced.
    pub fn corrupt_vif_index_for_test(&mut self, dom: DomId, devid: u32, insert: bool) {
        if insert {
            self.tx_pending.insert((dom.0, devid));
        } else {
            self.tx_pending.remove(&(dom.0, devid));
        }
    }

    // ------------------------------------------------------------------
    // 9pfs
    // ------------------------------------------------------------------

    /// Boot-path 9pfs setup: `xl` launches a QEMU backend process for the
    /// guest and the device negotiates like any other.
    pub fn setup_9pfs_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dom: DomId,
        export_root: &str,
    ) -> Result<()> {
        let f = p9_front_dir(dom);
        let b = p9_back_dir(dom);
        xs.write(DomId::DOM0, &format!("{f}/backend"), &b)?;
        xs.write(DomId::DOM0, &format!("{f}/backend-id"), "0")?;
        xs.write(DomId::DOM0, &format!("{f}/tag"), "rootfs")?;
        xs.write(DomId::DOM0, &format!("{b}/frontend"), &f)?;
        xs.write(DomId::DOM0, &format!("{b}/frontend-id"), &dom.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/path"), export_root)?;
        xs.write(DomId::DOM0, &format!("{b}/security_model"), "none")?;
        for (front, back) in NEGOTIATION_STEPS {
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{f}/state"), front.to_xs())?;
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{b}/state"), back.to_xs())?;
        }
        hv.evtchn_connect_pair(dom, DomId::DOM0)?;

        self.clock.advance(self.costs.qemu_launch);
        let pid = self.next_pid;
        self.next_pid += 1;
        self.fs.mkdir_p(export_root).map_err(|_| DevError::NoBackend(dom))?;
        debug_assert!(
            !self.served_by.contains_key(&dom.0),
            "domain {dom} already has a 9pfs backend process"
        );
        self.qemus.insert(pid, QemuProcess::launch(pid, dom, export_root));
        self.served_by.insert(dom.0, pid);
        self.bus.register(Rc::new(P9fsDev { dom }));
        Ok(())
    }

    /// Clone-path 9pfs setup, reached through [`bus::P9fsDev::clone_into`]:
    /// Xenstore state cloned, then a QMP request to the *parent's existing*
    /// backend process duplicates the fid table — no new process is
    /// launched (§5.2.1).
    pub(crate) fn clone_9pfs_impl(
        &mut self,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        deep_copy: bool,
    ) -> Result<usize> {
        let span = self.trace.span("dev.clone_9pfs");
        span.attr("deep_copy", deep_copy);
        let pf = p9_front_dir(parent);
        let pb = p9_back_dir(parent);
        let cf = p9_front_dir(child);
        let cb = p9_back_dir(child);
        if deep_copy {
            self.deep_copy_dir(xs, &pf, &cf, parent, child)?;
            self.deep_copy_dir(xs, &pb, &cb, parent, child)?;
        } else {
            xs.xs_clone(DomId::DOM0, XsCloneOp::Dev9pfs, parent, child, &pf, &cf)?;
            xs.xs_clone(DomId::DOM0, XsCloneOp::Dev9pfs, parent, child, &pb, &cb)?;
        }
        self.clock.advance(self.costs.qmp_request);
        let pid = *self.served_by.get(&parent.0).ok_or(DevError::NoBackend(parent))?;
        let q = self.qemus.get_mut(&pid).ok_or(DevError::NoBackend(parent))?;
        let fids = q.qmp(QmpRequest::CloneP9 { parent, child });
        self.served_by.insert(child.0, pid);
        self.clock
            .advance(self.costs.qmp_clone_per_fid.saturating_mul(fids as u64));
        span.attr("fids", fids);
        self.bus.register(Rc::new(P9fsDev { dom: child }));
        Ok(fids)
    }

    /// Whether any backend process serves `dom`'s 9pfs.
    pub fn p9_served(&self, dom: DomId) -> bool {
        self.served_by.contains_key(&dom.0)
    }

    /// Number of QEMU backend processes alive.
    pub fn qemu_count(&self) -> usize {
        self.qemus.len()
    }

    /// Handles a 9p RPC from a guest, charging the protocol round-trip and
    /// per-page write costs.
    pub fn p9_request(&mut self, dom: DomId, req: P9Request) -> Result<P9Response> {
        self.clock.advance(self.costs.p9fs_rpc);
        if let P9Request::Write { data, .. } = &req {
            let pages = (data.len() as u64).div_ceil(sim_core::PAGE_SIZE as u64);
            self.clock
                .advance(self.costs.p9fs_write_per_page.saturating_mul(pages));
        }
        let pid = *self.served_by.get(&dom.0).ok_or(DevError::NoBackend(dom))?;
        let q = self.qemus.get_mut(&pid).ok_or(DevError::NoBackend(dom))?;
        Ok(q.p9.handle(&mut self.fs, dom, req))
    }

    // ------------------------------------------------------------------
    // Block (vbd): shared base image + per-clone COW overlay
    // ------------------------------------------------------------------

    /// Boot-path vbd setup: Xenstore population, Xenbus negotiation and
    /// backend creation over a fresh base image of `sectors` sectors.
    pub fn setup_vbd_boot(
        &mut self,
        xs: &mut Xenstore,
        dom: DomId,
        devid: u32,
        sectors: u64,
    ) -> Result<()> {
        let f = vbd_front_dir(dom, devid);
        let b = vbd_back_dir(dom, devid);
        xs.write(DomId::DOM0, &format!("{f}/backend"), &b)?;
        xs.write(DomId::DOM0, &format!("{f}/backend-id"), "0")?;
        xs.write(DomId::DOM0, &format!("{f}/virtual-device"), &devid.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/frontend"), &f)?;
        xs.write(DomId::DOM0, &format!("{b}/frontend-id"), &dom.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/sectors"), &sectors.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/sector-size"), &SECTOR_SIZE.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/mode"), "w")?;
        for (front, back) in NEGOTIATION_STEPS {
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{f}/state"), front.to_xs())?;
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{b}/state"), back.to_xs())?;
        }
        self.clock.advance(self.costs.backend_create);
        self.vbds.insert((dom.0, devid), Vbd::new(dom, devid, sectors));
        self.bus.register(Rc::new(BlockDev { dom, devid }));
        Ok(())
    }

    /// The vbd clone implementation ([`bus::BlockDev::clone_into`]
    /// dispatches here): Xenstore state cloned, then an O(1) structural
    /// snapshot of the parent's base image and current overlay — the
    /// [`bus::CloneSemantics::CowOverlay`] heuristic. Returns the number
    /// of overlay sectors the child inherits.
    pub(crate) fn clone_vbd_impl(
        &mut self,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        devid: u32,
        deep_copy: bool,
    ) -> Result<u64> {
        let span = self.trace.span("dev.clone_vbd");
        span.attr("devid", devid);
        span.attr("deep_copy", deep_copy);
        let pf = vbd_front_dir(parent, devid);
        let pb = vbd_back_dir(parent, devid);
        let cf = vbd_front_dir(child, devid);
        let cb = vbd_back_dir(child, devid);
        if deep_copy {
            self.deep_copy_dir(xs, &pf, &cf, parent, child)?;
            self.deep_copy_dir(xs, &pb, &cb, parent, child)?;
        } else {
            xs.xs_clone(DomId::DOM0, XsCloneOp::DevVbd, parent, child, &pf, &cf)?;
            xs.xs_clone(DomId::DOM0, XsCloneOp::DevVbd, parent, child, &pb, &cb)?;
        }
        let parent_vbd = self
            .vbds
            .get(&(parent.0, devid))
            .ok_or(DevError::NoSuchDevice(parent, devid))?;
        self.clock.advance(self.costs.blk_clone_base);
        let vbd = parent_vbd.clone_for_child(child);
        let inherited = vbd.overlay_len() as u64;
        span.attr("inherited", inherited);
        self.vbds.insert((child.0, devid), vbd);
        self.bus.register(Rc::new(BlockDev { dom: child, devid }));
        Ok(inherited)
    }

    /// Looks up a vbd.
    pub fn vbd(&self, dom: DomId, devid: u32) -> Option<&Vbd> {
        self.vbds.get(&(dom.0, devid))
    }

    /// Guest reads one sector through the merged base+overlay view.
    pub fn vbd_read(&mut self, dom: DomId, devid: u32, sector: u64) -> Result<Sector> {
        self.clock.advance(self.costs.blk_read_per_sector);
        self.vbds
            .get(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?
            .read_sector(sector)
            .ok_or(DevError::NoSuchDevice(dom, devid))
    }

    /// Guest writes one sector into its private overlay; `false` past the
    /// end of the image.
    pub fn vbd_write(&mut self, dom: DomId, devid: u32, sector: u64, data: &Sector) -> Result<bool> {
        self.clock.advance(self.costs.blk_write_per_sector);
        Ok(self
            .vbds
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?
            .write_sector(sector, data))
    }

    /// Resident-byte split of vbd storage between shared and unique, by
    /// `Rc` pointer identity: a base image or overlay referenced by more
    /// than one device counts as shared at every point of use (the same
    /// convention as `P2mSharing`/`XsSharing`).
    pub fn vbd_sharing(&self) -> VbdSharing {
        let mut refs: HashMap<usize, u32> = HashMap::new();
        for v in self.vbds.values() {
            *refs.entry(v.base_addr()).or_insert(0) += 1;
            *refs.entry(v.overlay_addr()).or_insert(0) += 1;
        }
        let mut s = VbdSharing::default();
        for v in self.vbds.values() {
            for (addr, bytes) in [(v.base_addr(), v.base_bytes()), (v.overlay_addr(), v.overlay_bytes())] {
                if refs.get(&addr).copied().unwrap_or(0) > 1 {
                    s.shared_bytes += bytes;
                } else {
                    s.unique_bytes += bytes;
                }
            }
        }
        s
    }

    /// Per-domain split of [`vbd_sharing`](Self::vbd_sharing): each
    /// domain's contribution, in domain-id order (domains without vbds are
    /// absent). Summing the rows reproduces the global split, which is how
    /// the family rollups attribute resident block bytes to clone families.
    pub fn vbd_sharing_by_dom(&self) -> Vec<(DomId, VbdSharing)> {
        let mut refs: HashMap<usize, u32> = HashMap::new();
        for v in self.vbds.values() {
            *refs.entry(v.base_addr()).or_insert(0) += 1;
            *refs.entry(v.overlay_addr()).or_insert(0) += 1;
        }
        let mut per_dom: BTreeMap<u32, VbdSharing> = BTreeMap::new();
        for ((dom, _devid), v) in &self.vbds {
            let s = per_dom.entry(*dom).or_default();
            for (addr, bytes) in [(v.base_addr(), v.base_bytes()), (v.overlay_addr(), v.overlay_bytes())] {
                if refs.get(&addr).copied().unwrap_or(0) > 1 {
                    s.shared_bytes += bytes;
                } else {
                    s.unique_bytes += bytes;
                }
            }
        }
        per_dom.into_iter().map(|(d, s)| (DomId(d), s)).collect()
    }

    // ------------------------------------------------------------------
    // Vsock-like stream device
    // ------------------------------------------------------------------

    /// Boot-path vsock setup: Xenstore population, Xenbus negotiation, an
    /// event-channel pair and a fresh stream connection on the domain's
    /// deterministic port.
    pub fn setup_vsock_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dom: DomId,
    ) -> Result<()> {
        let f = vsock_front_dir(dom);
        let b = vsock_back_dir(dom);
        let port = crate::vsock::vsock_port_for(dom);
        xs.write(DomId::DOM0, &format!("{f}/backend"), &b)?;
        xs.write(DomId::DOM0, &format!("{f}/backend-id"), "0")?;
        xs.write(DomId::DOM0, &format!("{f}/port"), &port.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/frontend"), &f)?;
        xs.write(DomId::DOM0, &format!("{b}/frontend-id"), &dom.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/port"), &port.to_string())?;
        for (front, back) in NEGOTIATION_STEPS {
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{f}/state"), front.to_xs())?;
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{b}/state"), back.to_xs())?;
        }
        hv.evtchn_connect_pair(dom, DomId::DOM0)?;
        self.clock.advance(self.costs.vsock_connect);
        self.vsocks.insert(dom.0, VsockConn::connect(dom));
        self.bus.register(Rc::new(VsockDev { dom }));
        Ok(())
    }

    /// The vsock clone implementation ([`bus::VsockDev::clone_into`]
    /// dispatches here): registry state is cloned, but the transport is a
    /// *fresh* connection on the child's deterministically reallocated
    /// port — the [`bus::CloneSemantics::Reconnect`] heuristic. Returns
    /// the child's port.
    pub(crate) fn clone_vsock_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        deep_copy: bool,
    ) -> Result<u32> {
        let span = self.trace.span("dev.clone_vsock");
        span.attr("deep_copy", deep_copy);
        let pf = vsock_front_dir(parent);
        let pb = vsock_back_dir(parent);
        let cf = vsock_front_dir(child);
        let cb = vsock_back_dir(child);
        if deep_copy {
            self.deep_copy_dir(xs, &pf, &cf, parent, child)?;
            self.deep_copy_dir(xs, &pb, &cb, parent, child)?;
        } else {
            xs.xs_clone(DomId::DOM0, XsCloneOp::DevVsock, parent, child, &pf, &cf)?;
            xs.xs_clone(DomId::DOM0, XsCloneOp::DevVsock, parent, child, &pb, &cb)?;
        }
        let parent_conn = self
            .vsocks
            .get(&parent.0)
            .ok_or(DevError::NoSuchDevice(parent, 0))?;
        let conn = parent_conn.reconnect_for_child(child);
        let port = conn.port;
        // The cloned entries carry the parent's port; the reconnect
        // rewrites them to the child's deterministic allocation.
        xs.write(DomId::DOM0, &format!("{cf}/port"), &port.to_string())?;
        xs.write(DomId::DOM0, &format!("{cb}/port"), &port.to_string())?;
        hv.evtchn_connect_pair(child, DomId::DOM0)?;
        self.clock.advance(self.costs.vsock_connect);
        span.attr("port", port);
        self.vsocks.insert(child.0, conn);
        self.bus.register(Rc::new(VsockDev { dom: child }));
        Ok(port)
    }

    /// Looks up a domain's vsock connection.
    pub fn vsock(&self, dom: DomId) -> Option<&VsockConn> {
        self.vsocks.get(&dom.0)
    }

    /// Guest sends one message on its vsock stream; `false` when
    /// disconnected.
    pub fn vsock_send(&mut self, dom: DomId, payload: Vec<u8>) -> Result<bool> {
        self.clock.advance(self.costs.vsock_rpc);
        Ok(self
            .vsocks
            .get_mut(&dom.0)
            .ok_or(DevError::NoSuchDevice(dom, 0))?
            .send(payload))
    }

    // ------------------------------------------------------------------
    // USB/IP passthrough
    // ------------------------------------------------------------------

    /// Boot-path USB setup: claims the exclusive physical device `busid`
    /// for `dom` and attaches it. Fails with [`DevError::UsbBusy`] if the
    /// device is already assigned to a live domain.
    pub fn setup_usb_boot(
        &mut self,
        xs: &mut Xenstore,
        dom: DomId,
        devid: u32,
        busid: &str,
    ) -> Result<()> {
        if self.usbs.values().any(|u| u.attached && u.busid == busid) {
            return Err(DevError::UsbBusy(busid.to_string()));
        }
        let f = usb_front_dir(dom, devid);
        let b = usb_back_dir(dom, devid);
        xs.write(DomId::DOM0, &format!("{f}/backend"), &b)?;
        xs.write(DomId::DOM0, &format!("{f}/backend-id"), "0")?;
        xs.write(DomId::DOM0, &format!("{b}/frontend"), &f)?;
        xs.write(DomId::DOM0, &format!("{b}/frontend-id"), &dom.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{b}/busid"), busid)?;
        for (front, back) in NEGOTIATION_STEPS {
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{f}/state"), front.to_xs())?;
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{b}/state"), back.to_xs())?;
        }
        self.clock.advance(self.costs.usb_attach);
        self.usbs.insert((dom.0, devid), UsbPassthrough::attach(dom, devid, busid));
        self.bus.register(Rc::new(UsbDev { dom, devid }));
        Ok(())
    }

    /// The USB clone step ([`bus::UsbDev::clone_into`] dispatches here):
    /// the physical device is exclusive, so the child comes up *without*
    /// it — no Xenstore state, no backend state, no bus registration —
    /// while the parent keeps it attached. This is the whole of
    /// [`bus::CloneSemantics::DetachOnClone`].
    pub(crate) fn clone_usb_detach_impl(
        &mut self,
        parent: DomId,
        child: DomId,
        devid: u32,
    ) -> Result<()> {
        let span = self.trace.span("dev.clone_usb");
        span.attr("devid", devid);
        span.attr("child", child.0);
        if !self.usbs.contains_key(&(parent.0, devid)) {
            return Err(DevError::NoSuchDevice(parent, devid));
        }
        // Charged for the backend's veto round-trip; deliberately no
        // child-side state of any kind.
        self.clock.advance(self.costs.usb_detach);
        Ok(())
    }

    /// Looks up a USB passthrough device.
    pub fn usb(&self, dom: DomId, devid: u32) -> Option<&UsbPassthrough> {
        self.usbs.get(&(dom.0, devid))
    }

    /// Whether no *other* attached record holds `busid` — the exclusive
    /// assignment invariant the auditor checks.
    pub fn usb_busid_exclusive(&self, busid: &str, dom: DomId, devid: u32) -> bool {
        !self
            .usbs
            .iter()
            .any(|((d, i), u)| (*d, *i) != (dom.0, devid) && u.attached && u.busid == busid)
    }

    /// Guest submits one URB; `false` when the device is detached.
    pub fn usb_submit(&mut self, dom: DomId, devid: u32) -> Result<bool> {
        self.clock.advance(self.costs.usb_urb);
        Ok(self
            .usbs
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?
            .submit_urb())
    }

    // ------------------------------------------------------------------
    // Lifecycle / accounting
    // ------------------------------------------------------------------

    /// The deep-copy fallback for device directories: one Xenstore write
    /// request per entry, with the domid rewriting done client-side. This
    /// is what `xencloned` does *without* the `xs_clone` optimization and
    /// is measured by the "clone + XS deep copy" curve of Fig. 4.
    fn deep_copy_dir(
        &mut self,
        xs: &mut Xenstore,
        from: &str,
        to: &str,
        parent: DomId,
        child: DomId,
    ) -> Result<()> {
        let span = self.trace.span("dev.deep_copy");
        let keys = xs.directory(DomId::DOM0, from)?;
        span.attr("entries", keys.len());
        for key in keys {
            let v = xs.read(DomId::DOM0, &format!("{from}/{key}"))?;
            let old_home = format!("/local/domain/{}/", parent.0);
            let new_home = format!("/local/domain/{}/", child.0);
            let mut nv = v.replace(&old_home, &new_home);
            if nv == parent.0.to_string() {
                nv = child.0.to_string();
            }
            let seg_old = format!("/{}/", parent.0);
            let seg_new = format!("/{}/", child.0);
            if nv.starts_with("/local/domain/0/backend/") && nv.contains(&seg_old) {
                nv = nv.replacen(&seg_old, &seg_new, 1);
            }
            xs.write(DomId::DOM0, &format!("{to}/{key}"), &nv)?;
        }
        Ok(())
    }

    /// Releases every device of a destroyed domain. Every step is
    /// O(devices the domain owns), never O(devices on the host): the
    /// `(owner, devid)` BTreeMap keys make each domain's devices one
    /// contiguous range, and the `served_by` index names the one QEMU
    /// process whose serve set mentions the domain. The one exception is
    /// leaving the clone mux, which is O(mux members) to keep the
    /// survivors' enslavement order. Every destroy path (`xl destroy`,
    /// `xl save`, the platform's) ends here, so no mux member or MAC-table
    /// entry outlives its vif.
    pub fn forget_domain(&mut self, udev: &mut UdevBus, dom: DomId) {
        for key in Self::owned_range(&self.vifs, dom) {
            if self.remove_vif(key).is_some() {
                udev.emit(UdevEvent::VifRemoved { dom, devid: key.1 });
            }
        }
        self.console.detach(dom);
        if let Some(pid) = self.served_by.remove(&dom.0) {
            if let Some(q) = self.qemus.get_mut(&pid) {
                q.forget_domain(dom);
                if q.is_idle() {
                    self.qemus.remove(&pid);
                }
            }
        }
        for key in Self::owned_range(&self.vbds, dom) {
            self.vbds.remove(&key);
        }
        self.vsocks.remove(&dom.0);
        for key in Self::owned_range(&self.usbs, dom) {
            self.usbs.remove(&key);
        }
        self.bus.forget_domain(dom);
    }

    /// The `(owner, devid)` keys `dom` holds in a device map — one
    /// contiguous BTreeMap range.
    fn owned_range<V>(map: &BTreeMap<(u32, u32), V>, dom: DomId) -> Vec<(u32, u32)> {
        map.range((dom.0, 0)..=(dom.0, u32::MAX)).map(|(k, _)| *k).collect()
    }

    /// Modelled Dom0 resident memory for backend state, in bytes (Fig. 5's
    /// "Dom0 free" decline): per-vif netback state, per-console state,
    /// per-QEMU process plus per-served-domain state, and ramdisk contents.
    pub fn dom0_backend_bytes(&self) -> u64 {
        const PER_VIF: u64 = 96 * 1024;
        const PER_CONSOLE: u64 = 48 * 1024;
        const PER_QEMU: u64 = 9 * 1024 * 1024;
        const PER_SERVED: u64 = 128 * 1024;
        const PER_VBD: u64 = 64 * 1024;
        const PER_VSOCK: u64 = 16 * 1024;
        const PER_USB: u64 = 32 * 1024;
        let served: u64 = self.qemus.values().map(|q| q.serves.len() as u64).sum();
        // Vbd storage is resident once per distinct blob, however many
        // devices share it.
        let mut blobs: HashMap<usize, u64> = HashMap::new();
        for v in self.vbds.values() {
            blobs.insert(v.base_addr(), v.base_bytes());
            blobs.insert(v.overlay_addr(), v.overlay_bytes());
        }
        self.vifs.len() as u64 * PER_VIF
            + self.console.attached_count() as u64 * PER_CONSOLE
            + self.qemus.len() as u64 * PER_QEMU
            + served * PER_SERVED
            + self.fs.total_bytes() as u64
            + self.vbds.len() as u64 * PER_VBD
            + blobs.values().sum::<u64>()
            + self.vsocks.len() as u64 * PER_VSOCK
            + self.usbs.len() as u64 * PER_USB
    }
}

#[cfg(test)]
mod tests {
    use hypervisor::MachineConfig;

    use super::*;

    fn setup() -> (Hypervisor, Xenstore, DeviceManager, UdevBus, DomId) {
        let clock = Clock::new();
        let costs = Rc::new(CostModel::free());
        let mut hv = Hypervisor::new(
            clock.clone(),
            costs.clone(),
            &MachineConfig {
                guest_pool_mib: 128,
                cores: 4,
                notification_ring_capacity: 16,
            },
        );
        let xs = Xenstore::new(clock.clone(), costs.clone());
        let dm = DeviceManager::new(clock, costs);
        let dom = hv.create_domain("guest", 4, 1).unwrap();
        (hv, xs, dm, UdevBus::new(), dom)
    }

    fn vif_cfg() -> VifConfig {
        VifConfig {
            devid: 0,
            ip: Ipv4Addr::new(10, 0, 0, 2),
            tx_pfn: Pfn(100),
            rx_pfn: Pfn(101),
            rx_buffers: (102..110).map(Pfn).collect(),
        }
    }

    fn pkt() -> Packet {
        Packet::udp(
            MacAddr::xen(1, 0),
            MacAddr::xen(0, 0),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            7,
            b"ping".to_vec(),
        )
    }

    #[test]
    fn vif_boot_negotiates_and_announces() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        let vif = dm.vif(dom, 0).unwrap();
        assert!(vif.is_connected());
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{}/state", vif_front_dir(dom, 0))).unwrap(),
            "4"
        );
        assert!(matches!(udev.next(), Some(UdevEvent::VifCreated { .. })));
        assert_eq!(dm.iface_target(iface), Some((dom, 0)));
        // Ring pages are registered private.
        assert!(hv.domain(dom).unwrap().private_pfns.contains_key(&Pfn(100)));
        assert!(hv.domain(dom).unwrap().private_pfns.contains_key(&Pfn(105)));
    }

    #[test]
    fn vif_data_path_roundtrip() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();

        assert!(dm.guest_tx(dom, 0, pkt()).unwrap());
        let out = dm.take_tx(dom, 0);
        assert_eq!(out.len(), 1);

        assert!(dm.deliver_rx(iface, pkt()));
        let inp = dm.take_rx(dom, 0);
        assert_eq!(inp.len(), 1);
        assert_eq!(inp[0].payload(), b"ping");
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        for _ in 0..RX_RING_SLOTS {
            assert!(dm.deliver_rx(iface, pkt()));
        }
        assert!(!dm.deliver_rx(iface, pkt()), "full RX ring drops");
    }

    #[test]
    fn clone_vif_keeps_mac_ip_and_skips_negotiation() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        let child = hv.create_domain("child", 4, 1).unwrap();
        let ifc = dm
            .clone_vif_impl(&mut hv, &mut xs, &mut udev, dom, child, 0, false)
            .unwrap();
        let cv = dm.vif(child, 0).unwrap();
        let pv = dm.vif(dom, 0).unwrap();
        assert_eq!(cv.mac, pv.mac);
        assert_eq!(cv.ip, pv.ip);
        assert!(cv.is_connected());
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{}/state", vif_front_dir(child, 0))).unwrap(),
            "4",
            "cloned entries exist and are Connected"
        );
        assert_eq!(dm.iface_target(ifc), Some((child, 0)));
    }

    #[test]
    fn deep_copy_clone_matches_xs_clone_content() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        let c1 = hv.create_domain("c1", 4, 1).unwrap();
        let c2 = hv.create_domain("c2", 4, 1).unwrap();
        dm.clone_vif_impl(&mut hv, &mut xs, &mut udev, dom, c1, 0, false).unwrap();
        dm.clone_vif_impl(&mut hv, &mut xs, &mut udev, dom, c2, 0, true).unwrap();
        for key in ["mac", "state", "handle", "backend-id"] {
            let a = xs.read(DomId::DOM0, &format!("{}/{key}", vif_front_dir(c1, 0))).unwrap();
            let b = xs.read(DomId::DOM0, &format!("{}/{key}", vif_front_dir(c2, 0))).unwrap();
            assert_eq!(a, b, "entry {key} must match between copy modes");
        }
        let b1 = xs.read(DomId::DOM0, &format!("{}/backend", vif_front_dir(c1, 0))).unwrap();
        let b2 = xs.read(DomId::DOM0, &format!("{}/backend", vif_front_dir(c2, 0))).unwrap();
        assert_eq!(b1, vif_back_dir(c1, 0));
        assert_eq!(b2, vif_back_dir(c2, 0));
    }

    #[test]
    fn ring_transitions_maintain_the_pending_sets() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        assert!(dm.tx_pending().is_empty() && dm.rx_pending().is_empty());

        dm.guest_tx(dom, 0, pkt()).unwrap();
        assert!(dm.deliver_rx(iface, pkt()));
        assert_eq!(dm.tx_pending(), vec![(dom, 0)]);
        assert_eq!(dm.rx_pending(), vec![(dom, 0)]);
        assert!(dm.audit_vif_indices().is_empty());

        dm.take_tx(dom, 0);
        assert!(dm.tx_pending().is_empty());
        dm.take_rx(dom, 0);
        assert!(dm.rx_pending().is_empty());
        assert!(dm.audit_vif_indices().is_empty());
    }

    #[test]
    fn vif_cloned_with_queued_tx_is_pending_from_birth() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.guest_tx(dom, 0, pkt()).unwrap();
        let child = hv.create_domain("child", 4, 1).unwrap();
        dm.clone_vif_impl(&mut hv, &mut xs, &mut udev, dom, child, 0, false).unwrap();

        // The copied ring (§4.2) holds the parent's in-flight packet, so
        // the child needs servicing without ever having transmitted.
        assert_eq!(dm.tx_pending(), vec![(dom, 0), (child, 0)]);
        assert!(dm.rx_pending().is_empty());
        assert!(dm.audit_vif_indices().is_empty());
        assert_eq!(dm.take_tx(child, 0).len(), 1);
        assert_eq!(dm.tx_pending(), vec![(dom, 0)]);
    }

    #[test]
    fn forget_domain_drops_a_pending_vif_from_every_index() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        let ip = vif_cfg().ip;
        dm.guest_tx(dom, 0, pkt()).unwrap();
        assert!(dm.deliver_rx(iface, pkt()));
        assert_eq!(dm.vif_for_ip(ip).map(|v| v.iface), Some(iface));

        dm.forget_domain(&mut udev, dom);
        assert!(dm.tx_pending().is_empty(), "dead vif left in the TX set");
        assert!(dm.rx_pending().is_empty(), "dead vif left in the RX set");
        assert!(dm.vif_for_ip(ip).is_none(), "dead vif left in the IP index");
        assert!(dm.audit_vif_indices().is_empty());
    }

    #[test]
    fn ip_index_resolves_the_first_vif_in_key_order() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        let child = hv.create_domain("child", 4, 1).unwrap();
        dm.clone_vif_impl(&mut hv, &mut xs, &mut udev, dom, child, 0, false).unwrap();
        let ip = vif_cfg().ip;
        assert_eq!(dm.vif_for_ip(ip).map(|v| v.dom), Some(dom));
        udev.drain();
        dm.forget_domain(&mut udev, dom);
        assert_eq!(dm.vif_for_ip(ip).map(|v| v.dom), Some(child), "the survivor carries the IP");
        assert!(dm.vif_for_ip(Ipv4Addr::new(10, 9, 9, 9)).is_none());
    }

    #[test]
    fn destroy_detaches_the_vif_from_the_mux_and_the_mac_table() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.set_mux(Box::new(netmux::Bond::new(netmux::XmitHashPolicy::Layer34)));
        let parent_iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.register_mac(parent_iface);
        assert!(dm.enslave(parent_iface));
        let mac = dm.vif(dom, 0).unwrap().mac;
        let child = hv.create_domain("child", 4, 1).unwrap();
        let child_iface = dm
            .clone_vif_impl(&mut hv, &mut xs, &mut udev, dom, child, 0, false)
            .unwrap();
        dm.enslave(child_iface);
        // The child shares the parent's MAC but does not displace it.
        dm.register_mac(child_iface);
        assert_eq!(dm.mac_target(&mac), Some(parent_iface));

        udev.drain();
        dm.forget_domain(&mut udev, child);
        assert_eq!(dm.mux().unwrap().members(), [parent_iface]);
        assert_eq!(dm.mac_target(&mac), Some(parent_iface), "entry names another iface");
        dm.forget_domain(&mut udev, dom);
        assert!(dm.mux().unwrap().members().is_empty());
        assert_eq!(dm.mac_target(&mac), None);
    }

    #[test]
    fn console_boot_and_clone() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_console_boot(&mut hv, &mut xs, &mut udev, dom).unwrap();
        dm.console_write(dom, b"booted\n");
        assert_eq!(dm.console_output(dom), b"booted\n");

        let child = hv.create_domain("child", 4, 1).unwrap();
        dm.clone_console_impl(&mut hv, &mut xs, dom, child, false).unwrap();
        assert!(dm.console_attached(child));
        assert!(dm.console_output(child).is_empty(), "no parent output replay");
        assert!(xs.exists(&format!("{}/ring-ref", console_dir(child))));
    }

    #[test]
    fn p9_boot_clone_and_io() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export").unwrap();
        assert_eq!(dm.qemu_count(), 1);

        // Parent opens a file.
        dm.p9_request(dom, P9Request::Attach { fid: 0 }).unwrap();
        dm.p9_request(dom, P9Request::Create { fid: 0, name: "db".into() }).unwrap();
        dm.p9_request(dom, P9Request::Write { fid: 0, offset: 0, data: b"v1".to_vec() })
            .unwrap();

        // Clone: same process, fids duplicated.
        let child = hv.create_domain("child", 4, 1).unwrap();
        let fids = dm.clone_9pfs_impl(&mut xs, dom, child, false).unwrap();
        assert_eq!(fids, 1);
        assert_eq!(dm.qemu_count(), 1, "no new backend process per clone");
        assert!(dm.p9_served(child));

        // The child's cloned fid is immediately usable.
        let r = dm
            .p9_request(child, P9Request::Read { fid: 0, offset: 0, count: 10 })
            .unwrap();
        assert_eq!(r, P9Response::Data(b"v1".to_vec()));
    }

    #[test]
    fn forget_domain_cleans_everything() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.setup_console_boot(&mut hv, &mut xs, &mut udev, dom).unwrap();
        dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export").unwrap();
        udev.drain();
        dm.forget_domain(&mut udev, dom);
        assert_eq!(dm.vif_count(), 0);
        assert!(!dm.console_attached(dom));
        assert_eq!(dm.qemu_count(), 0, "idle qemu exits");
        assert!(matches!(udev.next(), Some(UdevEvent::VifRemoved { .. })));
    }

    #[test]
    fn dom0_memory_grows_with_devices() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let before = dm.dom0_backend_bytes();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.setup_console_boot(&mut hv, &mut xs, &mut udev, dom).unwrap();
        assert!(dm.dom0_backend_bytes() > before);
    }

    #[test]
    fn bus_reflects_boot_and_clone_registrations() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_console_boot(&mut hv, &mut xs, &mut udev, dom).unwrap();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export").unwrap();
        let classes: Vec<bus::DeviceClass> =
            dm.bus_devices(dom).iter().map(|d| d.id().class).collect();
        assert_eq!(
            classes,
            vec![bus::DeviceClass::Console, bus::DeviceClass::Vif, bus::DeviceClass::P9fs],
            "dispatch order is console, vif, 9pfs"
        );
        udev.drain();
        dm.forget_domain(&mut udev, dom);
        assert!(dm.bus().is_empty(), "forget_domain clears bus registrations");
    }

    #[test]
    fn vbd_boot_clone_and_cow() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_vbd_boot(&mut xs, dom, 0, 8).unwrap();
        assert!(xs.exists(&format!("{}/sectors", vbd_back_dir(dom, 0))));
        let s = [7u8; SECTOR_SIZE];
        assert!(dm.vbd_write(dom, 0, 3, &s).unwrap());

        let child = hv.create_domain("child", 4, 1).unwrap();
        let inherited = dm.clone_vbd_impl(&mut xs, dom, child, 0, false).unwrap();
        assert_eq!(inherited, 1, "child inherits the parent's overlay");
        assert!(xs.exists(&format!("{}/state", vbd_front_dir(child, 0))));
        assert_eq!(dm.vbd_read(child, 0, 3).unwrap(), s);

        // Divergence is private in both directions.
        assert!(dm.vbd_write(child, 0, 5, &[9u8; SECTOR_SIZE]).unwrap());
        assert_eq!(dm.vbd_read(dom, 0, 5).unwrap(), [5u8; SECTOR_SIZE]);
        let sh = dm.vbd_sharing();
        assert!(sh.shared_bytes > 0, "base image shared across the family");
    }

    #[test]
    fn vsock_clone_reconnects_on_child_port() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_vsock_boot(&mut hv, &mut xs, dom).unwrap();
        assert!(dm.vsock_send(dom, b"parent msg".to_vec()).unwrap());

        let child = hv.create_domain("child", 4, 1).unwrap();
        let port = dm.clone_vsock_impl(&mut hv, &mut xs, dom, child, false).unwrap();
        assert_eq!(port, crate::vsock::vsock_port_for(child));
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{}/port", vsock_front_dir(child))).unwrap(),
            port.to_string(),
            "cloned entries rewritten to the child's port"
        );
        let c = dm.vsock(child).unwrap();
        assert!(c.connected);
        assert!(c.sent.is_empty(), "no buffered-data inheritance");
    }

    #[test]
    fn usb_is_exclusive_and_detaches_on_clone() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_usb_boot(&mut xs, dom, 0, "1-1.4").unwrap();
        assert!(dm.usb_submit(dom, 0).unwrap());

        // The same physical device cannot be attached twice.
        let other = hv.create_domain("other", 4, 1).unwrap();
        assert!(matches!(
            dm.setup_usb_boot(&mut xs, other, 0, "1-1.4"),
            Err(DevError::UsbBusy(_))
        ));

        let child = hv.create_domain("child", 4, 1).unwrap();
        dm.clone_usb_detach_impl(dom, child, 0).unwrap();
        assert!(dm.usb(child, 0).is_none(), "child comes up without the device");
        assert!(dm.usb(dom, 0).unwrap().attached, "parent keeps it");
        assert!(!dm.bus().contains(child, bus::DeviceId::new(bus::DeviceClass::Usb, 0)));
        assert!(dm.usb_busid_exclusive("1-1.4", dom, 0));
    }
}
