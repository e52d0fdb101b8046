//! Split-driver paravirtualized devices and their Dom0 management.
//!
//! This crate implements both halves of Xen's split-device model for the
//! three device types Nephele clones (§4.2) — the console, network
//! devices and 9pfs — plus the plumbing around them: Xenbus negotiation
//! ([`xenbus`]), shared rings ([`ring`]), the udev event bus ([`udev`]),
//! the QEMU process model ([`qemu`]) and the Dom0 ramdisk ([`memfs`]).
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
//! Both paths are written once for every class:
//! [`bus::DeviceId::frontend_dir`] and [`bus::DeviceId::backend_dir`] are
//! the one Xenstore layout, one handshake boots every split device and
//! one routine copies every device's directories at clone time. Each
//! class keeps only its keys, its backend state and its §4.2 clone
//! heuristic.
//!
//! The manager's per-class state is the one registry of live devices.
//! [`DeviceManager::devices`] lists a domain's devices from it as
//! [`bus::DeviceId`]s in `(class, devid)` order, and
//! [`DeviceManager::clone_device`] clones one by its class's heuristic
//! (see [`bus::DeviceClass`]). The `xencloned` second stage takes a
//! parent's [`DeviceManager::clone_sources`] once per run of its
//! children, each device with handles on its Xenstore directories, and
//! calls `clone_device` on every one for every child.
//!
//! The network side is event-driven, as netback is in Xen: the manager
//! keeps the set of vifs with queued TX packets and the set with queued
//! RX packets, updated at every ring transition, so the platform's event
//! loop visits only vifs with work instead of walking every live vif. It
//! also owns each vif's host-side attachments (the clone mux and the
//! bridge's MAC table), so every destroy path detaches them.

pub mod bus;
pub mod console;
pub mod memfs;
pub mod net;
pub mod p9fs;
pub mod qemu;
pub mod ring;
pub mod udev;
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
use xenstore::tree::DomidRewrite;
use xenstore::{Subtree, XsCloneOp, XsError, Xenstore};

use crate::bus::{ClonePolicy, DeviceClass, DeviceId};
use crate::console::ConsoleBackend;
use crate::memfs::MemFs;
use crate::net::{Vif, RX_RING_SLOTS, TX_RING_SLOTS};
use crate::p9fs::{P9Request, P9Response};
use crate::qemu::{QemuProcess, QmpRequest};
use crate::ring::SharedRing;
use crate::udev::{UdevBus, UdevEvent};
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
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::Xs(e) => write!(f, "xenstore: {e}"),
            DevError::Hv(e) => write!(f, "hypervisor: {e}"),
            DevError::NoSuchDevice(d, i) => write!(f, "no device {i} on {d}"),
            DevError::NoBackend(d) => write!(f, "no backend process for {d}"),
        }
    }
}

impl std::error::Error for DevError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DevError::Xs(e) => Some(e),
            DevError::Hv(e) => Some(e),
            DevError::NoSuchDevice(..) | DevError::NoBackend(_) => None,
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

/// A device to clone from: its owner and id, plus handles on its
/// Xenstore directories ([`Xenstore::subtree`]), taken once so that
/// every child cloned from it grafts them without resolving the paths
/// again. The handles hold while nothing writes under the owner's
/// device directories, which no clone of it does.
#[derive(Debug, Clone)]
pub struct CloneSource {
    /// The device's owner: the clones' parent.
    pub owner: DomId,
    /// The device.
    pub id: DeviceId,
    front: Subtree,
    /// `None` for the console, which has no backend directory.
    back: Option<Subtree>,
}

impl CloneSource {
    /// Takes handles on `owner`'s directories of device `id`, charging
    /// nothing.
    pub fn new(xs: &Xenstore, owner: DomId, id: DeviceId) -> Self {
        CloneSource {
            owner,
            id,
            front: xs.subtree(id.frontend_dir(owner)),
            back: id.backend_dir(owner).map(|b| xs.subtree(b)),
        }
    }
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
            trace: TraceSink::default(),
        }
    }

    /// The devices `owner` holds, in `(class, devid)` order — the
    /// second stage's dispatch order (console, vifs, 9pfs) — read from
    /// the per-class state itself.
    pub fn devices(&self, owner: DomId) -> impl Iterator<Item = DeviceId> + '_ {
        let d = owner.0;
        let one = |class, held: bool| held.then_some(DeviceId::new(class, 0));
        one(DeviceClass::Console, self.console.is_attached(owner))
            .into_iter()
            .chain(
                self.vifs
                    .range((d, 0)..=(d, u32::MAX))
                    .map(|(&(_, i), _)| DeviceId::new(DeviceClass::Vif, i)),
            )
            .chain(one(DeviceClass::P9fs, self.served_by.contains_key(&d)))
    }

    /// The devices of `owner` that `policy` clones, in
    /// [`devices`](Self::devices) order, each with its Xenstore
    /// directories resolved ([`CloneSource`]). Charges nothing.
    pub fn clone_sources(
        &self,
        xs: &Xenstore,
        owner: DomId,
        policy: &ClonePolicy,
    ) -> Vec<CloneSource> {
        self.devices(owner)
            .filter(|id| policy.clones(id.class))
            .map(|id| CloneSource::new(xs, owner, id))
            .collect()
    }

    /// Every device on the host as `(owner, id)`, in `(owner, class,
    /// devid)` order: each owner's run is its [`devices`](Self::devices)
    /// list.
    pub fn all_devices(&self) -> Vec<(DomId, DeviceId)> {
        let mut all: Vec<_> = self
            .console
            .attached()
            .map(|d| (d, DeviceId::new(DeviceClass::Console, 0)))
            .chain(
                self.vifs
                    .keys()
                    .map(|&(d, i)| (DomId(d), DeviceId::new(DeviceClass::Vif, i))),
            )
            .chain(
                self.served_by
                    .keys()
                    .map(|&d| (DomId(d), DeviceId::new(DeviceClass::P9fs, 0))),
            )
            .collect();
        all.sort_unstable();
        all
    }

    /// The invariants `owner`'s device `id` keeps in its own state, one
    /// line per violation (audit invariant 11): a vif stays connected.
    pub fn audit_device(&self, owner: DomId, id: DeviceId) -> Vec<String> {
        let (dom, devid) = (owner, id.devid);
        let mut bad = Vec::new();
        match id.class {
            DeviceClass::Console | DeviceClass::P9fs => {}
            DeviceClass::Vif => {
                if self.vif(dom, devid).is_some_and(|v| !v.is_connected()) {
                    bad.push(format!("vif {dom}/{devid} is not connected"));
                }
            }
        }
        bad
    }

    /// Clones the device `src` names for `child`, a clone of its owner,
    /// by its class's clone heuristic (§4.2), returning the host
    /// interface a cloned vif brought up.
    pub fn clone_device(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        src: &CloneSource,
        child: DomId,
        deep_copy: bool,
    ) -> Result<Option<IfaceId>> {
        match src.id.class {
            DeviceClass::Console => self.clone_console_impl(hv, xs, src, child, deep_copy)?,
            DeviceClass::Vif => {
                let iface = self.clone_vif_impl(hv, xs, udev, src, child, deep_copy)?;
                return Ok(Some(iface));
            }
            DeviceClass::P9fs => {
                self.clone_9pfs_impl(xs, src, child, deep_copy)?;
            }
        }
        Ok(None)
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
        dom: DomId,
    ) -> Result<()> {
        let ring_pfn = hv.domain(dom)?.console_pfn;
        let dir = DeviceId::new(DeviceClass::Console, 0).frontend_dir(dom);
        xs.write(DomId::DOM0, &format!("{dir}/ring-ref"), &ring_pfn.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{dir}/port"), "2")?;
        xs.write(DomId::DOM0, &format!("{dir}/type"), "xenconsoled")?;
        xs.write(DomId::DOM0, &format!("{dir}/output"), "pty")?;
        self.clock.advance(self.costs.console_attach);
        self.console.attach(dom, ring_pfn);
        Ok(())
    }

    /// Clone-path console setup, reached through
    /// [`clone_device`](Self::clone_device): only the Xenstore entries are
    /// cloned; the managing process picks the change up via its watch and
    /// creates the child state with a fresh ring (§4.2, §5.2.1).
    pub(crate) fn clone_console_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        src: &CloneSource,
        child: DomId,
        deep_copy: bool,
    ) -> Result<()> {
        let _span = self.trace.span("dev.clone_console");
        self.clone_dirs(xs, src, child, deep_copy)?;
        let ring_pfn = hv.domain(child)?.console_pfn;
        self.clock.advance(self.costs.console_attach);
        self.console.attach_clone(src.owner, child, ring_pfn);
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
        // Ring pages and RX buffers are private on clone (§4.1/§4.2).
        let mut private = Vec::with_capacity(2 + cfg.rx_buffers.len());
        private.extend([cfg.tx_pfn, cfg.rx_pfn]);
        private.extend_from_slice(&cfg.rx_buffers);
        hv.register_private_pfns(dom, &private, PrivatePolicy::Copy)?;

        let mac = MacAddr::xen(dom.0, cfg.devid as u8);
        let (mac_s, handle) = (mac.to_string(), cfg.devid.to_string());
        self.xenbus_boot(
            xs,
            dom,
            DeviceId::new(DeviceClass::Vif, cfg.devid),
            &[
                ("mac", &mac_s),
                ("handle", &handle),
                ("tx-ring-ref", &cfg.tx_pfn.0.to_string()),
                ("rx-ring-ref", &cfg.rx_pfn.0.to_string()),
            ],
            &[("mac", &mac_s), ("handle", &handle), ("bridge", "xenbr0")],
        )?;

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
        self.clock.advance(self.costs.udev_event);
        udev.emit(UdevEvent::VifCreated { dom, devid: cfg.devid });
        Ok(iface)
    }

    /// Clone-path vif setup, reached through [`clone_device`](Self::clone_device):
    /// Xenstore state is cloned (via `xs_clone` or a deep per-entry copy),
    /// the backend shortcuts the negotiation and the rings are copied.
    /// Emits the udev event that prompts userspace to enslave the new
    /// interface.
    pub(crate) fn clone_vif_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        src: &CloneSource,
        child: DomId,
        deep_copy: bool,
    ) -> Result<IfaceId> {
        let (parent, devid) = (src.owner, src.id.devid);
        let _span = self.trace.span("dev.clone_vif");
        self.clone_dirs(xs, src, child, deep_copy)?;

        if !self.vifs.contains_key(&(parent.0, devid)) {
            return Err(DevError::NoSuchDevice(parent, devid));
        }

        // The netback shortcut: connect directly, no negotiation.
        self.clock.advance(self.costs.backend_create);
        let (guest_port, back_port) = hv.evtchn_connect_pair(child, DomId::DOM0)?;
        let iface = self.alloc_iface();
        let vif = self.vifs[&(parent.0, devid)].clone_for_child(child, iface, guest_port, back_port);
        self.insert_vif(vif);
        self.clock.advance(self.costs.udev_event);
        udev.emit(UdevEvent::VifCreated { dom: child, devid });
        Ok(iface)
    }

    /// Looks up a vif.
    pub fn vif(&self, dom: DomId, devid: u32) -> Option<&Vif> {
        self.vifs.get(&(dom.0, devid))
    }

    /// Total vifs registered.
    pub fn vif_count(&self) -> usize {
        self.vifs.len()
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
        self.xenbus_boot(
            xs,
            dom,
            DeviceId::new(DeviceClass::P9fs, 0),
            &[("tag", "rootfs")],
            &[("path", export_root), ("security_model", "none")],
        )?;
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
        Ok(())
    }

    /// Clone-path 9pfs setup, reached through [`clone_device`](Self::clone_device):
    /// Xenstore state cloned, then a QMP request to the *parent's existing*
    /// backend process duplicates the fid table — no new process is
    /// launched (§5.2.1).
    pub(crate) fn clone_9pfs_impl(
        &mut self,
        xs: &mut Xenstore,
        src: &CloneSource,
        child: DomId,
        deep_copy: bool,
    ) -> Result<usize> {
        let parent = src.owner;
        let _span = self.trace.span("dev.clone_9pfs");
        self.clone_dirs(xs, src, child, deep_copy)?;
        self.clock.advance(self.costs.qmp_request);
        let pid = *self.served_by.get(&parent.0).ok_or(DevError::NoBackend(parent))?;
        let q = self.qemus.get_mut(&pid).ok_or(DevError::NoBackend(parent))?;
        let fids = q.qmp(QmpRequest::CloneP9 { parent, child });
        self.served_by.insert(child.0, pid);
        self.clock
            .advance(self.costs.qmp_clone_per_fid.saturating_mul(fids as u64));
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
    // The split-device protocol every class shares
    // ------------------------------------------------------------------

    /// The boot-path Xenbus handshake of `dom`'s split device `id`: the
    /// frontend's `backend` and `backend-id` keys, then the class's
    /// `front` keys; the backend's `frontend` and `frontend-id` keys, then
    /// its `back` keys; then the full negotiation, one state write per
    /// end per step.
    fn xenbus_boot(
        &mut self,
        xs: &mut Xenstore,
        dom: DomId,
        id: DeviceId,
        front: &[(&str, &str)],
        back: &[(&str, &str)],
    ) -> Result<()> {
        let f = id.frontend_dir(dom);
        let b = id.backend_dir(dom).expect("a split device has a backend");
        let domid = dom.0.to_string();
        let ends = [
            (&f, [("backend", b.as_str()), ("backend-id", "0")], front),
            (&b, [("frontend", f.as_str()), ("frontend-id", domid.as_str())], back),
        ];
        for (dir, link, keys) in ends {
            for &(key, value) in link.iter().chain(keys) {
                xs.write(DomId::DOM0, &format!("{dir}/{key}"), value)?;
            }
        }
        for (front, back) in NEGOTIATION_STEPS {
            for (dir, state) in [(&f, front), (&b, back)] {
                self.clock.advance(self.costs.xenbus_transition);
                xs.write(DomId::DOM0, &format!("{dir}/state"), state.to_xs())?;
            }
        }
        Ok(())
    }

    /// Copies the Xenstore directories of the device `src` names to
    /// `child`, frontend first: one `xs_clone` request per directory, or,
    /// when `deep_copy` is set, the per-entry copy Fig. 4's "clone + XS
    /// deep copy" curve measures.
    fn clone_dirs(
        &mut self,
        xs: &mut Xenstore,
        src: &CloneSource,
        child: DomId,
        deep_copy: bool,
    ) -> Result<()> {
        let (parent, id) = (src.owner, src.id);
        let front = (&src.front, id.frontend_dir(child));
        let back = src.back.as_ref().zip(id.backend_dir(child));
        for (from, to) in std::iter::once(front).chain(back) {
            if deep_copy {
                self.deep_copy_dir(xs, from.path(), &to, parent, child)?;
            } else {
                xs.xs_clone(DomId::DOM0, XsCloneOp::Device, parent, child, from, &to)?;
            }
        }
        Ok(())
    }

    /// The deep-copy fallback for one device directory: a listing, then a
    /// read and a write request per entry, with `xs_clone`'s domid
    /// rewrite applied client-side. This is what `xencloned` does
    /// *without* the `xs_clone` optimization.
    fn deep_copy_dir(
        &mut self,
        xs: &mut Xenstore,
        from: &str,
        to: &str,
        parent: DomId,
        child: DomId,
    ) -> Result<()> {
        let _span = self.trace.span("dev.deep_copy");
        let keys = xs.directory(DomId::DOM0, from)?;
        let rewrite = DomidRewrite {
            old: parent.0,
            new: child.0,
        };
        for key in keys {
            let v = xs.read(DomId::DOM0, &format!("{from}/{key}"))?;
            xs.write(DomId::DOM0, &format!("{to}/{key}"), &rewrite.apply(&v))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lifecycle / accounting
    // ------------------------------------------------------------------

    /// Releases every device of a destroyed domain. Every step is
    /// O(devices the domain owns), never O(devices on the host): the
    /// `(owner, devid)` BTreeMap keys make each domain's vifs one
    /// contiguous range, and the `served_by` index names the one QEMU
    /// process whose serve set mentions the domain. The one exception is
    /// leaving the clone mux, which is O(mux members) to keep the
    /// survivors' enslavement order. Every destroy path (`xl destroy`,
    /// `xl save`, the platform's) ends here, so no mux member or MAC-table
    /// entry outlives its vif.
    pub fn forget_domain(&mut self, udev: &mut UdevBus, dom: DomId) {
        let owned: Vec<(u32, u32)> = self
            .vifs
            .range((dom.0, 0)..=(dom.0, u32::MAX))
            .map(|(k, _)| *k)
            .collect();
        for key in owned {
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
    }

    /// Modelled Dom0 resident memory for backend state, in bytes (Fig. 5's
    /// "Dom0 free" decline): per-vif netback state, per-console state,
    /// per-QEMU process plus per-served-domain state, and ramdisk contents.
    pub fn dom0_backend_bytes(&self) -> u64 {
        const PER_VIF: u64 = 96 * 1024;
        const PER_CONSOLE: u64 = 48 * 1024;
        const PER_QEMU: u64 = 9 * 1024 * 1024;
        const PER_SERVED: u64 = 128 * 1024;
        let served: u64 = self.qemus.values().map(|q| q.serves.len() as u64).sum();
        self.vifs.len() as u64 * PER_VIF
            + self.console.attached_count() as u64 * PER_CONSOLE
            + self.qemus.len() as u64 * PER_QEMU
            + served * PER_SERVED
            + self.fs.total_bytes() as u64
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

    fn front(class: DeviceClass, dom: DomId) -> String {
        DeviceId::new(class, 0).frontend_dir(dom)
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
            xs.read(DomId::DOM0, &format!("{}/state", front(DeviceClass::Vif, dom))).unwrap(),
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
        let from = src(&xs, dom, DeviceClass::Vif);
        let ifc = dm
            .clone_vif_impl(&mut hv, &mut xs, &mut udev, &from, child, false)
            .unwrap();
        let cv = dm.vif(child, 0).unwrap();
        let pv = dm.vif(dom, 0).unwrap();
        assert_eq!(cv.mac, pv.mac);
        assert_eq!(cv.ip, pv.ip);
        assert!(cv.is_connected());
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{}/state", front(DeviceClass::Vif, child))).unwrap(),
            "4",
            "cloned entries exist and are Connected"
        );
        assert_eq!(dm.iface_target(ifc), Some((child, 0)));
    }

    /// `dom`'s device 0 of `class` as a clone source.
    fn src(xs: &Xenstore, dom: DomId, class: DeviceClass) -> CloneSource {
        CloneSource::new(xs, dom, DeviceId::new(class, 0))
    }

    /// Every `(path below dir, value)` of the subtree at `dir`, read
    /// through the uncharged introspection calls.
    fn subtree(xs: &Xenstore, dir: &str) -> Vec<(String, Option<String>)> {
        let mut out = Vec::new();
        let mut stack = vec![String::new()];
        while let Some(rel) = stack.pop() {
            let path = format!("{dir}{rel}");
            out.push((rel.clone(), xs.peek(&path)));
            stack.extend(xs.peek_directory(&path).into_iter().map(|name| format!("{rel}/{name}")));
        }
        out
    }

    #[test]
    fn deep_copy_and_xs_clone_give_equal_subtrees_for_every_class() {
        use bus::DeviceClass::{Console, P9fs, Vif};
        for class in DeviceClass::ALL {
            let id = DeviceId::new(class, 0);
            let [by_xs_clone, by_deep_copy] = [false, true].map(|deep_copy| {
                let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
                match class {
                    Console => dm.setup_console_boot(&mut hv, &mut xs, dom),
                    Vif => dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).map(drop),
                    P9fs => dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export"),
                }
                .unwrap();
                let child = hv.create_domain("child", 4, 1).unwrap();
                let from = CloneSource::new(&xs, dom, id);
                dm.clone_device(&mut hv, &mut xs, &mut udev, &from, child, deep_copy)
                    .unwrap();
                let dirs: Vec<String> =
                    std::iter::once(id.frontend_dir(child)).chain(id.backend_dir(child)).collect();
                if let [front, back] = &dirs[..] {
                    // The copy names the child, not the parent.
                    assert_eq!(xs.peek(&format!("{front}/backend")).as_ref(), Some(back));
                    assert_eq!(xs.peek(&format!("{back}/frontend")).as_ref(), Some(front));
                    assert_eq!(xs.peek(&format!("{back}/frontend-id")), Some(child.0.to_string()));
                }
                dirs.iter().map(|dir| subtree(&xs, dir)).collect::<Vec<_>>()
            });
            assert!(by_xs_clone.iter().all(|entries| entries.len() > 1), "{class:?}");
            assert_eq!(by_xs_clone, by_deep_copy, "{class:?}");
        }
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
        let from = src(&xs, dom, DeviceClass::Vif);
        dm.clone_vif_impl(&mut hv, &mut xs, &mut udev, &from, child, false).unwrap();

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
        let from = src(&xs, dom, DeviceClass::Vif);
        dm.clone_vif_impl(&mut hv, &mut xs, &mut udev, &from, child, false).unwrap();
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
        dm.set_mux(Box::new(netmux::Bond::new()));
        let parent_iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.register_mac(parent_iface);
        assert!(dm.enslave(parent_iface));
        let mac = dm.vif(dom, 0).unwrap().mac;
        let child = hv.create_domain("child", 4, 1).unwrap();
        let from = src(&xs, dom, DeviceClass::Vif);
        let child_iface = dm
            .clone_vif_impl(&mut hv, &mut xs, &mut udev, &from, child, false)
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
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_console_boot(&mut hv, &mut xs, dom).unwrap();
        dm.console_write(dom, b"booted\n");
        assert_eq!(dm.console_output(dom), b"booted\n");

        let child = hv.create_domain("child", 4, 1).unwrap();
        let from = src(&xs, dom, DeviceClass::Console);
        dm.clone_console_impl(&mut hv, &mut xs, &from, child, false).unwrap();
        assert!(dm.console_attached(child));
        assert!(dm.console_output(child).is_empty(), "no parent output replay");
        assert!(xs.exists(&format!("{}/ring-ref", front(DeviceClass::Console, child))));
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
        let from = src(&xs, dom, DeviceClass::P9fs);
        let fids = dm.clone_9pfs_impl(&mut xs, &from, child, false).unwrap();
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
        dm.setup_console_boot(&mut hv, &mut xs, dom).unwrap();
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
        dm.setup_console_boot(&mut hv, &mut xs, dom).unwrap();
        assert!(dm.dom0_backend_bytes() > before);
    }

    #[test]
    fn device_list_follows_the_state_in_class_order() {
        use bus::DeviceClass::{Console, P9fs, Vif};
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export")
            .unwrap();
        dm.setup_vif_boot(
            &mut hv,
            &mut xs,
            &mut udev,
            dom,
            VifConfig {
                devid: 1,
                ..vif_cfg()
            },
        )
        .unwrap();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg())
            .unwrap();
        dm.setup_console_boot(&mut hv, &mut xs, dom)
            .unwrap();
        let every: Vec<DeviceId> = [(Console, 0), (Vif, 0), (Vif, 1), (P9fs, 0)]
            .into_iter()
            .map(|(class, devid)| DeviceId::new(class, devid))
            .collect();
        assert_eq!(dm.devices(dom).collect::<Vec<_>>(), every, "dispatch order is (class, devid)");

        // A child cloned device by device holds the parent's whole list.
        let child = hv.create_domain("child", 4, 1).unwrap();
        for from in dm.clone_sources(&xs, dom, &ClonePolicy::all()) {
            dm.clone_device(&mut hv, &mut xs, &mut udev, &from, child, false)
                .unwrap();
        }
        assert_eq!(dm.devices(child).collect::<Vec<_>>(), every);
        let owned: Vec<(DomId, DeviceId)> = [dom, child]
            .into_iter()
            .flat_map(|d| every.iter().map(move |&id| (d, id)))
            .collect();
        assert_eq!(dm.all_devices(), owned);

        udev.drain();
        for d in [dom, child] {
            dm.forget_domain(&mut udev, d);
            assert!(
                dm.devices(d).next().is_none(),
                "forget_domain leaves no device of {d}"
            );
        }
        assert!(dm.all_devices().is_empty());
    }
}
