//! The `xl` command-line toolstack: domain creation, destruction,
//! save/restore and the instance registry.
//!
//! The boot path reproduces the real work `xl`/`libxl` do: hypervisor
//! allocations, kernel image loading, per-entry Xenstore population, device
//! negotiation and the userspace follow-ups (bridging). Two details matter
//! for Fig. 4 and are modelled explicitly:
//!
//! * **name validation** — vanilla `xl` checks name uniqueness by iterating
//!   all running VMs, a superlinear cost with instance count; the paper
//!   disables it for a fair baseline, and so does [`Xl`] by default
//!   ([`Xl::validate_names`]);
//! * **restore copies everything** — restoring copies the *entire
//!   configured* memory from the image "regardless of the amount of memory
//!   that is actually used by the VM", making restore slightly slower than
//!   boot.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

use devices::udev::UdevBus;
use devices::{DevError, DeviceManager, VifConfig};
use hypervisor::domain::ClonePolicy;
use hypervisor::error::HvError;
use hypervisor::{Hypervisor, MemoryImage};
use netmux::IfaceId;
use sim_core::{Clock, CostModel, DomId, Pfn, TraceSink};
use xenstore::{XsError, Xenstore};

use crate::config::DomainConfig;
use crate::image::{GuestLayout, KernelImage};

/// Device-region pages consumed per vif: TX ring + RX ring + RX buffers.
pub const PAGES_PER_VIF: u64 = 2 + devices::net::RX_RING_SLOTS as u64;

/// Toolstack errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XlError {
    /// A domain with this name already exists (only with validation on).
    NameExists(String),
    /// Unknown saved-image slot.
    NoSuchImage(String),
    /// Unknown domain.
    NoSuchDomain(DomId),
    /// Hypervisor failure.
    Hv(HvError),
    /// Xenstore failure.
    Xs(XsError),
    /// Device failure.
    Dev(DevError),
}

impl fmt::Display for XlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XlError::NameExists(n) => write!(f, "domain name already in use: {n}"),
            XlError::NoSuchImage(s) => write!(f, "no saved image: {s}"),
            XlError::NoSuchDomain(d) => write!(f, "no such domain: {d}"),
            XlError::Hv(e) => write!(f, "{e}"),
            XlError::Xs(e) => write!(f, "{e}"),
            XlError::Dev(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for XlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XlError::Hv(e) => Some(e),
            XlError::Xs(e) => Some(e),
            XlError::Dev(e) => Some(e),
            XlError::NameExists(_) | XlError::NoSuchImage(_) | XlError::NoSuchDomain(_) => None,
        }
    }
}

impl From<HvError> for XlError {
    fn from(e: HvError) -> Self {
        XlError::Hv(e)
    }
}
impl From<XsError> for XlError {
    fn from(e: XsError) -> Self {
        XlError::Xs(e)
    }
}
impl From<DevError> for XlError {
    fn from(e: DevError) -> Self {
        XlError::Dev(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, XlError>;

/// A live-domain record in the toolstack registry.
#[derive(Debug, Clone)]
pub struct DomRecord {
    /// Domain id.
    pub id: DomId,
    /// Domain name, shared with the toolstack's name index.
    pub name: Rc<str>,
    /// Configuration it was created from, shared by a clone family.
    pub config: Rc<DomainConfig>,
    /// Memory layout handed to the guest.
    pub layout: GuestLayout,
    /// Host interfaces of its vifs, in devid order.
    pub ifaces: Vec<IfaceId>,
}

/// A saved guest (the product of `xl save`). The config is the saved
/// domain's record's, shared, and a restore takes handles on the config
/// and the memory image instead of copies.
#[derive(Debug, Clone)]
pub struct SavedGuest {
    config: Rc<DomainConfig>,
    /// The layout the saved image gives a domain of this config.
    layout: GuestLayout,
    memory: Rc<MemoryImage>,
}

/// Result of creating or restoring a domain.
#[derive(Debug, Clone)]
pub struct CreatedDomain {
    /// The new domain id.
    pub id: DomId,
    /// Its memory layout.
    pub layout: GuestLayout,
    /// Host interfaces of its vifs, in devid order.
    pub ifaces: Vec<IfaceId>,
}

/// The toolstack.
#[derive(Debug)]
pub struct Xl {
    clock: Clock,
    costs: Rc<CostModel>,
    /// Enables vanilla `xl`'s O(n) name-uniqueness scan (off by default,
    /// matching the paper's baseline methodology in §6.1).
    pub validate_names: bool,
    /// Records by domain id, in id order.
    records: BTreeMap<u32, DomRecord>,
    /// Name → registered domain ids. Maintained on create, clone
    /// registration, restore, rename and destroy so the uniqueness
    /// check is an O(1) lookup on the host, not a registry scan — the
    /// §5 scan's *virtual-time* cost is still charged when
    /// `validate_names` is on (that is vanilla `xl`'s modelled
    /// behavior), but the simulator itself no longer pays O(live
    /// domains) per create. Duplicate names are legal while validation
    /// is off, hence the id list (unordered, without repeats). Keys share
    /// the records' name allocations.
    names: HashMap<Rc<str>, Vec<u32>>,
    saved: HashMap<String, SavedGuest>,
    trace: TraceSink,
}

impl Xl {
    /// Creates a toolstack sharing the platform clock and cost model.
    pub fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        Xl {
            clock,
            costs,
            validate_names: false,
            records: BTreeMap::new(),
            names: HashMap::new(),
            saved: HashMap::new(),
            trace: TraceSink::default(),
        }
    }

    /// Attaches a trace sink (disabled by default); boot-path spans are
    /// recorded into it.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Lists `(name, id)` of registered domains, in id order.
    pub fn list(&self) -> Vec<(String, DomId)> {
        self.records
            .values()
            .map(|r| (r.name.to_string(), r.id))
            .collect()
    }

    /// Looks up a record by domain id.
    pub fn record(&self, dom: DomId) -> Option<&DomRecord> {
        self.records.get(&dom.0)
    }

    /// Number of registered domains.
    pub fn domain_count(&self) -> usize {
        self.records.len()
    }

    fn check_name(&self, name: &str) -> Result<()> {
        if self.validate_names {
            // Vanilla xl iterates every running VM's name; that modelled
            // virtual-time cost is preserved. The host-side answer comes
            // from the name index in O(1), debug-asserted against the
            // scan it replaced.
            self.clock.advance(
                self.costs
                    .xl_name_check_per_domain
                    .saturating_mul(self.records.len() as u64),
            );
            let taken = self.names.get(name).is_some_and(|ids| !ids.is_empty());
            debug_assert_eq!(
                taken,
                self.records.values().any(|r| &*r.name == name),
                "name index disagrees with the registry scan for {name:?}"
            );
            if taken {
                return Err(XlError::NameExists(name.to_string()));
            }
        }
        Ok(())
    }

    /// Removes one id from a name's index entry, dropping the entry when
    /// it empties.
    fn unindex_name(&mut self, name: &str, id: u32) {
        if let Some(ids) = self.names.get_mut(name) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.names.remove(name);
            }
        }
    }

    /// Adds `id` to `name`'s index entry.
    fn index_name(&mut self, name: &Rc<str>, id: u32) {
        let ids = self.names.entry(Rc::clone(name)).or_default();
        if !ids.contains(&id) {
            ids.push(id);
        }
    }

    /// Registers a record, keeping the name index in lockstep (including
    /// when an id is re-registered under a different name).
    fn insert_record(&mut self, rec: DomRecord) {
        let id = rec.id.0;
        let name = Rc::clone(&rec.name);
        if let Some(old) = self.records.insert(id, rec) {
            if old.name != name {
                self.unindex_name(&old.name, id);
            }
        }
        self.index_name(&name, id);
    }

    fn write_base_entries(
        &self,
        xs: &mut Xenstore,
        dom: DomId,
        cfg: &DomainConfig,
    ) -> Result<()> {
        let home = format!("/local/domain/{}", dom.0);
        xs.write(DomId::DOM0, &format!("{home}/name"), &cfg.name)?;
        xs.write(DomId::DOM0, &format!("{home}/domid"), &dom.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{home}/memory/target"), &(cfg.memory_mib * 1024).to_string())?;
        xs.write(DomId::DOM0, &format!("{home}/memory/static-max"), &(cfg.memory_mib * 1024).to_string())?;
        xs.write(DomId::DOM0, &format!("{home}/cpu/0/availability"), "online")?;
        xs.write(DomId::DOM0, &format!("{home}/vm"), &format!("/vm/{}", cfg.name))?;
        xs.write(DomId::DOM0, &format!("/vm/{}/uuid", cfg.name), &format!("uuid-{}", dom.0))?;
        xs.write(DomId::DOM0, &format!("/vm/{}/start_time", cfg.name), "0")?;
        Ok(())
    }

    fn setup_devices(
        &self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        dom: DomId,
        cfg: &DomainConfig,
        layout: &GuestLayout,
    ) -> Result<Vec<IfaceId>> {
        dm.setup_console_boot(hv, xs, udev, dom)?;
        let mut ifaces = Vec::new();
        for (i, vif) in cfg.vifs.iter().enumerate() {
            let base = layout.dev_region_start.0 + i as u64 * PAGES_PER_VIF;
            let iface = dm.setup_vif_boot(
                hv,
                xs,
                udev,
                dom,
                VifConfig {
                    devid: i as u32,
                    ip: vif.ip,
                    tx_pfn: Pfn(base),
                    rx_pfn: Pfn(base + 1),
                    rx_buffers: (base + 2..base + PAGES_PER_VIF).map(Pfn).collect(),
                },
            )?;
            ifaces.push(iface);
        }
        if let Some(export) = &cfg.p9fs_export {
            dm.setup_9pfs_boot(hv, xs, dom, export)?;
        }
        for (i, vbd) in cfg.vbds.iter().enumerate() {
            dm.setup_vbd_boot(xs, dom, i as u32, vbd.sectors)?;
        }
        if cfg.vsock {
            dm.setup_vsock_boot(hv, xs, dom)?;
        }
        for (i, busid) in cfg.usb_busids.iter().enumerate() {
            dm.setup_usb_boot(xs, dom, i as u32, busid)?;
        }
        // Userspace follow-up: every created vif is added to the bridge.
        for e in udev.drain() {
            if let devices::udev::UdevEvent::VifCreated { .. } = e {
                self.clock.advance(self.costs.bridge_add);
            }
        }
        Ok(ifaces)
    }

    fn populate_image(
        &self,
        hv: &mut Hypervisor,
        dom: DomId,
        image: &KernelImage,
    ) -> Result<()> {
        self.clock.advance(
            self.costs
                .image_load_per_page
                .saturating_mul(image.total_pages()),
        );
        // Text and rodata get distinctive content; data pages are written
        // at startup; bss stays zero. One bulk fill per section.
        let rodata = image.text_pages;
        let data = rodata + image.rodata_pages;
        let bss = data + image.data_pages;
        hv.fill_pages(dom, 0..rodata, |p| 0x7e7e_7e7e_0000_0000 | p.0)?;
        hv.fill_pages(dom, rodata..data, |p| 0x0da7_a000_0000_0000 | p.0)?;
        hv.fill_pages(dom, data..bss, |p| 0xda7a_0000_0000_0000 | p.0)?;
        Ok(())
    }

    /// `xl create`: boots a new domain from a config and image. Successful
    /// creations feed the `xl.create` latency histogram.
    pub fn create(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        cfg: &DomainConfig,
        image: &KernelImage,
    ) -> Result<CreatedDomain> {
        let start = self.clock.now();
        let r = self.create_impl(hv, xs, dm, udev, cfg, image);
        if r.is_ok() {
            self.trace
                .record_ns("xl.create", self.clock.now().since(start).as_ns());
        }
        r
    }

    fn create_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        cfg: &DomainConfig,
        image: &KernelImage,
    ) -> Result<CreatedDomain> {
        let span = self.trace.span("xl.create");
        span.attr("name", cfg.name.as_str());
        span.attr("memory_mib", cfg.memory_mib);
        self.clock.advance(self.costs.xl_create_base);
        self.check_name(&cfg.name)?;

        let layout = layout_of(cfg, image);

        let dom = hv.create_domain(&cfg.name, cfg.memory_mib, cfg.vcpus)?;
        // Every Xenstore request of the boot runs with the new domain's
        // home resolved once.
        let ifaces = xs.with_home(dom, |xs| -> Result<Vec<IfaceId>> {
            {
                let _s = self.trace.span("xl.xenstore_init");
                xs.introduce_domain(dom, None)?;
                self.write_base_entries(xs, dom, cfg)?;
            }
            {
                let s = self.trace.span("xl.image_load");
                s.attr("pages", image.total_pages());
                self.populate_image(hv, dom, image)?;
            }
            let s = self.trace.span("xl.device_setup");
            s.attr("vifs", cfg.vifs.len());
            self.setup_devices(hv, xs, dm, udev, dom, cfg, &layout)
        })?;

        hv.set_clone_policy(
            dom,
            ClonePolicy {
                enabled: cfg.max_clones > 0,
                max_clones: cfg.max_clones,
                resume_children: cfg.resume_clones,
            },
        )?;

        self.clock.advance(self.costs.guest_boot_fixed);
        hv.unpause(dom)?;
        self.insert_record(DomRecord {
            id: dom,
            name: cfg.name.as_str().into(),
            config: Rc::new(cfg.clone()),
            layout,
            ifaces: ifaces.clone(),
        });
        Ok(CreatedDomain { id: dom, layout, ifaces })
    }

    /// Registers a clone created by `xencloned` in the instance registry
    /// (name uniqueness is guaranteed by construction — no scan).
    pub fn register_clone(&mut self, parent: DomId, child: DomId, name: &str, ifaces: Vec<IfaceId>) {
        if let Some(p) = self.records.get(&parent.0) {
            let record = DomRecord {
                id: child,
                name: name.into(),
                config: Rc::clone(&p.config),
                layout: p.layout,
                ifaces,
            };
            self.insert_record(record);
        }
    }

    /// `xl rename`: renames a live domain, updating the registry, the
    /// name index and the domain's Xenstore name node. Renaming to the
    /// current name is a no-op; with `validate_names` on, the target
    /// name is checked for uniqueness exactly like a create.
    pub fn rename(&mut self, xs: &mut Xenstore, dom: DomId, new_name: &str) -> Result<()> {
        let Some(rec) = self.records.get(&dom.0) else {
            return Err(XlError::NoSuchDomain(dom));
        };
        if &*rec.name == new_name {
            return Ok(());
        }
        self.check_name(new_name)?;
        xs.write(
            DomId::DOM0,
            &format!("/local/domain/{}/name", dom.0),
            new_name,
        )?;
        let name: Rc<str> = new_name.into();
        let rec = self.records.get_mut(&dom.0).expect("checked above");
        let old = std::mem::replace(&mut rec.name, Rc::clone(&name));
        self.unindex_name(&old, dom.0);
        self.index_name(&name, dom.0);
        Ok(())
    }

    /// `xl destroy`: tears down a domain across all components.
    pub fn destroy(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        dom: DomId,
    ) -> Result<()> {
        if !hv.domain_exists(dom) {
            return Err(XlError::NoSuchDomain(dom));
        }
        self.clock.advance(self.costs.xl_destroy_base);
        dm.forget_domain(udev, dom);
        xs.forget_domain(dom);
        hv.destroy_domain(dom)?;
        if let Some(rec) = self.records.remove(&dom.0) {
            self.unindex_name(&rec.name, dom.0);
        }
        udev.drain();
        Ok(())
    }

    /// `xl save`: snapshots a domain's memory and config into `slot`
    /// (replacing what the slot held), then destroys the domain.
    pub fn save(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        dom: DomId,
        slot: &str,
        image: &KernelImage,
    ) -> Result<()> {
        let span = self.trace.span("xl.save");
        span.attr("dom", dom.0);
        let config = self
            .records
            .get(&dom.0)
            .map(|r| Rc::clone(&r.config))
            .ok_or(XlError::NoSuchDomain(dom))?;
        let memory = hv.snapshot_memory(dom)?;
        self.clock.advance(
            self.costs
                .save_per_page
                .saturating_mul(memory.pages.len() as u64),
        );
        let saved = SavedGuest {
            layout: layout_of(&config, image),
            config,
            memory: Rc::new(memory),
        };
        match self.saved.get_mut(slot) {
            Some(occupied) => *occupied = saved,
            None => {
                self.saved.insert(slot.to_string(), saved);
            }
        }
        self.destroy(hv, xs, dm, udev, dom)
    }

    /// `xl restore`: recreates a domain from a saved image, under
    /// `new_name` if given (the saved config keeps its name). The
    /// *entire* configured memory is copied back from the image.
    pub fn restore(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        slot: &str,
        new_name: Option<&str>,
    ) -> Result<CreatedDomain> {
        let span = self.trace.span("xl.restore");
        span.attr("slot", slot);
        let saved = self
            .saved
            .get(slot)
            .ok_or_else(|| XlError::NoSuchImage(slot.to_string()))?;
        let (mut config, memory, layout) =
            (Rc::clone(&saved.config), Rc::clone(&saved.memory), saved.layout);
        if let Some(n) = new_name {
            Rc::make_mut(&mut config).name = n.to_string();
        }
        self.clock.advance(self.costs.xl_create_base);
        self.check_name(&config.name)?;

        let dom = hv.create_domain(&config.name, config.memory_mib, config.vcpus)?;
        let ifaces = xs.with_home(dom, |xs| -> Result<Vec<IfaceId>> {
            xs.introduce_domain(dom, None)?;
            self.write_base_entries(xs, dom, &config)?;

            // Restore is dominated by copying all configured memory back.
            self.clock.advance(
                self.costs
                    .restore_per_page
                    .saturating_mul(memory.p2m_size),
            );
            hv.load_image(dom, &memory)?;

            self.setup_devices(hv, xs, dm, udev, dom, &config, &layout)
        })?;
        hv.set_clone_policy(
            dom,
            ClonePolicy {
                enabled: config.max_clones > 0,
                max_clones: config.max_clones,
                resume_children: config.resume_clones,
            },
        )?;
        hv.unpause(dom)?;
        self.insert_record(DomRecord {
            id: dom,
            name: config.name.as_str().into(),
            config,
            layout,
            ifaces: ifaces.clone(),
        });
        Ok(CreatedDomain { id: dom, layout, ifaces })
    }

    /// Whether a saved image exists in `slot`.
    pub fn has_saved(&self, slot: &str) -> bool {
        self.saved.contains_key(slot)
    }

    /// Modelled toolstack resident memory (registry and libxl context) for
    /// Dom0 accounting.
    pub fn resident_bytes(&self) -> u64 {
        const PER_DOMAIN: u64 = 24 * 1024;
        self.records.len() as u64 * PER_DOMAIN
    }

    /// Cross-checks the name index against the registry in both
    /// directions: every record is in its name's list, and every indexed
    /// `(name, id)` is a record of that name. One detail string per
    /// divergence (empty when consistent). The state auditor surfaces
    /// these as its index-consistency invariant.
    ///
    /// The first direction is one lookup per record. Distinct records
    /// give distinct entries, so when it holds, no list is empty and the
    /// index holds exactly one entry per record, no other entry exists
    /// and the second direction holds too. Only otherwise is each entry
    /// looked up, to name the bad ones. Nothing is allocated per entry.
    pub fn audit_name_index(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in self.records.values() {
            if !self.names.get(&r.name).is_some_and(|ids| ids.contains(&r.id.0)) {
                bad.push(format!(
                    "registry name {:?} -> {} missing from the name index",
                    r.name, r.id.0
                ));
            }
        }
        let indexed: usize = self.names.values().map(Vec::len).sum();
        let none_empty = self.names.values().all(|ids| !ids.is_empty());
        if bad.is_empty() && none_empty && indexed == self.records.len() {
            return bad;
        }
        for (name, ids) in &self.names {
            if ids.is_empty() {
                bad.push(format!("name index {name:?} holds an empty id list"));
            }
            for (i, &id) in ids.iter().enumerate() {
                if ids[..i].contains(&id) {
                    bad.push(format!("name index {name:?} -> {ids:?} repeats {id}"));
                    continue;
                }
                match self.records.get(&id) {
                    Some(r) if r.name == *name => {}
                    Some(r) => bad.push(format!(
                        "name index {name:?} -> {id}, but the registry names {id} {:?}",
                        r.name
                    )),
                    None => bad.push(format!(
                        "name index {name:?} -> {id}, which has no registry record"
                    )),
                }
            }
        }
        bad
    }

    /// Test-only: plants (or removes) a name-index entry without touching
    /// the registry, so the index-consistency audit can prove it detects
    /// drift between the index and the scan it replaced.
    pub fn corrupt_name_index_for_test(&mut self, name: &str, id: u32, insert: bool) {
        if insert {
            self.index_name(&name.into(), id);
        } else {
            self.unindex_name(name, id);
        }
    }
}

/// The memory layout `image` gives a domain of `cfg`: RAM, the image,
/// and a device region sized for its vifs.
fn layout_of(cfg: &DomainConfig, image: &KernelImage) -> GuestLayout {
    let dev_pages = cfg.vifs.len() as u64 * PAGES_PER_VIF;
    GuestLayout::compute(cfg.memory_mib, image, dev_pages)
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use hypervisor::MachineConfig;

    use super::*;

    struct World {
        clock: Clock,
        hv: Hypervisor,
        xs: Xenstore,
        dm: DeviceManager,
        udev: UdevBus,
        xl: Xl,
    }

    fn world() -> World {
        let clock = Clock::new();
        let costs = Rc::new(CostModel::calibrated());
        World {
            clock: clock.clone(),
            hv: Hypervisor::new(
                clock.clone(),
                costs.clone(),
                &MachineConfig {
                    guest_pool_mib: 256,
                    notification_ring_capacity: 16,
                },
            ),
            xs: Xenstore::new(clock.clone(), costs.clone()),
            dm: DeviceManager::new(clock.clone(), costs.clone()),
            udev: UdevBus::new(),
            xl: Xl::new(clock, costs),
        }
    }

    fn udp_cfg(name: &str) -> DomainConfig {
        DomainConfig::builder(name)
            .memory_mib(4)
            .vif(Ipv4Addr::new(10, 0, 0, 2))
            .max_clones(100)
            .build()
    }

    #[test]
    fn create_boots_a_complete_guest() {
        let mut w = world();
        let img = KernelImage::minios("udp");
        let created = w
            .xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &udp_cfg("udp"), &img)
            .unwrap();
        let dom = created.id;
        assert!(w.hv.domain(dom).unwrap().is_runnable());
        assert_eq!(w.xs.read(DomId::DOM0, &format!("/local/domain/{}/name", dom.0)).unwrap(), "udp");
        assert!(w.dm.vif(dom, 0).unwrap().is_connected());
        assert!(w.dm.console_attached(dom));
        assert_eq!(created.ifaces.len(), 1);
        assert_eq!(w.xl.list().len(), 1);
        // Clone policy flowed through.
        assert!(w.hv.domain(dom).unwrap().clone_policy.enabled);
    }

    #[test]
    fn boot_takes_on_the_order_of_100ms() {
        let mut w = world();
        let img = KernelImage::minios("udp");
        let t0 = w.clock.now();
        w.xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &udp_cfg("udp"), &img)
            .unwrap();
        let boot = w.clock.now().since(t0).as_ms_f64();
        assert!((40.0..400.0).contains(&boot), "boot = {boot} ms");
    }

    #[test]
    fn name_validation_costs_and_rejects() {
        let mut w = world();
        w.xl.validate_names = true;
        let img = KernelImage::minios("udp");
        w.xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &udp_cfg("dup"), &img)
            .unwrap();
        let r = w
            .xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &udp_cfg("dup"), &img);
        assert!(matches!(r, Err(XlError::NameExists(_))));
    }

    fn plain_cfg(name: &str) -> DomainConfig {
        DomainConfig::builder(name).memory_mib(4).build()
    }

    /// Index drift that keeps every record findable (a repeated id, an
    /// empty list, an entry naming another record's id) still fails the
    /// name-index audit, each entry named.
    #[test]
    fn name_index_audit_names_entries_that_no_record_explains() {
        let mut w = world();
        let img = KernelImage::unikraft("fn");
        let mut create = |name: &str| {
            w.xl
                .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &plain_cfg(name), &img)
                .unwrap()
                .id
        };
        let (a, b) = (create("alpha"), create("beta"));
        assert!(w.xl.audit_name_index().is_empty());

        w.xl.names.get_mut("alpha").unwrap().push(a.0);
        let bad = w.xl.audit_name_index();
        assert!(bad.iter().any(|d| d.contains("\"alpha\"") && d.contains("repeats")), "{bad:?}");
        w.xl.names.get_mut("alpha").unwrap().pop();

        w.xl.names.insert("gamma".into(), Vec::new());
        let bad = w.xl.audit_name_index();
        assert!(bad.iter().any(|d| d.contains("\"gamma\" holds an empty")), "{bad:?}");
        w.xl.names.remove("gamma");

        w.xl.names.get_mut("alpha").unwrap().push(b.0);
        let bad = w.xl.audit_name_index();
        assert!(
            bad.iter().any(|d| d.contains(&format!("\"alpha\" -> {}, but the registry", b.0))),
            "{bad:?}"
        );
        w.xl.names.get_mut("alpha").unwrap().pop();
        assert!(w.xl.audit_name_index().is_empty());
    }

    /// Pins the name index across the sequences that historically break
    /// maintained indexes: destroy-then-recreate under the same name
    /// (with domid reuse), rename chains, and duplicate rejection.
    #[test]
    fn name_index_survives_create_destroy_reuse_and_rename() {
        let mut w = world();
        w.xl.validate_names = true;
        let img = KernelImage::unikraft("fn");
        let create = |w: &mut World, name: &str| {
            w.xl
                .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &plain_cfg(name), &img)
                .map(|c| c.id)
        };

        let a = create(&mut w, "one").unwrap();
        let b = create(&mut w, "two").unwrap();
        assert!(matches!(create(&mut w, "one"), Err(XlError::NameExists(_))));

        // Destroy frees the name; the recreate reuses the freed domid.
        w.xl.destroy(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, a).unwrap();
        let a2 = create(&mut w, "one").unwrap();
        assert_eq!(a2, a, "lowest freed domid is reused");
        assert!(w.xl.audit_name_index().is_empty());

        // Rename frees the old name and claims the new one.
        w.xl.rename(&mut w.xs, a2, "three").unwrap();
        assert_eq!(
            w.xs.read(DomId::DOM0, &format!("/local/domain/{}/name", a2.0)).unwrap(),
            "three"
        );
        let c = create(&mut w, "one").unwrap();
        assert!(matches!(
            w.xl.rename(&mut w.xs, c, "two"),
            Err(XlError::NameExists(_))
        ));
        w.xl.rename(&mut w.xs, c, "one").unwrap(); // same-name no-op
        assert!(matches!(
            w.xl.rename(&mut w.xs, DomId(999), "x"),
            Err(XlError::NoSuchDomain(_))
        ));

        w.xl.destroy(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, b).unwrap();
        assert!(w.xl.audit_name_index().is_empty());
        assert_eq!(w.xl.list().len(), 2);
    }

    #[test]
    fn destroy_releases_everything() {
        let mut w = world();
        let img = KernelImage::minios("udp");
        let free0 = w.hv.free_pages();
        let d = w
            .xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &udp_cfg("udp"), &img)
            .unwrap()
            .id;
        w.xl.destroy(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, d).unwrap();
        assert_eq!(w.hv.free_pages(), free0);
        assert_eq!(w.xl.domain_count(), 0);
        assert!(!w.xs.exists(&format!("/local/domain/{}", d.0)));
        assert!(matches!(
            w.xl.destroy(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, d),
            Err(XlError::NoSuchDomain(_))
        ));
    }

    #[test]
    fn save_restore_preserves_memory_and_is_slower_than_boot() {
        let mut w = world();
        let img = KernelImage::minios("udp");
        let t0 = w.clock.now();
        let d = w
            .xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &udp_cfg("udp"), &img)
            .unwrap()
            .id;
        let boot_time = w.clock.now().since(t0);

        w.hv.write_page(d, Pfn(300), 0, b"app state").unwrap();
        w.xl
            .save(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, d, "slot0", &img)
            .unwrap();
        assert!(w.xl.has_saved("slot0"));
        assert!(!w.hv.domain_exists(d));

        let t1 = w.clock.now();
        let restored = w
            .xl
            .restore(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, "slot0", None)
            .unwrap();
        let restore_time = w.clock.now().since(t1);

        let mut buf = [0u8; 9];
        w.hv.read_page(restored.id, Pfn(300), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"app state");
        assert!(
            restore_time > boot_time,
            "restore ({restore_time}) must exceed boot ({boot_time})"
        );
    }

    #[test]
    fn saved_slots_hand_out_shared_handles() {
        let mut w = world();
        let img = KernelImage::minios("udp");
        let d = w
            .xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &udp_cfg("udp"), &img)
            .unwrap()
            .id;
        w.hv.write_page(d, Pfn(300), 0, b"first").unwrap();
        w.xl
            .save(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, d, "slot0", &img)
            .unwrap();
        let restore = |w: &mut World, name: Option<&str>| {
            w.xl.restore(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, "slot0", name)
                .unwrap()
                .id
        };

        // Restoring one slot twice gives equal memory.
        let a = restore(&mut w, None);
        let b = restore(&mut w, Some("renamed"));
        let memory = |w: &World, dom: DomId| w.hv.snapshot_memory(dom).unwrap().pages;
        assert!(memory(&w, a) == memory(&w, b));

        // The rename copied the config; the slot and `a` share theirs.
        let saved = Rc::clone(&w.xl.saved["slot0"].config);
        assert_eq!(saved.name, "udp");
        assert!(Rc::ptr_eq(&w.xl.record(a).unwrap().config, &saved));
        assert_eq!(&*w.xl.record(b).unwrap().name, "renamed");
        assert_eq!(w.xl.record(b).unwrap().config.name, "renamed");
        let name_of = |w: &mut World, dom: DomId| {
            w.xs.read(DomId::DOM0, &format!("/local/domain/{}/name", dom.0)).unwrap()
        };
        assert_eq!(name_of(&mut w, b), "renamed");
        let c = restore(&mut w, None);
        assert_eq!(name_of(&mut w, c), "udp");

        // A second save into the slot replaces it.
        w.hv.write_page(a, Pfn(300), 0, b"later").unwrap();
        w.xl
            .save(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, a, "slot0", &img)
            .unwrap();
        assert_eq!(w.xl.saved.len(), 1);
        let e = restore(&mut w, None);
        let mut buf = [0u8; 5];
        w.hv.read_page(e, Pfn(300), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"later");
        w.xs.audit_tree().unwrap();
    }

    #[test]
    fn restore_missing_slot_fails() {
        let mut w = world();
        assert!(matches!(
            w.xl.restore(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, "nope", None),
            Err(XlError::NoSuchImage(_))
        ));
    }

    #[test]
    fn config_parse_to_boot_roundtrip() {
        let mut w = world();
        let cfg = DomainConfig::parse(
            "name = \"parsed\"\nmemory = 8\nvif = \"10.0.0.9\"\nmax_clones = 4",
        )
        .unwrap();
        let img = KernelImage::unikraft("app");
        let d = w
            .xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &cfg, &img)
            .unwrap();
        assert_eq!(w.hv.domain(d.id).unwrap().clone_policy.max_clones, 4);
        assert_eq!(d.layout.ram_pages, 2048);
    }
}
