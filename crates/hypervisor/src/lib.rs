//! A Xen-like paravirtualization hypervisor model with Nephele cloning
//! support.
//!
//! This crate implements the hypervisor half of the Nephele design (§4.1,
//! §5): domains with vCPUs, a machine frame table with page ownership and
//! copy-on-write sharing through `dom_cow`, grant tables and event channels
//! (both extended with the `DOMID_CHILD` wildcard), the `CLONEOP` hypercall
//! with its subcommands, and the clone notification ring that wakes the
//! `xencloned` daemon via `VIRQ_CLONED`.
//!
//! The hypervisor is purely mechanical: it manipulates real data structures
//! and charges virtual time from the shared
//! [`CostModel`]. Policy (what to clone, how to wire
//! devices) lives in the toolstack and daemon crates.

pub mod cloneop;
pub mod domain;
pub mod error;
pub mod event;
pub mod grant;
pub mod memory;
pub mod notify;
pub mod p2m;
pub mod scheduler;
pub mod vcpu;

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use sim_core::{
    ids::mib_to_pages,
    Clock,
    CostModel,
    DomId,
    Mfn,
    Pfn,
    TraceSink, //
};

use crate::domain::{ClonePolicy, Domain, DomainState, PrivatePolicy};
use crate::error::{HvError, Result};
use crate::event::{Channel, Port, Virq};
use crate::grant::GrantRef;
use crate::memory::{CowResolution, FrameOwner, FrameTable, MemoryStats, PageContent};
use crate::notify::NotificationRing;
use crate::p2m::P2m;
use crate::scheduler::CpuPool;
use crate::vcpu::Vcpu;

/// Static machine description.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Memory available to guest domains, in MiB (the paper splits its
    /// 16 GiB machine into 4 GiB for Dom0 and 12 GiB for the hypervisor
    /// guest pool, §6.2).
    pub guest_pool_mib: u64,
    /// Physical cores.
    pub cores: usize,
    /// Capacity of the clone notification ring.
    pub notification_ring_capacity: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            guest_pool_mib: 12 * 1024,
            cores: 4,
            notification_ring_capacity: NotificationRing::DEFAULT_CAPACITY,
        }
    }
}

/// An event-channel notification waiting to be dispatched by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEvent {
    /// Target domain.
    pub dom: DomId,
    /// Target port within the domain.
    pub port: Port,
    /// Set when the port is bound to a VIRQ.
    pub virq: Option<Virq>,
}

/// A serialized snapshot of a domain's memory, used by save/restore.
#[derive(Debug, Clone)]
pub struct MemoryImage {
    /// Mapped pages and their contents at save time.
    pub pages: Vec<(Pfn, PageContent)>,
    /// Configured p2m size. Restore copies the *entire* configured memory
    /// back regardless of what the guest actually used, which is why
    /// restore is slower than boot in Fig. 4.
    pub p2m_size: u64,
}

/// The hypervisor.
#[derive(Debug)]
pub struct Hypervisor {
    clock: Clock,
    costs: Rc<CostModel>,
    frames: FrameTable,
    domains: BTreeMap<u32, Domain>,
    next_domid: u32,
    /// Ids of destroyed domains, reused lowest-first by [`Hypervisor::alloc_domid`].
    free_domids: BTreeSet<u32>,
    clone_ring: NotificationRing,
    cloning_enabled: bool,
    pending_events: VecDeque<PendingEvent>,
    /// Fan-out registry for parent-side `DOMID_CHILD` channels:
    /// (parent, parent_port) → registration-ordered (child, child_port)
    /// targets. Keyed by a global registration sequence so iteration
    /// order is exactly the bind order (what the old `Vec` gave).
    child_bindings: HashMap<(u32, Port), BTreeMap<u64, (DomId, Port)>>,
    /// Next registration sequence for `child_bindings`.
    binding_seq: u64,
    /// Reverse index: child → `child_bindings` entries naming it, so a
    /// child's destruction unlinks its bindings in O(own bindings)
    /// instead of scanning every fan-out list (O(total bindings)).
    binding_memberships: HashMap<u32, Vec<((u32, Port), u64)>>,
    /// Reverse index: parent → its registered fan-out ports, so a
    /// parent's destruction drops its registry keys without a key scan.
    owned_binding_ports: HashMap<u32, BTreeSet<Port>>,
    /// Referrer index: referenced domain → (referring domain → number
    /// of channel + grant entries in the referrer's tables naming it).
    /// Maintained on channel-pair wiring, grant creation, clone
    /// insertion and destruction; only real domain ids are tracked
    /// (wildcards like `DOMID_CHILD` never need a death sweep). This is
    /// what makes [`Hypervisor::destroy_domain`] O(actual references)
    /// instead of a walk over every live domain.
    peer_refs: HashMap<u32, BTreeMap<u32, u64>>,
    cpu_pool: CpuPool,
    trace: TraceSink,
}

impl Hypervisor {
    /// Boots the hypervisor: initializes the frame table, creates Dom0
    /// (whose own RAM lives outside the guest pool) and the CPU pool.
    pub fn new(clock: Clock, costs: Rc<CostModel>, config: &MachineConfig) -> Self {
        let total = mib_to_pages(config.guest_pool_mib);
        let mut hv = Hypervisor {
            clock,
            costs,
            frames: FrameTable::new(total),
            domains: BTreeMap::new(),
            next_domid: 0,
            free_domids: BTreeSet::new(),
            clone_ring: NotificationRing::new(config.notification_ring_capacity),
            cloning_enabled: false,
            pending_events: VecDeque::new(),
            child_bindings: HashMap::new(),
            binding_seq: 0,
            binding_memberships: HashMap::new(),
            owned_binding_ports: HashMap::new(),
            peer_refs: HashMap::new(),
            cpu_pool: CpuPool::new(config.cores),
            trace: TraceSink::default(),
        };
        // Dom0 exists from boot; its memory is modelled by the Dom0 model,
        // so it maps no pages from the guest pool.
        hv.create_domain_inner("Domain-0", 0, 1)
            .expect("dom0 creation cannot fail on an empty machine");
        hv
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Attaches a trace sink (disabled by default); all clone-path spans
    /// and COW-fault counters are recorded into it.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The physical CPU pool.
    pub fn cpu_pool(&mut self) -> &mut CpuPool {
        &mut self.cpu_pool
    }

    // ------------------------------------------------------------------
    // Domain lifecycle
    // ------------------------------------------------------------------

    fn create_domain_inner(&mut self, name: &str, mem_pages: u64, vcpus: u32) -> Result<DomId> {
        let id = DomId(self.alloc_domid());

        self.clock.advance(self.costs.domain_create_base);
        self.clock
            .advance(self.costs.vcpu_init.saturating_mul(vcpus as u64));

        // Three special pages live past the RAM pages: start_info, the
        // Xenstore ring and the console ring. Dom0 gets none.
        let special = if id.is_dom0() { 0 } else { 3 };
        let p2m_size = mem_pages + special;
        self.clock
            .advance(self.costs.mem_alloc_per_page.saturating_mul(p2m_size));

        let p2m_slots: Vec<Option<Mfn>> = match self.frames.alloc_many(FrameOwner::Dom(id), p2m_size)
        {
            Ok(v) => v.into_iter().map(Some).collect(),
            Err(e) => {
                self.release_domid(id.0);
                return Err(e);
            }
        };

        // Page-table frames and the frames storing the p2m itself are
        // auxiliary private memory.
        let aux_count = if p2m_size == 0 {
            0
        } else {
            Domain::pt_frames_needed(p2m_size) + Domain::p2m_frames_needed(p2m_size)
        };
        let aux_frames = match self.frames.alloc_many(FrameOwner::Dom(id), aux_count) {
            Ok(v) => v,
            Err(e) => {
                // Roll back the p2m allocation so a failed creation does
                // not leak frames (nor the reserved domain id).
                for mfn in p2m_slots.into_iter().flatten() {
                    let _ = self.frames.free(mfn, FrameOwner::Dom(id));
                }
                self.release_domid(id.0);
                return Err(e);
            }
        };
        self.clock
            .advance(self.costs.mem_alloc_per_page.saturating_mul(aux_count));

        let start_info_pfn = Pfn(mem_pages);
        let xenstore_pfn = Pfn(mem_pages + 1);
        let console_pfn = Pfn(mem_pages + 2);
        let mut private_pfns = BTreeMap::new();
        if special != 0 {
            private_pfns.insert(start_info_pfn, PrivatePolicy::Rewrite);
            private_pfns.insert(xenstore_pfn, PrivatePolicy::Fresh);
            private_pfns.insert(console_pfn, PrivatePolicy::Fresh);
        }

        let dom = Domain {
            id,
            name: name.to_string(),
            parent: None,
            state: DomainState::Created,
            vcpus: (0..vcpus).map(Vcpu::new).collect(),
            p2m: P2m::from_vec(p2m_slots),
            aux_frames,
            private_pfns: Rc::new(private_pfns),
            idc_pfns: Default::default(),
            start_info_pfn,
            xenstore_pfn,
            console_pfn,
            clone_policy: ClonePolicy::default(),
            clones_created: 0,
            children: Vec::new(),
            pending_stage2: 0,
            grants: Default::default(),
            evtchn: Default::default(),
            checkpoint: None,
        };
        self.domains.insert(id.0, dom);
        // Every freshly created domain roots a new clone family in the
        // provenance registry (clone children join via `insert_domain`).
        self.trace.family_root_created(id, name);
        Ok(id)
    }

    /// Creates a domain with `mem_mib` MiB of RAM. Xen enforces a minimum
    /// domain size of 4 MiB (§6.2), which we honor here.
    pub fn create_domain(&mut self, name: &str, mem_mib: u64, vcpus: u32) -> Result<DomId> {
        let mem_mib = mem_mib.max(4);
        self.create_domain_inner(name, mib_to_pages(mem_mib), vcpus.max(1))
    }

    /// Returns an immutable reference to a domain.
    pub fn domain(&self, id: DomId) -> Result<&Domain> {
        self.domains.get(&id.0).ok_or(HvError::NoSuchDomain(id))
    }

    /// Returns a mutable reference to a domain.
    pub fn domain_mut(&mut self, id: DomId) -> Result<&mut Domain> {
        self.domains.get_mut(&id.0).ok_or(HvError::NoSuchDomain(id))
    }

    /// Whether the domain exists.
    pub fn domain_exists(&self, id: DomId) -> bool {
        self.domains.contains_key(&id.0)
    }

    /// Iterates over all live domains in id order.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }

    /// Number of live domains (including Dom0).
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Sets the per-domain cloning policy (domctl interface, §5.1).
    pub fn set_clone_policy(&mut self, id: DomId, policy: ClonePolicy) -> Result<()> {
        self.domain_mut(id)?.clone_policy = policy;
        Ok(())
    }

    /// Enables or disables cloning globally (controlled by `xencloned`).
    pub fn set_cloning_enabled(&mut self, enabled: bool) {
        self.cloning_enabled = enabled;
    }

    /// Whether cloning is enabled globally.
    pub fn cloning_enabled(&self) -> bool {
        self.cloning_enabled
    }

    /// Transitions a domain to `Running`.
    pub fn unpause(&mut self, id: DomId) -> Result<()> {
        let d = self.domain_mut(id)?;
        if d.state == DomainState::Dying {
            return Err(HvError::BadDomainState(id));
        }
        d.state = DomainState::Running;
        Ok(())
    }

    /// Pauses a domain.
    pub fn pause(&mut self, id: DomId) -> Result<()> {
        let d = self.domain_mut(id)?;
        if d.state == DomainState::Dying {
            return Err(HvError::BadDomainState(id));
        }
        d.state = DomainState::Paused;
        Ok(())
    }

    /// Destroys a domain, releasing all its memory (exclusive frames are
    /// freed; COW sharers are dropped).
    pub fn destroy_domain(&mut self, id: DomId) -> Result<()> {
        if id.is_dom0() {
            return Err(HvError::Denied);
        }
        let dom = self
            .domains
            .remove(&id.0)
            .ok_or(HvError::NoSuchDomain(id))?;
        let mut freed = 0u64;
        // An armed checkpoint's dirty_cow journal holds one dom_cow
        // reference per recorded pre-fault frame (so the reset target
        // survives until reset); those references die with the domain.
        if let Some(cp) = &dom.checkpoint {
            self.release_checkpoint_refs(cp)?;
        }
        for mfn in dom.p2m.iter().flatten() {
            match self.frames.inspect(mfn)?.owner() {
                FrameOwner::Dom(d) if d == id => {
                    self.frames.free(mfn, FrameOwner::Dom(id))?;
                    freed += 1;
                }
                FrameOwner::Cow => {
                    self.frames.unshare_drop(mfn)?;
                    freed += 1;
                }
                // A frame in our p2m owned by someone else is a mapped
                // grant; the owner keeps it.
                _ => {}
            }
        }
        for mfn in &dom.aux_frames {
            self.frames.free(*mfn, FrameOwner::Dom(id))?;
            freed += 1;
        }
        self.clock
            .advance(self.costs.mem_free_per_page.saturating_mul(freed));

        // Unlink from the family tree and the CHILD fan-out registry —
        // the reverse indices make both O(the domain's own bindings),
        // not O(every binding ever registered).
        if let Some(parent) = dom.parent {
            if let Some(p) = self.domains.get_mut(&parent.0) {
                p.children.retain(|c| *c != id);
            }
        }
        if let Some(memberships) = self.binding_memberships.remove(&id.0) {
            for (key, seq) in memberships {
                if let Some(targets) = self.child_bindings.get_mut(&key) {
                    targets.remove(&seq);
                }
            }
        }
        if let Some(ports) = self.owned_binding_ports.remove(&id.0) {
            for port in ports {
                self.child_bindings.remove(&(id.0, port));
            }
        }

        // Sweep the tables that actually reference the dead domain:
        // close interdomain channels whose remote end just died and
        // revoke grants naming it as grantee, so no live table keeps a
        // binding to a dead domain (the liveness invariants the state
        // auditor enforces). The referrer index names exactly the
        // holders, so this is O(references to the dead domain) instead
        // of a walk over every live domain; holders are visited in
        // ascending id order, the same order the old full walk used.
        if let Some(holders) = self.peer_refs.remove(&id.0) {
            for (holder, refs) in holders {
                let Some(peer) = self.domains.get_mut(&holder) else {
                    debug_assert!(false, "referrer index names dead holder {holder}");
                    continue;
                };
                let dropped =
                    (peer.evtchn.close_peer(id) + peer.grants.revoke_grantee(id)) as u64;
                debug_assert_eq!(
                    dropped, refs,
                    "referrer index out of sync: dom {holder} held {dropped} refs to dead {}, index said {refs}",
                    id.0
                );
            }
        }
        // The dead domain's own references to others die with its
        // tables; drop them from the referrer index so destroyed ids
        // never leave stale holder entries behind (domids are reused).
        for (peer, n) in dom
            .evtchn
            .peer_counts()
            .chain(dom.grants.grantee_counts())
        {
            if !peer.is_real() || peer == id {
                continue;
            }
            if let Some(holders) = self.peer_refs.get_mut(&peer.0) {
                if let Some(count) = holders.get_mut(&id.0) {
                    *count = count.saturating_sub(n);
                    if *count == 0 {
                        holders.remove(&id.0);
                    }
                }
                if holders.is_empty() {
                    self.peer_refs.remove(&peer.0);
                }
            }
        }
        // Debug builds re-check what the release path now skips: no
        // survivor's table may still name the dead domain. This restores
        // the old O(live domains) sweep as a pure assertion.
        #[cfg(debug_assertions)]
        for peer in self.domains.values() {
            debug_assert!(
                !peer.evtchn.iter_active().any(|(_, c)| matches!(
                    c,
                    Channel::Interdomain { remote_dom, .. } if *remote_dom == id
                )),
                "destroy left dom {}'s channel table naming dead {}",
                peer.id.0,
                id.0
            );
            debug_assert!(
                !peer.grants.iter_active().any(|(_, e)| matches!(
                    e,
                    grant::GrantEntry::Access { grantee, .. } if *grantee == id
                )),
                "destroy left dom {}'s grant table naming dead {}",
                peer.id.0,
                id.0
            );
        }
        // Orphaned pending notifications for the dead domain are dropped,
        // and the id goes back to the allocator for deterministic reuse.
        self.pending_events.retain(|e| e.dom != id);
        self.release_domid(id.0);
        self.trace.family_destroyed(id);
        Ok(())
    }

    /// Returns `true` if `child` descends from `ancestor` in the clone
    /// family tree.
    pub fn is_descendant(&self, child: DomId, ancestor: DomId) -> bool {
        let mut cur = child;
        while let Ok(d) = self.domain(cur) {
            match d.parent {
                Some(p) if p == ancestor => return true,
                Some(p) => cur = p,
                None => return false,
            }
        }
        false
    }

    /// Returns `true` if the two domains belong to the same clone family
    /// (common ancestor, or one is the ancestor of the other — §4).
    pub fn same_family(&self, a: DomId, b: DomId) -> bool {
        if a == b {
            return true;
        }
        let root = |mut d: DomId| {
            while let Ok(dom) = self.domain(d) {
                match dom.parent {
                    Some(p) => d = p,
                    None => break,
                }
            }
            d
        };
        root(a) == root(b)
    }

    // ------------------------------------------------------------------
    // Memory access
    // ------------------------------------------------------------------

    fn resolve_write(&mut self, dom: DomId, pfn: Pfn) -> Result<Mfn> {
        let mfn = self
            .domain(dom)?
            .lookup(pfn)
            .ok_or(HvError::NotMapped(dom, pfn))?;
        match self.frames.inspect(mfn)?.owner() {
            FrameOwner::Dom(d) if d == dom => {
                self.journal_private_write(dom, pfn, mfn)?;
                Ok(mfn)
            }
            // Writable-shared (IDC) pages never fault.
            FrameOwner::Cow if self.frames.inspect(mfn)?.writable() => Ok(mfn),
            FrameOwner::Cow => match self.frames.cow_fault(mfn, dom)? {
                CowResolution::Copied(copy) => {
                    self.clock.advance(self.costs.cow_fault_copy);
                    self.trace.count_dom("hv.cow_fault.copy", dom, 1);
                    self.domain_mut(dom)?.p2m.set(pfn.0 as usize, Some(copy));
                    self.journal_cow_copy(dom, pfn, mfn)?;
                    Ok(copy)
                }
                CowResolution::Transferred => {
                    self.clock.advance(self.costs.cow_fault_transfer);
                    self.trace.count_dom("hv.cow_fault.transfer", dom, 1);
                    // Only read-only shared pages reach the write-fault
                    // path (the IDC arm above catches writable ones).
                    self.journal_transfer_fault(dom, pfn, mfn, false)?;
                    Ok(mfn)
                }
            },
            _ => Err(HvError::BadOwner(mfn)),
        }
    }

    /// Journals a COW-copy fault while a checkpoint is armed: records
    /// the pre-fault shared frame and takes one `dom_cow` reference on
    /// it so the reset target stays alive even if every other sharer
    /// vanishes; `clone_reset` hands the reference back to the p2m on
    /// the re-point.
    fn journal_cow_copy(&mut self, dom: DomId, pfn: Pfn, orig: Mfn) -> Result<()> {
        let fresh_entry = match self.domain_mut(dom)?.checkpoint.as_mut() {
            Some(cp) if !cp.dirty_cow.contains_key(&pfn) => {
                cp.dirty_cow.insert(pfn, orig);
                true
            }
            _ => false,
        };
        if fresh_entry {
            self.frames.reshare(orig, 1)?;
        }
        Ok(())
    }

    /// Releases the keep-alive references held by a checkpoint's
    /// dirty_cow journal (on disarm paths that will never reset:
    /// re-checkpoint, clone of a checkpointed parent, destroy). Pure
    /// bookkeeping — no virtual time is charged.
    fn release_checkpoint_refs(&mut self, cp: &domain::Checkpoint) -> Result<()> {
        for orig in cp.dirty_cow.values() {
            self.frames.unshare_drop(*orig)?;
        }
        Ok(())
    }

    /// Journals the pre-image of a private page on its first write while
    /// a checkpoint is armed: this is what keeps `clone_reset` O(dirty)
    /// instead of snapshotting (and later scanning) every private page.
    /// Pages already covered by the COW journals are skipped — their
    /// reset action (re-point or re-share) discards the current frame
    /// content anyway.
    fn journal_private_write(&mut self, dom: DomId, pfn: Pfn, mfn: Mfn) -> Result<()> {
        let needs = match &self.domain(dom)?.checkpoint {
            Some(cp) => {
                !cp.dirty_private.contains_key(&pfn)
                    && !cp.dirty_cow.contains_key(&pfn)
                    && !cp.dirty_transfer.contains_key(&pfn)
            }
            None => false,
        };
        if needs {
            let content = self.frames.inspect(mfn)?.content().clone();
            let cp = self
                .domain_mut(dom)?
                .checkpoint
                .as_mut()
                .expect("checkpoint checked above");
            cp.dirty_private.insert(pfn, content);
        }
        Ok(())
    }

    /// Journals a last-sharer COW fault (ownership transfer) while a
    /// checkpoint is armed. The transfer leaves the frame's content
    /// untouched, so capturing it right after the fault still records
    /// the checkpoint-time image; reset restores the content and shares
    /// the frame back to `dom_cow` as the single-sharer page it was,
    /// with its pre-fault writability.
    fn journal_transfer_fault(
        &mut self,
        dom: DomId,
        pfn: Pfn,
        mfn: Mfn,
        was_writable: bool,
    ) -> Result<()> {
        let needs = match &self.domain(dom)?.checkpoint {
            Some(cp) => !cp.dirty_transfer.contains_key(&pfn),
            None => false,
        };
        if needs {
            let content = self.frames.inspect(mfn)?.content().clone();
            let cp = self
                .domain_mut(dom)?
                .checkpoint
                .as_mut()
                .expect("checkpoint checked above");
            cp.dirty_transfer.insert(pfn, (content, was_writable));
        }
        Ok(())
    }

    /// Writes guest memory, resolving COW faults like the real fault path.
    pub fn write_page(&mut self, dom: DomId, pfn: Pfn, offset: usize, data: &[u8]) -> Result<()> {
        let mfn = self.resolve_write(dom, pfn)?;
        self.frames.write(mfn, offset, data)
    }

    /// Fills a whole guest page with a pattern (cheap dirtying).
    pub fn fill_page(&mut self, dom: DomId, pfn: Pfn, pattern: u64) -> Result<()> {
        let mfn = self.resolve_write(dom, pfn)?;
        self.frames.fill(mfn, pattern)
    }

    /// Reads guest memory.
    pub fn read_page(&self, dom: DomId, pfn: Pfn, offset: usize, buf: &mut [u8]) -> Result<()> {
        let mfn = self
            .domain(dom)?
            .lookup(pfn)
            .ok_or(HvError::NotMapped(dom, pfn))?;
        self.frames.read(mfn, offset, buf)
    }

    /// Marks a guest pfn as private for cloning purposes (used by device
    /// frontends for ring pages and preallocated RX buffers). The domain's
    /// table is shared with its clone family, so the first registration
    /// copies it; the other members keep the table they had.
    pub fn register_private_pfn(
        &mut self,
        dom: DomId,
        pfn: Pfn,
        policy: PrivatePolicy,
    ) -> Result<()> {
        let d = self.domain_mut(dom)?;
        if pfn.0 as usize >= d.p2m.len() {
            return Err(HvError::NotMapped(dom, pfn));
        }
        Rc::make_mut(&mut d.private_pfns).insert(pfn, policy);
        Ok(())
    }

    /// Marks a guest pfn as an IDC page: shared *writable* with clones
    /// rather than copied-on-write (§5.2.2). Copies the family-shared
    /// table on write, like [`Hypervisor::register_private_pfn`].
    pub fn register_idc_pfn(&mut self, dom: DomId, pfn: Pfn) -> Result<()> {
        let d = self.domain_mut(dom)?;
        if pfn.0 as usize >= d.p2m.len() {
            return Err(HvError::NotMapped(dom, pfn));
        }
        Rc::make_mut(&mut d.idc_pfns).insert(pfn);
        Ok(())
    }

    /// Direct frame-table access for device backends and tests.
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// Mutable frame-table access (backend data path).
    pub fn frames_mut(&mut self) -> &mut FrameTable {
        &mut self.frames
    }

    /// Frame-table statistics (Fig. 5's "Hyp free" series). O(1): the
    /// owner-class counts are maintained incrementally, so experiments may
    /// sample this per clone without paying a frame-table scan.
    pub fn memory_stats(&self) -> MemoryStats {
        self.frames.stats()
    }

    /// Splits the resident cost of every domain's p2m between the
    /// family templates shared behind `Rc` handles and the private
    /// storage (sole-owner templates and overlay entries). Pointer
    /// identity decides sharing, exactly like `Xenstore::sharing`; the
    /// two fields sum to what per-domain stamped p2m arrays would cost
    /// in template bytes plus the overlay overhead.
    pub fn p2m_sharing(&self) -> p2m::P2mSharing {
        let mut base_uses: HashMap<usize, u32> = HashMap::new();
        for d in self.domains.values() {
            *base_uses.entry(d.p2m.base_addr()).or_default() += 1;
        }
        let mut s = p2m::P2mSharing::default();
        for d in self.domains.values() {
            let base_bytes = d.p2m.base_len() as u64 * p2m::BASE_SLOT_BYTES;
            if base_uses[&d.p2m.base_addr()] > 1 {
                s.shared_bytes += base_bytes;
            } else {
                s.unique_bytes += base_bytes;
            }
            s.unique_bytes += d.p2m.overlay_len() as u64 * p2m::OVERLAY_ENTRY_BYTES;
        }
        s
    }

    /// Per-domain split of [`p2m_sharing`](Self::p2m_sharing): each
    /// domain's contribution to the shared/unique template bytes, in
    /// domain-id order. Summing the rows reproduces the global split,
    /// which is how the family rollups attribute resident p2m bytes to
    /// clone families.
    pub fn p2m_sharing_by_dom(&self) -> Vec<(DomId, p2m::P2mSharing)> {
        let mut base_uses: HashMap<usize, u32> = HashMap::new();
        for d in self.domains.values() {
            *base_uses.entry(d.p2m.base_addr()).or_default() += 1;
        }
        self.domains
            .values()
            .map(|d| {
                let mut s = p2m::P2mSharing::default();
                let base_bytes = d.p2m.base_len() as u64 * p2m::BASE_SLOT_BYTES;
                if base_uses[&d.p2m.base_addr()] > 1 {
                    s.shared_bytes += base_bytes;
                } else {
                    s.unique_bytes += base_bytes;
                }
                s.unique_bytes += d.p2m.overlay_len() as u64 * p2m::OVERLAY_ENTRY_BYTES;
                (d.id, s)
            })
            .collect()
    }

    /// Free guest-pool pages.
    pub fn free_pages(&self) -> u64 {
        self.frames.free_frames()
    }

    // ------------------------------------------------------------------
    // Grants
    // ------------------------------------------------------------------

    /// Creates a grant entry in `dom`'s table allowing `grantee` (possibly
    /// [`DomId::CHILD`]) to map the frame behind `pfn`.
    pub fn grant_access(
        &mut self,
        dom: DomId,
        grantee: DomId,
        pfn: Pfn,
        readonly: bool,
    ) -> Result<GrantRef> {
        let mfn = self
            .domain(dom)?
            .lookup(pfn)
            .ok_or(HvError::NotMapped(dom, pfn))?;
        let gref = self
            .domain_mut(dom)?
            .grants
            .grant_access(grantee, mfn, readonly);
        self.note_peer_ref(grantee, dom);
        Ok(gref)
    }

    /// Maps a grant from `owner`'s table on behalf of `mapper`.
    pub fn map_grant(
        &mut self,
        mapper: DomId,
        owner: DomId,
        gref: GrantRef,
    ) -> Result<(Mfn, bool)> {
        let is_child = self.is_descendant(mapper, owner);
        self.domain_mut(owner)?.grants.map(gref, mapper, is_child)
    }

    /// Releases a grant mapping.
    pub fn unmap_grant(&mut self, owner: DomId, gref: GrantRef) -> Result<()> {
        self.domain_mut(owner)?.grants.unmap(gref)
    }

    // ------------------------------------------------------------------
    // Event channels
    // ------------------------------------------------------------------

    /// Allocates an unbound channel in `dom` that `remote_allowed` may bind.
    pub fn evtchn_alloc_unbound(&mut self, dom: DomId, remote_allowed: DomId) -> Result<Port> {
        Ok(self.domain_mut(dom)?.evtchn.alloc_unbound(remote_allowed))
    }

    /// Wires a fully connected interdomain channel pair between two domains
    /// and returns `(port_in_a, port_in_b)`.
    pub fn evtchn_connect_pair(&mut self, a: DomId, b: DomId) -> Result<(Port, Port)> {
        if !self.domain_exists(b) {
            return Err(HvError::NoSuchDomain(b));
        }
        let port_a = self.domain_mut(a)?.evtchn.bind_interdomain(b, 0);
        let port_b = self.domain_mut(b)?.evtchn.bind_interdomain(a, port_a);
        self.domain_mut(a)?.evtchn.set_remote_port(port_a, port_b)?;
        self.note_peer_ref(b, a);
        self.note_peer_ref(a, b);
        Ok((port_a, port_b))
    }

    /// Allocates an IDC channel in `dom` using the `DOMID_CHILD` wildcard:
    /// the channel is connected to *all future clones* of `dom` (each clone
    /// is implicitly bound to it at creation, §5.2.2). By convention the
    /// child side reuses the same port number.
    pub fn evtchn_alloc_idc(&mut self, dom: DomId) -> Result<Port> {
        let d = self.domain_mut(dom)?;
        let port = d.evtchn.bind_interdomain(DomId::CHILD, 0);
        d.evtchn.set_remote_port(port, port)?;
        Ok(port)
    }

    /// Binds `virq` in `dom`, returning the local port.
    pub fn bind_virq(&mut self, dom: DomId, virq: Virq) -> Result<Port> {
        Ok(self.domain_mut(dom)?.evtchn.bind_virq(virq))
    }

    /// Sends a notification through `port` of `sender`. Parent-side
    /// `DOMID_CHILD` channels fan out to every bound clone (§5.2.2).
    pub fn send_event(&mut self, sender: DomId, port: Port) -> Result<()> {
        let channel = self.domain(sender)?.evtchn.channel(port)?.clone();
        match channel {
            Channel::Interdomain {
                remote_dom,
                remote_port,
            } => {
                self.clock.advance(self.costs.event_delivery);
                if remote_dom == DomId::CHILD {
                    // Registration (seq) order — exactly the bind order.
                    let targets: Vec<(DomId, Port)> = self
                        .child_bindings
                        .get(&(sender.0, port))
                        .map(|m| m.values().copied().collect())
                        .unwrap_or_default();
                    for (child, child_port) in targets {
                        self.deliver(child, child_port);
                    }
                    Ok(())
                } else {
                    if !self.domain_exists(remote_dom) {
                        return Err(HvError::NoSuchDomain(remote_dom));
                    }
                    self.deliver(remote_dom, remote_port);
                    Ok(())
                }
            }
            Channel::Unbound { .. } | Channel::VirqBound(_) | Channel::Free => {
                Err(HvError::BadPort(port))
            }
        }
    }

    fn deliver(&mut self, dom: DomId, port: Port) {
        let Ok(d) = self.domain_mut(dom) else { return };
        let virq = match d.evtchn.channel(port) {
            Ok(Channel::VirqBound(v)) => Some(*v),
            _ => None,
        };
        if d.evtchn.set_pending(port) {
            self.pending_events.push_back(PendingEvent { dom, port, virq });
        }
    }

    /// Raises a virtual interrupt for `dom` (hypervisor-originated).
    pub fn raise_virq(&mut self, dom: DomId, virq: Virq) {
        let Ok(d) = self.domain(dom) else { return };
        if let Some(port) = d.evtchn.virq_port(virq) {
            self.clock.advance(self.costs.event_delivery);
            self.deliver(dom, port);
        }
    }

    /// Drains all pending event notifications for platform dispatch.
    pub fn drain_events(&mut self) -> Vec<PendingEvent> {
        let evts: Vec<_> = self.pending_events.drain(..).collect();
        for e in &evts {
            if let Ok(d) = self.domain_mut(e.dom) {
                d.evtchn.take_pending(e.port);
            }
        }
        evts
    }

    /// Reserves a domain id. The lowest previously-freed id is reused
    /// first (O(log freed), ordered — the id handed out is a pure
    /// function of the create/destroy tape, with no hashing or host
    /// state involved); with nothing to reuse, the next-id counter is
    /// bumped. Both the create path and the cloning path allocate
    /// through here, so ids are never double-assigned.
    pub(crate) fn alloc_domid(&mut self) -> u32 {
        if let Some(id) = self.free_domids.pop_first() {
            return id;
        }
        let id = self.next_domid;
        self.next_domid += 1;
        id
    }

    /// Returns a domain id to the allocator (domain destruction and the
    /// create-rollback path).
    fn release_domid(&mut self, id: u32) {
        debug_assert!(
            !self.domains.contains_key(&id),
            "released domid {id} still has a live domain"
        );
        self.free_domids.insert(id);
    }

    /// Records that `holder`'s tables gained one entry naming `peer` in
    /// the referrer index. Wildcard peers ([`DomId::CHILD`] etc.) and
    /// self references are skipped — neither needs a death sweep.
    fn note_peer_ref(&mut self, peer: DomId, holder: DomId) {
        if peer.is_real() && peer != holder {
            *self
                .peer_refs
                .entry(peer.0)
                .or_default()
                .entry(holder.0)
                .or_default() += 1;
        }
    }

    /// Inserts a fully built domain (cloning path), joining it to its
    /// parent's clone family in the provenance registry. The child's
    /// tables were stamped while detached, so its references to real
    /// peers (the parent behind re-wired IDC ports, Dom0 behind copied
    /// console/Xenstore channels) are registered here, from the tables'
    /// own reverse indices — O(the child's table), not O(domains).
    pub(crate) fn insert_domain(&mut self, d: Domain) {
        self.trace.family_cloned(d.id, d.parent);
        let holder = d.id;
        for (peer, n) in d.evtchn.peer_counts().chain(d.grants.grantee_counts()) {
            if peer.is_real() && peer != holder {
                *self
                    .peer_refs
                    .entry(peer.0)
                    .or_default()
                    .entry(holder.0)
                    .or_default() += n;
            }
        }
        self.domains.insert(d.id.0, d);
    }

    /// Registers a child binding for a parent `DOMID_CHILD` channel
    /// (performed implicitly during cloning).
    pub(crate) fn bind_child_channel(
        &mut self,
        parent: DomId,
        parent_port: Port,
        child: DomId,
        child_port: Port,
    ) {
        let seq = self.binding_seq;
        self.binding_seq += 1;
        let key = (parent.0, parent_port);
        self.child_bindings
            .entry(key)
            .or_default()
            .insert(seq, (child, child_port));
        self.binding_memberships
            .entry(child.0)
            .or_default()
            .push((key, seq));
        self.owned_binding_ports
            .entry(parent.0)
            .or_default()
            .insert(parent_port);
    }

    /// Read-only view of the `DOMID_CHILD` fan-out registry:
    /// `((parent, parent_port), [(child, child_port)])` in registration
    /// order. The state auditor cross-checks these against live domains
    /// and their channel tables.
    pub fn child_bindings(
        &self,
    ) -> impl Iterator<Item = ((u32, Port), Vec<(DomId, Port)>)> + '_ {
        self.child_bindings
            .iter()
            .map(|(k, m)| (*k, m.values().copied().collect()))
    }

    /// Cross-checks every scan-replacing index against the ground truth
    /// it replaced, returning one human-readable detail per divergence
    /// (empty when consistent). Checked per table: the event-channel
    /// peer index and grant grantee index versus full table scans; and
    /// globally: the referrer index versus a recount over every live
    /// domain's tables, and the fan-out registry's reverse indices
    /// versus the registry itself. The state auditor surfaces these as
    /// its index-consistency invariant; the property tests drive random
    /// lifecycle tapes through it.
    pub fn audit_ref_indices(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut expect: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        for d in self.domains.values() {
            let mut chan_scan: BTreeMap<DomId, u64> = BTreeMap::new();
            for (_, c) in d.evtchn.iter_active() {
                if let Channel::Interdomain { remote_dom, .. } = c {
                    *chan_scan.entry(*remote_dom).or_default() += 1;
                }
            }
            let chan_idx: BTreeMap<DomId, u64> = d.evtchn.peer_counts().collect();
            if chan_idx != chan_scan {
                bad.push(format!(
                    "dom {}: evtchn peer index {chan_idx:?} != table scan {chan_scan:?}",
                    d.id.0
                ));
            }
            let mut grant_scan: BTreeMap<DomId, u64> = BTreeMap::new();
            for (_, e) in d.grants.iter_active() {
                if let grant::GrantEntry::Access { grantee, .. } = e {
                    *grant_scan.entry(*grantee).or_default() += 1;
                }
            }
            let grant_idx: BTreeMap<DomId, u64> = d.grants.grantee_counts().collect();
            if grant_idx != grant_scan {
                bad.push(format!(
                    "dom {}: grant grantee index {grant_idx:?} != table scan {grant_scan:?}",
                    d.id.0
                ));
            }
            for (peer, n) in chan_scan.into_iter().chain(grant_scan) {
                if peer.is_real() && peer != d.id {
                    *expect.entry(peer.0).or_default().entry(d.id.0).or_default() += n;
                }
            }
        }
        let actual: BTreeMap<u32, BTreeMap<u32, u64>> = self
            .peer_refs
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        if actual != expect {
            bad.push(format!(
                "referrer index {actual:?} != recount over live tables {expect:?}"
            ));
        }
        // Fan-out registry reverse indices: every registry entry must be
        // indexed under its child and its owner port, and vice versa.
        let mut expect_members: BTreeMap<u32, BTreeSet<((u32, Port), u64)>> = BTreeMap::new();
        let mut expect_owned: BTreeMap<u32, BTreeSet<Port>> = BTreeMap::new();
        for (key, targets) in &self.child_bindings {
            expect_owned.entry(key.0).or_default().insert(key.1);
            for (seq, (child, _)) in targets {
                expect_members.entry(child.0).or_default().insert((*key, *seq));
            }
        }
        for (child, entries) in &self.binding_memberships {
            for entry in entries {
                // Stale memberships to registry keys removed by a
                // parent's destruction (or to seqs already unlinked)
                // are tolerated — they are no-ops on the next unlink.
                let live = self
                    .child_bindings
                    .get(&entry.0)
                    .is_some_and(|m| m.contains_key(&entry.1));
                if live && !expect_members.get(child).is_some_and(|s| s.contains(entry)) {
                    bad.push(format!(
                        "binding membership {entry:?} of child {child} not in the registry"
                    ));
                }
            }
        }
        for (child, entries) in expect_members {
            for entry in entries {
                let indexed = self
                    .binding_memberships
                    .get(&child)
                    .is_some_and(|v| v.contains(&entry));
                if !indexed {
                    bad.push(format!(
                        "registry binding {entry:?} of child {child} missing from the membership index"
                    ));
                }
            }
        }
        for (owner, ports) in expect_owned {
            for port in ports {
                let indexed = self
                    .owned_binding_ports
                    .get(&owner)
                    .is_some_and(|s| s.contains(&port));
                if !indexed {
                    bad.push(format!(
                        "registry key ({owner}, {port}) missing from the owned-port index"
                    ));
                }
            }
        }
        bad
    }

    /// Test-only: drifts the referrer index for (`peer`, `holder`) by
    /// `delta` without touching any channel or grant table, so the
    /// index-consistency audit can prove it detects divergence from the
    /// scans the index replaced. A zero resulting count removes the
    /// entry, mirroring the maintenance paths.
    pub fn corrupt_peer_ref_for_test(&mut self, peer: DomId, holder: DomId, delta: i64) {
        let holders = self.peer_refs.entry(peer.0).or_default();
        let count = holders.entry(holder.0).or_default();
        *count = count.saturating_add_signed(delta);
        if *count == 0 {
            holders.remove(&holder.0);
        }
        if self.peer_refs.get(&peer.0).is_some_and(|h| h.is_empty()) {
            self.peer_refs.remove(&peer.0);
        }
    }

    /// The clone notification ring (consumed by `xencloned`).
    pub fn clone_ring_pop(&mut self) -> Option<notify::CloneNotification> {
        self.clone_ring.pop()
    }

    /// Number of queued clone notifications.
    pub fn clone_ring_len(&self) -> usize {
        self.clone_ring.len()
    }

    /// Read-only view of the queued clone notifications, oldest first
    /// (state-auditor use).
    pub fn clone_ring_pending(&self) -> impl Iterator<Item = &notify::CloneNotification> {
        self.clone_ring.pending()
    }

    pub(crate) fn clone_ring(&mut self) -> &mut NotificationRing {
        &mut self.clone_ring
    }

    // ------------------------------------------------------------------
    // Save / restore support
    // ------------------------------------------------------------------

    /// Snapshots a domain's memory for `xl save`.
    pub fn snapshot_memory(&self, dom: DomId) -> Result<MemoryImage> {
        let d = self.domain(dom)?;
        let mut pages = Vec::with_capacity(d.p2m.len());
        for (pfn, mfn) in d.p2m.iter_mapped() {
            pages.push((pfn, self.frames.inspect(mfn)?.content().clone()));
        }
        Ok(MemoryImage {
            pages,
            p2m_size: d.p2m.len() as u64,
        })
    }

    /// Loads a memory image into a freshly created domain (restore path).
    pub fn load_image(&mut self, dom: DomId, image: &MemoryImage) -> Result<()> {
        for (pfn, content) in &image.pages {
            let mfn = self
                .domain(dom)?
                .lookup(*pfn)
                .ok_or(HvError::NotMapped(dom, *pfn))?;
            self.frames.set_content(mfn, content.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv() -> Hypervisor {
        Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 64,
                cores: 4,
                notification_ring_capacity: 8,
            },
        )
    }

    #[test]
    fn dom0_exists_at_boot() {
        let hv = hv();
        assert!(hv.domain_exists(DomId::DOM0));
        assert_eq!(hv.domain(DomId::DOM0).unwrap().name, "Domain-0");
    }

    #[test]
    fn create_and_destroy_domain_roundtrips_memory() {
        let mut hv = hv();
        let before = hv.free_pages();
        let d = hv.create_domain("guest", 4, 1).unwrap();
        assert!(hv.free_pages() < before);
        hv.destroy_domain(d).unwrap();
        assert_eq!(hv.free_pages(), before);
    }

    #[test]
    fn minimum_domain_size_is_4_mib() {
        let mut hv = hv();
        let d = hv.create_domain("tiny", 1, 1).unwrap();
        // 4 MiB = 1024 pages + 3 special pages.
        assert_eq!(hv.domain(d).unwrap().mapped_pages(), 1027);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut hv = hv();
        let d = hv.create_domain("guest", 4, 1).unwrap();
        hv.write_page(d, Pfn(10), 100, b"nephele").unwrap();
        let mut buf = [0u8; 7];
        hv.read_page(d, Pfn(10), 100, &mut buf).unwrap();
        assert_eq!(&buf, b"nephele");
    }

    #[test]
    fn unmapped_pfn_rejected() {
        let mut hv = hv();
        let d = hv.create_domain("guest", 4, 1).unwrap();
        assert!(matches!(
            hv.write_page(d, Pfn(999_999), 0, b"x"),
            Err(HvError::NotMapped(..))
        ));
    }

    #[test]
    fn grant_map_respects_family() {
        let mut hv = hv();
        let a = hv.create_domain("a", 4, 1).unwrap();
        let b = hv.create_domain("b", 4, 1).unwrap();
        let g = hv.grant_access(a, DomId::CHILD, Pfn(1), false).unwrap();
        // `b` is unrelated: denied.
        assert!(hv.map_grant(b, a, g).is_err());
        // Dom0 explicitly granted: allowed.
        let g0 = hv.grant_access(a, DomId::DOM0, Pfn(2), true).unwrap();
        let (_, ro) = hv.map_grant(DomId::DOM0, a, g0).unwrap();
        assert!(ro);
    }

    #[test]
    fn event_pair_delivery() {
        let mut hv = hv();
        let a = hv.create_domain("a", 4, 1).unwrap();
        let (pa, pb) = hv.evtchn_connect_pair(a, DomId::DOM0).unwrap();
        hv.send_event(a, pa).unwrap();
        let evts = hv.drain_events();
        assert_eq!(evts.len(), 1);
        assert_eq!(evts[0].dom, DomId::DOM0);
        assert_eq!(evts[0].port, pb);
        // And the reverse direction.
        hv.send_event(DomId::DOM0, pb).unwrap();
        let evts = hv.drain_events();
        assert_eq!(evts[0].dom, a);
        assert_eq!(evts[0].port, pa);
    }

    #[test]
    fn virq_roundtrip() {
        let mut hv = hv();
        let port = hv.bind_virq(DomId::DOM0, Virq::Cloned).unwrap();
        hv.raise_virq(DomId::DOM0, Virq::Cloned);
        let evts = hv.drain_events();
        assert_eq!(evts.len(), 1);
        assert_eq!(evts[0].port, port);
        assert_eq!(evts[0].virq, Some(Virq::Cloned));
    }

    #[test]
    fn pending_events_coalesce() {
        let mut hv = hv();
        hv.bind_virq(DomId::DOM0, Virq::Cloned).unwrap();
        hv.raise_virq(DomId::DOM0, Virq::Cloned);
        hv.raise_virq(DomId::DOM0, Virq::Cloned);
        assert_eq!(hv.drain_events().len(), 1, "second raise coalesces");
        hv.raise_virq(DomId::DOM0, Virq::Cloned);
        assert_eq!(hv.drain_events().len(), 1, "re-raised after drain");
    }

    #[test]
    fn snapshot_and_restore_memory() {
        let mut hv = hv();
        let a = hv.create_domain("a", 4, 1).unwrap();
        hv.write_page(a, Pfn(5), 0, b"state").unwrap();
        let img = hv.snapshot_memory(a).unwrap();
        assert_eq!(img.p2m_size, 1027);

        let b = hv.create_domain("b", 4, 1).unwrap();
        hv.load_image(b, &img).unwrap();
        let mut buf = [0u8; 5];
        hv.read_page(b, Pfn(5), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"state");
    }

    #[test]
    fn domid_sequence_is_pinned_across_create_destroy_create() {
        // The allocator contract the rest of the stack depends on:
        // lowest freed id first, then the counter — a pure function of
        // the create/destroy tape. This tape's expected ids are pinned;
        // any change to the reuse policy must update them consciously.
        let mut hv = hv();
        let a = hv.create_domain("a", 4, 1).unwrap();
        let b = hv.create_domain("b", 4, 1).unwrap();
        let c = hv.create_domain("c", 4, 1).unwrap();
        assert_eq!((a.0, b.0, c.0), (1, 2, 3), "dom0 holds id 0");

        // Destroy the middle and first domains; the lowest id wins reuse.
        hv.destroy_domain(b).unwrap();
        hv.destroy_domain(a).unwrap();
        let d = hv.create_domain("d", 4, 1).unwrap();
        let e = hv.create_domain("e", 4, 1).unwrap();
        let f = hv.create_domain("f", 4, 1).unwrap();
        assert_eq!((d.0, e.0, f.0), (1, 2, 4), "reuse 1 then 2, then bump");

        // Destroying the highest id and re-creating reuses it too.
        hv.destroy_domain(f).unwrap();
        let g = hv.create_domain("g", 4, 1).unwrap();
        assert_eq!(g.0, 4);

        // A failed creation must not consume an id.
        hv.destroy_domain(g).unwrap();
        assert!(hv.create_domain("huge", 1 << 20, 1).is_err());
        let h = hv.create_domain("h", 4, 1).unwrap();
        assert_eq!(h.0, 4);
    }

    #[test]
    fn destroy_dom0_denied() {
        let mut hv = hv();
        assert_eq!(hv.destroy_domain(DomId::DOM0), Err(HvError::Denied));
    }

    #[test]
    fn failed_creation_rolls_back() {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 4,
                cores: 1,
                notification_ring_capacity: 8,
            },
        );
        let before = hv.free_pages();
        // 4 MiB pool cannot hold a 4 MiB guest plus its aux frames.
        assert!(hv.create_domain("big", 4, 1).is_err());
        assert_eq!(hv.free_pages(), before, "no leaked frames");
    }
}
