//! The `CLONEOP` hypercall: Nephele's single hypervisor interface extension.
//!
//! Following the paper's design goal of keeping new interfaces to a minimum
//! (§5.1), every cloning-related operation is a subcommand of one hypercall:
//!
//! * [`CloneOp::Clone`] — run the first stage for one or more clones. Called
//!   by a guest to clone itself (the `fork()` path) or by Dom0 with an
//!   explicit target (the VM-fuzzing path).
//! * [`CloneOp::Completion`] — `xencloned` signals that the second stage of
//!   a child finished; the parent resumes once all its pending children
//!   completed.
//! * [`CloneOp::SetGlobalEnabled`] — global cloning switch, owned by
//!   `xencloned`.
//! * [`CloneOp::CloneCow`] — explicitly trigger COW for chosen pages so KFX
//!   can insert breakpoints into a clone's code pages (§7.2).
//! * [`CloneOp::Checkpoint`] / [`CloneOp::CloneReset`] — snapshot and
//!   restore a clone's memory and vCPU state between fuzzing iterations
//!   (§7.2; the reset cost scales with the number of dirty pages).

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use sim_core::{DomId, Mfn, Pfn};

use crate::domain::{Checkpoint, ClonePolicy, Domain, DomainState, PrivatePolicy};
use crate::error::{HvError, Result};
use crate::event::{Channel, EventChannels, Port};
use crate::grant::GrantTable;
use crate::memory::{CowResolution, FrameOwner, PageContent};
use crate::notify::CloneNotification;
use crate::p2m::P2m;
use crate::vcpu::Vcpu;
use crate::Hypervisor;

/// Subcommands of the `CLONEOP` hypercall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloneOp {
    /// First-stage cloning of `target` (or of the caller when `None`),
    /// creating `nr_clones` children.
    Clone {
        /// Domain to clone; `None` means the calling guest clones itself.
        /// Only Dom0 may name an explicit target (e.g. for VM fuzzing).
        target: Option<DomId>,
        /// Number of children to create in this call.
        nr_clones: u32,
    },
    /// Second-stage completion notification for `child` (Dom0 only).
    Completion {
        /// The child whose I/O cloning finished.
        child: DomId,
    },
    /// Enable or disable cloning globally (Dom0 only).
    SetGlobalEnabled(bool),
    /// Explicitly break COW for the given pages of a clone so breakpoints
    /// can be written (Dom0 only).
    CloneCow {
        /// The clone to operate on.
        dom: DomId,
        /// Guest frames to privatize.
        pfns: Vec<Pfn>,
    },
    /// Record the clone's current memory/vCPU state as the reset target
    /// (Dom0 only).
    Checkpoint {
        /// The clone to checkpoint.
        dom: DomId,
    },
    /// Restore the clone to its checkpoint (Dom0 only).
    CloneReset {
        /// The clone to reset.
        dom: DomId,
    },
}

/// Result of a `CLONEOP` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloneOpResult {
    /// Domain ids of the created children, in creation order (the array the
    /// parent passed to the hypercall, §5.1).
    Cloned(Vec<DomId>),
    /// Pages restored by a [`CloneOp::CloneReset`].
    Reset {
        /// Dirty pages that had to be restored.
        dirty_pages: u64,
    },
    /// The subcommand completed with nothing to report.
    Done,
}

/// The parent state every child of one batch is built from, snapshotted
/// once by `clone_batch` before anything is mutated.
struct ParentSnapshot {
    id: DomId,
    serial: u64,
    name: String,
    clones_created: u32,
    p2m: P2m,
    private_pfns: Rc<BTreeMap<Pfn, PrivatePolicy>>,
    idc_pfns: Rc<BTreeSet<Pfn>>,
    vcpus: Vec<Vcpu>,
    grants: GrantTable,
    evtchn: EventChannels,
    /// Ports of the parent's `DOMID_CHILD` channels.
    idc_ports: Vec<Port>,
    start_info_pfn: Pfn,
    xenstore_pfn: Pfn,
    console_pfn: Pfn,
    policy: ClonePolicy,
}

impl Hypervisor {
    /// Dispatches a `CLONEOP` hypercall issued by `caller`.
    ///
    /// On top of the dispatch itself this is the instrumentation boundary
    /// for the whole first stage: successful [`CloneOp::Clone`] calls feed
    /// the `clone.stage1` latency histogram, and *any* failed subcommand
    /// bumps the `clone.fail` counter (previously only successes were
    /// counted anywhere on the clone path).
    pub fn cloneop(&mut self, caller: DomId, op: CloneOp) -> Result<CloneOpResult> {
        let is_clone = matches!(op, CloneOp::Clone { .. });
        let start = self.clock().now();
        let result = self.cloneop_inner(caller, op);
        match &result {
            Ok(_) if is_clone => {
                let elapsed = self.clock().now().since(start).as_ns();
                self.trace().record_ns("clone.stage1", elapsed);
            }
            Ok(_) => {}
            Err(_) => self.trace().count("clone.fail", 1),
        }
        result
    }

    fn cloneop_inner(&mut self, caller: DomId, op: CloneOp) -> Result<CloneOpResult> {
        let _span = self.trace().span("hv.cloneop");
        self.clock().advance(self.costs().hypercall_base);
        match op {
            CloneOp::Clone { target, nr_clones } => {
                let parent = match target {
                    None => {
                        if caller.is_dom0() {
                            return Err(HvError::InvalidArg("dom0 cannot clone itself"));
                        }
                        caller
                    }
                    Some(t) => {
                        if !caller.is_dom0() {
                            return Err(HvError::Denied);
                        }
                        t
                    }
                };
                if nr_clones == 0 {
                    return Err(HvError::InvalidArg("nr_clones == 0"));
                }
                self.clone_domains(parent, nr_clones).map(CloneOpResult::Cloned)
            }
            CloneOp::Completion { child } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.clone_completion(child)?;
                Ok(CloneOpResult::Done)
            }
            CloneOp::SetGlobalEnabled(on) => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.set_cloning_enabled(on);
                Ok(CloneOpResult::Done)
            }
            CloneOp::CloneCow { dom, pfns } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.clone_cow(dom, &pfns)?;
                Ok(CloneOpResult::Done)
            }
            CloneOp::Checkpoint { dom } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.clone_checkpoint(dom)?;
                Ok(CloneOpResult::Done)
            }
            CloneOp::CloneReset { dom } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                let dirty = self.clone_reset(dom)?;
                Ok(CloneOpResult::Reset { dirty_pages: dirty })
            }
        }
    }

    fn clone_domains(&mut self, parent: DomId, nr: u32) -> Result<Vec<DomId>> {
        if !self.cloning_enabled() {
            return Err(HvError::CloningDisabled(parent));
        }
        {
            let p = self.domain(parent)?;
            if !p.clone_policy.enabled {
                return Err(HvError::CloningDisabled(parent));
            }
            if p.clones_created + nr > p.clone_policy.max_clones {
                return Err(HvError::CloneLimit(parent));
            }
        }
        let children = self.clone_batch(parent, nr)?;
        // The hypercall returns 0 in the parent's rax, 1 in each child's.
        if let Some(v) = self.domain_mut(parent)?.vcpus.get_mut(0) {
            v.regs.rax = 0;
        }
        Ok(children)
    }

    /// Runs the complete first stage for `nr` children of `parent` in one
    /// batch (§4.1, §5.2): the parent is snapshotted **once**, every mapped
    /// pfn is classified in a **single** walk, shared pages get one
    /// refcount transition covering all children, and each child's p2m is
    /// stamped from the shared template with only the private slots
    /// patched. Host complexity drops from O(N·M) for the naive per-child
    /// loop to O(M + N·P) (M mapped pages, P private pages), while
    /// virtual-time charges, frame placement, domain ids and names are
    /// bit-identical to N sequential single clones.
    ///
    /// The call is atomic: ring capacity and the frame budget for all
    /// children are validated before the first mutation, so a failing
    /// batch leaves the parent, the frame table and the ring untouched.
    fn clone_batch(&mut self, parent_id: DomId, nr: u32) -> Result<Vec<DomId>> {
        let span = self.trace().span("clone.batch");
        span.dom(parent_id);

        // ---- Validation phase: nothing below this comment may mutate
        // hypervisor state until every check has passed. ----

        // Backpressure: the ring must have room for the whole batch up
        // front (§5) — a mid-batch full ring would strand earlier children
        // with the parent paused.
        if self.clone_ring().free_slots() < nr as usize {
            return Err(HvError::NotificationRingFull);
        }

        // Snapshot the parent state all children are built from — once.
        let parent = {
            let p = self.domain(parent_id)?;
            if p.state == DomainState::Dying {
                return Err(HvError::BadDomainState(parent_id));
            }
            // Parent-side DOMID_CHILD channels become child→parent
            // channels at the same port in every child.
            let mut idc_ports = Vec::new();
            for (port, ch) in p.evtchn.iter_active() {
                if let Channel::Interdomain { remote_dom, .. } = ch {
                    if *remote_dom == DomId::CHILD {
                        idc_ports.push(port);
                    }
                }
            }
            ParentSnapshot {
                id: parent_id,
                serial: p.serial,
                name: p.name.clone(),
                clones_created: p.clones_created,
                p2m: p.p2m.clone(),
                private_pfns: p.private_pfns.clone(),
                idc_pfns: p.idc_pfns.clone(),
                vcpus: p.vcpus.clone(),
                grants: p.grants.clone(),
                evtchn: p.evtchn.clone(),
                idc_ports,
                start_info_pfn: p.start_info_pfn,
                xenstore_pfn: p.xenstore_pfn,
                console_pfn: p.console_pfn,
                policy: p.clone_policy,
            }
        };

        /// How a shared (non-private) mapped page joins the batch.
        enum SharedKind {
            /// Owned by the parent: one ownership transfer to `dom_cow`
            /// covering every child (IDC pages stay writable-shared).
            First { idc: bool },
            /// Already COW — the parent is itself a clone, or the same
            /// frame appeared at an earlier pfn of this walk: refcount
            /// bump only.
            Bump,
        }

        // Single classification walk over the p2m, merge-joined with the
        // sorted private and IDC tables: each table cursor yields its
        // entry when the walk reaches that slot (holes included, whose
        // entries are dropped), so no slot probes a tree. `first_shared`
        // tracks frames this walk will move to dom_cow, so a frame mapped
        // at two pfns is first-shared once and bumped at its second slot
        // — exactly what N sequential walks would produce.
        let mut private_slots: Vec<(usize, PrivatePolicy, Mfn)> =
            Vec::with_capacity(parent.private_pfns.len());
        let mut shared_slots: Vec<(Mfn, SharedKind)> =
            Vec::with_capacity(parent.p2m.len().saturating_sub(parent.private_pfns.len()));
        let mut first_shared = std::collections::HashSet::new();
        let mut private_iter = parent.private_pfns.iter();
        let mut next_private = private_iter.next();
        let mut idc_iter = parent.idc_pfns.iter();
        let mut next_idc = idc_iter.next();
        for (i, slot) in parent.p2m.iter().enumerate() {
            let pfn = Pfn(i as u64);
            let private = match next_private {
                Some((p, policy)) if *p == pfn => {
                    next_private = private_iter.next();
                    Some(*policy)
                }
                _ => None,
            };
            let idc = next_idc == Some(&pfn);
            if idc {
                next_idc = idc_iter.next();
            }
            let Some(mfn) = slot else { continue };
            if let Some(policy) = private {
                private_slots.push((i, policy, mfn));
                continue;
            }
            match self.frames().inspect(mfn)?.owner() {
                FrameOwner::Dom(d) if d == parent_id => {
                    if first_shared.insert(mfn.0) {
                        shared_slots.push((mfn, SharedKind::First { idc }));
                    } else {
                        shared_slots.push((mfn, SharedKind::Bump));
                    }
                }
                FrameOwner::Cow => shared_slots.push((mfn, SharedKind::Bump)),
                _ => return Err(HvError::BadOwner(mfn)),
            }
        }

        let mapped = (private_slots.len() + shared_slots.len()) as u64;
        let private_count = private_slots.len() as u64;
        let slots = parent.p2m.len() as u64;
        let aux_count = Domain::pt_frames_needed(slots) + Domain::p2m_frames_needed(slots);
        let per_child = private_count + aux_count;

        // Frame budget for the whole batch, before the first allocation.
        if self.frames().free_frames() < per_child.saturating_mul(nr as u64) {
            return Err(HvError::OutOfMemory);
        }

        // ---- Apply phase: infallible from here on. ----

        let costs = self.costs().clone();
        self.clock()
            .advance(costs.clone_stage1_base.saturating_mul(nr as u64));

        // Cloning invalidates an armed KFX checkpoint: the private pages
        // its journals describe (and the post-fault copies the dirty_cow
        // entries would free) are about to become COW-shared with the
        // children, so the checkpoint no longer names restorable private
        // state. Disarm it, releasing the journal's keep-alive
        // references.
        if let Some(cp) = self.domain_mut(parent_id).expect("validated above").checkpoint.take()
        {
            self.release_checkpoint_refs(&cp)
                .expect("journal references are live by construction");
        }

        // Domain ids in the order the sequential path would allocate them.
        let child_ids: Vec<DomId> = (0..nr).map(|_| DomId(self.alloc_domid())).collect();

        // One bulk allocation covering every child's private + auxiliary
        // frames, sliced per child in sequential order so frame placement
        // is identical to N single clones.
        let requests: Vec<(FrameOwner, u64)> = child_ids
            .iter()
            .map(|c| (FrameOwner::Dom(*c), per_child))
            .collect();
        let per_child_frames = self
            .frames_mut()
            .alloc_batch(&requests)
            .expect("frame budget pre-validated");

        // Shared pages: one refcount transition per frame for the whole
        // batch, charging exactly what N sequential walks would charge.
        {
            let _cspan = self.trace().span("clone.cow_convert");
            let (mut firsts, mut bumps) = (0u64, 0u64);
            for (mfn, kind) in &shared_slots {
                match kind {
                    SharedKind::First { idc } => {
                        self.frames_mut()
                            .share_to_cow(*mfn, parent_id, nr.saturating_add(1), *idc)
                            .expect("classified as parent-owned");
                        firsts += 1;
                    }
                    SharedKind::Bump => {
                        self.frames_mut()
                            .reshare(*mfn, nr)
                            .expect("classified as COW");
                        bumps += 1;
                    }
                }
            }
            // The per-page charges, summed into one advance: no span
            // opens inside the loop, so nothing observes the clock
            // between pages.
            let n = nr as u64;
            let first_page = costs.clone_share_per_page + costs.clone_reshare_per_page * (n - 1);
            self.clock()
                .advance(first_page * firsts + costs.clone_reshare_per_page * n * bumps);
        }

        // Each child in id order, built and committed in one pass.
        let mut notifications = Vec::with_capacity(nr as usize);
        for (k, (&child_id, fresh)) in child_ids.iter().zip(per_child_frames).enumerate() {
            let n = self.clone_child(&parent, &private_slots, mapped, k as u32, child_id, fresh);
            notifications.push(n);
        }

        // Parent bookkeeping: paused until every second stage completes.
        {
            let p = self.domain_mut(parent_id).expect("parent snapshotted above");
            p.children
                .extend((p.clones_created..).zip(child_ids.iter().copied()));
            p.clones_created += nr;
            p.pending_stage2 += nr;
            p.state = DomainState::PausedForClone;
        }

        // Notify xencloned, one entry + VIRQ per child (steps 1.2 in
        // Fig. 1) — capacity was reserved up front.
        for n in notifications {
            self.clone_ring()
                .push(n)
                .expect("ring capacity pre-validated");
            self.raise_virq(DomId::DOM0, crate::event::Virq::Cloned);
        }
        Ok(child_ids)
    }

    /// Builds the `k`-th child of a batch from the parent snapshot and its
    /// slice of freshly allocated frames (private frames first, then the
    /// auxiliary ones), inserts it, and returns its clone notification.
    /// Only span start/end stamps observe the clock, so the per-page
    /// charges are applied as one advance per span.
    ///
    /// Kept out of line: inlined into `clone_batch`, this body made the
    /// first stage of a single clone 12–35% slower (`clone_single` on a
    /// 2-vCPU host).
    #[inline(never)]
    fn clone_child(
        &mut self,
        parent: &ParentSnapshot,
        private_slots: &[(usize, PrivatePolicy, Mfn)],
        mapped: u64,
        k: u32,
        child_id: DomId,
        mut fresh: Vec<Mfn>,
    ) -> CloneNotification {
        let child_span = self.trace().span("clone.child");
        child_span.dom(child_id);
        let private_count = private_slots.len() as u64;
        let aux_frames = fresh.split_off(private_slots.len());

        // vCPUs: registers and affinity replicated; rax = 1 in the child.
        let vcpus: Vec<Vcpu> = parent.vcpus.iter().map(Vcpu::clone_for_child).collect();
        {
            let _vspan = self.trace().span("clone.vcpu_copy");
            self.clock()
                .advance(self.costs().vcpu_init.saturating_mul(vcpus.len() as u64));
        }

        // Private pages: each fresh frame takes its parent page's image,
        // and grants of the parent frame are re-pointed to it.
        let mut grants = parent.grants.clone_for_child();
        let mut patches: Vec<(u64, Option<Mfn>)> = Vec::with_capacity(private_slots.len());
        let mut child_start_info = Mfn(0);
        {
            let _pspan = self.trace().span("clone.private_pages");
            for (&(i, policy, mfn), &new) in private_slots.iter().zip(&fresh) {
                let parent_image = || {
                    self.frames()
                        .inspect(mfn)
                        .expect("snapshot frames exist")
                        .content()
                        .clone()
                };
                let img = match policy {
                    PrivatePolicy::Copy => parent_image(),
                    PrivatePolicy::Fresh => PageContent::Zero,
                    PrivatePolicy::Rewrite => {
                        // Rewrite the embedded domain id reference.
                        let mut img = parent_image();
                        img.rewrite_head(child_id.0);
                        img
                    }
                };
                // `alloc` zeroed the fresh frame, so a zero image needs
                // no install.
                if !matches!(img, PageContent::Zero) {
                    self.frames_mut()
                        .set_content(new, img)
                        .expect("freshly allocated frame is writable");
                }
                grants.rewrite_frame(mfn, new);
                patches.push((i as u64, Some(new)));
                if i as u64 == parent.start_info_pfn.0 {
                    child_start_info = new;
                }
            }
            self.clock()
                .advance(self.costs().clone_private_page.saturating_mul(private_count));
        }

        // Event channels: replicate, then rewrite the IDC ports to name
        // the parent, which binds this child to their fan-out.
        let mut evtchn = parent.evtchn.clone_for_child();
        for &port in &parent.idc_ports {
            evtchn
                .replace(
                    port,
                    Channel::Interdomain {
                        remote_dom: parent.id,
                        remote_port: port,
                    },
                )
                .expect("IDC port exists in the replicated table");
        }

        // The child p2m is an `Rc` handle on the family template — every
        // shared slot already points at the (now COW) parent frame through
        // the shared base — plus a thin overlay patching only the P
        // private slots.
        let p2m = parent.p2m.child_with_patches(patches);

        // Rebuild the child page table from the p2m (§5.2: "p2m ... is
        // used and updated on cloning when building the child page
        // table").
        {
            let _tspan = self.trace().span("clone.pt_rebuild");
            let p2m_frames = Domain::p2m_frames_needed(parent.p2m.len() as u64);
            self.clock()
                .advance(self.costs().clone_pt_build_per_page.saturating_mul(mapped));
            self.clock()
                .advance(self.costs().clone_private_page.saturating_mul(p2m_frames));
        }

        let serial = self.alloc_serial();
        self.insert_domain(Domain {
            id: child_id,
            serial,
            name: format!("{}-clone{}", parent.name, parent.clones_created + 1 + k),
            parent: Some(parent.id),
            birth: parent.clones_created + k,
            state: DomainState::PausedAfterClone,
            vcpus,
            p2m,
            aux_frames,
            private_pfns: Rc::clone(&parent.private_pfns),
            idc_pfns: Rc::clone(&parent.idc_pfns),
            start_info_pfn: parent.start_info_pfn,
            xenstore_pfn: parent.xenstore_pfn,
            console_pfn: parent.console_pfn,
            clone_policy: parent.policy,
            clones_created: 0,
            children: BTreeMap::new(),
            pending_stage2: 0,
            grants,
            evtchn,
            checkpoint: None,
        });
        CloneNotification {
            parent: parent.id,
            parent_serial: parent.serial,
            child: child_id,
            parent_start_info: parent.p2m.get(parent.start_info_pfn.0 as usize).unwrap_or(Mfn(0)),
            child_start_info,
        }
    }

    fn clone_completion(&mut self, child: DomId) -> Result<()> {
        let (parent_id, resume_child) = {
            let c = self.domain(child)?;
            (
                c.parent.ok_or(HvError::InvalidArg("not a clone"))?,
                c.clone_policy.resume_children,
            )
        };
        {
            let c = self.domain_mut(child)?;
            c.state = if resume_child {
                DomainState::Running
            } else {
                DomainState::Paused
            };
        }
        let p = self.domain_mut(parent_id)?;
        if p.pending_stage2 == 0 {
            return Err(HvError::BadDomainState(parent_id));
        }
        p.pending_stage2 -= 1;
        if p.pending_stage2 == 0 && p.state == DomainState::PausedForClone {
            p.state = DomainState::Running;
        }
        Ok(())
    }

    fn clone_cow(&mut self, dom: DomId, pfns: &[Pfn]) -> Result<()> {
        for pfn in pfns {
            let mfn = self
                .domain(dom)?
                .lookup(*pfn)
                .ok_or(HvError::NotMapped(dom, *pfn))?;
            if self.frames().inspect(mfn)?.owner() == FrameOwner::Cow {
                // Privatization dirties the page exactly like a write
                // fault, so an armed checkpoint must journal it too —
                // otherwise reset would leak the divergence. The
                // pre-fault writability matters for the transfer
                // journal: `clone_cow` may privatize writable-shared
                // (IDC) pages, which the write-fault path never sees.
                let was_writable = self.frames().inspect(mfn)?.writable();
                match self.frames_mut().cow_fault(mfn, dom)? {
                    CowResolution::Copied(copy) => {
                        self.clock().advance(self.costs().cow_fault_copy);
                        self.domain_mut(dom)?.p2m.set(pfn.0 as usize, Some(copy));
                        self.journal_cow_copy(dom, *pfn, mfn)?;
                    }
                    CowResolution::Transferred => {
                        self.clock().advance(self.costs().cow_fault_transfer);
                        self.journal_transfer_fault(dom, *pfn, mfn, was_writable)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn clone_checkpoint(&mut self, dom: DomId) -> Result<()> {
        // Re-checkpointing drops the previous checkpoint and the
        // keep-alive references its journal held.
        if let Some(old) = self.domain_mut(dom)?.checkpoint.take() {
            self.release_checkpoint_refs(&old)?;
        }
        // O(1) in the domain's memory: the p2m layout is captured as a
        // structural overlay snapshot and page contents are journaled
        // lazily on first dirty (see `Checkpoint`) — no walk over the
        // private pages, no content clones.
        let d = self.domain_mut(dom)?;
        let overlay = d.p2m.overlay_snapshot();
        let vcpus = d.vcpus.clone();
        d.checkpoint = Some(Checkpoint {
            dirty_cow: Default::default(),
            dirty_private: Default::default(),
            dirty_transfer: Default::default(),
            overlay,
            vcpus,
        });
        Ok(())
    }

    fn clone_reset(&mut self, dom: DomId) -> Result<u64> {
        let costs = self.costs().clone();
        self.clock().advance(costs.kfx_reset_base);
        let mut cp = self
            .domain_mut(dom)?
            .checkpoint
            .take()
            .ok_or(HvError::InvalidArg("no checkpoint"))?;

        let mut dirty = 0u64;
        // Re-point COW-faulted pages back at their shared originals. The
        // journal's keep-alive reference becomes the p2m's reference, so
        // no reshare is needed on the re-point.
        let dirty_cow = std::mem::take(&mut cp.dirty_cow);
        for (pfn, orig) in dirty_cow {
            let cur = self
                .domain(dom)?
                .lookup(pfn)
                .ok_or(HvError::NotMapped(dom, pfn))?;
            if cur != orig {
                self.frames_mut().free(cur, FrameOwner::Dom(dom))?;
                self.domain_mut(dom)?.p2m.set(pfn.0 as usize, Some(orig));
                self.clock().advance(costs.kfx_reset_per_page);
                dirty += 1;
            } else {
                // The slot already points at the shared frame: no
                // restore work is done, so no time is charged and the
                // page is not counted dirty — only the journal's
                // reference is returned.
                self.frames_mut().unshare_drop(orig)?;
            }
        }
        // Un-do last-sharer transfers: restore the pre-fault content and
        // hand the frame back to dom_cow as its original single-sharer
        // page.
        let dirty_transfer = std::mem::take(&mut cp.dirty_transfer);
        for (pfn, (content, writable)) in dirty_transfer {
            let mfn = self
                .domain(dom)?
                .lookup(pfn)
                .ok_or(HvError::NotMapped(dom, pfn))?;
            self.frames_mut().set_content(mfn, content)?;
            self.frames_mut().share_to_cow(mfn, dom, 1, writable)?;
            self.clock().advance(costs.kfx_reset_per_page);
            dirty += 1;
        }
        // Restore dirtied private pages from their journaled pre-images
        // (O(dirty): only pages the write path actually touched).
        let dirty_private = std::mem::take(&mut cp.dirty_private);
        for (pfn, saved) in dirty_private {
            let mfn = self
                .domain(dom)?
                .lookup(pfn)
                .ok_or(HvError::NotMapped(dom, pfn))?;
            if self.frames().inspect(mfn)?.content() != &saved {
                self.frames_mut().set_content(mfn, saved)?;
                self.clock().advance(costs.kfx_reset_per_page);
                dirty += 1;
            }
        }

        let d = self.domain_mut(dom)?;
        // With every divergence undone the overlay has shrunk back to
        // its checkpoint form; swap in the snapshot `Rc` so the storage
        // is shared again, not just equal. Non-journaled p2m changes
        // (e.g. a grant mapped mid-iteration) survive the reset, in
        // which case the re-armed checkpoint adopts the current layout.
        if *d.p2m.overlay_snapshot() == *cp.overlay {
            d.p2m.restore_overlay(cp.overlay.clone());
        } else {
            cp.overlay = d.p2m.overlay_snapshot();
        }
        // Restore vCPU state and re-arm for the next iteration.
        d.vcpus = cp.vcpus.clone();
        d.checkpoint = Some(cp);
        Ok(dirty)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use sim_core::{Clock, CostModel};

    use super::*;
    use crate::domain::ClonePolicy;
    use crate::MachineConfig;

    fn hv() -> Hypervisor {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 256,
                notification_ring_capacity: 16,
            },
        );
        hv.set_cloning_enabled(true);
        hv
    }

    fn cloneable_guest(hv: &mut Hypervisor, max_clones: u32) -> DomId {
        let d = hv.create_domain("guest", 4, 1).unwrap();
        hv.set_clone_policy(
            d,
            ClonePolicy {
                enabled: true,
                max_clones,
                resume_children: true,
            },
        )
        .unwrap();
        hv.unpause(d).unwrap();
        d
    }

    fn do_clone(hv: &mut Hypervisor, parent: DomId, nr: u32) -> Vec<DomId> {
        match hv
            .cloneop(
                parent,
                CloneOp::Clone {
                    target: None,
                    nr_clones: nr,
                },
            )
            .unwrap()
        {
            CloneOpResult::Cloned(c) => c,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn basic_clone_creates_paused_child_and_pauses_parent() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let children = do_clone(&mut hv, p, 1);
        assert_eq!(children.len(), 1);
        let c = children[0];
        assert_eq!(hv.domain(c).unwrap().state, DomainState::PausedAfterClone);
        assert_eq!(hv.domain(p).unwrap().state, DomainState::PausedForClone);
        assert_eq!(hv.domain(c).unwrap().parent, Some(p));
        // rax: 0 in parent, 1 in child.
        assert_eq!(hv.domain(p).unwrap().vcpus[0].regs.rax, 0);
        assert_eq!(hv.domain(c).unwrap().vcpus[0].regs.rax, 1);
        // A notification was queued and the VIRQ raised.
        assert_eq!(hv.clone_ring_len(), 1);
    }

    #[test]
    fn completion_resumes_parent_and_child() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let c = do_clone(&mut hv, p, 1)[0];
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();
        assert_eq!(hv.domain(p).unwrap().state, DomainState::Running);
        assert_eq!(hv.domain(c).unwrap().state, DomainState::Running);
    }

    #[test]
    fn cloning_requires_global_and_domain_enable() {
        let mut hv = hv();
        hv.set_cloning_enabled(false);
        let p = cloneable_guest(&mut hv, 4);
        let r = hv.cloneop(
            p,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::CloningDisabled(p)));

        hv.set_cloning_enabled(true);
        let q = hv.create_domain("other", 4, 1).unwrap();
        hv.unpause(q).unwrap();
        let r = hv.cloneop(
            q,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::CloningDisabled(q)));
    }

    #[test]
    fn clone_limit_enforced() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 2);
        do_clone(&mut hv, p, 2);
        let r = hv.cloneop(
            p,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::CloneLimit(p)));
    }

    #[test]
    fn memory_is_shared_and_cow_diverges() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        hv.write_page(p, Pfn(7), 0, b"parent-data").unwrap();
        let c = do_clone(&mut hv, p, 1)[0];

        // Same machine frame backs both p2m entries.
        let pm = hv.domain(p).unwrap().lookup(Pfn(7)).unwrap();
        let cm = hv.domain(c).unwrap().lookup(Pfn(7)).unwrap();
        assert_eq!(pm, cm);
        assert_eq!(hv.frames().inspect(pm).unwrap().owner(), FrameOwner::Cow);
        assert_eq!(hv.frames().inspect(pm).unwrap().refcount(), 2);

        // Child reads the parent's data.
        let mut buf = [0u8; 11];
        hv.read_page(c, Pfn(7), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"parent-data");

        // Child writes: COW copy; parent unaffected.
        hv.write_page(c, Pfn(7), 0, b"child-data!").unwrap();
        let cm2 = hv.domain(c).unwrap().lookup(Pfn(7)).unwrap();
        assert_ne!(cm2, pm);
        hv.read_page(p, Pfn(7), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"parent-data");
        hv.read_page(c, Pfn(7), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"child-data!");
    }

    #[test]
    fn private_pages_are_not_shared() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let si = hv.domain(p).unwrap().start_info_pfn;
        let c = do_clone(&mut hv, p, 1)[0];
        let pm = hv.domain(p).unwrap().lookup(si).unwrap();
        let cm = hv.domain(c).unwrap().lookup(si).unwrap();
        assert_ne!(pm, cm, "start_info must be duplicated");
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();
        let g = do_clone(&mut hv, c, 1)[0];
        let gm = hv.domain(g).unwrap().lookup(si).unwrap();
        assert!(gm != cm && gm != pm, "the grandchild's start_info is its own");
        // Each clone's start_info embeds its own domain id (rewrite), held
        // as a compact head word rather than a materialized page.
        for (dom, mfn) in [(c, cm), (g, gm)] {
            let mut buf = [0u8; 4];
            hv.read_page(dom, si, 0, &mut buf).unwrap();
            assert_eq!(u32::from_le_bytes(buf), dom.0);
            assert!(
                matches!(hv.frames().inspect(mfn).unwrap().content(), PageContent::Head(v) if *v == u64::from(dom.0)),
                "dom {} start_info is {:?}",
                dom.0,
                hv.frames().inspect(mfn).unwrap().content()
            );
        }
    }

    #[test]
    fn compact_start_info_survives_save_and_restore() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let si = hv.domain(p).unwrap().start_info_pfn;
        let c = do_clone(&mut hv, p, 1)[0];
        let image = hv.snapshot_memory(c).unwrap();
        let saved = &image.pages.iter().find(|(pfn, _)| *pfn == si).unwrap().1;
        assert!(matches!(saved, PageContent::Head(v) if *v == u64::from(c.0)));

        let restored = hv.create_domain("restored", 4, 1).unwrap();
        hv.load_image(restored, &image).unwrap();
        let mfn = hv.domain(restored).unwrap().lookup(si).unwrap();
        assert!(matches!(hv.frames().inspect(mfn).unwrap().content(), PageContent::Head(v) if *v == u64::from(c.0)));
        let mut buf = [0xEEu8; 12];
        hv.read_page(restored, si, 0, &mut buf).unwrap();
        let mut expected = [0u8; 12];
        expected[..4].copy_from_slice(&c.0.to_le_bytes());
        assert_eq!(buf, expected);
    }

    #[test]
    fn rewriting_a_compact_start_info_with_its_own_bytes_is_not_dirty() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let si = hv.domain(p).unwrap().start_info_pfn;
        let c = do_clone(&mut hv, p, 1)[0];
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();
        hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: c }).unwrap();
        // The write materializes the page with the bytes it already held,
        // which is no divergence from the checkpoint.
        hv.write_page(c, si, 0, &c.0.to_le_bytes()).unwrap();
        let r = hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: c });
        assert_eq!(r, Ok(CloneOpResult::Reset { dirty_pages: 0 }));
    }

    #[test]
    fn a_family_shares_one_private_table_until_a_member_registers() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let kids = do_clone(&mut hv, p, 2);
        let table = |hv: &Hypervisor, d: DomId| Rc::clone(&hv.domain(d).unwrap().private_pfns);
        let idc = |hv: &Hypervisor, d: DomId| Rc::clone(&hv.domain(d).unwrap().idc_pfns);
        let before = table(&hv, p);
        for &k in &kids {
            assert!(Rc::ptr_eq(&table(&hv, k), &before));
            assert!(Rc::ptr_eq(&idc(&hv, k), &idc(&hv, p)));
        }

        let shared = (*before).clone();
        let si = hv.domain(p).unwrap().start_info_pfn;
        hv.register_private_pfns(kids[0], &[Pfn(9), si, Pfn(2)], PrivatePolicy::Copy)
            .unwrap();
        hv.register_idc_pfn(kids[0], Pfn(10)).unwrap();
        let own = table(&hv, kids[0]);
        assert!(!Rc::ptr_eq(&own, &before), "registering copies the table");
        assert_eq!(own.get(&Pfn(9)), Some(&PrivatePolicy::Copy));
        assert_eq!(own.get(&si), Some(&PrivatePolicy::Copy));
        assert_eq!(own.len(), before.len() + 2);
        assert!(idc(&hv, kids[0]).contains(&Pfn(10)));
        assert_eq!(*before, shared, "the family's table is not modified");
        assert_eq!(before.get(&si), Some(&PrivatePolicy::Rewrite));
        for d in [p, kids[1]] {
            assert!(Rc::ptr_eq(&table(&hv, d), &before), "dom {} keeps the shared table", d.0);
            assert!(!table(&hv, d).contains_key(&Pfn(9)));
            assert!(idc(&hv, d).is_empty());
        }
    }

    /// A hypervisor with a charging cost model and a trace sink, and a
    /// clone whose pages mix every kind `fill_page` resolves: pages
    /// shared with its parent and sibling (copy faults), pages it is
    /// the last sharer of (transfer faults), an IDC page, pages it owns
    /// from before the checkpoint (private pre-images when one is
    /// armed) and its own private pages. With `checkpointed`, the clone
    /// has a checkpoint armed and one copy fault journaled since.
    fn fill_scenario(checkpointed: bool) -> (Hypervisor, DomId) {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::calibrated()),
            &MachineConfig {
                guest_pool_mib: 64,
                notification_ring_capacity: 16,
            },
        );
        hv.set_cloning_enabled(true);
        let sink = sim_core::TraceSink::new(hv.clock().clone(), &sim_core::TraceConfig::aggregate());
        hv.attach_trace(sink);
        let p = cloneable_guest(&mut hv, 4);
        hv.register_idc_pfn(p, Pfn(5)).unwrap();
        for pfn in 0..12 {
            hv.fill_page(p, Pfn(pfn), 0xA0 + pfn).unwrap();
        }
        let kids = do_clone(&mut hv, p, 2);
        for &k in &kids {
            hv.cloneop(DomId::DOM0, CloneOp::Completion { child: k })
                .unwrap();
        }
        let (c, sibling) = (kids[0], kids[1]);
        hv.write_page(c, Pfn(7), 0, b"owned").unwrap();
        for d in [p, sibling] {
            hv.write_page(d, Pfn(2), 0, b"theirs").unwrap();
            hv.write_page(d, Pfn(3), 0, b"theirs").unwrap();
        }
        if checkpointed {
            hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: c }).unwrap();
            hv.write_page(c, Pfn(8), 0, b"dirty").unwrap();
        }
        (hv, c)
    }

    #[test]
    fn fill_pages_equals_per_page_fill_page() {
        let pattern = |pfn: Pfn| 0x5eed_0000_0000_0000 | pfn.0;
        for checkpointed in [false, true] {
            let (mut bulk, c) = fill_scenario(checkpointed);
            let (mut single, _) = fill_scenario(checkpointed);
            let slots = bulk.domain(c).unwrap().p2m.len() as u64;
            // Twice over the low pages, then past the end of the p2m: the
            // second pass finds pages the first one made private.
            for range in [0..20, 0..20, slots - 4..slots + 3] {
                let got = bulk.fill_pages(c, range.clone(), pattern);
                let want = range
                    .clone()
                    .try_for_each(|pfn| single.fill_page(c, Pfn(pfn), pattern(Pfn(pfn))));
                assert_eq!(got, want, "{range:?}, checkpointed {checkpointed}");
            }
            assert_eq!(
                bulk.fill_pages(c, slots..slots + 1, pattern),
                Err(HvError::NotMapped(c, Pfn(slots)))
            );

            let frames = |hv: &Hypervisor| -> Vec<(FrameOwner, u32, bool, PageContent)> {
                hv.frames()
                    .iter_frames()
                    .map(|(_, f)| (f.owner(), f.refcount(), f.writable(), f.content().clone()))
                    .collect()
            };
            assert!(frames(&bulk) == frames(&single), "checkpointed {checkpointed}");
            let (b, s) = (bulk.domain(c).unwrap(), single.domain(c).unwrap());
            assert_eq!(b.p2m, s.p2m);
            assert_eq!(b.checkpoint.is_some(), checkpointed);
            if let (Some(b), Some(s)) = (&b.checkpoint, &s.checkpoint) {
                assert_eq!(b.dirty_cow, s.dirty_cow);
                assert_eq!(b.dirty_private, s.dirty_private);
                assert_eq!(b.dirty_transfer, s.dirty_transfer);
                assert!(!b.dirty_private.is_empty() && !b.dirty_transfer.is_empty());
            }
            assert_eq!(bulk.clock().now(), single.clock().now());
            assert_eq!(bulk.memory_stats(), single.memory_stats());
            let counters = bulk.trace().counters();
            assert_eq!(counters, single.trace().counters());
            assert!(counters["hv.cow_fault.copy"] > 0 && counters["hv.cow_fault.transfer"] > 0);
        }
    }

    #[test]
    fn second_clone_is_cheaper_than_first() {
        let clock = Clock::new();
        let mut hv = Hypervisor::new(
            clock.clone(),
            Rc::new(CostModel::calibrated()),
            &MachineConfig {
                guest_pool_mib: 256,
                notification_ring_capacity: 16,
            },
        );
        hv.set_cloning_enabled(true);
        let p = cloneable_guest(&mut hv, 4);

        let (c1, first) = {
            let t0 = clock.now();
            let c = do_clone(&mut hv, p, 1)[0];
            (c, clock.now().since(t0))
        };
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c1 })
            .unwrap();
        let (c2, second) = {
            let t0 = clock.now();
            let c = do_clone(&mut hv, p, 1)[0];
            (c, clock.now().since(t0))
        };
        let _ = c2;
        assert!(
            second < first,
            "resharing ({second}) should be cheaper than first sharing ({first})"
        );
    }

    #[test]
    fn nested_clone_family() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let c = do_clone(&mut hv, p, 1)[0];
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();
        // The grandchild is created by cloning the child.
        let g = do_clone(&mut hv, c, 1)[0];
        assert!(hv.is_descendant(g, p));
        assert!(hv.is_descendant(g, c));
        assert!(hv.same_family(g, p));
        let unrelated = hv.create_domain("other", 4, 1).unwrap();
        assert!(!hv.same_family(g, unrelated));
    }

    #[test]
    fn destroy_clone_returns_private_memory_only() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let before_clone = hv.free_pages();
        let c = do_clone(&mut hv, p, 1)[0];
        let after_clone = hv.free_pages();
        let clone_cost = before_clone - after_clone;
        // A clone of a 4 MiB guest must consume far fewer than 1027 frames.
        assert!(clone_cost < 100, "clone consumed {clone_cost} frames");
        hv.destroy_domain(c).unwrap();
        assert_eq!(hv.free_pages(), before_clone);
    }

    #[test]
    fn dom0_can_clone_explicit_target_but_guests_cannot() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let other = cloneable_guest(&mut hv, 4);
        assert_eq!(
            hv.cloneop(
                other,
                CloneOp::Clone {
                    target: Some(p),
                    nr_clones: 1
                }
            ),
            Err(HvError::Denied)
        );
        let r = hv
            .cloneop(
                DomId::DOM0,
                CloneOp::Clone {
                    target: Some(p),
                    nr_clones: 1,
                },
            )
            .unwrap();
        assert!(matches!(r, CloneOpResult::Cloned(v) if v.len() == 1));
    }

    #[test]
    fn checkpoint_and_reset_restore_memory_and_vcpus() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        hv.write_page(p, Pfn(3), 0, b"base").unwrap();
        let c = do_clone(&mut hv, p, 1)[0];
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();

        hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: c }).unwrap();
        // Dirty a shared page and a vCPU register.
        hv.write_page(c, Pfn(3), 0, b"drty").unwrap();
        hv.domain_mut(c).unwrap().vcpus[0].regs.rip = 0x1234;

        let r = hv
            .cloneop(DomId::DOM0, CloneOp::CloneReset { dom: c })
            .unwrap();
        assert!(matches!(r, CloneOpResult::Reset { dirty_pages } if dirty_pages >= 1));

        let mut buf = [0u8; 4];
        hv.read_page(c, Pfn(3), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"base");
        assert_eq!(hv.domain(c).unwrap().vcpus[0].regs.rip, 0);

        // Reset is repeatable.
        hv.write_page(c, Pfn(3), 0, b"drt2").unwrap();
        hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: c })
            .unwrap();
        hv.read_page(c, Pfn(3), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"base");
    }

    #[test]
    fn clone_cow_privatizes_pages_for_breakpoints() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let c = do_clone(&mut hv, p, 1)[0];
        let shared = hv.domain(c).unwrap().lookup(Pfn(1)).unwrap();
        hv.cloneop(
            DomId::DOM0,
            CloneOp::CloneCow {
                dom: c,
                pfns: vec![Pfn(1)],
            },
        )
        .unwrap();
        let private = hv.domain(c).unwrap().lookup(Pfn(1)).unwrap();
        assert_ne!(shared, private);
        assert_eq!(
            hv.frames().inspect(private).unwrap().owner(),
            FrameOwner::Dom(c)
        );
    }

    #[test]
    fn multi_clone_in_one_call() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 8);
        let kids = do_clone(&mut hv, p, 3);
        assert_eq!(kids.len(), 3);
        assert_eq!(hv.domain(p).unwrap().pending_stage2, 3);
        for k in &kids {
            hv.cloneop(DomId::DOM0, CloneOp::Completion { child: *k })
                .unwrap();
        }
        assert_eq!(hv.domain(p).unwrap().state, DomainState::Running);
    }

    #[test]
    fn notification_ring_backpressure() {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 256,
                notification_ring_capacity: 2,
            },
        );
        hv.set_cloning_enabled(true);
        let p = cloneable_guest(&mut hv, 8);
        do_clone(&mut hv, p, 2);
        let r = hv.cloneop(
            p,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::NotificationRingFull));
        // Draining the ring unblocks cloning.
        hv.clone_ring_pop().unwrap();
        do_clone(&mut hv, p, 1);
    }

    fn dom0_clone(hv: &mut Hypervisor, target: DomId) -> DomId {
        match hv.cloneop(
            DomId::DOM0,
            CloneOp::Clone {
                target: Some(target),
                nr_clones: 1,
            },
        ) {
            Ok(CloneOpResult::Cloned(c)) => c[0],
            other => panic!("clone of {target} failed: {other:?}"),
        }
    }

    /// Sends on `sender`'s `port` and returns the domains it reached, in
    /// delivery order.
    fn fan_out(hv: &mut Hypervisor, sender: DomId, port: Port) -> Vec<DomId> {
        hv.drain_events();
        hv.send_event(sender, port).unwrap();
        hv.drain_events()
            .into_iter()
            .filter(|e| e.port == port && !e.dom.is_dom0())
            .map(|e| e.dom)
            .collect()
    }

    #[test]
    fn child_port_reaches_the_children_born_after_it_in_birth_order() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 8);
        let early = do_clone(&mut hv, p, 1)[0];
        let port = hv.evtchn_alloc_idc(p).unwrap();
        // The early child holds a channel of its own at that port number.
        let (early_port, _) = hv.evtchn_connect_pair(early, DomId::DOM0).unwrap();
        assert_eq!(early_port, port);
        let late = do_clone(&mut hv, p, 3);
        // The second child dies and a later child of the same parent
        // takes its id: it is reached last, where its birth puts it.
        hv.destroy_domain(late[1]).unwrap();
        let reborn = do_clone(&mut hv, p, 1)[0];
        assert_eq!(reborn, late[1], "lowest freed id is reused");
        let grandchild = dom0_clone(&mut hv, late[0]);

        let reached = fan_out(&mut hv, p, port);
        assert_eq!(reached, [late[0], late[2], reborn]);
        assert!(!reached.contains(&early), "born before the port");
        assert!(!reached.contains(&grandchild), "a grandchild is not bound");

        // A destroyed child drops out of the fan-out.
        hv.destroy_domain(late[2]).unwrap();
        assert_eq!(fan_out(&mut hv, p, port), [late[0], reborn]);

        // After the parent dies, a domain reusing its id at the same port
        // reaches only its own children, never the orphans.
        hv.destroy_domain(p).unwrap();
        let q = cloneable_guest(&mut hv, 8);
        assert_eq!(q, p, "lowest freed id is reused");
        let q_port = hv.evtchn_alloc_idc(q).unwrap();
        assert_eq!(q_port, port);
        assert!(fan_out(&mut hv, q, q_port).is_empty());
        let q_child = do_clone(&mut hv, q, 1)[0];
        assert_eq!(fan_out(&mut hv, q, q_port), [q_child]);
    }

    #[test]
    fn children_keep_creation_order_across_destroy_and_domid_reuse() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 8);
        let first = do_clone(&mut hv, p, 3);
        hv.destroy_domain(first[1]).unwrap();
        // The next batch reuses the middle child's id but is born later.
        let second = do_clone(&mut hv, p, 2);
        assert_eq!(second[0], first[1], "lowest freed id is reused");
        let kids: Vec<(u32, DomId)> = hv
            .domain(p)
            .unwrap()
            .children
            .iter()
            .map(|(&b, &c)| (b, c))
            .collect();
        assert_eq!(
            kids,
            [(0, first[0]), (2, first[2]), (3, second[0]), (4, second[1])]
        );
        assert!(
            hv.audit_ref_indices().is_empty(),
            "{:?}",
            hv.audit_ref_indices()
        );
    }

    #[test]
    fn orphan_has_no_ancestor_in_a_domain_reusing_its_parents_id() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let c = do_clone(&mut hv, p, 1)[0];
        hv.destroy_domain(p).unwrap();

        // An unrelated domain takes the dead parent's id and has a clone
        // of its own still waiting for its second stage.
        let q = cloneable_guest(&mut hv, 4);
        assert_eq!(q, p, "lowest freed id is reused");
        do_clone(&mut hv, q, 1);
        assert!(!hv.is_descendant(c, q));
        assert!(!hv.same_family(c, q));
        assert_eq!(
            hv.domain(c).unwrap().parent,
            None,
            "the orphan roots its own family"
        );
        // A late completion for the orphan must not resume the stranger.
        assert!(hv
            .cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .is_err());
        assert_eq!(hv.domain(q).unwrap().pending_stage2, 1);
        assert_eq!(hv.domain(q).unwrap().state, DomainState::PausedForClone);
        assert!(
            hv.audit_ref_indices().is_empty(),
            "{:?}",
            hv.audit_ref_indices()
        );
    }

    #[test]
    fn orphan_cloned_into_its_dead_parents_id_forms_no_cycle() {
        use std::sync::mpsc;
        use std::time::Duration;

        // A parent-link cycle makes the family walks spin forever, so the
        // scenario runs on its own thread under a deadline.
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut hv = hv();
            let p = cloneable_guest(&mut hv, 4);
            let c = do_clone(&mut hv, p, 1)[0];
            hv.destroy_domain(p).unwrap();
            let g = dom0_clone(&mut hv, c);
            assert_eq!(g, p, "the grandchild reuses the dead parent's id");
            let walks = (
                hv.same_family(g, c),
                hv.is_descendant(g, c),
                hv.is_descendant(c, g),
            );
            tx.send((walks, hv.domain(c).unwrap().parent, hv.audit_ref_indices()))
                .unwrap();
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok((walks, parent, audit)) => {
                worker.join().unwrap();
                assert_eq!(walks, (true, true, false));
                assert_eq!(parent, None);
                assert!(audit.is_empty(), "{audit:?}");
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("family walks did not return within 5 s: parent links form a cycle")
            }
        }
    }
}
