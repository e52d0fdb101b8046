//! State invariant auditor — the simulator's equivalent of Xen's debug-key
//! dumps, but checking instead of printing.
//!
//! [`Platform::audit`](crate::Platform::audit) cross-checks the redundant
//! state the components keep about each other and returns a structured
//! [`AuditReport`]. The invariants verified:
//!
//! 1. **Frame refcounts vs p2m back-references.** Every machine frame's
//!    metadata must agree with the set of p2m slots (and aux-frame lists)
//!    that reference it: free and Xen-owned frames are referenced by
//!    nobody, a domain-owned frame is referenced exactly once and only by
//!    its owner, and a COW frame's refcount equals the number of p2m slots
//!    pointing at it across all domains.
//! 2. **Incremental counters vs full scan.** The frame table maintains
//!    free/COW/Xen counts incrementally on every ownership transition;
//!    they must match a fresh O(frames) recount.
//! 3. **Grant entries vs frame ownership.** Active grants must name a
//!    live grantee (or the `DOMID_CHILD` wildcard) and a frame that is
//!    still allocated.
//! 4. **Event channels vs live domains.** Every connected interdomain
//!    channel must point at a live peer (or `DOMID_CHILD`).
//! 5. **Clone-ring entries vs live domains.** Queued clone notifications
//!    must reference parents and children that still exist.
//! 6. **Wildcard child bindings vs live domains.** The hypervisor's
//!    `DOMID_CHILD` binding fan-out tables must only list live clones.
//! 7. **Toolstack records vs hypervisor domains.** Every `xl` record must
//!    have a backing domain, and every running domain an `xl` record.
//! 8. **Xenstore tree vs registered devices.** Every running domain has
//!    its `/local/domain/<id>` home, and every vif the device manager
//!    knows about has both its frontend and backend directories. Every
//!    clone-mux member and every bridge MAC-table entry resolves to a
//!    registered vif of a live domain: a dead interface left in either
//!    silently drops the flows that hash or switch to it.
//! 9. **P2m overlays vs the family template.** Each domain's overlay must
//!    be canonical (no entry storing the same value as the shared base
//!    slot), in-range, and every mapped overlay slot must point at a
//!    frame the domain can legitimately reference (its own or `dom_cow`).
//! 10. **Checkpoint journals vs the p2m.** An armed KFX checkpoint's
//!     dirty_cow journal must name live COW frames matching the
//!     checkpoint-time layout, and every slot where the current overlay
//!     diverges from the checkpoint snapshot must be journaled — a
//!     divergence the journal misses is state `clone_reset` would leak.
//! 11. **Device bus vs the Xenstore device tree.** Every registered bus
//!     device has a live owner and all of its Xenstore nodes present,
//!     every device node is claimed by exactly one registered device,
//!     no live domain's device node exists without a registered owner
//!     (no orphan rings after detach-on-clone; dead domains' stale
//!     backend entries are legacy destroy behavior pinned by the
//!     determinism-gated figures), and each device's own invariants
//!     ([`CloneDevice::audit`](crate::CloneDevice::audit)) hold.
//! 12. *Retired.* It checked per-shard frame counters; the frame table
//!     now keeps one COW/Xen counter pair, which invariant 2 covers.
//! 13. **Scan-replacing indices vs the scans they replaced.** The hot
//!     paths look up maintained indices instead of scanning: the
//!     per-table event-channel peer and grant grantee indices, the
//!     hypervisor's referrer index (which domains' tables name which),
//!     the `DOMID_CHILD` fan-out registry's reverse indices, the
//!     toolstack's name index, and the device manager's vif indices (the
//!     TX/RX pending sets the event loop visits instead of every vif, and
//!     the IP index host sends resolve through). Each must agree exactly
//!     with a fresh recount over the ground-truth state — any divergence
//!     means a destroy or create would tear down the wrong (or miss the
//!     right) references, or a packet would wait in a ring nobody drains.
//!
//! The checks are read-only and O(total frames + domains + devices); they
//! run on demand, after every clone/destroy in debug builds, and after
//! every lifecycle operation under `NEPHELE_AUDIT=every-op`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use hypervisor::domain::DomainState;
use hypervisor::event::Channel;
use hypervisor::grant::GrantEntry;
use hypervisor::memory::FrameOwner;
use sim_core::{DomId, Mfn, Pfn};

use crate::platform::Platform;

/// One invariant violation found by [`Platform::audit`](crate::Platform::audit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which invariant failed (stable kebab-case tag, e.g.
    /// `frame-refcount`).
    pub invariant: &'static str,
    /// Human-readable description naming the offending frame/domain/port.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The outcome of a full state audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Number of individual cross-checks performed (a progress/coverage
    /// indicator; grows with platform size).
    pub checks: u64,
    /// Every violation found, in deterministic (frame/domain) order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean ({} checks)", self.checks);
        }
        writeln!(
            f,
            "audit FAILED: {} violation(s) in {} checks",
            self.violations.len(),
            self.checks
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Back-references to one machine frame gathered from domain state.
#[derive(Default, Clone, Copy)]
struct BackRefs {
    /// p2m slots pointing at the frame, across all domains.
    p2m: u32,
    /// Aux-frame list entries pointing at the frame.
    aux: u32,
    /// Keep-alive references held by checkpoint dirty_cow journals.
    journal: u32,
    /// The first domain seen referencing the frame.
    first_dom: u32,
}

/// Whether a domain is past construction and expected to have toolstack
/// and Xenstore state (freshly cloned children get theirs during the
/// second stage; `Created`/`Dying` domains are mid-transition).
fn fully_set_up(state: DomainState) -> bool {
    matches!(state, DomainState::Running | DomainState::Paused | DomainState::PausedForClone)
}

/// Render a p2m slot value for violation messages.
fn slot(v: Option<Mfn>) -> String {
    match v {
        Some(m) => m.to_string(),
        None => "unmapped".to_string(),
    }
}

pub(crate) fn run(p: &Platform) -> AuditReport {
    let mut report = AuditReport::default();
    let hv = &p.hv;

    // Gather p2m/aux back-references for every frame in one pass.
    let mut refs: HashMap<u64, BackRefs> = HashMap::new();
    for d in hv.domains() {
        for mfn in d.p2m.iter().flatten() {
            let r = refs.entry(mfn.0).or_default();
            if r.p2m == 0 && r.aux == 0 {
                r.first_dom = d.id.0;
            }
            r.p2m += 1;
        }
        for mfn in &d.aux_frames {
            let r = refs.entry(mfn.0).or_default();
            if r.p2m == 0 && r.aux == 0 {
                r.first_dom = d.id.0;
            }
            r.aux += 1;
        }
        // An armed checkpoint's dirty_cow journal holds one keep-alive
        // reference per journaled original (released on reset, re-
        // checkpoint, clone and destroy), so those count toward the COW
        // refcount like p2m slots do.
        if let Some(cp) = &d.checkpoint {
            for orig in cp.dirty_cow.values() {
                refs.entry(orig.0).or_default().journal += 1;
            }
        }
    }

    // 1. Per-frame metadata vs back-references.
    for (mfn, frame) in hv.frames().iter_frames() {
        report.checks += 1;
        let r = refs.get(&mfn.0).copied().unwrap_or_default();
        let total = r.p2m + r.aux;
        match frame.owner() {
            FrameOwner::Free => {
                if total != 0 || r.journal != 0 || frame.refcount() != 0 {
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!(
                            "free {mfn} still referenced ({} p2m, {} aux, {} journal refs, \
                             refcount {})",
                            r.p2m,
                            r.aux,
                            r.journal,
                            frame.refcount()
                        ),
                    });
                }
            }
            FrameOwner::Xen => {
                if total != 0 {
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!(
                            "xen-owned {mfn} referenced by guest state ({} p2m, {} aux refs)",
                            r.p2m, r.aux
                        ),
                    });
                }
            }
            FrameOwner::Dom(d) => {
                if !hv.domain_exists(d) {
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!("{mfn} owned by dead {d}"),
                    });
                } else if total != 1 || r.first_dom != d.0 {
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!(
                            "{mfn} owned by {d} must have exactly one back-reference from \
                             its owner, found {} p2m + {} aux (first from domain {})",
                            r.p2m, r.aux, r.first_dom
                        ),
                    });
                } else if frame.refcount() != 0 {
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!(
                            "exclusive {mfn} (owner {d}) has nonzero refcount {}",
                            frame.refcount()
                        ),
                    });
                }
            }
            FrameOwner::Cow => {
                if r.aux != 0 {
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!("cow {mfn} referenced by {} aux-frame entries", r.aux),
                    });
                }
                if frame.refcount() != r.p2m + r.journal {
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!(
                            "cow {mfn} refcount {} but {} p2m + {} journal references",
                            frame.refcount(),
                            r.p2m,
                            r.journal
                        ),
                    });
                }
            }
        }
    }

    // 2. Incremental owner counters vs full scan.
    report.checks += 1;
    let incremental = hv.frames().incremental_stats();
    let scanned = hv.frames().scan_stats();
    if incremental != scanned {
        report.violations.push(AuditViolation {
            invariant: "counter-drift",
            detail: format!("incremental stats {incremental:?} != scanned {scanned:?}"),
        });
    }

    let total_frames = hv.frames().total_frames();
    let live = |d: DomId| d == DomId::CHILD || hv.domain_exists(d);

    for d in hv.domains() {
        // 3. Grant entries vs frame ownership and grantee liveness.
        for (gref, entry) in d.grants.iter_active() {
            report.checks += 1;
            let GrantEntry::Access { grantee, mfn, .. } = entry else {
                continue;
            };
            if !live(*grantee) {
                report.violations.push(AuditViolation {
                    invariant: "grant-liveness",
                    detail: format!("{} grant {gref} names dead grantee {grantee}", d.id),
                });
            }
            if mfn.0 >= total_frames
                || matches!(hv.frames().inspect(*mfn).map(|f| f.owner()), Ok(FrameOwner::Free))
            {
                report.violations.push(AuditViolation {
                    invariant: "grant-frame",
                    detail: format!("{} grant {gref} names unallocated {mfn}", d.id),
                });
            }
        }

        // 4. Interdomain channels vs live peers.
        for (port, ch) in d.evtchn.iter_active() {
            report.checks += 1;
            if let Channel::Interdomain { remote_dom, .. } = ch {
                if !live(*remote_dom) {
                    report.violations.push(AuditViolation {
                        invariant: "channel-liveness",
                        detail: format!("{} port {port} connected to dead {remote_dom}", d.id),
                    });
                }
            }
        }

        // 9. P2m overlay vs the family template: canonical, in-range,
        // and every mapped divergence names a frame this domain can
        // legitimately reference.
        for (idx, val) in d.p2m.overlay_entries() {
            report.checks += 1;
            if idx >= d.p2m.len() as u64 {
                report.violations.push(AuditViolation {
                    invariant: "p2m-overlay",
                    detail: format!(
                        "{} overlay slot {idx} is past the p2m length {}",
                        d.id,
                        d.p2m.len()
                    ),
                });
                continue;
            }
            if val == d.p2m.base_get(idx as usize) {
                report.violations.push(AuditViolation {
                    invariant: "p2m-overlay",
                    detail: format!(
                        "{} overlay slot {idx} redundantly stores the template value {} \
                         (non-canonical overlay)",
                        d.id,
                        slot(val)
                    ),
                });
            }
            if let Some(mfn) = val {
                let owner = if mfn.0 < total_frames {
                    hv.frames().inspect(mfn).ok().map(|f| f.owner())
                } else {
                    None
                };
                let legitimate = matches!(owner, Some(FrameOwner::Cow))
                    || owner == Some(FrameOwner::Dom(d.id));
                if !legitimate {
                    report.violations.push(AuditViolation {
                        invariant: "p2m-overlay",
                        detail: format!(
                            "{} overlay slot {idx} maps {mfn}, which is not a cow frame \
                             or one of the domain's own ({owner:?})",
                            d.id
                        ),
                    });
                }
            }
        }

        // 10. Armed checkpoint journals vs the live p2m.
        if let Some(cp) = &d.checkpoint {
            for (pfn, orig) in &cp.dirty_cow {
                report.checks += 1;
                // The journaled original must still be a live COW frame
                // (its keep-alive reference guarantees it) and must be
                // what the checkpoint-time layout mapped at this slot.
                let still_cow = orig.0 < total_frames
                    && matches!(
                        hv.frames().inspect(*orig).map(|f| f.owner()),
                        Ok(FrameOwner::Cow)
                    );
                if !still_cow {
                    report.violations.push(AuditViolation {
                        invariant: "checkpoint",
                        detail: format!(
                            "{} dirty_cow journal for {pfn} names {orig}, which is no \
                             longer a live cow frame",
                            d.id
                        ),
                    });
                }
                let cp_view = cp
                    .overlay
                    .get(&pfn.0)
                    .copied()
                    .unwrap_or_else(|| d.p2m.base_get(pfn.0 as usize));
                if cp_view != Some(*orig) {
                    report.violations.push(AuditViolation {
                        invariant: "checkpoint",
                        detail: format!(
                            "{} dirty_cow journal for {pfn} names {orig} but the \
                             checkpoint layout mapped {}",
                            d.id,
                            slot(cp_view)
                        ),
                    });
                }
            }
            // Journaled pre-images only make sense for pages the domain
            // owns outright: private writes and last-sharer transfers
            // both leave the slot dom-owned until reset or release.
            for pfn in cp.dirty_transfer.keys().chain(cp.dirty_private.keys()) {
                report.checks += 1;
                let owner = d
                    .lookup(*pfn)
                    .and_then(|m| hv.frames().inspect(m).ok().map(|f| f.owner()));
                if owner != Some(FrameOwner::Dom(d.id)) {
                    report.violations.push(AuditViolation {
                        invariant: "checkpoint",
                        detail: format!(
                            "{} journaled a pre-image for {pfn} but the slot is not \
                             backed by a domain-owned frame ({owner:?})",
                            d.id
                        ),
                    });
                }
            }
            // Journal completeness: every slot where the live overlay
            // diverges from the checkpoint snapshot must be a journaled
            // COW fault — a divergence the journal misses is state a
            // reset would leak.
            let mut idxs: BTreeSet<u64> = d.p2m.overlay_entries().map(|(i, _)| i).collect();
            idxs.extend(cp.overlay.keys().copied());
            for idx in idxs {
                report.checks += 1;
                let now = d.p2m.get(idx as usize);
                let then = cp
                    .overlay
                    .get(&idx)
                    .copied()
                    .unwrap_or_else(|| d.p2m.base_get(idx as usize));
                if now != then && !cp.dirty_cow.contains_key(&Pfn(idx)) {
                    report.violations.push(AuditViolation {
                        invariant: "checkpoint",
                        detail: format!(
                            "{} p2m slot {idx} diverged from its checkpoint ({} -> {}) \
                             without a dirty_cow journal entry",
                            d.id,
                            slot(then),
                            slot(now)
                        ),
                    });
                }
            }
        }

        // 7. Running domains must have a toolstack record (clones gain
        // theirs during the second stage).
        if !d.id.is_dom0() && fully_set_up(d.state) {
            report.checks += 1;
            if p.xl.record(d.id).is_none() {
                report.violations.push(AuditViolation {
                    invariant: "toolstack-record",
                    detail: format!("{} ({:?}) has no xl record", d.id, d.state),
                });
            }
            // 8a. ... and a Xenstore home.
            report.checks += 1;
            if !p.xs.exists(&format!("/local/domain/{}", d.id.0)) {
                report.violations.push(AuditViolation {
                    invariant: "xenstore-tree",
                    detail: format!("{} ({:?}) has no /local/domain entry", d.id, d.state),
                });
            }
        }
    }

    // 5. Clone-ring entries vs live domains.
    for n in hv.clone_ring_pending() {
        report.checks += 1;
        if !hv.domain_exists(n.parent) || !hv.domain_exists(n.child) {
            report.violations.push(AuditViolation {
                invariant: "clone-ring",
                detail: format!(
                    "queued notification references dead domain (parent {}, child {})",
                    n.parent, n.child
                ),
            });
        }
    }

    // 6. DOMID_CHILD fan-out bindings vs live domains.
    for ((parent, port), bindings) in hv.child_bindings() {
        for (child, child_port) in bindings {
            report.checks += 1;
            if !hv.domain_exists(DomId(parent)) || !hv.domain_exists(child) {
                report.violations.push(AuditViolation {
                    invariant: "child-binding",
                    detail: format!(
                        "wildcard binding domain {parent} port {port} -> {child} port \
                         {child_port} references a dead domain"
                    ),
                });
            }
        }
    }

    // 7b. Toolstack records vs hypervisor domains.
    for (name, dom) in p.xl.list() {
        report.checks += 1;
        if !hv.domain_exists(dom) {
            report.violations.push(AuditViolation {
                invariant: "toolstack-record",
                detail: format!("xl record \"{name}\" names dead {dom}"),
            });
        }
    }

    // 8b. Registered vifs vs the Xenstore tree.
    for (dom, devid) in p.dm.all_vif_keys() {
        report.checks += 1;
        if !hv.domain_exists(dom) {
            report.violations.push(AuditViolation {
                invariant: "device-liveness",
                detail: format!("vif {devid} registered for dead {dom}"),
            });
            continue;
        }
        let frontend = format!("/local/domain/{}/device/vif/{devid}", dom.0);
        let backend = format!("/local/domain/0/backend/vif/{}/{devid}", dom.0);
        if !p.xs.exists(&frontend) || !p.xs.exists(&backend) {
            report.violations.push(AuditViolation {
                invariant: "xenstore-tree",
                detail: format!("vif {}/{devid} missing frontend or backend entry", dom.0),
            });
        }
    }

    // 8d. Host attachments vs live vifs: every clone-mux member and every
    // bridge MAC-table entry must name the interface of a registered vif
    // whose domain is alive.
    let members = p.dm.mux().map_or(&[][..], |m| m.members());
    let attachments = members
        .iter()
        .map(|i| (format!("clone-mux member iface {}", i.0), *i))
        .chain(
            p.dm.mac_table()
                .into_iter()
                .map(|(mac, i)| (format!("MAC-table entry {mac} -> iface {}", i.0), i)),
        );
    for (what, iface) in attachments {
        report.checks += 1;
        let detail = match p.dm.iface_target(iface) {
            None => format!("{what} names no registered vif"),
            Some((dom, devid)) if p.dm.vif(dom, devid).is_none() => {
                format!("{what} names vif {}/{devid}, which is not registered", dom.0)
            }
            Some((dom, devid)) if !hv.domain_exists(dom) => {
                format!("{what} names vif {}/{devid} of dead {dom}", dom.0)
            }
            Some(_) => continue,
        };
        report.violations.push(AuditViolation { invariant: "device-liveness", detail });
    }

    // 11. Device bus vs the Xenstore device tree. First pass: every
    // registered device has a live owner, its nodes exist, and its own
    // invariants hold; each node is claimed by exactly one device.
    let mut claimed: BTreeMap<String, u32> = BTreeMap::new();
    for dev in p.dm.bus().all() {
        report.checks += 1;
        let id = dev.id();
        let owner = dev.owner();
        if !hv.domain_exists(owner) {
            report.violations.push(AuditViolation {
                invariant: "device-bus",
                detail: format!(
                    "{} {} registered on the bus for dead {owner}",
                    id.class.name(),
                    id.devid
                ),
            });
            continue;
        }
        for path in dev.xenstore_paths() {
            report.checks += 1;
            if !p.xs.exists(&path) {
                report.violations.push(AuditViolation {
                    invariant: "device-bus",
                    detail: format!(
                        "{} {} of {owner} is missing its Xenstore node {path}",
                        id.class.name(),
                        id.devid
                    ),
                });
            }
            *claimed.entry(path).or_default() += 1;
        }
        for detail in dev.audit(&p.dm, &p.xs) {
            report.violations.push(AuditViolation { invariant: "device-bus", detail });
        }
    }
    for (path, n) in claimed.iter().filter(|(_, n)| **n > 1) {
        report.violations.push(AuditViolation {
            invariant: "device-bus",
            detail: format!("Xenstore node {path} claimed by {n} bus devices"),
        });
    }

    // Second pass: walk the actual device nodes (frontends per live
    // domain, backends under Dom0) — each must belong to a registered
    // device. An unclaimed node is an orphan: exactly what a buggy
    // detach-on-clone would leave behind. The backend walk is scoped to
    // live domains: the legacy toolstack leaves a destroyed domain's
    // backend entries in place, and the determinism-gated figures pin
    // that behavior (every Xenstore charge scales with the store's
    // entry count).
    let mut device_nodes: Vec<String> = Vec::new();
    for d in hv.domains() {
        if d.id.is_dom0() {
            continue;
        }
        let home = format!("/local/domain/{}", d.id.0);
        let console = format!("{home}/console");
        if p.xs.exists(&console) {
            device_nodes.push(console);
        }
        for class in p.xs.peek_directory(&format!("{home}/device")) {
            for devid in p.xs.peek_directory(&format!("{home}/device/{class}")) {
                device_nodes.push(format!("{home}/device/{class}/{devid}"));
            }
        }
    }
    for class in p.xs.peek_directory("/local/domain/0/backend") {
        for domid in p.xs.peek_directory(&format!("/local/domain/0/backend/{class}")) {
            let alive = domid
                .parse::<u32>()
                .map(|d| hv.domain_exists(DomId(d)))
                .unwrap_or(false);
            if !alive {
                continue;
            }
            for devid in
                p.xs.peek_directory(&format!("/local/domain/0/backend/{class}/{domid}"))
            {
                device_nodes.push(format!("/local/domain/0/backend/{class}/{domid}/{devid}"));
            }
        }
    }
    for node in device_nodes {
        report.checks += 1;
        if !claimed.contains_key(&node) {
            report.violations.push(AuditViolation {
                invariant: "device-bus",
                detail: format!("device node {node} has no registered bus device (orphan)"),
            });
        }
    }

    // 8c. The persistent Xenstore tree's internal accounting: cached
    // per-node entry counts, the store-level entry count, and the
    // sharing walk's logical total must all agree.
    report.checks += 1;
    if let Err(e) = p.xs.audit_tree() {
        report.violations.push(AuditViolation {
            invariant: "xenstore-count",
            detail: e,
        });
    }

    // 13. Scan-replacing indices vs the scans they replaced: the
    // hypervisor's per-table and referrer indices, the fan-out
    // registry's reverse indices, the toolstack's name index, and the
    // device manager's pending sets and IP index.
    report.checks += 1;
    for detail in hv.audit_ref_indices() {
        report.violations.push(AuditViolation { invariant: "index-consistency", detail });
    }
    report.checks += 1;
    for detail in p.xl.audit_name_index() {
        report.violations.push(AuditViolation { invariant: "index-consistency", detail });
    }
    report.checks += 1;
    for detail in p.dm.audit_vif_indices() {
        report.violations.push(AuditViolation { invariant: "index-consistency", detail });
    }

    report
}
