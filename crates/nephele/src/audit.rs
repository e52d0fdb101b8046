//! State invariant auditor — the simulator's equivalent of Xen's debug-key
//! dumps, but checking instead of printing.
//!
//! [`Platform::audit`](crate::Platform::audit) cross-checks the redundant
//! state the components keep about each other and returns a structured
//! [`AuditReport`]. The invariants verified:
//!
//! 1. **Frame refcounts vs p2m back-references.** Every machine frame's
//!    metadata must agree with the p2m slots, aux-frame entries and
//!    checkpoint journal entries that reference it: free and Xen-owned
//!    frames are referenced by nobody, a domain-owned frame is referenced
//!    exactly once and only by its owner, and a COW frame's refcount
//!    equals the number of p2m slots and journal entries pointing at it
//!    across all domains. The references are gathered per p2m template,
//!    not per domain: each distinct template is walked once, weighted by
//!    the number of domains holding it, and each domain's overlay, aux
//!    frames and journal are then applied as corrections. The sums equal
//!    a walk of every domain's merged p2m exactly.
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
//! 6. *Retired.* It checked the hypervisor's `DOMID_CHILD` fan-out
//!    registry; a parent-side send now walks the sender's live children
//!    and their own channel tables, so there is no second copy to check.
//! 7. **Toolstack records vs hypervisor domains.** Every `xl` record must
//!    have a backing domain, and every running domain an `xl` record.
//! 8. **Xenstore homes and host attachments.** Every running domain has
//!    its `/local/domain/<id>` home. Every clone-mux member and every
//!    bridge MAC-table entry resolves to a registered vif of a live
//!    domain: a dead interface left in either silently drops the flows
//!    that hash or switch to it. (A vif's own Xenstore nodes are checked
//!    with every other device's by invariant 11.)
//! 9. **P2m overlays vs the family template.** Each domain's overlay must
//!    be canonical (no entry storing the same value as the shared base
//!    slot), in-range, and every mapped overlay slot must point at a
//!    frame the domain can legitimately reference (its own or `dom_cow`).
//! 10. **Checkpoint journals vs the p2m.** An armed KFX checkpoint's
//!     dirty_cow journal must name live COW frames matching the
//!     checkpoint-time layout, and every slot where the current overlay
//!     diverges from the checkpoint snapshot must be journaled — a
//!     divergence the journal misses is state `clone_reset` would leak.
//! 11. **Devices vs the Xenstore device tree.** Every device the device
//!     manager holds ([`all_devices`](devices::DeviceManager::all_devices))
//!     has a live owner and all of its Xenstore nodes present, no live
//!     domain's device node exists without a held device of its `(owner,
//!     class, devid)` key (no orphan nodes, including nodes of a class
//!     the platform does not model; dead domains' stale backend entries
//!     are legacy destroy behavior pinned by the determinism-gated
//!     figures), and each device's own invariants
//!     ([`audit_device`](devices::DeviceManager::audit_device)) hold. The
//!     old invariant 8b, each vif's nodes, is part of this one.
//! 12. *Retired.* It checked per-shard frame counters; the frame table
//!     now keeps one COW/Xen counter pair, which invariant 2 covers.
//! 13. **Scan-replacing indices vs the scans they replaced.** The hot
//!     paths look up maintained indices instead of scanning: the
//!     per-table event-channel peer and grant grantee indices, the
//!     hypervisor's referrer index (which domains' tables name which),
//!     the device manager's vif indices (the TX/RX pending sets the event
//!     loop visits instead of every vif, and the IP index host sends
//!     resolve through), and the clone-family links (each `parent` link
//!     names a live domain holding the child under its birth key, and
//!     each `children` entry links back). Each
//!     must agree exactly with a fresh recount over the ground-truth
//!     state — any divergence means a destroy or create would tear down
//!     the wrong (or miss the right) references, or a packet would wait
//!     in a ring nobody drains.
//!
//! The checks are read-only, and their cost follows the distinct state,
//! not the mapped slots. Gathering back-references costs O(domains +
//! template slots + overlay entries + aux frames + journal entries), into
//! one 16-byte entry per frame the table has handed out. Invariant 1 then visits
//! every frame of the pool once, the Xenstore accounting check visits
//! every distinct tree node once, and the other checks are O(domains +
//! devices + grants + channels + index entries). The audit runs on
//! demand, after every clone/destroy in debug builds, and after every
//! lifecycle operation under `NEPHELE_AUDIT=every-op`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write};

use devices::bus::{DeviceClass, DeviceId};
use hypervisor::domain::DomainState;
use hypervisor::event::Channel;
use hypervisor::grant::GrantEntry;
use hypervisor::memory::FrameOwner;
use hypervisor::p2m::P2m;
use hypervisor::Hypervisor;
use sim_core::{DomId, Mfn, Pfn};
use xenstore::tree::Node;

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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BackRefs {
    /// p2m slots pointing at the frame, across all domains.
    p2m: u32,
    /// Aux-frame list entries pointing at the frame.
    aux: u32,
    /// Keep-alive references held by checkpoint dirty_cow journals.
    journal: u32,
    /// Wrapping sum of the referring domain ids, one term per p2m or aux
    /// reference. When the frame has exactly one such reference, this is
    /// the domain holding it.
    doms: u32,
}

/// Every frame's [`BackRefs`], indexed by frame number. A frame the table
/// has handed out has a slot; a reference to any other frame (one never
/// used, or one past the pool) is corruption and is kept in `stray`, so
/// it is still counted and reported.
struct BackRefIndex {
    handed_out: Vec<BackRefs>,
    stray: BTreeMap<u64, BackRefs>,
}

impl BackRefIndex {
    fn at(&mut self, mfn: Mfn) -> &mut BackRefs {
        match self.handed_out.get_mut(mfn.0 as usize) {
            Some(r) => r,
            None => self.stray.entry(mfn.0).or_default(),
        }
    }

    fn get(&self, mfn: Mfn) -> BackRefs {
        self.handed_out
            .get(mfn.0 as usize)
            .or_else(|| self.stray.get(&mfn.0))
            .copied()
            .unwrap_or_default()
    }

    /// `n` p2m references from domains whose ids sum to `doms`.
    fn add_p2m(&mut self, mfn: Mfn, n: u32, doms: u32) {
        let r = self.at(mfn);
        r.p2m += n;
        r.doms = r.doms.wrapping_add(doms);
    }

    /// Gathers every frame's back-references in time and memory that
    /// follow the distinct state, not the mapped slots. Each p2m template
    /// is walked once, each mapped slot weighted by the number of domains
    /// holding the template. Each domain's overlay then corrects its own
    /// view: an entry drops the template slot's reference and adds its
    /// own, so a non-canonical entry nets to zero as it does in the
    /// merged view, and entries past the p2m length are skipped as
    /// [`P2m::iter`] skips them. The sums equal a walk of every domain's
    /// merged view exactly.
    fn gather(hv: &Hypervisor) -> Self {
        let mut index = BackRefIndex {
            handed_out: vec![BackRefs::default(); hv.frames().handed_out() as usize],
            stray: BTreeMap::new(),
        };
        // Template address -> (holders, wrapping sum of their ids, one
        // p2m holding it).
        let mut templates: HashMap<usize, (u32, u32, &P2m)> = HashMap::new();
        for d in hv.domains() {
            let t = templates.entry(d.p2m.base_addr()).or_insert((0, 0, &d.p2m));
            t.0 += 1;
            t.1 = t.1.wrapping_add(d.id.0);
        }
        for (holders, doms, p2m) in templates.into_values() {
            for mfn in (0..p2m.base_len()).filter_map(|i| p2m.base_get(i)) {
                index.add_p2m(mfn, holders, doms);
            }
        }
        for d in hv.domains() {
            let len = d.p2m.len() as u64;
            for (idx, val) in d.p2m.overlay_entries().take_while(|&(i, _)| i < len) {
                if let Some(base) = d.p2m.base_get(idx as usize) {
                    let r = index.at(base);
                    r.p2m -= 1;
                    r.doms = r.doms.wrapping_sub(d.id.0);
                }
                if let Some(mfn) = val {
                    index.add_p2m(mfn, 1, d.id.0);
                }
            }
            for &mfn in &d.aux_frames {
                let r = index.at(mfn);
                r.aux += 1;
                r.doms = r.doms.wrapping_add(d.id.0);
            }
            // An armed checkpoint's dirty_cow journal holds one keep-alive
            // reference per journaled original (released on reset, re-
            // checkpoint, clone and destroy), so those count toward the
            // COW refcount like p2m slots do.
            if let Some(cp) = &d.checkpoint {
                for &orig in cp.dirty_cow.values() {
                    index.at(orig).journal += 1;
                }
            }
        }
        index
    }
}

/// `n` in decimal, written into `buf`: a Xenstore node name, formatted
/// without an allocation once `buf` has grown.
fn decimal(buf: &mut String, n: u32) -> &str {
    buf.clear();
    write!(buf, "{n}").expect("formatting into a String cannot fail");
    buf
}

/// The node `names` lead to from `base`, one child lookup per name.
fn child_at<'a>(base: Option<&'a Node>, names: &[&str]) -> Option<&'a Node> {
    names.iter().try_fold(base?, |node, name| node.child(name))
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

    // 1. Per-frame metadata vs back-references.
    let refs = BackRefIndex::gather(hv);
    for (mfn, frame) in hv.frames().iter_frames() {
        report.checks += 1;
        let r = refs.get(mfn);
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
                } else if total != 1 || r.doms != d.0 {
                    let from = if total == 1 {
                        format!(", from domain {}", r.doms)
                    } else {
                        String::new()
                    };
                    report.violations.push(AuditViolation {
                        invariant: "frame-refcount",
                        detail: format!(
                            "{mfn} owned by {d} must have exactly one back-reference from \
                             its owner, found {} p2m + {} aux{from}",
                            r.p2m, r.aux
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

    // The index is the audit's largest allocation. Dropping it here lets
    // the Xenstore walks below reuse its memory instead of adding to it.
    drop(refs);

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

    // 7b. Toolstack records vs hypervisor domains.
    for r in p.xl.records() {
        report.checks += 1;
        if !hv.domain_exists(r.id) {
            report.violations.push(AuditViolation {
                invariant: "toolstack-record",
                detail: format!("xl record \"{}\" names dead {}", r.name, r.id),
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

    // 11. Devices vs the Xenstore device tree. Both passes look nodes up
    // below handles on `/local/domain` and on Dom0's backend directory,
    // one child per level, and format a path only for a violation. First
    // pass: every device the device manager holds has a live owner, its
    // nodes exist, and its own invariants hold.
    let devices = p.dm.all_devices();
    let homes = p.xs.subtree("/local/domain");
    let backends = p.xs.subtree("/local/domain/0/backend");
    let (mut owner_buf, mut devid_buf) = (String::new(), String::new());
    for &(owner, id) in &devices {
        report.checks += 1;
        let (class, devid) = (id.class.name(), id.devid);
        if !hv.domain_exists(owner) {
            report.violations.push(AuditViolation {
                invariant: "device-bus",
                detail: format!("{class} {devid} held for dead {owner}"),
            });
            continue;
        }
        // The nodes `DeviceId::frontend_dir` and `backend_dir` name.
        let (o, i) = (decimal(&mut owner_buf, owner.0), decimal(&mut devid_buf, devid));
        let (front, back) = match id.class {
            DeviceClass::Console => (child_at(homes.node(), &[o, "console"]), None),
            _ => (
                child_at(homes.node(), &[o, "device", class, i]),
                Some(child_at(backends.node(), &[class, o, i])),
            ),
        };
        let missing = |path: String| AuditViolation {
            invariant: "device-bus",
            detail: format!("{class} {devid} of {owner} is missing its Xenstore node {path}"),
        };
        report.checks += 1;
        if front.is_none() {
            report.violations.push(missing(id.frontend_dir(owner)));
        }
        if let Some(back) = back {
            report.checks += 1;
            if back.is_none() {
                let path = id.backend_dir(owner).expect("a split device has a backend");
                report.violations.push(missing(path));
            }
        }
        for detail in p.dm.audit_device(owner, id) {
            report.violations.push(AuditViolation { invariant: "device-bus", detail });
        }
    }

    // Second pass: walk the actual device nodes (frontends per live
    // domain, backends under Dom0) — each must name, by its `(owner,
    // class, devid)` key, a device the manager holds. An unheld node is
    // an orphan, and so is every node of a class the platform does not
    // model. The console keeps its one node at the top of the home, so a
    // `console` directory among the device classes is an orphan too. The
    // backend walk is scoped to live domains: the legacy toolstack leaves
    // a destroyed domain's backend entries in place, and the
    // determinism-gated figures pin that behavior (every Xenstore charge
    // scales with the store's entry count).
    let held = |owner: DomId, class: Option<DeviceClass>, devid: &str| {
        let (Some(class), Ok(devid)) = (class, devid.parse()) else {
            return false;
        };
        devices
            .binary_search(&(owner, DeviceId::new(class, devid)))
            .is_ok()
    };
    let dir_class = |name: &str| {
        DeviceClass::ALL
            .into_iter()
            .find(|c| *c != DeviceClass::Console && c.name() == name)
    };
    let mut orphans: Vec<String> = Vec::new();
    for d in hv.domains() {
        if d.id.is_dom0() {
            continue;
        }
        let Some(home) = child_at(homes.node(), &[decimal(&mut owner_buf, d.id.0)]) else {
            continue;
        };
        if home.child("console").is_some() {
            report.checks += 1;
            if !held(d.id, Some(DeviceClass::Console), "0") {
                orphans.push(DeviceId::new(DeviceClass::Console, 0).frontend_dir(d.id));
            }
        }
        for (class, dir) in home.child("device").into_iter().flat_map(Node::children) {
            for (devid, _) in dir.children() {
                report.checks += 1;
                if !held(d.id, dir_class(class), devid) {
                    orphans.push(format!("/local/domain/{}/device/{class}/{devid}", d.id.0));
                }
            }
        }
    }
    for (class, dir) in backends.node().into_iter().flat_map(Node::children) {
        for (domid, devs) in dir.children() {
            let Some(owner) = domid
                .parse()
                .ok()
                .map(DomId)
                .filter(|d| hv.domain_exists(*d))
            else {
                continue;
            };
            for (devid, _) in devs.children() {
                report.checks += 1;
                if !held(owner, dir_class(class), devid) {
                    orphans.push(format!("/local/domain/0/backend/{class}/{domid}/{devid}"));
                }
            }
        }
    }
    for node in orphans {
        report.violations.push(AuditViolation {
            invariant: "device-bus",
            detail: format!("device node {node} has no held device (orphan)"),
        });
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
    // hypervisor's per-table and referrer indices, and the device
    // manager's pending sets and IP index.
    report.checks += 1;
    for detail in hv.audit_ref_indices() {
        report.violations.push(AuditViolation { invariant: "index-consistency", detail });
    }
    report.checks += 1;
    for detail in p.dm.audit_vif_indices() {
        report.violations.push(AuditViolation { invariant: "index-consistency", detail });
    }

    report
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use hypervisor::cloneop::CloneOp;
    use testkit::prop::{check, ranges, vecs, Gen};
    use toolstack::{DomainConfig, KernelImage};

    use super::*;
    use crate::platform::{AuditMode, PlatformConfig};

    /// The per-domain walk the template-weighted gather replaced: every
    /// mapped slot of every domain's merged p2m, every aux frame and every
    /// journal entry, one map update each. Also returns the first domain
    /// seen referencing each frame (through its p2m or aux frames), which
    /// is what that walk named.
    fn per_domain_walk(hv: &Hypervisor) -> (HashMap<u64, BackRefs>, HashMap<u64, u32>) {
        let mut refs: HashMap<u64, BackRefs> = HashMap::new();
        let mut first: HashMap<u64, u32> = HashMap::new();
        for d in hv.domains() {
            let slots = d.p2m.iter().flatten().map(|m| (m, false));
            for (mfn, aux) in slots.chain(d.aux_frames.iter().map(|&m| (m, true))) {
                let r = refs.entry(mfn.0).or_default();
                if aux {
                    r.aux += 1;
                } else {
                    r.p2m += 1;
                }
                r.doms = r.doms.wrapping_add(d.id.0);
                first.entry(mfn.0).or_insert(d.id.0);
            }
            if let Some(cp) = &d.checkpoint {
                for orig in cp.dirty_cow.values() {
                    refs.entry(orig.0).or_default().journal += 1;
                }
            }
        }
        (refs, first)
    }

    /// Compares every frame's gathered back-references with the
    /// per-domain walk's, and checks that a frame with exactly one p2m or
    /// aux reference names the domain the walk saw first.
    fn assert_gather_matches_walk(hv: &Hypervisor, after: &str) {
        let gathered = BackRefIndex::gather(hv);
        let (walked, first) = per_domain_walk(hv);
        let frames = (0..gathered.handed_out.len() as u64)
            .chain(gathered.stray.keys().copied())
            .chain(walked.keys().copied());
        for mfn in frames {
            let want = walked.get(&mfn).copied().unwrap_or_default();
            let got = gathered.get(Mfn(mfn));
            assert_eq!(got, want, "{} after {after}", Mfn(mfn));
            if want.p2m + want.aux == 1 {
                assert_eq!(got.doms, first[&mfn], "{} after {after}", Mfn(mfn));
            }
        }
    }

    /// One step of a random family tape. Indices select from the live
    /// domains modulo their count at execution time.
    #[derive(Debug, Clone)]
    enum Op {
        /// Clone domain `idx` into `nr` children.
        Clone { idx: u64, nr: u64 },
        /// Write a byte to a page of domain `idx` (a COW fault on a
        /// shared frame).
        Write { idx: u64, pfn: u64, val: u64 },
        /// Privatize one page of domain `idx` through `clone_cow`.
        CloneCow { idx: u64, pfn: u64 },
        /// Arm (or re-arm) domain `idx`'s checkpoint.
        Checkpoint { idx: u64 },
        /// Reset domain `idx` to its checkpoint.
        Reset { idx: u64 },
        /// Save domain `idx` and restore it, onto a fresh template.
        SaveRestore { idx: u64 },
        /// Destroy domain `idx`.
        Destroy { idx: u64 },
    }

    fn ops_gen() -> impl Gen<Value = Vec<Op>> {
        vecs(
            (ranges(0u64..8), ranges(0u64..64), ranges(0u64..1024), ranges(0u64..256)).map(
                |(kind, idx, pfn, val)| match kind {
                    0 | 1 => Op::Clone { idx, nr: 1 + val % 3 },
                    2 => Op::Write { idx, pfn, val },
                    3 => Op::CloneCow { idx, pfn },
                    4 => Op::Checkpoint { idx },
                    5 => Op::Reset { idx },
                    6 => Op::SaveRestore { idx },
                    _ => Op::Destroy { idx },
                },
            ),
            1..20,
        )
    }

    /// The template-weighted gather equals the per-domain walk it
    /// replaced, frame by frame, after every op of random tapes that
    /// clone clones and restored domains, fault and privatize pages, arm
    /// and reset checkpoints, save, restore and destroy in any order.
    #[test]
    fn template_weighted_gather_equals_the_per_domain_walk() {
        let img = KernelImage::minios("gather");
        let cfg = DomainConfig::builder("gather")
            .memory_mib(4)
            .vif(Ipv4Addr::new(10, 0, 0, 2))
            .max_clones(256)
            .build();
        check(25, |g| {
            let ops = g.draw(&ops_gen());
            let mut p = Platform::new(
                PlatformConfig::builder()
                    .guest_pool_mib(256)
                    .audit(AuditMode::Off)
                    .flightrec_dumps(false)
                    .build(),
            );
            let mut live = vec![p.launch_plain(&cfg, &img).expect("root boot")];
            let mut slot = 0u32;
            for (step, op) in ops.iter().enumerate() {
                let pick = |idx: u64| live[idx as usize % live.len()];
                match *op {
                    Op::Clone { idx, nr } => {
                        if let Ok(kids) = p.clone_domain(pick(idx), nr as u32) {
                            live.extend(kids);
                        }
                    }
                    Op::Write { idx, pfn, val } => {
                        let _ = p.hv.write_page(pick(idx), Pfn(pfn), 0, &[val as u8]);
                    }
                    Op::CloneCow { idx, pfn } => {
                        let op = CloneOp::CloneCow { dom: pick(idx), pfns: vec![Pfn(pfn)] };
                        let _ = p.hv.cloneop(DomId::DOM0, op);
                    }
                    Op::Checkpoint { idx } => {
                        let _ = p.hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: pick(idx) });
                    }
                    Op::Reset { idx } => {
                        let _ = p.hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: pick(idx) });
                    }
                    Op::SaveRestore { idx } => {
                        let dom = pick(idx);
                        let name = format!("slot-{slot}");
                        slot += 1;
                        let saved =
                            p.xl.save(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, dom, &name, &img);
                        if saved.is_ok() {
                            live.retain(|&d| d != dom);
                            let restored = p
                                .xl
                                .restore(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, &name, None)
                                .expect("restore a saved domain");
                            live.push(restored.id);
                        }
                    }
                    Op::Destroy { idx } => {
                        if live.len() > 1 {
                            let dom = live.remove(idx as usize % live.len());
                            p.destroy(dom).expect("destroy a live domain");
                        }
                    }
                }
                assert_gather_matches_walk(&p.hv, &format!("{:?}", &ops[..=step]));
            }
            let report = p.audit();
            assert!(report.is_clean(), "after {ops:?}:\n{report}");
        });
    }
}
