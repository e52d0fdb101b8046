//! Per-domain state: the simulator's `struct domain`.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use sim_core::{DomId, Mfn, Pfn};

use crate::event::EventChannels;
use crate::grant::GrantTable;
use crate::memory::PageContent;
use crate::p2m::{P2m, P2mOverlay};
use crate::vcpu::Vcpu;

/// Lifecycle state of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainState {
    /// Being constructed by the toolstack.
    Created,
    /// Schedulable.
    Running,
    /// Explicitly paused.
    Paused,
    /// Parent paused while clones complete their second stage (§5: "the
    /// parent domain is paused until the completion of second stage").
    PausedForClone,
    /// Freshly cloned child waiting for second-stage completion.
    PausedAfterClone,
    /// Being torn down.
    Dying,
}

/// What to do with a private page when cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivatePolicy {
    /// Duplicate the parent's contents into the child's fresh frame (e.g.
    /// network rings, whose contents are tied to in-flight guest state).
    Copy,
    /// Give the child a fresh zeroed frame (e.g. the console ring, which is
    /// deliberately not duplicated to keep child output separate, §4.2).
    Fresh,
    /// Duplicate and then rewrite domain-specific references (e.g. the
    /// `start_info` page, which embeds the domain id and private frame
    /// numbers).
    Rewrite,
}

/// Per-domain cloning policy, configured via domctl by the toolstack (§5.1:
/// "a guest can be cloned only if its xl configuration file specifies a
/// non-zero value for the maximum number of clones").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClonePolicy {
    /// Whether cloning is permitted for this domain.
    pub enabled: bool,
    /// Maximum number of clones this domain may create.
    pub max_clones: u32,
    /// Whether children are resumed on second-stage completion or left
    /// paused (§5: "child domains are either resumed or left in paused
    /// state, depending on how they are configured").
    pub resume_children: bool,
}

impl Default for ClonePolicy {
    fn default() -> Self {
        ClonePolicy {
            enabled: false,
            max_clones: 0,
            resume_children: true,
        }
    }
}

/// KFX-style checkpoint used by `clone_cow` / `clone_reset` (§7.2).
///
/// Arming a checkpoint is O(1) in the domain's memory: the p2m layout
/// is captured as a structural [`P2mOverlay`] snapshot, and page
/// contents are journaled lazily by the write paths — `resolve_write`
/// and `clone_cow` record a pre-image the *first* time they touch a
/// page after the checkpoint, so `clone_reset` restores exactly the
/// pages that were actually dirtied (O(dirty), not O(private)).
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// COW-copy faults taken since the checkpoint: pfn → the shared
    /// frame the p2m pointed at before the fault. The journal holds one
    /// `dom_cow` reference on each recorded frame so the reset target
    /// cannot be freed while the checkpoint is armed; the reference
    /// transfers back to the p2m on reset.
    pub dirty_cow: BTreeMap<Pfn, Mfn>,
    /// Copy-on-first-write pre-images of private pages dirtied since
    /// the checkpoint (replaces the old eager snapshot of *every*
    /// private page).
    pub dirty_private: BTreeMap<Pfn, PageContent>,
    /// Last-sharer COW faults resolved by ownership transfer since the
    /// checkpoint: pfn → the frame's pre-fault content and writability.
    /// Reset restores the content and re-shares the frame to `dom_cow`.
    pub dirty_transfer: BTreeMap<Pfn, (PageContent, bool)>,
    /// Structural snapshot of the p2m overlay at checkpoint time.
    pub overlay: P2mOverlay,
    /// vCPU state snapshot.
    pub vcpus: Vec<Vcpu>,
}

/// The simulator's `struct domain`.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Domain identifier. Destroyed domains give theirs back for reuse.
    pub id: DomId,
    /// Creation serial: unique among all domains one hypervisor ever
    /// created, clones included. A cache keyed by domain id compares it
    /// to tell the domain from an earlier holder of the same id.
    pub serial: u64,
    /// Domain name (managed by the toolstack; `xencloned` generates unique
    /// clone names without the O(n) validation scan).
    pub name: String,
    /// Parent domain for clones. Always a live domain: destroying a
    /// parent clears the link on its children, which become family roots.
    pub parent: Option<DomId>,
    /// This clone's birth index among its parent's clones (0-based; 0
    /// for a domain the toolstack created): its key in the parent's
    /// [`Domain::children`].
    pub birth: u32,
    /// Lifecycle state.
    pub state: DomainState,
    /// Virtual CPUs.
    pub vcpus: Vec<Vcpu>,
    /// Pseudo-physical → machine mapping: a shared family template plus
    /// this domain's private overlay (see [`crate::p2m`]).
    pub p2m: P2m,
    /// Exclusively owned frames not visible in the p2m: page-table frames
    /// and the frames storing the p2m itself. Always private.
    pub aux_frames: Vec<Mfn>,
    /// Pfns that must not be shared on clone, with their policy. Clones
    /// inherit the table by `Rc` handle, so a family shares one copy
    /// until a member registers a pfn of its own (copy on write, see
    /// `Hypervisor::register_private_pfns`).
    pub private_pfns: Rc<BTreeMap<Pfn, PrivatePolicy>>,
    /// Pfns used for inter-domain communication: shared *writable* with
    /// clones (ownership still moves to `dom_cow`, §5.2.2). Shared by the
    /// family like `private_pfns`.
    pub idc_pfns: Rc<BTreeSet<Pfn>>,
    /// The `start_info` pfn (private, rewritten on clone).
    pub start_info_pfn: Pfn,
    /// The Xenstore interface ring pfn (private).
    pub xenstore_pfn: Pfn,
    /// The console ring pfn (private, fresh on clone).
    pub console_pfn: Pfn,
    /// Cloning policy.
    pub clone_policy: ClonePolicy,
    /// Total clones created by this domain so far.
    pub clones_created: u32,
    /// Live children keyed by birth index, so iteration follows creation
    /// order and destroying a child unlinks it in O(log family).
    pub children: BTreeMap<u32, DomId>,
    /// Children whose second stage has not completed yet.
    pub pending_stage2: u32,
    /// Grant table.
    pub grants: GrantTable,
    /// Event channels.
    pub evtchn: EventChannels,
    /// Active KFX checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
}

impl Domain {
    /// Number of populated p2m entries.
    pub fn mapped_pages(&self) -> u64 {
        self.p2m.mapped_pages()
    }

    /// Looks up the machine frame behind a pfn.
    pub fn lookup(&self, pfn: Pfn) -> Option<Mfn> {
        self.p2m.get(pfn.0 as usize)
    }

    /// Returns `true` once the domain may run (not paused/dying).
    pub fn is_runnable(&self) -> bool {
        self.state == DomainState::Running
    }

    /// Page-table frames needed for `pages` mapped pages under 4-level
    /// paging (512 entries per level).
    pub fn pt_frames_needed(pages: u64) -> u64 {
        let l1 = pages.div_ceil(512).max(1);
        let l2 = l1.div_ceil(512).max(1);
        let l3 = l2.div_ceil(512).max(1);
        l1 + l2 + l3 + 1
    }

    /// Frames needed to store the p2m array itself (512 8-byte entries per
    /// frame).
    pub fn p2m_frames_needed(pages: u64) -> u64 {
        pages.div_ceil(512).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pt_frame_math() {
        // 1024 pages: 2 L1 frames + 1 each of L2/L3/L4.
        assert_eq!(Domain::pt_frames_needed(1024), 5);
        // 1 page still needs a full chain.
        assert_eq!(Domain::pt_frames_needed(1), 4);
        // 1 GiB = 262144 pages: 512 L1 + 1 L2 + 1 L3 + 1 L4.
        assert_eq!(Domain::pt_frames_needed(262_144), 515);
    }

    #[test]
    fn p2m_frame_math() {
        assert_eq!(Domain::p2m_frames_needed(1), 1);
        assert_eq!(Domain::p2m_frames_needed(512), 1);
        assert_eq!(Domain::p2m_frames_needed(513), 2);
    }

    #[test]
    fn default_clone_policy_disallows_cloning() {
        let p = ClonePolicy::default();
        assert!(!p.enabled);
        assert_eq!(p.max_clones, 0);
        assert!(p.resume_children);
    }
}
