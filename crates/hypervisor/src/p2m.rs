//! Persistent pseudo-physical → machine map for clone families.
//!
//! A clone family shares one immutable *base template* — the parent's
//! p2m at first-clone time, built once per `CLONEOP` batch — behind an
//! `Rc`. Each family member layers a thin *overlay* on top recording
//! only its private divergences: the P private/aux patches stamped at
//! clone time plus any slots re-pointed by later COW faults. The merged
//! view (`overlay` entry if present, base slot otherwise) is the
//! domain's p2m; the base itself is never mutated after construction.
//!
//! This is the same persistent-structure design the Xenstore tree uses
//! (PR 5): `Rc` handles make cloning and checkpointing O(1) structural
//! snapshots, `Rc::make_mut` gives copy-on-write mutation, and honest
//! sharing statistics fall out of pointer identity (`Rc::as_ptr`).
//!
//! The overlay is kept *canonical*: an entry whose value equals the
//! base slot is removed rather than stored, so `overlay_len` is exactly
//! the number of slots where the domain diverges from its template, and
//! re-pointing a faulted slot back to the shared frame on `clone_reset`
//! shrinks the overlay back to its checkpoint form. The auditor
//! enforces this (invariant "p2m-overlay").

use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use sim_core::{Mfn, Pfn};

/// A structural snapshot of a p2m overlay, as captured by
/// [`P2m::overlay_snapshot`] (used by the KFX checkpoint).
pub type P2mOverlay = Rc<BTreeMap<u64, Option<Mfn>>>;

/// Resident bytes per base-template slot (a densely stored
/// `Option<Mfn>`).
pub const BASE_SLOT_BYTES: u64 = 8;

/// Resident bytes per overlay entry (key + value + B-tree node
/// overhead, amortized).
pub const OVERLAY_ENTRY_BYTES: u64 = 24;

/// Resident-memory split of p2m storage between structurally shared
/// template bytes and private per-domain bytes, as computed by
/// `Hypervisor::p2m_sharing`. Mirrors the Xenstore `SharingStats`
/// convention: shared storage is counted at every point of use, so the
/// two fields sum to the total resident (sharing-agnostic) figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct P2mSharing {
    /// Bytes of base-template storage referenced by more than one
    /// domain, counted once per referencing domain.
    pub shared_bytes: u64,
    /// Bytes backed by storage only one domain uses: sole-owner base
    /// templates plus every overlay entry.
    pub unique_bytes: u64,
}

/// Pseudo-physical → machine mapping with structural sharing. `None`
/// entries are holes.
#[derive(Debug, Clone)]
pub struct P2m {
    /// The family's shared template. Immutable once constructed; kept
    /// alive for the family's lifetime by every member's handle.
    base: Rc<Vec<Option<Mfn>>>,
    /// Private divergences from the template, by slot index.
    overlay: P2mOverlay,
}

impl P2m {
    /// Builds a root p2m whose base template is `slots` and whose
    /// overlay is empty (a freshly created, unshared domain).
    pub fn from_vec(slots: Vec<Option<Mfn>>) -> Self {
        P2m {
            base: Rc::new(slots),
            overlay: Rc::new(BTreeMap::new()),
        }
    }

    /// Number of slots (RAM pages plus the special-page tail).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when the p2m has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// The merged view of one slot: `None` for holes *and* for indices
    /// past the end (mirroring `Vec::get().copied().flatten()`).
    pub fn get(&self, idx: usize) -> Option<Mfn> {
        if idx >= self.base.len() {
            return None;
        }
        match self.overlay.get(&(idx as u64)) {
            Some(v) => *v,
            None => self.base[idx],
        }
    }

    /// The template's view of one slot, ignoring the overlay.
    pub fn base_get(&self, idx: usize) -> Option<Mfn> {
        self.base.get(idx).copied().flatten()
    }

    /// Points slot `idx` at `val`, keeping the overlay canonical: a
    /// value equal to the base slot removes the overlay entry instead
    /// of storing a redundant one.
    ///
    /// # Panics
    /// When `idx` is out of range (as indexing the old dense `Vec`
    /// would have).
    pub fn set(&mut self, idx: usize, val: Option<Mfn>) {
        assert!(idx < self.base.len(), "p2m slot {idx} out of range");
        let overlay = Rc::make_mut(&mut self.overlay);
        if val == self.base[idx] {
            overlay.remove(&(idx as u64));
        } else {
            overlay.insert(idx as u64, val);
        }
    }

    /// Merged per-slot view, in slot order (replaces iterating the old
    /// dense `Vec<Option<Mfn>>`). One merge-join of the sorted overlay
    /// into the base walk: O(slots + overlay), no per-slot tree probe.
    pub fn iter(&self) -> impl Iterator<Item = Option<Mfn>> + '_ {
        self.iter_range(0..self.len()).map(|(_, slot)| slot)
    }

    /// Merged view of the slots in `range` (clamped to the p2m) as
    /// `(slot index, value)` pairs, in slot order: the merge-join of
    /// [`P2m::iter`] started at `range.start`, which costs O(log
    /// overlay) to position.
    pub fn iter_range(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, Option<Mfn>)> + '_ {
        let end = range.end.min(self.base.len());
        let start = range.start.min(end);
        let mut overlay = self.overlay.range(start as u64..end as u64);
        let mut next = overlay.next();
        self.base[start..end].iter().enumerate().map(move |(k, b)| {
            let i = start + k;
            match next {
                Some((key, v)) if *key == i as u64 => {
                    next = overlay.next();
                    (i, *v)
                }
                _ => (i, *b),
            }
        })
    }

    /// Mapped (non-hole) slots as `(pfn, mfn)` pairs, in pfn order.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Pfn, Mfn)> + '_ {
        self.iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|mfn| (Pfn(i as u64), mfn)))
    }

    /// Number of populated slots.
    pub fn mapped_pages(&self) -> u64 {
        self.iter().filter(Option::is_some).count() as u64
    }

    /// Number of slots where this domain diverges from its template.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// The overlay entries `(slot index, value)`, in index order.
    pub fn overlay_entries(&self) -> impl Iterator<Item = (u64, Option<Mfn>)> + '_ {
        self.overlay.iter().map(|(i, v)| (*i, *v))
    }

    /// O(1) structural snapshot of the overlay (the KFX checkpoint's
    /// memory-layout capture).
    pub fn overlay_snapshot(&self) -> P2mOverlay {
        Rc::clone(&self.overlay)
    }

    /// O(1) structural restore to a snapshot taken by
    /// [`P2m::overlay_snapshot`] on this same p2m.
    pub fn restore_overlay(&mut self, overlay: P2mOverlay) {
        self.overlay = overlay;
    }

    /// Builds a child's p2m: an `Rc` handle on this p2m's template plus
    /// an overlay holding this p2m's own divergences and the child's
    /// private-slot `patches`, which must ascend by slot. The overlay is
    /// one sorted merge of the two followed by one bulk B-tree build:
    /// O(divergences + patches), independent of the template size. A
    /// patch replaces this p2m's entry at its slot, and one equal to the
    /// base slot leaves no entry, as [`P2m::set`] would.
    pub fn child_with_patches(
        &self,
        patches: impl IntoIterator<Item = (u64, Option<Mfn>)>,
    ) -> P2m {
        let patches = patches.into_iter();
        let mut inherited = self.overlay.iter().map(|(i, v)| (*i, *v)).peekable();
        let mut merged = Vec::with_capacity(self.overlay.len() + patches.size_hint().0);
        let mut prev: Option<u64> = None;
        for (idx, val) in patches {
            debug_assert!(prev.map_or(true, |p| p < idx), "patches must ascend");
            debug_assert!((idx as usize) < self.base.len());
            prev = Some(idx);
            while let Some(entry) = inherited.next_if(|(i, _)| *i < idx) {
                merged.push(entry);
            }
            inherited.next_if(|(i, _)| *i == idx);
            if val != self.base[idx as usize] {
                merged.push((idx, val));
            }
        }
        merged.extend(inherited);
        P2m {
            base: Rc::clone(&self.base),
            overlay: Rc::new(merged.into_iter().collect()),
        }
    }

    /// Number of slots in the shared template.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Pointer identity of the shared template, for sharing statistics
    /// (two domains with equal `base_addr` share one resident copy).
    pub fn base_addr(&self) -> usize {
        Rc::as_ptr(&self.base) as usize
    }

    /// Test-only corruption hook: plants a raw overlay entry, bypassing
    /// the canonicalization in [`P2m::set`], so the auditor's overlay
    /// invariants can be exercised. Not part of the simulated machine.
    #[doc(hidden)]
    pub fn corrupt_overlay_for_test(&mut self, idx: u64, val: Option<Mfn>) {
        Rc::make_mut(&mut self.overlay).insert(idx, val);
    }
}

/// Logical equality: two p2ms are equal when their merged views are,
/// regardless of how the slots are split between base and overlay.
impl PartialEq for P2m {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for P2m {}

#[cfg(test)]
mod tests {
    use testkit::prop::{bools, check, ranges, vecs, Gen};

    use super::*;

    /// The construction `child_with_patches` replaced: clone the parent
    /// overlay, then apply each patch through the canonicalizing insert.
    fn child_by_clone_then_insert(parent: &P2m, patches: &[(u64, Option<Mfn>)]) -> P2m {
        let mut overlay = (*parent.overlay).clone();
        for &(idx, val) in patches {
            if val == parent.base[idx as usize] {
                overlay.remove(&idx);
            } else {
                overlay.insert(idx, val);
            }
        }
        P2m {
            base: Rc::clone(&parent.base),
            overlay: Rc::new(overlay),
        }
    }

    #[test]
    fn merged_walk_and_bulk_built_child_match_their_references() {
        // Values come from a small range so that overlay entries, patches
        // and base slots collide often: patches equal to the base slot and
        // patches landing on existing overlay keys are both common.
        let slot = || (bools(), ranges(0u64..6)).map(|(hole, m)| (!hole).then_some(Mfn(m)));
        check(256, |g| {
            let base = g.draw(&vecs(slot(), 1..40));
            let len = base.len() as u64;
            let mut parent = P2m::from_vec(base);
            for (idx, val) in g.draw(&vecs((ranges(0..len), slot()), 0..24)) {
                parent.set(idx as usize, val);
            }
            let picks = g.draw(&vecs((bools(), ranges(0..len), slot(), bools()), 0..24));
            let mut patches: Vec<(u64, Option<Mfn>)> = Vec::new();
            for (on_overlay, idx, val, to_base) in picks {
                let keys: Vec<u64> = parent.overlay.keys().copied().collect();
                let idx = if on_overlay && !keys.is_empty() {
                    keys[idx as usize % keys.len()]
                } else {
                    idx
                };
                let val = if to_base { parent.base[idx as usize] } else { val };
                patches.push((idx, val));
            }
            patches.sort_by_key(|&(idx, _)| idx);
            patches.dedup_by_key(|&mut (idx, _)| idx);

            let child = parent.child_with_patches(patches.iter().copied());
            let reference = child_by_clone_then_insert(&parent, &patches);
            assert_eq!(*child.overlay, *reference.overlay, "patches {patches:?}");
            assert_eq!(child.base_addr(), parent.base_addr());
            let (from, to) = (g.draw(&ranges(0..len + 2)), g.draw(&ranges(0..len + 2)));
            for p in [&parent, &child] {
                let walked: Vec<Option<Mfn>> = p.iter().collect();
                let probed: Vec<Option<Mfn>> = (0..p.len()).map(|i| p.get(i)).collect();
                assert_eq!(walked, probed);
                let ranged: Vec<(usize, Option<Mfn>)> =
                    p.iter_range(from as usize..to as usize).collect();
                let want: Vec<(usize, Option<Mfn>)> = (from as usize..(to as usize).min(p.len()))
                    .map(|i| (i, p.get(i)))
                    .collect();
                assert_eq!(ranged, want, "range {from}..{to}");
            }
        });
    }

    fn sample() -> P2m {
        P2m::from_vec(vec![Some(Mfn(10)), None, Some(Mfn(12)), Some(Mfn(13))])
    }

    #[test]
    fn merged_view_prefers_overlay() {
        let mut p = sample();
        assert_eq!(p.get(0), Some(Mfn(10)));
        p.set(0, Some(Mfn(99)));
        assert_eq!(p.get(0), Some(Mfn(99)));
        assert_eq!(p.base_get(0), Some(Mfn(10)));
        assert_eq!(p.get(1), None);
        assert_eq!(p.get(7), None, "past-the-end reads are holes");
        assert_eq!(p.mapped_pages(), 3);
    }

    #[test]
    fn set_keeps_the_overlay_canonical() {
        let mut p = sample();
        p.set(2, Some(Mfn(42)));
        assert_eq!(p.overlay_len(), 1);
        // Re-pointing back at the base value must *remove* the entry,
        // not store a redundant one — this is what makes clone_reset
        // shrink the overlay back to its checkpoint form.
        p.set(2, Some(Mfn(12)));
        assert_eq!(p.overlay_len(), 0);
        assert_eq!(p.get(2), Some(Mfn(12)));
    }

    #[test]
    fn children_share_the_template_structurally() {
        let parent = sample();
        let child = parent.child_with_patches([(2u64, Some(Mfn(77)))]);
        assert_eq!(parent.base_addr(), child.base_addr());
        assert_eq!(child.get(2), Some(Mfn(77)));
        assert_eq!(child.get(0), Some(Mfn(10)));
        assert_eq!(child.overlay_len(), 1);
        // A patch equal to the base collapses to nothing.
        let plain = parent.child_with_patches([(0u64, Some(Mfn(10)))]);
        assert_eq!(plain.overlay_len(), 0);
    }

    #[test]
    fn grandchildren_inherit_parent_divergences() {
        let root = sample();
        let mut child = root.child_with_patches([(0u64, Some(Mfn(50)))]);
        child.set(3, Some(Mfn(51)));
        let grandchild = child.child_with_patches([(2u64, Some(Mfn(60)))]);
        assert_eq!(grandchild.get(0), Some(Mfn(50)));
        assert_eq!(grandchild.get(3), Some(Mfn(51)));
        assert_eq!(grandchild.get(2), Some(Mfn(60)));
        assert_eq!(grandchild.base_addr(), root.base_addr());
    }

    #[test]
    fn overlay_snapshot_and_restore_are_structural() {
        let mut p = sample();
        p.set(0, Some(Mfn(80)));
        let snap = p.overlay_snapshot();
        p.set(2, Some(Mfn(81)));
        p.set(0, Some(Mfn(82)));
        p.restore_overlay(snap);
        assert_eq!(p.get(0), Some(Mfn(80)));
        assert_eq!(p.get(2), Some(Mfn(12)));
        assert_eq!(p.overlay_len(), 1);
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a, b);
        b.set(0, Some(Mfn(5)));
        assert_ne!(a, b);
        b.set(0, Some(Mfn(10)));
        assert_eq!(a, b, "same merged view, different history");
        // A child stamped with values equal to a sibling's compares
        // equal even though base/overlay splits differ.
        let c = a.child_with_patches([(1u64, Some(Mfn(7)))]);
        let d = P2m::from_vec(vec![Some(Mfn(10)), Some(Mfn(7)), Some(Mfn(12)), Some(Mfn(13))]);
        assert_eq!(c, d);
    }
}
