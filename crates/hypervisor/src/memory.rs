//! Machine memory: the frame table, page ownership and copy-on-write.
//!
//! Mirrors Xen's per-page metadata. Every 4 KiB machine frame has an owner;
//! Nephele's cloning moves shareable frames to the pseudo-domain `dom_cow`
//! (here [`FrameOwner::Cow`]) with a reference count, exactly as described in
//! §5.2 of the paper (mechanism inherited from Snowflock and extended to
//! paravirtualized guests):
//!
//! * on sharing, ownership transfers from the original owner to `dom_cow`
//!   and the refcount counts the domains mapping the frame;
//! * a write to a shared frame with refcount > 1 copies the page;
//! * a write to a shared frame with refcount == 1 transfers ownership from
//!   `dom_cow` to the *faulting* domain (which may differ from the original
//!   owner).
//!
//! Page contents are modelled lazily ([`PageContent`]): most frames never
//! materialize a byte buffer, which is what lets the simulation hold the
//! paper's 16 GiB machine (4.2 M frames) and ~8900 guests in memory.

use sim_core::{DomId, Mfn, PAGE_SIZE};

use crate::error::{HvError, Result};

/// Who owns a machine frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOwner {
    /// On the free list.
    Free,
    /// Owned exclusively by one domain.
    Dom(DomId),
    /// Shared copy-on-write frame owned by `dom_cow`.
    Cow,
    /// Owned by the hypervisor itself.
    Xen,
}

/// Lazily materialized page contents.
#[derive(Debug, Clone, Eq, Default)]
pub enum PageContent {
    /// All zeroes (the state of freshly allocated memory).
    #[default]
    Zero,
    /// Every 8-byte word holds this value (cheap "pattern" fill used by the
    /// workloads to dirty memory without allocating real buffers).
    Fill(u64),
    /// A zero page whose first 8 bytes hold this value, little-endian:
    /// the clone-time `start_info` rewrite of a zero page (see
    /// [`PageContent::rewrite_head`]). Stands for the `Bytes` page that
    /// rewrite used to materialize, and compares equal to it.
    Head(u64),
    /// Fully materialized contents.
    Bytes(Box<[u8]>),
}

/// Equality of representations, except that a [`PageContent::Head`]
/// equals the `Bytes` page it stands for. Every other pair compares as
/// a derived `PartialEq` would (a `Zero` page is not equal to an
/// all-zero `Bytes` buffer), so replacing materialized `start_info`
/// pages with `Head` changes the outcome of no content comparison.
impl PartialEq for PageContent {
    fn eq(&self, other: &Self) -> bool {
        use PageContent::*;
        match (self, other) {
            (Zero, Zero) => true,
            (Fill(a), Fill(b)) | (Head(a), Head(b)) => a == b,
            (Bytes(a), Bytes(b)) => a == b,
            (Head(v), Bytes(b)) | (Bytes(b), Head(v)) => {
                b[..8] == v.to_le_bytes() && b[8..].iter().all(|&x| x == 0)
            }
            _ => false,
        }
    }
}

impl PageContent {
    /// Reads the byte at `offset`.
    pub fn byte_at(&self, offset: usize) -> u8 {
        match self {
            PageContent::Zero => 0,
            PageContent::Fill(v) => v.to_le_bytes()[offset % 8],
            PageContent::Head(v) => v.to_le_bytes().get(offset).copied().unwrap_or(0),
            PageContent::Bytes(b) => b[offset],
        }
    }

    /// Materializes the content into a boxed byte buffer.
    pub fn to_bytes(&self) -> Box<[u8]> {
        match self {
            PageContent::Zero => vec![0u8; PAGE_SIZE].into_boxed_slice(),
            PageContent::Fill(v) => {
                let mut b = vec![0u8; PAGE_SIZE];
                for chunk in b.chunks_mut(8) {
                    chunk.copy_from_slice(&v.to_le_bytes()[..chunk.len()]);
                }
                b.into_boxed_slice()
            }
            PageContent::Head(v) => {
                let mut b = vec![0u8; PAGE_SIZE];
                b[..8].copy_from_slice(&v.to_le_bytes());
                b.into_boxed_slice()
            }
            PageContent::Bytes(b) => b.clone(),
        }
    }

    /// Writes `id` as the page's first four bytes, little-endian: the
    /// clone-time rewrite of a `start_info` page's embedded domain id.
    /// A zero or [`PageContent::Head`] page stays a `Head` and only its
    /// low word changes; any other page takes the write as
    /// [`PageContent::write`] would.
    pub fn rewrite_head(&mut self, id: u32) {
        match self {
            PageContent::Zero => *self = PageContent::Head(u64::from(id)),
            PageContent::Head(v) => *v = (*v & !u64::from(u32::MAX)) | u64::from(id),
            _ => self.write(0, &id.to_le_bytes()),
        }
    }

    /// Writes `data` at `offset`, materializing bytes only when needed.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        debug_assert!(offset + data.len() <= PAGE_SIZE);
        // A write covering the whole page replaces the content outright;
        // the old representation never needs to be materialized.
        if offset == 0 && data.len() == PAGE_SIZE {
            *self = PageContent::Bytes(data.to_vec().into_boxed_slice());
            return;
        }
        let mut bytes = match std::mem::take(self) {
            PageContent::Bytes(b) => b,
            other => other.to_bytes(),
        };
        bytes[offset..offset + data.len()].copy_from_slice(data);
        *self = PageContent::Bytes(bytes);
    }

    /// Overwrites the whole page with a repeating 8-byte pattern without
    /// materializing a buffer.
    pub fn fill(&mut self, pattern: u64) {
        *self = PageContent::Fill(pattern);
    }
}

/// Per-frame metadata.
#[derive(Debug, Clone)]
pub struct Frame {
    owner: FrameOwner,
    /// For [`FrameOwner::Cow`] frames: how many domains map this frame.
    refcount: u32,
    /// Whether guest mappings of this frame are writable.
    writable: bool,
    content: PageContent,
}

impl Frame {
    fn free() -> Self {
        Frame {
            owner: FrameOwner::Free,
            refcount: 0,
            writable: false,
            content: PageContent::Zero,
        }
    }

    /// A freshly allocated, zeroed, writable frame of `owner`.
    fn allocated(owner: FrameOwner) -> Self {
        Frame {
            owner,
            refcount: u32::from(matches!(owner, FrameOwner::Cow)),
            writable: true,
            content: PageContent::Zero,
        }
    }

    /// The frame's current owner.
    pub fn owner(&self) -> FrameOwner {
        self.owner
    }

    /// The sharing reference count (meaningful for COW frames).
    pub fn refcount(&self) -> u32 {
        self.refcount
    }

    /// Whether the frame is mapped writable.
    pub fn writable(&self) -> bool {
        self.writable
    }

    /// Read-only access to the page contents.
    pub fn content(&self) -> &PageContent {
        &self.content
    }
}

/// Statistics snapshot of the frame table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Total machine frames managed.
    pub total: u64,
    /// Frames on the free list.
    pub free: u64,
    /// Frames owned by `dom_cow` (shared, counted once).
    pub cow_shared: u64,
    /// Frames owned by Xen.
    pub xen: u64,
}

/// Outcome of a COW write fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CowResolution {
    /// The frame had other sharers: a private copy was made at the returned
    /// frame; the p2m must be repointed.
    Copied(Mfn),
    /// The faulting domain was the last sharer: ownership transferred in
    /// place (the cheap path).
    Transferred,
}

/// The machine frame table.
///
/// Built lazily: a frame's metadata is materialized the first time the
/// frame is handed out, so creating a table is O(1) in its size. Freed
/// frames are reused last-freed first; once none is left, never-used
/// frames are handed out in ascending order. That is the order an eager
/// table with a descending free list gives, so frame placement does not
/// depend on the laziness.
#[derive(Debug)]
pub struct FrameTable {
    /// Frames handed out at least once, in frame order. Frames from
    /// `frames.len()` up to `total` have never been used and are free.
    frames: Vec<Frame>,
    total: u64,
    /// Freed frames, a LIFO stack.
    free_list: Vec<Mfn>,
    /// What a never-used frame reads as.
    untouched: Frame,
    /// Incremental COW-owned frame count, maintained on every ownership
    /// transition so [`FrameTable::stats`] is O(1).
    cow: u64,
    /// Incremental Xen-owned frame count, maintained alongside `cow`.
    xen: u64,
}

impl FrameTable {
    /// Creates a frame table managing `total` frames, all free. O(1):
    /// no frame is materialized until it is handed out.
    pub fn new(total: u64) -> Self {
        FrameTable {
            frames: Vec::with_capacity(total as usize),
            total,
            free_list: Vec::new(),
            untouched: Frame::free(),
            cow: 0,
            xen: 0,
        }
    }

    /// Adjusts the incremental owner-class counters for one frame moving
    /// from `from` to `to`. Every method that changes a frame's owner must
    /// route the change through here, or count a whole run as
    /// [`FrameTable::alloc_run`] does (checked by the `debug_assert` scan
    /// in [`FrameTable::stats`]).
    fn account_transition(&mut self, from: FrameOwner, to: FrameOwner) {
        match from {
            FrameOwner::Cow => self.cow -= 1,
            FrameOwner::Xen => self.xen -= 1,
            FrameOwner::Free | FrameOwner::Dom(_) => {}
        }
        match to {
            FrameOwner::Cow => self.cow += 1,
            FrameOwner::Xen => self.xen += 1,
            FrameOwner::Free | FrameOwner::Dom(_) => {}
        }
    }

    fn frame(&self, mfn: Mfn) -> Result<&Frame> {
        match self.frames.get(mfn.0 as usize) {
            Some(f) => Ok(f),
            None if mfn.0 < self.total => Ok(&self.untouched),
            None => Err(HvError::BadOwner(mfn)),
        }
    }

    /// A handed-out frame for mutation. A never-used frame is free, and
    /// no operation may mutate a free frame, so it fails like an owner
    /// mismatch.
    fn frame_mut(&mut self, mfn: Mfn) -> Result<&mut Frame> {
        self.frames
            .get_mut(mfn.0 as usize)
            .ok_or(HvError::BadOwner(mfn))
    }

    /// Returns frame metadata for inspection.
    pub fn inspect(&self, mfn: Mfn) -> Result<&Frame> {
        self.frame(mfn)
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_list.len() as u64 + (self.total - self.frames.len() as u64)
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Frames handed out at least once. Frames `0..handed_out()` carry
    /// metadata; every frame from here up to [`FrameTable::total_frames`]
    /// has never been used and reads as free.
    pub fn handed_out(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Returns an accounting snapshot. O(1): the owner-class counts are
    /// maintained incrementally on every ownership transition, so sampling
    /// this from experiment hot loops is free even on the paper's 16 GiB
    /// (4.2 M frame) machine. Debug builds cross-check the counters against
    /// a full scan of the frame table.
    pub fn stats(&self) -> MemoryStats {
        let stats = self.incremental_stats();
        debug_assert_eq!(
            stats,
            self.scan_stats(),
            "incremental owner accounting drifted from the frame table"
        );
        stats
    }

    /// The incremental-counter snapshot *without* the debug cross-check
    /// scan. The state auditor compares this against [`scan_stats`] itself
    /// and reports a drift as a structured violation instead of panicking,
    /// so it must be able to read the raw counters.
    ///
    /// [`scan_stats`]: FrameTable::scan_stats
    pub fn incremental_stats(&self) -> MemoryStats {
        MemoryStats {
            total: self.total_frames(),
            free: self.free_frames(),
            cow_shared: self.cow,
            xen: self.xen,
        }
    }

    /// The original O(n) accounting scan, kept as the oracle for the
    /// incremental counters behind [`FrameTable::stats`]. Never-used
    /// frames are free and count toward neither class.
    pub fn scan_stats(&self) -> MemoryStats {
        let mut cow = 0;
        let mut xen = 0;
        for f in &self.frames {
            match f.owner {
                FrameOwner::Cow => cow += 1,
                FrameOwner::Xen => xen += 1,
                _ => {}
            }
        }
        MemoryStats {
            total: self.total_frames(),
            free: self.free_frames(),
            cow_shared: cow,
            xen,
        }
    }

    /// Hands out `n` frames to `owner` as one run, passing each to `out`
    /// in allocation order: the free list's tail first, last-freed
    /// first, then never-used frames in ascending order, added to the
    /// table in one extension. That is the order `n` single allocations
    /// take. The caller has checked that `n` frames are free.
    fn alloc_run(&mut self, owner: FrameOwner, n: u64, mut out: impl FnMut(Mfn)) {
        debug_assert!(!matches!(owner, FrameOwner::Free));
        debug_assert!(n <= self.free_frames(), "alloc_run past the free count");
        let frame = Frame::allocated(owner);
        let reused = self.free_list.len().min(n as usize);
        let tail = self.free_list.len() - reused;
        for mfn in self.free_list.drain(tail..).rev() {
            let f = &mut self.frames[mfn.0 as usize];
            debug_assert_eq!(f.owner, FrameOwner::Free);
            *f = frame.clone();
            out(mfn);
        }
        let first = self.frames.len();
        let fresh = n as usize - reused;
        self.frames.resize(first + fresh, frame);
        (first..first + fresh).for_each(|i| out(Mfn(i as u64)));
        match owner {
            FrameOwner::Cow => self.cow += n,
            FrameOwner::Xen => self.xen += n,
            FrameOwner::Free | FrameOwner::Dom(_) => {}
        }
    }

    /// Allocates one zeroed frame for `owner`.
    pub fn alloc(&mut self, owner: FrameOwner) -> Result<Mfn> {
        if self.free_frames() == 0 {
            return Err(HvError::OutOfMemory);
        }
        let mut mfn = Mfn(0);
        self.alloc_run(owner, 1, |m| mfn = m);
        Ok(mfn)
    }

    /// Allocates `n` frames for `owner` as one run, in the order `n`
    /// calls to [`FrameTable::alloc`] would hand them out. All-or-nothing:
    /// the free count is checked up front, so a failing call allocates
    /// nothing (there is no partial allocation to roll back).
    pub fn alloc_many(&mut self, owner: FrameOwner, n: u64) -> Result<Vec<Mfn>> {
        if self.free_frames() < n {
            return Err(HvError::OutOfMemory);
        }
        let mut mfns = Vec::with_capacity(n as usize);
        self.alloc_run(owner, n, |m| mfns.push(m));
        Ok(mfns)
    }

    /// Allocates frames for several owners in one pass: `requests` is a
    /// list of `(owner, count)` pairs and the result holds one `Vec<Mfn>`
    /// per request, in request order. All-or-nothing: when the combined
    /// count exceeds the free frames, nothing is allocated. Frame numbers
    /// are handed out exactly as the equivalent sequence of
    /// [`FrameTable::alloc_many`] calls would hand them out, so batched and
    /// sequential callers see identical placement — the property the
    /// batched clone first stage relies on.
    pub fn alloc_batch(&mut self, requests: &[(FrameOwner, u64)]) -> Result<Vec<Vec<Mfn>>> {
        let total: u64 = requests.iter().map(|(_, n)| n).sum();
        if self.free_frames() < total {
            return Err(HvError::OutOfMemory);
        }
        Ok(requests
            .iter()
            .map(|&(owner, n)| {
                self.alloc_many(owner, n)
                    .expect("checked combined free count")
            })
            .collect())
    }

    /// Frees a frame owned by `expected` (exclusive frames only).
    pub fn free(&mut self, mfn: Mfn, expected: FrameOwner) -> Result<()> {
        let f = self.frame_mut(mfn)?;
        if f.owner != expected {
            return Err(HvError::BadOwner(mfn));
        }
        f.owner = FrameOwner::Free;
        f.refcount = 0;
        f.writable = false;
        f.content = PageContent::Zero;
        self.free_list.push(mfn);
        self.account_transition(expected, FrameOwner::Free);
        Ok(())
    }

    /// Shares a frame owned by `from`: ownership moves to `dom_cow` and the
    /// refcount becomes `sharers` (the current owner plus the new mappers).
    /// Regular pages become read-only (COW); IDC pages stay `writable` —
    /// they are *genuinely* shared between parent and clones (§5.2.2), so
    /// writes to them never fault.
    pub fn share_to_cow(&mut self, mfn: Mfn, from: DomId, sharers: u32, writable: bool) -> Result<()> {
        let f = self.frame_mut(mfn)?;
        if f.owner != FrameOwner::Dom(from) {
            return Err(HvError::BadOwner(mfn));
        }
        f.owner = FrameOwner::Cow;
        f.refcount = sharers;
        f.writable = writable;
        self.account_transition(FrameOwner::Dom(from), FrameOwner::Cow);
        Ok(())
    }

    /// Adds `extra` sharers to an already-COW frame.
    pub fn reshare(&mut self, mfn: Mfn, extra: u32) -> Result<()> {
        let f = self.frame_mut(mfn)?;
        if f.owner != FrameOwner::Cow {
            return Err(HvError::BadOwner(mfn));
        }
        f.refcount += extra;
        Ok(())
    }

    /// Drops one sharer from a COW frame (e.g. on domain destruction).
    /// Frees the frame when the count reaches zero.
    pub fn unshare_drop(&mut self, mfn: Mfn) -> Result<()> {
        let f = self.frame_mut(mfn)?;
        if f.owner != FrameOwner::Cow || f.refcount == 0 {
            return Err(HvError::BadOwner(mfn));
        }
        f.refcount -= 1;
        if f.refcount == 0 {
            f.owner = FrameOwner::Free;
            f.writable = false;
            f.content = PageContent::Zero;
            self.free_list.push(mfn);
            self.account_transition(FrameOwner::Cow, FrameOwner::Free);
        }
        Ok(())
    }

    /// Resolves a write fault by `faulter` on a COW frame.
    ///
    /// With other sharers present, allocates a private copy and returns
    /// [`CowResolution::Copied`]; as the last sharer, transfers ownership in
    /// place ([`CowResolution::Transferred`], the path §5.2 describes where
    /// the new owner "may be different from the original owner domain").
    pub fn cow_fault(&mut self, mfn: Mfn, faulter: DomId) -> Result<CowResolution> {
        let refcount = {
            let f = self.frame(mfn)?;
            if f.owner != FrameOwner::Cow {
                return Err(HvError::BadOwner(mfn));
            }
            f.refcount
        };
        if refcount <= 1 {
            // Last sharer: transfer in place — no content clone; the
            // frame keeps its bytes and only the metadata changes.
            let f = self.frame_mut(mfn)?;
            f.owner = FrameOwner::Dom(faulter);
            f.refcount = 0;
            f.writable = true;
            self.account_transition(FrameOwner::Cow, FrameOwner::Dom(faulter));
            Ok(CowResolution::Transferred)
        } else {
            let content = self.frame(mfn)?.content.clone();
            let copy = self.alloc(FrameOwner::Dom(faulter))?;
            self.frames[copy.0 as usize].content = content;
            let f = self.frame_mut(mfn)?;
            f.refcount -= 1;
            Ok(CowResolution::Copied(copy))
        }
    }

    /// Returns [`HvError::PageBounds`] when an access of `len` bytes at
    /// `offset` would cross the page boundary.
    fn check_bounds(mfn: Mfn, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).map_or(true, |end| end > PAGE_SIZE) {
            return Err(HvError::PageBounds { mfn, offset, len });
        }
        Ok(())
    }

    /// Reads bytes from a frame into `buf`. Bounds-checked: an access
    /// crossing the page boundary fails with [`HvError::PageBounds`]
    /// regardless of the content representation.
    pub fn read(&self, mfn: Mfn, offset: usize, buf: &mut [u8]) -> Result<()> {
        Self::check_bounds(mfn, offset, buf.len())?;
        let f = self.frame(mfn)?;
        match &f.content {
            PageContent::Zero => buf.fill(0),
            PageContent::Fill(v) => {
                let pat = v.to_le_bytes();
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = pat[(offset + i) % 8];
                }
            }
            PageContent::Head(v) => {
                let head = v.to_le_bytes();
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = head.get(offset + i).copied().unwrap_or(0);
                }
            }
            PageContent::Bytes(bytes) => {
                buf.copy_from_slice(&bytes[offset..offset + buf.len()]);
            }
        }
        Ok(())
    }

    /// Writes bytes into a frame. Bounds-checked like [`FrameTable::read`].
    /// The caller is responsible for COW resolution; writing a read-only
    /// frame is a logic error.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the frame is not writable.
    pub fn write(&mut self, mfn: Mfn, offset: usize, data: &[u8]) -> Result<()> {
        Self::check_bounds(mfn, offset, data.len())?;
        let f = self.frame_mut(mfn)?;
        debug_assert!(f.writable, "write to read-only {mfn}");
        f.content.write(offset, data);
        Ok(())
    }

    /// Fills a frame with an 8-byte pattern (cheap whole-page dirty).
    /// Always a whole-page access, so unlike [`FrameTable::read`] and
    /// [`FrameTable::write`] there is no offset to bounds-check.
    pub fn fill(&mut self, mfn: Mfn, pattern: u64) -> Result<()> {
        let f = self.frame_mut(mfn)?;
        debug_assert!(f.writable, "fill of read-only {mfn}");
        f.content.fill(pattern);
        Ok(())
    }

    /// Fills a frame with an 8-byte pattern when `dom` owns it outright,
    /// and reports whether it did: the bulk fill's one frame access per
    /// page. A frame of any other owner is left as it is.
    pub fn fill_owned(&mut self, mfn: Mfn, dom: DomId, pattern: u64) -> bool {
        match self.frames.get_mut(mfn.0 as usize) {
            Some(f) if f.owner == FrameOwner::Dom(dom) => {
                debug_assert!(f.writable, "fill of read-only {mfn}");
                f.content.fill(pattern);
                true
            }
            _ => false,
        }
    }

    /// Replaces a frame's content wholesale (restore path).
    pub fn set_content(&mut self, mfn: Mfn, content: PageContent) -> Result<()> {
        let f = self.frame_mut(mfn)?;
        debug_assert!(f.writable, "set_content on read-only {mfn}");
        f.content = content;
        Ok(())
    }

    /// Copies the full contents of `src` into `dst`.
    pub fn copy_page(&mut self, src: Mfn, dst: Mfn) -> Result<()> {
        let content = self.frame(src)?.content.clone();
        let f = self.frame_mut(dst)?;
        f.content = content;
        Ok(())
    }

    /// Iterates over every frame with its number, in frame order. The state
    /// auditor uses this to cross-check per-frame metadata against the p2m
    /// back-references; it is O(total frames), so not for hot paths.
    pub fn iter_frames(&self) -> impl Iterator<Item = (Mfn, &Frame)> {
        let untouched = self.total - self.frames.len() as u64;
        self.frames
            .iter()
            .chain(std::iter::repeat_n(&self.untouched, untouched as usize))
            .enumerate()
            .map(|(i, f)| (Mfn(i as u64), f))
    }

    /// Test-only fault injection: silently corrupts a frame's refcount by
    /// `delta` without routing through the accounting. The owner class does
    /// not change, so the incremental counters stay "consistent" — only the
    /// per-frame refcount-vs-p2m audit can catch it, which is exactly what
    /// the auditor's negative tests exercise.
    #[doc(hidden)]
    pub fn corrupt_refcount_for_test(&mut self, mfn: Mfn, delta: i64) {
        let f = self.frame_mut(mfn).expect("corrupted frame was handed out");
        f.refcount = (f.refcount as i64 + delta).max(0) as u32;
    }

    /// Transfers exclusive ownership of a frame between domains (used when
    /// rewriting private pages during cloning).
    pub fn transfer(&mut self, mfn: Mfn, from: FrameOwner, to: FrameOwner) -> Result<()> {
        let f = self.frame_mut(mfn)?;
        if f.owner != from {
            return Err(HvError::BadOwner(mfn));
        }
        f.owner = to;
        self.account_transition(from, to);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D1: DomId = DomId(1);
    const D2: DomId = DomId(2);

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut ft = FrameTable::new(8);
        assert_eq!(ft.free_frames(), 8);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        assert_eq!(ft.free_frames(), 7);
        assert_eq!(ft.inspect(m).unwrap().owner(), FrameOwner::Dom(D1));
        ft.free(m, FrameOwner::Dom(D1)).unwrap();
        assert_eq!(ft.free_frames(), 8);
    }

    #[test]
    fn lazy_table_hands_out_frames_in_the_eager_order() {
        // The eager table's free list: every frame, lowest on top.
        let mut eager: Vec<Mfn> = (0..16).rev().map(Mfn).collect();
        let mut ft = FrameTable::new(16);
        assert_eq!(ft.total_frames(), 16);
        assert_eq!(ft.inspect(Mfn(15)).unwrap().owner(), FrameOwner::Free);
        assert_eq!(ft.iter_frames().count(), 16);
        let mut live = Vec::new();
        for step in 0..40u64 {
            if step % 3 == 2 && !live.is_empty() {
                let m = live.remove((step as usize * 7) % live.len());
                ft.free(m, FrameOwner::Dom(D1)).unwrap();
                eager.push(m);
            } else if let Some(want) = eager.pop() {
                assert_eq!(ft.alloc(FrameOwner::Dom(D1)).unwrap(), want, "step {step}");
                live.push(want);
            }
            assert_eq!(ft.free_frames(), eager.len() as u64);
        }
        assert_eq!(ft.stats(), ft.scan_stats());
        assert!(
            ft.write(Mfn(15), 0, &[1]).is_err(),
            "a never-used frame is not writable"
        );
    }

    #[test]
    fn free_requires_matching_owner() {
        let mut ft = FrameTable::new(2);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        assert!(ft.free(m, FrameOwner::Dom(D2)).is_err());
    }

    #[test]
    fn exhaustion_reported() {
        let mut ft = FrameTable::new(1);
        ft.alloc(FrameOwner::Xen).unwrap();
        assert_eq!(ft.alloc(FrameOwner::Xen), Err(HvError::OutOfMemory));
        assert!(ft.alloc_many(FrameOwner::Xen, 1).is_err());
    }

    #[test]
    fn share_and_cow_copy() {
        let mut ft = FrameTable::new(4);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        ft.write(m, 0, &[7, 7, 7]).unwrap();
        ft.share_to_cow(m, D1, 2, false).unwrap();
        assert_eq!(ft.inspect(m).unwrap().owner(), FrameOwner::Cow);
        assert!(!ft.inspect(m).unwrap().writable());

        // Fault with two sharers: must copy, original refcount drops.
        match ft.cow_fault(m, D2).unwrap() {
            CowResolution::Copied(copy) => {
                let mut buf = [0u8; 3];
                ft.read(copy, 0, &mut buf).unwrap();
                assert_eq!(buf, [7, 7, 7]);
                assert_eq!(ft.inspect(copy).unwrap().owner(), FrameOwner::Dom(D2));
            }
            other => panic!("expected copy, got {other:?}"),
        }
        assert_eq!(ft.inspect(m).unwrap().refcount(), 1);
    }

    #[test]
    fn cow_last_sharer_transfers_to_faulter() {
        let mut ft = FrameTable::new(4);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        ft.share_to_cow(m, D1, 1, false).unwrap();
        // D2 faults even though D1 was the original owner.
        assert_eq!(ft.cow_fault(m, D2).unwrap(), CowResolution::Transferred);
        assert_eq!(ft.inspect(m).unwrap().owner(), FrameOwner::Dom(D2));
        assert!(ft.inspect(m).unwrap().writable());
    }

    #[test]
    fn cow_transfer_preserves_materialized_bytes() {
        // Regression: the transfer fast path must not clone (or worse,
        // rebuild) the page content — a materialized `Bytes` frame keeps
        // its exact buffer across the ownership flip.
        let mut ft = FrameTable::new(4);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        let payload: Vec<u8> = (0..PAGE_SIZE).map(|i| i as u8).collect();
        ft.write(m, 0, &payload).unwrap();
        assert!(matches!(ft.inspect(m).unwrap().content(), PageContent::Bytes(_)));
        ft.share_to_cow(m, D1, 1, false).unwrap();

        assert_eq!(ft.cow_fault(m, D2).unwrap(), CowResolution::Transferred);
        assert_eq!(ft.inspect(m).unwrap().owner(), FrameOwner::Dom(D2));
        let mut buf = vec![0u8; PAGE_SIZE];
        ft.read(m, 0, &mut buf).unwrap();
        assert_eq!(buf, payload);
    }

    #[test]
    fn reads_and_writes_are_bounds_checked_uniformly() {
        // Every content representation must reject a boundary-crossing
        // access the same way: Zero and Fill used to silently wrap while
        // Bytes panicked on the slice.
        let mut ft = FrameTable::new(4);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        let bounds = |offset, len| HvError::PageBounds { mfn: m, offset, len };
        let mut buf = [0u8; 16];

        for make in [
            |ft: &mut FrameTable, m| ft.set_content(m, PageContent::Zero).unwrap(),
            |ft: &mut FrameTable, m| ft.fill(m, 0xAB).unwrap(),
            |ft: &mut FrameTable, m| ft.write(m, 0, &[1]).unwrap(),
        ] {
            make(&mut ft, m);
            assert_eq!(ft.read(m, PAGE_SIZE - 8, &mut buf), Err(bounds(PAGE_SIZE - 8, 16)));
            assert_eq!(ft.read(m, PAGE_SIZE, &mut buf[..1]), Err(bounds(PAGE_SIZE, 1)));
            assert_eq!(ft.write(m, PAGE_SIZE - 1, &[9, 9]), Err(bounds(PAGE_SIZE - 1, 2)));
            // The last in-bounds slice still works.
            ft.write(m, PAGE_SIZE - 2, &[3, 4]).unwrap();
            ft.read(m, PAGE_SIZE - 2, &mut buf[..2]).unwrap();
            assert_eq!(&buf[..2], &[3, 4]);
        }

        // Offsets so large that `offset + len` overflows must not wrap.
        assert_eq!(
            ft.read(m, usize::MAX, &mut buf[..1]),
            Err(bounds(usize::MAX, 1))
        );
    }

    #[test]
    fn unshare_drop_frees_at_zero() {
        let mut ft = FrameTable::new(4);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        ft.share_to_cow(m, D1, 2, false).unwrap();
        ft.unshare_drop(m).unwrap();
        assert_eq!(ft.inspect(m).unwrap().owner(), FrameOwner::Cow);
        ft.unshare_drop(m).unwrap();
        assert_eq!(ft.inspect(m).unwrap().owner(), FrameOwner::Free);
        assert_eq!(ft.free_frames(), 4);
    }

    #[test]
    fn content_representations() {
        let mut ft = FrameTable::new(2);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        let mut buf = [1u8; 4];
        ft.read(m, 100, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);

        ft.fill(m, 0x0102_0304_0506_0708).unwrap();
        ft.read(m, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x08, 0x07, 0x06, 0x05]);

        ft.write(m, 2, &[0xAA]).unwrap();
        ft.read(m, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x08, 0x07, 0xAA, 0x05]);
    }

    #[test]
    fn copy_page_copies_content() {
        let mut ft = FrameTable::new(2);
        let a = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        let b = ft.alloc(FrameOwner::Dom(D2)).unwrap();
        ft.write(a, 0, b"hello").unwrap();
        ft.copy_page(a, b).unwrap();
        let mut buf = [0u8; 5];
        ft.read(b, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn stats_track_cow_and_xen() {
        let mut ft = FrameTable::new(4);
        let a = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        ft.alloc(FrameOwner::Xen).unwrap();
        ft.share_to_cow(a, D1, 2, false).unwrap();
        let s = ft.stats();
        assert_eq!(s.total, 4);
        assert_eq!(s.free, 2);
        assert_eq!(s.cow_shared, 1);
        assert_eq!(s.xen, 1);
    }

    #[test]
    fn stats_stay_consistent_across_transitions() {
        // Exercises every ownership transition; the debug_assert inside
        // stats() cross-checks the incremental counters against a scan.
        let mut ft = FrameTable::new(8);
        let a = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        let x = ft.alloc(FrameOwner::Xen).unwrap();
        ft.share_to_cow(a, D1, 2, false).unwrap();
        assert_eq!(ft.stats().cow_shared, 1);
        assert_eq!(ft.stats().xen, 1);

        // COW fault with two sharers copies (original stays COW)...
        let CowResolution::Copied(copy) = ft.cow_fault(a, D2).unwrap() else {
            panic!("expected copy");
        };
        assert_eq!(ft.stats().cow_shared, 1);
        // ...and as last sharer transfers ownership away from dom_cow.
        assert_eq!(ft.cow_fault(a, D2).unwrap(), CowResolution::Transferred);
        assert_eq!(ft.stats().cow_shared, 0);

        ft.transfer(x, FrameOwner::Xen, FrameOwner::Dom(D1)).unwrap();
        assert_eq!(ft.stats().xen, 0);
        ft.free(copy, FrameOwner::Dom(D2)).unwrap();

        // A COW frame fully unshared returns to the free list.
        let b = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        ft.share_to_cow(b, D1, 1, false).unwrap();
        assert_eq!(ft.stats().cow_shared, 1);
        ft.unshare_drop(b).unwrap();
        assert_eq!(ft.stats().cow_shared, 0);
    }

    #[test]
    fn alloc_batch_matches_sequential_placement() {
        let mut a = FrameTable::new(16);
        let mut b = FrameTable::new(16);
        let batched = a
            .alloc_batch(&[(FrameOwner::Dom(D1), 3), (FrameOwner::Dom(D2), 2)])
            .unwrap();
        let seq1 = b.alloc_many(FrameOwner::Dom(D1), 3).unwrap();
        let seq2 = b.alloc_many(FrameOwner::Dom(D2), 2).unwrap();
        assert_eq!(batched, vec![seq1, seq2]);
        assert_eq!(a.free_frames(), b.free_frames());
        for mfn in batched.concat() {
            assert_eq!(
                a.inspect(mfn).unwrap().owner(),
                b.inspect(mfn).unwrap().owner()
            );
        }
    }

    /// Every frame's metadata and content, for comparing twin tables.
    fn table_view(ft: &FrameTable) -> Vec<(FrameOwner, u32, bool, PageContent)> {
        ft.iter_frames()
            .map(|(_, f)| (f.owner, f.refcount, f.writable, f.content.clone()))
            .collect()
    }

    /// Two equal tables whose free list holds 3 frames (mfns 5, 1, 6,
    /// last freed on top) and whose never-used frames start at 8.
    fn twin_tables_with_a_short_free_list() -> (FrameTable, FrameTable) {
        let build = || {
            let mut ft = FrameTable::new(32);
            let mfns = ft.alloc_many(FrameOwner::Dom(D1), 8).unwrap();
            for m in [mfns[6], mfns[1], mfns[5]] {
                ft.write(m, 0, &[0xEE]).unwrap();
                ft.free(m, FrameOwner::Dom(D1)).unwrap();
            }
            ft
        };
        (build(), build())
    }

    #[test]
    fn alloc_runs_match_single_allocations() {
        for owner in [FrameOwner::Dom(D2), FrameOwner::Cow, FrameOwner::Xen] {
            let (mut run, mut single) = twin_tables_with_a_short_free_list();
            let got = run.alloc_many(owner, 7).unwrap();
            let want: Vec<Mfn> = (0..7).map(|_| single.alloc(owner).unwrap()).collect();
            assert_eq!(got, want, "{owner:?}");
            assert_eq!(got[..4], [Mfn(5), Mfn(1), Mfn(6), Mfn(8)]);
            assert_eq!(run.stats(), single.stats());
            assert_eq!(table_view(&run), table_view(&single));
        }

        // A batch spanning the free list's end and the never-used frames.
        let (mut run, mut single) = twin_tables_with_a_short_free_list();
        let requests = [
            (FrameOwner::Dom(D2), 2),
            (FrameOwner::Cow, 3),
            (FrameOwner::Xen, 0),
            (FrameOwner::Xen, 2),
        ];
        let got = run.alloc_batch(&requests).unwrap();
        let want: Vec<Vec<Mfn>> = requests
            .iter()
            .map(|&(owner, n)| (0..n).map(|_| single.alloc(owner).unwrap()).collect())
            .collect();
        assert_eq!(got, want);
        assert_eq!(run.stats(), single.stats());
        assert_eq!(table_view(&run), table_view(&single));
        assert_eq!(run.free_frames(), 32 - 5 - 7);
    }

    #[test]
    fn alloc_batch_is_all_or_nothing() {
        let mut ft = FrameTable::new(4);
        let r = ft.alloc_batch(&[(FrameOwner::Dom(D1), 3), (FrameOwner::Dom(D2), 2)]);
        assert_eq!(r, Err(HvError::OutOfMemory));
        assert_eq!(ft.free_frames(), 4, "failed batch must not allocate");
        ft.alloc_batch(&[(FrameOwner::Dom(D1), 2), (FrameOwner::Dom(D2), 2)])
            .unwrap();
        assert_eq!(ft.free_frames(), 0);
    }

    #[test]
    fn whole_page_write_replaces_content_without_materializing() {
        let mut c = PageContent::Fill(0xDEAD_BEEF);
        let page = vec![0x5A; PAGE_SIZE];
        c.write(0, &page);
        assert_eq!(c, PageContent::Bytes(page.clone().into_boxed_slice()));
        // And through the frame table, on top of an unmaterialized frame.
        let mut ft = FrameTable::new(1);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        ft.write(m, 0, &page).unwrap();
        assert_eq!(ft.inspect(m).unwrap().content().byte_at(PAGE_SIZE - 1), 0x5A);
    }

    #[test]
    fn head_content_reads_as_a_zero_page_with_its_first_word() {
        let v = 0x1122_3344_5566_7788u64;
        let head = PageContent::Head(v);
        let mut page = vec![0u8; PAGE_SIZE];
        page[..8].copy_from_slice(&v.to_le_bytes());
        assert_eq!(&*head.to_bytes(), &page[..]);
        for off in [0, 3, 7, 8, 100, PAGE_SIZE - 1] {
            assert_eq!(head.byte_at(off), page[off], "byte {off}");
        }
        assert_eq!(head, PageContent::Bytes(page.clone().into_boxed_slice()));
        assert_ne!(head, PageContent::Head(v + 1));
        assert_ne!(PageContent::Head(0), PageContent::Zero);

        let mut ft = FrameTable::new(1);
        let m = ft.alloc(FrameOwner::Dom(D1)).unwrap();
        ft.set_content(m, head).unwrap();
        for (off, len) in [(0, 8), (5, 6), (8, 4), (0, PAGE_SIZE)] {
            let mut buf = vec![0xEE; len];
            ft.read(m, off, &mut buf).unwrap();
            assert_eq!(buf, page[off..off + len], "read of {len} at {off}");
        }

        // A write through a head page materializes it.
        ft.write(m, 4, &[0xAB]).unwrap();
        page[4] = 0xAB;
        match ft.inspect(m).unwrap().content() {
            PageContent::Bytes(b) => assert_eq!(&**b, &page[..]),
            other => panic!("write left {other:?}"),
        }
    }

    #[test]
    fn rewrite_head_keeps_zero_and_head_pages_compact() {
        let mut c = PageContent::Zero;
        c.rewrite_head(7);
        assert!(matches!(c, PageContent::Head(7)));
        // A clone of a clone rewrites only the low word.
        let mut c = PageContent::Head(0xAAAA_BBBB_0000_0005);
        c.rewrite_head(9);
        assert!(matches!(c, PageContent::Head(0xAAAA_BBBB_0000_0009)));
        // Other pages take the write as `write` would.
        let mut f = PageContent::Fill(0x0102_0304_0506_0708);
        let mut expected = f.clone();
        f.rewrite_head(3);
        expected.write(0, &3u32.to_le_bytes());
        assert!(matches!(f, PageContent::Bytes(_)));
        assert_eq!(f, expected);
    }

    #[test]
    fn page_content_byte_at() {
        assert_eq!(PageContent::Zero.byte_at(10), 0);
        assert_eq!(PageContent::Fill(0xFF).byte_at(0), 0xFF);
        assert_eq!(PageContent::Fill(0xFF).byte_at(1), 0);
        let b = PageContent::Bytes(vec![9u8; PAGE_SIZE].into_boxed_slice());
        assert_eq!(b.byte_at(4095), 9);
    }
}
