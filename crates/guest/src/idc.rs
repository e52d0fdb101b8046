//! Inter-domain communication (IDC): the unikernel-side API of §5.2.2.
//!
//! After `fork()`, related processes expect IPC; Nephele replicates the
//! POSIX mechanisms as *inter-domain* communication built on the platform's
//! two primitives, both extended with the `DOMID_CHILD` wildcard:
//!
//! * **shared memory** — the parent grants pages to `DOMID_CHILD` before
//!   any clone exists; on cloning, the pages move to `dom_cow` but remain
//!   *writable-shared* (no COW) and every clone may map them;
//! * **notifications** — IDC event channels created with `DOMID_CHILD` are
//!   implicitly bound by every clone; parent-side sends fan out to all
//!   children, child-side sends reach the parent.
//!
//! On top of these, [`IdcPipe`] implements an anonymous pipe (a byte ring
//! in one shared page) and [`IdcSocketPair`] a bidirectional socket pair —
//! the mechanisms the paper's ported applications use.

use hypervisor::error::{HvError, Result};
use hypervisor::event::Port;
use hypervisor::grant::GrantRef;
use hypervisor::Hypervisor;
use sim_core::{DomId, Mfn, Pfn, PAGE_SIZE};

/// Byte offset of the ring's read index.
const HEAD_OFF: usize = 0;
/// Byte offset of the ring's write index.
const TAIL_OFF: usize = 4;
/// First data byte.
const DATA_OFF: usize = 8;
/// Usable ring capacity (one byte kept free to distinguish full/empty).
pub const PIPE_CAPACITY: usize = PAGE_SIZE - DATA_OFF - 1;

/// An anonymous pipe between a parent and its clones: a single shared page
/// holding a byte ring, plus an IDC event channel for readiness
/// notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdcPipe {
    /// The domain that created (and originally owned) the pipe page.
    pub owner: DomId,
    /// The pipe page in the owner's address space.
    pub pfn: Pfn,
    /// Grant reference allowing `DOMID_CHILD` to map the page.
    pub gref: GrantRef,
    /// The IDC event-channel port (same port number in parent and clones).
    pub port: Port,
}

impl IdcPipe {
    /// Creates a pipe in `owner` backed by the page at `pfn`. Must be
    /// called *before* forking so clones inherit access (the whole point of
    /// the `DOMID_CHILD` wildcard: the grant is established before any
    /// child id is known).
    pub fn create(hv: &mut Hypervisor, owner: DomId, pfn: Pfn) -> Result<IdcPipe> {
        // Zero the ring indices.
        hv.write_page(owner, pfn, HEAD_OFF, &0u32.to_le_bytes())?;
        hv.write_page(owner, pfn, TAIL_OFF, &0u32.to_le_bytes())?;
        hv.register_idc_pfn(owner, pfn)?;
        let gref = hv.grant_access(owner, DomId::CHILD, pfn, false)?;
        let port = hv.evtchn_alloc_idc(owner)?;
        Ok(IdcPipe {
            owner,
            pfn,
            gref,
            port,
        })
    }

    /// Resolves the pipe page for `accessor`, validating access through the
    /// grant for non-owners.
    fn resolve(&self, hv: &mut Hypervisor, accessor: DomId) -> Result<Mfn> {
        if accessor == self.owner {
            return hv
                .domain(self.owner)?
                .lookup(self.pfn)
                .ok_or(HvError::NotMapped(self.owner, self.pfn));
        }
        let (mfn, _ro) = hv.map_grant(accessor, self.owner, self.gref)?;
        hv.unmap_grant(self.owner, self.gref)?;
        Ok(mfn)
    }

    fn read_u32(hv: &Hypervisor, mfn: Mfn, off: usize) -> Result<u32> {
        let mut b = [0u8; 4];
        hv.frames().read(mfn, off, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn write_u32(hv: &mut Hypervisor, mfn: Mfn, off: usize, v: u32) -> Result<()> {
        hv.frames_mut().write(mfn, off, &v.to_le_bytes())
    }

    /// Bytes available to read.
    pub fn available(&self, hv: &mut Hypervisor, accessor: DomId) -> Result<usize> {
        let mfn = self.resolve(hv, accessor)?;
        let head = Self::read_u32(hv, mfn, HEAD_OFF)? as usize;
        let tail = Self::read_u32(hv, mfn, TAIL_OFF)? as usize;
        Ok((tail + PIPE_CAPACITY + 1 - head) % (PIPE_CAPACITY + 1))
    }

    /// Writes as much of `data` as fits; returns the bytes written and
    /// notifies the other side through the event channel.
    pub fn write(&self, hv: &mut Hypervisor, writer: DomId, data: &[u8]) -> Result<usize> {
        let mfn = self.resolve(hv, writer)?;
        let head = Self::read_u32(hv, mfn, HEAD_OFF)? as usize;
        let mut tail = Self::read_u32(hv, mfn, TAIL_OFF)? as usize;
        let used = (tail + PIPE_CAPACITY + 1 - head) % (PIPE_CAPACITY + 1);
        let space = PIPE_CAPACITY - used;
        let n = data.len().min(space);
        for &b in &data[..n] {
            hv.frames_mut().write(mfn, DATA_OFF + tail, &[b])?;
            tail = (tail + 1) % (PIPE_CAPACITY + 1);
        }
        Self::write_u32(hv, mfn, TAIL_OFF, tail as u32)?;
        if n > 0 {
            // Notify the peer(s); ignore delivery errors for ends that are
            // gone.
            let _ = hv.send_event(writer, self.port);
        }
        Ok(n)
    }

    /// Reads up to `max` bytes.
    pub fn read(&self, hv: &mut Hypervisor, reader: DomId, max: usize) -> Result<Vec<u8>> {
        let mfn = self.resolve(hv, reader)?;
        let mut head = Self::read_u32(hv, mfn, HEAD_OFF)? as usize;
        let tail = Self::read_u32(hv, mfn, TAIL_OFF)? as usize;
        let avail = (tail + PIPE_CAPACITY + 1 - head) % (PIPE_CAPACITY + 1);
        let n = avail.min(max);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut b = [0u8; 1];
            hv.frames().read(mfn, DATA_OFF + head, &mut b)?;
            out.push(b[0]);
            head = (head + 1) % (PIPE_CAPACITY + 1);
        }
        Self::write_u32(hv, mfn, HEAD_OFF, head as u32)?;
        Ok(out)
    }
}

/// A raw shared-memory region spanning a parent and its clones: the
/// lowest-level IDC primitive (§5.2.2), on which higher mechanisms like
/// [`IdcPipe`] are built. All family members read and write the same
/// physical frames — no COW divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdcSharedRegion {
    /// The creating domain.
    pub owner: DomId,
    /// The region's pages in the owner's address space, with their grants.
    pub pages: Vec<(Pfn, GrantRef)>,
    /// Notification channel for the region (same port family-wide).
    pub port: Port,
}

impl IdcSharedRegion {
    /// Creates a region over `pfns` in `owner`, granting `DOMID_CHILD`
    /// access to every page. Must run before forking.
    pub fn create(hv: &mut Hypervisor, owner: DomId, pfns: &[Pfn]) -> Result<IdcSharedRegion> {
        let mut pages = Vec::with_capacity(pfns.len());
        for pfn in pfns {
            hv.register_idc_pfn(owner, *pfn)?;
            let gref = hv.grant_access(owner, DomId::CHILD, *pfn, false)?;
            pages.push((*pfn, gref));
        }
        let port = hv.evtchn_alloc_idc(owner)?;
        Ok(IdcSharedRegion { owner, pages, port })
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    fn page_for(&self, hv: &mut Hypervisor, accessor: DomId, index: usize) -> Result<Mfn> {
        let (pfn, gref) = self
            .pages
            .get(index)
            .copied()
            .ok_or(HvError::InvalidArg("offset beyond region"))?;
        if accessor == self.owner {
            return hv
                .domain(self.owner)?
                .lookup(pfn)
                .ok_or(HvError::NotMapped(self.owner, pfn));
        }
        let (mfn, _) = hv.map_grant(accessor, self.owner, gref)?;
        hv.unmap_grant(self.owner, gref)?;
        Ok(mfn)
    }

    /// Writes `data` at byte `offset`, visible to the whole family.
    pub fn write(
        &self,
        hv: &mut Hypervisor,
        writer: DomId,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        let mut off = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let idx = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let n = rest.len().min(PAGE_SIZE - in_page);
            let mfn = self.page_for(hv, writer, idx)?;
            hv.frames_mut().write(mfn, in_page, &rest[..n])?;
            off += n;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Reads `len` bytes at byte `offset`.
    pub fn read(
        &self,
        hv: &mut Hypervisor,
        reader: DomId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>> {
        let mut out = vec![0u8; len];
        let mut off = offset;
        let mut filled = 0;
        while filled < len {
            let idx = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let n = (len - filled).min(PAGE_SIZE - in_page);
            let mfn = self.page_for(hv, reader, idx)?;
            hv.frames().read(mfn, in_page, &mut out[filled..filled + n])?;
            off += n;
            filled += n;
        }
        Ok(out)
    }

    /// Notifies the rest of the family (parent fan-out / child-to-parent).
    pub fn notify(&self, hv: &mut Hypervisor, from: DomId) -> Result<()> {
        hv.send_event(from, self.port)
    }
}

/// A bidirectional socket pair built from two pipes: `a2b` carries parent→
/// child data, `b2a` the reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdcSocketPair {
    /// Parent-to-child pipe.
    pub a2b: IdcPipe,
    /// Child-to-parent pipe.
    pub b2a: IdcPipe,
}

impl IdcSocketPair {
    /// Creates a socket pair in `owner` using two pages.
    pub fn create(hv: &mut Hypervisor, owner: DomId, pfn_a: Pfn, pfn_b: Pfn) -> Result<Self> {
        Ok(IdcSocketPair {
            a2b: IdcPipe::create(hv, owner, pfn_a)?,
            b2a: IdcPipe::create(hv, owner, pfn_b)?,
        })
    }

    /// Sends from the parent side.
    pub fn parent_send(&self, hv: &mut Hypervisor, parent: DomId, data: &[u8]) -> Result<usize> {
        self.a2b.write(hv, parent, data)
    }

    /// Receives on the child side.
    pub fn child_recv(&self, hv: &mut Hypervisor, child: DomId, max: usize) -> Result<Vec<u8>> {
        self.a2b.read(hv, child, max)
    }

    /// Sends from the child side.
    pub fn child_send(&self, hv: &mut Hypervisor, child: DomId, data: &[u8]) -> Result<usize> {
        self.b2a.write(hv, child, data)
    }

    /// Receives on the parent side.
    pub fn parent_recv(&self, hv: &mut Hypervisor, parent: DomId, max: usize) -> Result<Vec<u8>> {
        self.b2a.read(hv, parent, max)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use hypervisor::cloneop::{CloneOp, CloneOpResult};
    use hypervisor::domain::ClonePolicy;
    use hypervisor::MachineConfig;
    use sim_core::{Clock, CostModel};

    use super::*;

    fn setup() -> (Hypervisor, DomId) {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 128,
                notification_ring_capacity: 16,
            },
        );
        hv.set_cloning_enabled(true);
        let d = hv.create_domain("parent", 4, 1).unwrap();
        hv.set_clone_policy(
            d,
            ClonePolicy {
                enabled: true,
                max_clones: 8,
                resume_children: true,
            },
        )
        .unwrap();
        hv.unpause(d).unwrap();
        (hv, d)
    }

    fn clone_one(hv: &mut Hypervisor, parent: DomId) -> DomId {
        let r = hv
            .cloneop(
                parent,
                CloneOp::Clone {
                    target: None,
                    nr_clones: 1,
                },
            )
            .unwrap();
        let CloneOpResult::Cloned(kids) = r else {
            panic!()
        };
        let child = kids[0];
        hv.clone_ring_pop().unwrap();
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child }).unwrap();
        child
    }

    #[test]
    fn pipe_roundtrip_same_domain() {
        let (mut hv, d) = setup();
        let pipe = IdcPipe::create(&mut hv, d, Pfn(50)).unwrap();
        assert_eq!(pipe.write(&mut hv, d, b"hello").unwrap(), 5);
        assert_eq!(pipe.available(&mut hv, d).unwrap(), 5);
        assert_eq!(pipe.read(&mut hv, d, 10).unwrap(), b"hello");
        assert_eq!(pipe.available(&mut hv, d).unwrap(), 0);
    }

    #[test]
    fn pipe_survives_fork_and_is_truly_shared() {
        let (mut hv, parent) = setup();
        let pipe = IdcPipe::create(&mut hv, parent, Pfn(50)).unwrap();
        // Parent writes *before* cloning.
        pipe.write(&mut hv, parent, b"pre-fork").unwrap();

        let child = clone_one(&mut hv, parent);

        // Child reads the pre-fork data through the CHILD grant.
        assert_eq!(pipe.read(&mut hv, child, 64).unwrap(), b"pre-fork");
        // And the consumption is visible to the parent (no COW divergence).
        assert_eq!(pipe.available(&mut hv, parent).unwrap(), 0);

        // Post-fork traffic in both directions.
        pipe.write(&mut hv, parent, b"p->c").unwrap();
        assert_eq!(pipe.read(&mut hv, child, 64).unwrap(), b"p->c");
        pipe.write(&mut hv, child, b"c->p").unwrap();
        assert_eq!(pipe.read(&mut hv, parent, 64).unwrap(), b"c->p");
    }

    #[test]
    fn pipe_notifications_fan_out() {
        let (mut hv, parent) = setup();
        let pipe = IdcPipe::create(&mut hv, parent, Pfn(50)).unwrap();
        let c1 = clone_one(&mut hv, parent);
        let c2 = clone_one(&mut hv, parent);
        hv.drain_events();

        // Parent write notifies every clone.
        pipe.write(&mut hv, parent, b"x").unwrap();
        let evts = hv.drain_events();
        let targets: Vec<DomId> = evts.iter().map(|e| e.dom).collect();
        assert!(targets.contains(&c1) && targets.contains(&c2), "{targets:?}");

        // Child write notifies the parent.
        pipe.read(&mut hv, c1, 1).unwrap();
        pipe.write(&mut hv, c1, b"y").unwrap();
        let evts = hv.drain_events();
        assert!(evts.iter().any(|e| e.dom == parent));
    }

    #[test]
    fn unrelated_domain_denied() {
        let (mut hv, parent) = setup();
        let pipe = IdcPipe::create(&mut hv, parent, Pfn(50)).unwrap();
        let stranger = hv.create_domain("other", 4, 1).unwrap();
        assert!(pipe.read(&mut hv, stranger, 1).is_err());
        assert!(pipe.write(&mut hv, stranger, b"x").is_err());
    }

    #[test]
    fn pipe_capacity_limits_write() {
        let (mut hv, d) = setup();
        let pipe = IdcPipe::create(&mut hv, d, Pfn(50)).unwrap();
        let big = vec![7u8; PIPE_CAPACITY + 100];
        let n = pipe.write(&mut hv, d, &big).unwrap();
        assert_eq!(n, PIPE_CAPACITY);
        // Drain and refill across the wrap point.
        assert_eq!(pipe.read(&mut hv, d, PIPE_CAPACITY).unwrap().len(), PIPE_CAPACITY);
        let n = pipe.write(&mut hv, d, b"wrapped").unwrap();
        assert_eq!(n, 7);
        assert_eq!(pipe.read(&mut hv, d, 10).unwrap(), b"wrapped");
    }

    #[test]
    fn shared_region_spans_pages_and_family() {
        let (mut hv, parent) = setup();
        let region =
            IdcSharedRegion::create(&mut hv, parent, &[Pfn(70), Pfn(71), Pfn(72)]).unwrap();
        assert_eq!(region.len(), 3 * PAGE_SIZE);

        // A write crossing a page boundary, before forking.
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        region.write(&mut hv, parent, PAGE_SIZE - 100, &data).unwrap();

        let child = clone_one(&mut hv, parent);
        assert_eq!(
            region.read(&mut hv, child, PAGE_SIZE - 100, 600).unwrap(),
            data
        );

        // Child writes; parent observes immediately (no COW).
        region.write(&mut hv, child, 0, b"from-child").unwrap();
        assert_eq!(region.read(&mut hv, parent, 0, 10).unwrap(), b"from-child");

        // Notifications reach the other side.
        hv.drain_events();
        region.notify(&mut hv, child).unwrap();
        assert!(hv.drain_events().iter().any(|e| e.dom == parent));
    }

    #[test]
    fn shared_region_bounds_checked() {
        let (mut hv, parent) = setup();
        let region = IdcSharedRegion::create(&mut hv, parent, &[Pfn(70)]).unwrap();
        assert!(region.write(&mut hv, parent, PAGE_SIZE - 2, b"xxxx").is_err());
        assert!(region.read(&mut hv, parent, 0, PAGE_SIZE + 1).is_err());
        assert!(!region.is_empty());
    }

    #[test]
    fn socketpair_bidirectional_after_fork() {
        let (mut hv, parent) = setup();
        let sp = IdcSocketPair::create(&mut hv, parent, Pfn(60), Pfn(61)).unwrap();
        let child = clone_one(&mut hv, parent);

        sp.parent_send(&mut hv, parent, b"job").unwrap();
        assert_eq!(sp.child_recv(&mut hv, child, 16).unwrap(), b"job");
        sp.child_send(&mut hv, child, b"done").unwrap();
        assert_eq!(sp.parent_recv(&mut hv, parent, 16).unwrap(), b"done");
    }
}
