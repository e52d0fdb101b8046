//! The guest heap: tinyalloc over real guest pages.
//!
//! Allocations come from the [`TinyAlloc`] arena; reads and writes go
//! through the hypervisor's guest-memory path, so heap traffic dirties real
//! frames — which is exactly what drives the COW behaviour the experiments
//! measure (a Redis mass-insert dirties heap pages, making the next
//! fork/clone proportionally more expensive).

use hypervisor::error::Result;
use hypervisor::Hypervisor;
use sim_core::{DomId, Pfn, PAGE_SIZE};

use crate::tinyalloc::TinyAlloc;

/// A byte offset into the guest's RAM (pfn-space address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GuestPtr(pub u64);

/// The per-guest heap manager.
#[derive(Debug, Clone)]
pub struct GuestHeap {
    dom: DomId,
    alloc: TinyAlloc,
}

impl GuestHeap {
    /// Creates a heap for `dom` covering `pages` pages starting at
    /// `start`.
    pub fn new(dom: DomId, start: Pfn, pages: u64) -> Self {
        let base = start.0 * PAGE_SIZE as u64;
        // Size the descriptor pool to the arena: enough for one live
        // allocation per 128 bytes (a Redis-style store holds millions of
        // small values).
        let bytes = pages * PAGE_SIZE as u64;
        let max_blocks = (bytes / 128).clamp(4096, 8_000_000) as usize;
        GuestHeap {
            dom,
            alloc: TinyAlloc::new(base, bytes, max_blocks),
        }
    }

    /// The owning domain.
    pub fn dom(&self) -> DomId {
        self.dom
    }

    /// Re-homes the heap after a fork (the child's copy keeps identical
    /// allocator state but belongs to the child domain).
    pub fn rebind(&mut self, dom: DomId) {
        self.dom = dom;
    }

    /// Allocates `size` bytes.
    pub fn alloc(&mut self, size: u64) -> Option<GuestPtr> {
        self.alloc.alloc(size).map(GuestPtr)
    }

    /// Frees an allocation.
    pub fn free(&mut self, ptr: GuestPtr) -> bool {
        self.alloc.free(ptr.0)
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.alloc.used_bytes()
    }

    /// Writes `data` at `ptr`, spanning pages as needed. Each touched page
    /// goes through the COW-aware write path.
    pub fn write(&self, hv: &mut Hypervisor, ptr: GuestPtr, data: &[u8]) -> Result<()> {
        let mut addr = ptr.0;
        let mut rest = data;
        while !rest.is_empty() {
            let pfn = Pfn(addr / PAGE_SIZE as u64);
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            hv.write_page(self.dom, pfn, off, &rest[..n])?;
            addr += n as u64;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Reads `len` bytes at `ptr`.
    pub fn read(&self, hv: &Hypervisor, ptr: GuestPtr, len: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; len];
        let mut addr = ptr.0;
        let mut filled = 0;
        while filled < len {
            let pfn = Pfn(addr / PAGE_SIZE as u64);
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (len - filled).min(PAGE_SIZE - off);
            hv.read_page(self.dom, pfn, off, &mut out[filled..filled + n])?;
            addr += n as u64;
            filled += n;
        }
        Ok(out)
    }

    /// Allocates and dirties `bytes` of resident memory (the `memhog`
    /// pattern of §6.2: "allocates a chunk of memory that must be
    /// resident"). Every page of the allocation is touched.
    pub fn alloc_resident(&mut self, hv: &mut Hypervisor, bytes: u64) -> Option<GuestPtr> {
        let ptr = self.alloc(bytes)?;
        let first = ptr.0 / PAGE_SIZE as u64;
        let last = (ptr.0 + bytes - 1) / PAGE_SIZE as u64;
        hv.fill_pages(self.dom, first..last + 1, |p| 0x5ca1_ab1e_0000_0000 | p.0)
            .ok()?;
        Some(ptr)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use hypervisor::MachineConfig;
    use sim_core::{Clock, CostModel};

    use super::*;

    fn setup() -> (Hypervisor, DomId, GuestHeap) {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 64,
                notification_ring_capacity: 8,
            },
        );
        let d = hv.create_domain("g", 4, 1).unwrap();
        let heap = GuestHeap::new(d, Pfn(100), 512);
        (hv, d, heap)
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let (mut hv, _d, mut heap) = setup();
        let ptr = heap.alloc(10_000).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        heap.write(&mut hv, ptr, &data).unwrap();
        assert_eq!(heap.read(&hv, ptr, data.len()).unwrap(), data);
    }

    #[test]
    fn alloc_resident_touches_every_page() {
        let (mut hv, d, mut heap) = setup();
        let bytes = 5 * PAGE_SIZE as u64;
        let ptr = heap.alloc_resident(&mut hv, bytes).unwrap();
        let first = Pfn(ptr.0 / PAGE_SIZE as u64);
        let mut buf = [0u8; 8];
        hv.read_page(d, first, 0, &mut buf).unwrap();
        assert_ne!(buf, [0u8; 8], "page was dirtied");
    }

    #[test]
    fn rebind_changes_owner() {
        let (_hv, d, mut heap) = setup();
        assert_eq!(heap.dom(), d);
        heap.rebind(DomId(42));
        assert_eq!(heap.dom(), DomId(42));
    }
}
