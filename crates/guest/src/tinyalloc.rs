//! A port of the `tinyalloc` memory allocator.
//!
//! The paper's memory-scaling experiment (§6.2 / Fig. 6) uses the
//! `tinyalloc` allocator on Unikraft because it "yields the best results
//! from all the supported allocators". This is a faithful reimplementation
//! of the thi.ng/tinyalloc design: a fixed pool of block descriptors kept
//! in three lists (*fresh*, *free*, *used*), first-fit allocation from the
//! free list with optional splitting, a bump pointer for virgin memory, and
//! compaction of adjacent free blocks on release.

/// One block descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    addr: u64,
    size: u64,
}

/// The allocator state.
#[derive(Debug, Clone)]
pub struct TinyAlloc {
    base: u64,
    limit: u64,
    /// Bump pointer for memory never handed out before.
    top: u64,
    /// Free chunks, sorted by address (enables merging).
    free: Vec<Block>,
    /// Allocated chunks, sorted by address (enables lookup on free).
    used: Vec<Block>,
    /// Descriptors still available (fresh list size).
    fresh_remaining: usize,
    /// Minimum leftover size worth splitting off.
    split_thresh: u64,
    alignment: u64,
}

impl TinyAlloc {
    /// Creates an allocator managing `[base, base + size)` with at most
    /// `max_blocks` live block descriptors, 16-byte alignment and the
    /// reference implementation's split threshold of 16 bytes.
    pub fn new(base: u64, size: u64, max_blocks: usize) -> Self {
        TinyAlloc {
            base,
            limit: base + size,
            top: base,
            free: Vec::new(),
            used: Vec::new(),
            fresh_remaining: max_blocks,
            split_thresh: 16,
            alignment: 16,
        }
    }

    fn align(&self, v: u64) -> u64 {
        v.div_ceil(self.alignment) * self.alignment
    }

    /// Allocates `size` bytes; returns the address or `None` when out of
    /// memory or out of block descriptors.
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let size = self.align(size);

        // First fit from the free list.
        if let Some(idx) = self.free.iter().position(|b| b.size >= size) {
            let mut block = self.free.remove(idx);
            let leftover = block.size - size;
            if leftover >= self.split_thresh && self.fresh_remaining > 0 {
                // Split: the tail goes back to the free list.
                self.fresh_remaining -= 1;
                let tail = Block {
                    addr: block.addr + size,
                    size: leftover,
                };
                let pos = self.free.partition_point(|b| b.addr < tail.addr);
                self.free.insert(pos, tail);
                block.size = size;
            }
            let pos = self.used.partition_point(|b| b.addr < block.addr);
            self.used.insert(pos, block);
            return Some(block.addr);
        }

        // Virgin memory from the bump pointer.
        if self.fresh_remaining == 0 {
            return None;
        }
        let addr = self.top;
        if addr + size > self.limit {
            return None;
        }
        self.fresh_remaining -= 1;
        self.top = addr + size;
        let block = Block { addr, size };
        let pos = self.used.partition_point(|b| b.addr < block.addr);
        self.used.insert(pos, block);
        Some(addr)
    }

    /// Releases the allocation at `addr`; returns `false` if unknown.
    pub fn free(&mut self, addr: u64) -> bool {
        let Ok(idx) = self.used.binary_search_by_key(&addr, |b| b.addr) else {
            return false;
        };
        let block = self.used.remove(idx);
        let pos = self.free.partition_point(|b| b.addr < block.addr);
        self.free.insert(pos, block);
        self.compact(pos);
        true
    }

    /// Merges the free block at `idx` with adjacent neighbours; merged
    /// descriptors return to the fresh pool.
    fn compact(&mut self, idx: usize) {
        // Merge forward.
        while idx + 1 < self.free.len()
            && self.free[idx].addr + self.free[idx].size == self.free[idx + 1].addr
        {
            self.free[idx].size += self.free[idx + 1].size;
            self.free.remove(idx + 1);
            self.fresh_remaining += 1;
        }
        // Merge backward.
        let mut idx = idx;
        while idx > 0 && self.free[idx - 1].addr + self.free[idx - 1].size == self.free[idx].addr {
            self.free[idx - 1].size += self.free[idx].size;
            self.free.remove(idx);
            self.fresh_remaining += 1;
            idx -= 1;
        }
    }

    /// The arena base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used.iter().map(|b| b.size).sum()
    }

    /// Bytes on the free list (not counting virgin memory).
    pub fn free_list_bytes(&self) -> u64 {
        self.free.iter().map(|b| b.size).sum()
    }

    /// Virgin bytes never handed out.
    pub fn virgin_bytes(&self) -> u64 {
        self.limit - self.top
    }

    /// Number of live allocations.
    pub fn num_used(&self) -> usize {
        self.used.len()
    }

    /// Number of free-list chunks.
    pub fn num_free(&self) -> usize {
        self.free.len()
    }

    /// The size of the live allocation at `addr`.
    pub fn allocation_size(&self, addr: u64) -> Option<u64> {
        self.used
            .binary_search_by_key(&addr, |b| b.addr)
            .ok()
            .map(|i| self.used[i].size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ta() -> TinyAlloc {
        TinyAlloc::new(0x1000, 64 * 1024, 256)
    }

    #[test]
    fn alloc_is_aligned_and_within_bounds() {
        let mut a = ta();
        let p = a.alloc(10).unwrap();
        assert_eq!(p % 16, 0);
        assert!(p >= 0x1000);
        assert_eq!(a.allocation_size(p), Some(16));
    }

    #[test]
    fn zero_alloc_fails() {
        assert!(ta().alloc(0).is_none());
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = TinyAlloc::new(0, 1024, 256);
        assert!(a.alloc(512).is_some());
        assert!(a.alloc(512).is_some());
        assert!(a.alloc(16).is_none());
    }

    #[test]
    fn free_and_reuse() {
        let mut a = ta();
        let p1 = a.alloc(100).unwrap();
        let _p2 = a.alloc(100).unwrap();
        assert!(a.free(p1));
        let p3 = a.alloc(100).unwrap();
        assert_eq!(p3, p1, "freed chunk is reused first-fit");
        assert!(!a.free(0xdead), "unknown address rejected");
    }

    #[test]
    fn split_leaves_tail_on_free_list() {
        let mut a = ta();
        let p = a.alloc(1024).unwrap();
        a.free(p);
        let q = a.alloc(100).unwrap();
        assert_eq!(q, p);
        assert_eq!(a.num_free(), 1, "tail of the split remains free");
        assert!(a.free_list_bytes() >= 1024 - 112);
    }

    #[test]
    fn adjacent_frees_compact() {
        let mut a = ta();
        let p1 = a.alloc(128).unwrap();
        let p2 = a.alloc(128).unwrap();
        let p3 = a.alloc(128).unwrap();
        let _guard = a.alloc(128).unwrap();
        a.free(p1);
        a.free(p3);
        assert_eq!(a.num_free(), 2);
        a.free(p2);
        assert_eq!(a.num_free(), 1, "three adjacent chunks merged into one");
        assert_eq!(a.free_list_bytes(), 384);
    }

    #[test]
    fn no_overlapping_allocations() {
        let mut a = ta();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for i in 0..100u64 {
            let size = 16 + (i % 7) * 48;
            let p = a.alloc(size).unwrap();
            let sz = a.allocation_size(p).unwrap();
            for (q, qs) in &spans {
                assert!(p + sz <= *q || *q + *qs <= p, "overlap at {p:#x}");
            }
            spans.push((p, sz));
        }
    }

    #[test]
    fn accounting_is_consistent() {
        let mut a = ta();
        let p = a.alloc(1000).unwrap();
        assert_eq!(a.used_bytes(), 1008);
        assert_eq!(a.num_used(), 1);
        a.free(p);
        assert_eq!(a.used_bytes(), 0);
        assert_eq!(a.free_list_bytes(), 1008);
    }

    #[test]
    fn descriptor_pool_bounds_allocations() {
        let mut a = TinyAlloc::new(0, 1 << 30, 4);
        let mut got = 0;
        while a.alloc(16).is_some() {
            got += 1;
        }
        assert_eq!(got, 4, "fresh descriptor pool limits live allocations");
    }
}
