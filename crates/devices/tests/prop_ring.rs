//! Property tests for shared rings and the 9pfs backend: rings behave as
//! bounded FIFOs (no loss, no duplication, accurate counters) and the fid
//! table keeps per-domain isolation under arbitrary request interleavings.

use testkit::prop::{btree_sets, check, just, ranges, u32s, vecs, weighted, Gen};

use devices::memfs::MemFs;
use devices::p9fs::{P9Backend, P9Request, P9Response};
use devices::ring::SharedRing;
use sim_core::{DomId, Pfn};

#[derive(Debug, Clone)]
enum RingOp {
    Push(u32),
    Pop,
}

fn ring_ops() -> impl Gen<Value = RingOp> {
    weighted(vec![
        (2, u32s().map(RingOp::Push).boxed()),
        (1, just(RingOp::Pop).boxed()),
    ])
}

/// The ring is a bounded FIFO: it agrees with a reference deque capped
/// at the ring capacity, and its counters add up.
#[test]
fn ring_is_a_bounded_fifo() {
    check(256, |g| {
        let cap = g.draw(&ranges(1usize..64));
        let ops = g.draw(&vecs(ring_ops(), 1..200));

        let mut ring = SharedRing::new(Pfn(1), cap);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let (mut pushed, mut popped, mut dropped) = (0u64, 0u64, 0u64);

        for op in ops {
            match op {
                RingOp::Push(v) => {
                    let ok = ring.push(v);
                    if model.len() < cap {
                        assert!(ok);
                        model.push_back(v);
                        pushed += 1;
                    } else {
                        assert!(!ok, "push must fail on a full ring");
                        dropped += 1;
                    }
                }
                RingOp::Pop => {
                    assert_eq!(ring.pop(), model.pop_front());
                    if ring.consumed() > popped {
                        popped += 1;
                    }
                }
            }
        }
        assert_eq!(ring.len(), model.len());
        assert_eq!(ring.produced(), pushed);
        assert_eq!(ring.consumed(), popped);
        assert_eq!(ring.dropped(), dropped);
        assert_eq!(ring.produced() - ring.consumed(), ring.len() as u64);
    });
}

/// The ring clone policy: `clone_copy` preserves exact content, order
/// and counters on the child's page, and does not disturb the parent.
#[test]
fn ring_clone_policies() {
    check(256, |g| {
        let values = g.draw(&vecs(u32s(), 0..32));
        let pops = g.draw(&ranges(0usize..8));

        let mut parent = SharedRing::new(Pfn(1), 64);
        for v in &values {
            parent.push(*v);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| parent.pop()).take(pops).collect();
        let mut copy = parent.clone_copy(Pfn(2));
        assert_eq!(copy.pfn(), Pfn(2));
        assert_eq!(copy.capacity(), parent.capacity());
        assert_eq!(copy.produced(), parent.produced());
        assert_eq!(copy.consumed(), parent.consumed());
        let drained: Vec<u32> = std::iter::from_fn(|| copy.pop()).collect();
        let queued = &values[popped.len()..];
        assert_eq!(drained, queued);
        assert_eq!(parent.len(), queued.len(), "parent untouched");
        assert_eq!(parent.pfn(), Pfn(1));
    });
}

/// 9pfs fids: cloning a parent's table gives the child an equal but
/// independent table; clunks on one side never affect the other.
#[test]
fn p9_fid_isolation() {
    check(256, |g| {
        let fids = g.draw(&btree_sets(ranges(0u32..64), 1..16));
        let clunk_child = g.draw(&vecs(u32s(), 0..8));

        let mut fs = MemFs::new();
        fs.mkdir_p("/export").unwrap();
        let mut be = P9Backend::new("/export");
        let parent = DomId(5);
        let child = DomId(6);
        for fid in &fids {
            assert_eq!(
                be.handle(&mut fs, parent, P9Request::Attach { fid: *fid }),
                P9Response::Ok
            );
        }
        let n = be.clone_fids(parent, child);
        assert_eq!(n, fids.len());
        assert_eq!(be.fid_count(child), fids.len());

        for c in &clunk_child {
            let _ = be.handle(&mut fs, child, P9Request::Clunk { fid: *c });
        }
        assert_eq!(be.fid_count(parent), fids.len(), "parent fids untouched");
        // Forgetting the child wipes only the child.
        be.forget_domain(child);
        assert_eq!(be.fid_count(child), 0);
        assert_eq!(be.fid_count(parent), fids.len());
    });
}
