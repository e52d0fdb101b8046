//! Property tests for the memory subsystem and cloning: COW must behave
//! exactly like fork-semantics on a reference model, and no frame may ever
//! leak or be double-owned.

use std::collections::HashMap;
use std::rc::Rc;

use testkit::prop::{check, one_of, ranges, u8s, usizes, vecs, Gen};

use hypervisor::cloneop::{CloneOp, CloneOpResult};
use hypervisor::domain::ClonePolicy;
use hypervisor::memory::FrameOwner;
use hypervisor::{Hypervisor, MachineConfig};
use sim_core::{Clock, CostModel, DomId, Pfn};

/// Operations the property machine can perform.
#[derive(Debug, Clone)]
enum Op {
    /// Write a marker byte to (domain-index, pfn).
    Write { dom_idx: usize, pfn: u64, val: u8 },
    /// Clone an existing domain.
    Clone { dom_idx: usize },
    /// Destroy a (non-root) domain.
    Destroy { dom_idx: usize },
}

fn op_strategy() -> impl Gen<Value = Op> {
    one_of(vec![
        (usizes(), ranges(0u64..64), u8s())
            .map(|(dom_idx, pfn, val)| Op::Write { dom_idx, pfn, val })
            .boxed(),
        usizes().map(|dom_idx| Op::Clone { dom_idx }).boxed(),
        usizes().map(|dom_idx| Op::Destroy { dom_idx }).boxed(),
    ])
}

fn fresh_hv() -> Hypervisor {
    let mut hv = Hypervisor::new(
        Clock::new(),
        Rc::new(CostModel::free()),
        &MachineConfig {
            guest_pool_mib: 512,
            notification_ring_capacity: 4096,
        },
    );
    hv.set_cloning_enabled(true);
    hv
}

fn make_root(hv: &mut Hypervisor) -> DomId {
    let d = hv.create_domain("root", 4, 1).unwrap();
    hv.set_clone_policy(
        d,
        ClonePolicy {
            enabled: true,
            max_clones: u32::MAX,
            resume_children: true,
        },
    )
    .unwrap();
    hv.unpause(d).unwrap();
    d
}

fn clone_one(hv: &mut Hypervisor, parent: DomId) -> DomId {
    let r = hv
        .cloneop(
            DomId::DOM0,
            CloneOp::Clone {
                target: Some(parent),
                nr_clones: 1,
            },
        )
        .unwrap();
    let CloneOpResult::Cloned(kids) = r else { panic!() };
    let child = kids[0];
    hv.clone_ring_pop().unwrap();
    hv.cloneop(DomId::DOM0, CloneOp::Completion { child }).unwrap();
    child
}

/// COW semantics match a per-domain reference model: every domain
/// observes its own writes and its fork-point inheritance, never a
/// sibling's writes.
#[test]
fn cow_matches_reference_model() {
    check(64, |g| {
        let ops = g.draw(&vecs(op_strategy(), 1..120));

        let mut hv = fresh_hv();
        let root = make_root(&mut hv);
        let mut doms = vec![root];
        // Reference: per-domain view of each written pfn.
        let mut model: HashMap<(u32, u64), u8> = HashMap::new();

        for op in ops {
            match op {
                Op::Write { dom_idx, pfn, val } => {
                    let dom = doms[dom_idx % doms.len()];
                    hv.write_page(dom, Pfn(pfn), 0, &[val]).unwrap();
                    model.insert((dom.0, pfn), val);
                }
                Op::Clone { dom_idx } => {
                    if doms.len() >= 24 {
                        continue;
                    }
                    let parent = doms[dom_idx % doms.len()];
                    let child = clone_one(&mut hv, parent);
                    // The child inherits the parent's visible state.
                    let inherited: Vec<(u64, u8)> = model
                        .iter()
                        .filter(|((d, _), _)| *d == parent.0)
                        .map(|((_, p), v)| (*p, *v))
                        .collect();
                    for (p, v) in inherited {
                        model.insert((child.0, p), v);
                    }
                    doms.push(child);
                }
                Op::Destroy { dom_idx } => {
                    if doms.len() <= 1 {
                        continue;
                    }
                    let idx = 1 + dom_idx % (doms.len() - 1);
                    let dom = doms[idx];
                    // Only destroy leaves to keep the family tree simple.
                    if hv.domain(dom).unwrap().children.is_empty() {
                        hv.destroy_domain(dom).unwrap();
                        doms.remove(idx);
                        model.retain(|(d, _), _| *d != dom.0);
                    }
                }
            }
        }

        // Every modelled byte must be readable with the modelled value.
        for ((dom, pfn), val) in &model {
            let mut buf = [0u8; 1];
            hv.read_page(DomId(*dom), Pfn(*pfn), 0, &mut buf).unwrap();
            assert_eq!(buf[0], *val, "dom{} pfn{}", dom, pfn);
        }
    });
}

/// Frame accounting: COW refcounts equal the number of domains mapping
/// each shared frame, and destroying everything returns all memory.
#[test]
fn refcounts_and_no_leaks() {
    check(64, |g| {
        let ops = g.draw(&vecs(op_strategy(), 1..80));

        let mut hv = fresh_hv();
        let baseline = hv.free_pages();
        let root = make_root(&mut hv);
        let mut doms = vec![root];

        for op in ops {
            match op {
                Op::Write { dom_idx, pfn, val } => {
                    let dom = doms[dom_idx % doms.len()];
                    hv.write_page(dom, Pfn(pfn), 0, &[val]).unwrap();
                }
                Op::Clone { dom_idx } => {
                    if doms.len() < 16 {
                        let parent = doms[dom_idx % doms.len()];
                        doms.push(clone_one(&mut hv, parent));
                    }
                }
                Op::Destroy { .. } => {}
            }
        }

        // Count how many domains map each COW frame.
        let mut mappers: HashMap<u64, u32> = HashMap::new();
        for d in &doms {
            for mfn in hv.domain(*d).unwrap().p2m.iter().flatten() {
                if hv.frames().inspect(mfn).unwrap().owner() == FrameOwner::Cow {
                    *mappers.entry(mfn.0).or_default() += 1;
                }
            }
        }
        for (mfn, count) in mappers {
            let rc = hv.frames().inspect(sim_core::Mfn(mfn)).unwrap().refcount();
            assert_eq!(rc, count, "mfn {}", mfn);
        }

        // Tear everything down, children first.
        while doms.len() > 1 {
            let leaf_idx = doms
                .iter()
                .position(|d| hv.domain(*d).unwrap().children.is_empty())
                .expect("a leaf always exists");
            let dom = doms.remove(leaf_idx);
            if dom != root {
                hv.destroy_domain(dom).unwrap();
            } else {
                doms.push(dom);
                // Root was the only leaf: everything else is gone.
                if doms.len() == 1 {
                    break;
                }
            }
        }
        hv.destroy_domain(root).unwrap();
        assert_eq!(hv.free_pages(), baseline, "leaked frames");
    });
}
