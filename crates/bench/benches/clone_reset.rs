//! KFX reset loop: host-side cost of one fuzzing iteration's
//! dirty-then-reset cycle on a 4k-page (16 MiB) clone whose working set
//! has been privatized with `CloneCow` (the Fig. 9 harness shape, §7.2).
//! Virtual time is identical before and after the persistent-overlay
//! rework (asserted by the fig9 determinism gate); this benchmark tracks
//! the *host* cost of `CloneReset`, which must scale with the pages the
//! iteration actually dirtied — not with the clone's private footprint.

use std::rc::Rc;

use testkit::bench::Bench;

use nephele::hypervisor::cloneop::CloneOp;
use nephele::hypervisor::domain::ClonePolicy;
use nephele::hypervisor::{Hypervisor, MachineConfig};
use nephele::sim_core::{Clock, CostModel, DomId, Pfn};

/// RAM pages of the guest under reset (16 MiB).
const GUEST_PAGES: u64 = 4096;
/// Pages privatized up front, KFX-style (text + scratch working set).
const PRIVATE_PAGES: u64 = 4096;
/// Pages dirtied by each simulated fuzzing iteration.
const DIRTY_PAGES: u64 = 16;

/// Boots a parent, materializes every RAM page (so private copies carry
/// real `Bytes` content, as they would after loading a kernel image),
/// clones it once, privatizes the working set, and arms the checkpoint.
/// Returns the hypervisor and the checkpointed clone.
fn checkpointed_clone() -> (Hypervisor, DomId) {
    let mut hv = Hypervisor::new(
        Clock::new(),
        Rc::new(CostModel::calibrated()),
        &MachineConfig {
            guest_pool_mib: 64,
            notification_ring_capacity: 512,
        },
    );
    hv.set_cloning_enabled(true);
    let parent = hv.create_domain("parent", 16, 1).unwrap();
    hv.set_clone_policy(
        parent,
        ClonePolicy {
            enabled: true,
            max_clones: u32::MAX,
            resume_children: true,
        },
    )
    .unwrap();
    hv.unpause(parent).unwrap();
    for pfn in 0..GUEST_PAGES {
        hv.write_page(parent, Pfn(pfn), 0, &[pfn as u8]).unwrap();
    }
    let children = match hv
        .cloneop(DomId::DOM0, CloneOp::Clone { target: Some(parent), nr_clones: 1 })
        .unwrap()
    {
        nephele::hypervisor::cloneop::CloneOpResult::Cloned(c) => c,
        other => panic!("unexpected clone result {other:?}"),
    };
    let clone = children[0];
    hv.cloneop(
        DomId::DOM0,
        CloneOp::CloneCow {
            dom: clone,
            pfns: (0..PRIVATE_PAGES).map(Pfn).collect(),
        },
    )
    .unwrap();
    hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: clone }).unwrap();
    (hv, clone)
}

fn main() {
    let mut c = Bench::new("clone_reset");
    {
        let mut g = c.benchmark_group("clone_reset");
        g.sample_size(20);
        // The reset restores the clone to its checkpoint, so one armed
        // clone serves every iteration: the timed region is exactly one
        // fuzzing iteration's dirty + reset cycle.
        let (mut hv, clone) = checkpointed_clone();
        g.bench_function("dirty16_reset_4k", |b| {
            b.iter(|| {
                for pfn in 0..DIRTY_PAGES {
                    hv.write_page(clone, Pfn(pfn * 7 + 1), 0, b"!").unwrap();
                }
                hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: clone })
                    .unwrap();
            })
        });
        g.finish();
    }
    c.finish();
}
