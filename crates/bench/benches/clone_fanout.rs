//! Clone fan-out series: host-side cost of the batched first stage,
//! `Clone { nr_clones: N }`, versus N sequential single-clone hypercalls —
//! the fan-out pattern Fig. 7/8 and the FaaS simulation lean on. Virtual
//! time is identical on both paths (asserted by the equivalence property
//! suite); this benchmark tracks the *host* speedup of the single parent
//! walk, O(M + N·P) instead of O(N·M).

use std::rc::Rc;

use testkit::bench::Bench;

use nephele::hypervisor::cloneop::CloneOp;
use nephele::hypervisor::domain::ClonePolicy;
use nephele::hypervisor::{Hypervisor, MachineConfig};
use nephele::sim_core::{Clock, CostModel, DomId};

/// A hypervisor holding one cloneable 4 MiB parent, sized so a 256-wide
/// fan-out fits in both the guest pool and the notification ring.
fn fresh_parent() -> (Hypervisor, DomId) {
    let mut hv = Hypervisor::new(
        Clock::new(),
        Rc::new(CostModel::calibrated()),
        &MachineConfig {
            guest_pool_mib: 32,
            notification_ring_capacity: 512,
        },
    );
    hv.set_cloning_enabled(true);
    let d = hv.create_domain("parent", 4, 1).unwrap();
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
    (hv, d)
}

fn main() {
    let mut c = Bench::new("clone_fanout");
    {
        let mut g = c.benchmark_group("clone_fanout");
        g.sample_size(20);
        for n in [1u32, 8, 64, 256] {
            // Each iteration consumes a fresh hypervisor built outside the
            // timed region, so the measurement covers exactly the first
            // stage — not machine construction or teardown.
            g.bench_function(&format!("batched_n{n}"), |b| {
                b.iter_with_setup(fresh_parent, |(mut hv, parent)| {
                    hv.cloneop(
                        DomId::DOM0,
                        CloneOp::Clone {
                            target: Some(parent),
                            nr_clones: n,
                        },
                    )
                    .unwrap();
                    hv
                })
            });
            g.bench_function(&format!("sequential_n{n}"), |b| {
                b.iter_with_setup(fresh_parent, |(mut hv, parent)| {
                    for _ in 0..n {
                        hv.cloneop(
                            DomId::DOM0,
                            CloneOp::Clone {
                                target: Some(parent),
                                nr_clones: 1,
                            },
                        )
                        .unwrap();
                    }
                    hv
                })
            });
        }
        g.finish();
    }
    c.finish();
}
