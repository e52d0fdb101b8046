//! Host cost of cloning one child, the shape of Nephele's headline
//! workloads (one child per `CLONEOP`, §4.1/§5.2, Figs. 4–5).
//!
//! Each iteration clones a 4 MiB parent once from Dom0 and times the
//! first stage (`Hypervisor::cloneop`) and the second stage
//! (`Platform::finish_pending_clones`) as separate functions; the child
//! is destroyed outside the timed region, so every iteration starts from
//! a platform holding the same 2 000 members of the parent's family. The
//! parent has no vif in group `vifs_0` and one vif in `vifs_1`, whose
//! ring pages and 256 RX buffers make 261 of its 1 282 mapped pages
//! private. `scripts/verify.sh` gates the `vifs_1` first-stage median
//! against the committed baseline.
//!
//! `stage2_run100` times the second stage of one 100-child Dom0 batch
//! instead, divided by 100: one run of a parent's children, whose first
//! child resolves the parent side for the other 99. `stage2` is a run of
//! one.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use testkit::bench::Bench;

use nephele::hypervisor::cloneop::{CloneOp, CloneOpResult};
use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, Platform, PlatformConfig, TraceConfig};

/// Family members alive while a clone is timed (the parent included).
const MEMBERS: u32 = 2_000;

/// Which stage of the clone an iteration times.
#[derive(Clone, Copy)]
enum Stage {
    First,
    Second,
}

/// Boots the parent (with `vifs` vifs) and clones it until its family
/// holds `MEMBERS` domains.
fn family(vifs: u32) -> (Platform, DomId) {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256 + u64::from(MEMBERS) * 2)
            .ring_capacity(1_024)
            .seed(0x5_1a91e)
            .tracing(TraceConfig::default())
            .audit(AuditMode::Off)
            .build(),
    );
    let mut cfg = DomainConfig::builder("clone-single")
        .memory_mib(4)
        .max_clones(u32::MAX);
    for _ in 0..vifs {
        cfg = cfg.vif(Ipv4Addr::new(10, 0, 0, 2));
    }
    let parent = p
        .launch_plain(&cfg.build(), &KernelImage::minios("clone-single"))
        .expect("parent boot");
    let mut members = 1u32;
    while members < MEMBERS {
        let want = (MEMBERS - members).min(100);
        let kids = p.clone_domain(parent, want).expect("family clone");
        assert_eq!(kids.len() as u32, want, "pool exhausted while growing the family");
        members += want;
    }
    (p, parent)
}

/// Clones `parent` once, completes the clone and destroys the child;
/// returns the host time `stage` took.
fn clone_once(p: &mut Platform, parent: DomId, stage: Stage) -> Duration {
    let op = CloneOp::Clone {
        target: Some(parent),
        nr_clones: 1,
    };
    let t = Instant::now();
    let r = p.hv.cloneop(DomId::DOM0, op);
    let first = t.elapsed();
    let Ok(CloneOpResult::Cloned(kids)) = r else {
        panic!("clone failed: {r:?}");
    };
    let t = Instant::now();
    let done = p.finish_pending_clones(parent).expect("second stage");
    let second = t.elapsed();
    assert_eq!(done, kids);
    p.destroy(kids[0]).expect("destroy the clone");
    match stage {
        Stage::First => first,
        Stage::Second => second,
    }
}

/// Clones `parent` `RUN` times in one batch, completes the batch and
/// destroys the children; returns the host time the second stage took
/// per child.
fn clone_run(p: &mut Platform, parent: DomId) -> Duration {
    const RUN: u32 = 100;
    let op = CloneOp::Clone {
        target: Some(parent),
        nr_clones: RUN,
    };
    let r = p.hv.cloneop(DomId::DOM0, op);
    let Ok(CloneOpResult::Cloned(kids)) = r else {
        panic!("clone failed: {r:?}");
    };
    let t = Instant::now();
    let done = p.finish_pending_clones(parent).expect("second stage");
    let second = t.elapsed();
    assert_eq!(done, kids);
    for kid in kids {
        p.destroy(kid).expect("destroy the clone");
    }
    second / RUN
}

fn main() {
    let mut c = Bench::new("clone_single");
    for vifs in [0u32, 1] {
        let (mut p, parent) = family(vifs);
        let mut g = c.benchmark_group(&format!("vifs_{vifs}"));
        g.sample_size(40);
        for (name, stage) in [("stage1", Stage::First), ("stage2", Stage::Second)] {
            g.bench_function(name, |b| {
                b.iter_custom(|iters| (0..iters).map(|_| clone_once(&mut p, parent, stage)).sum())
            });
        }
        g.bench_function("stage2_run100", |b| {
            b.iter_custom(|iters| (0..iters).map(|_| clone_run(&mut p, parent)).sum())
        });
        g.finish();
    }
    c.finish();
}
