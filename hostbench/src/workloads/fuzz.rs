//! `fuzz_reset`: Fig. 9's `unikraft_cloning` loop. The fuzz target is
//! cloned once and the clone's text pages privatized with `clone_cow`
//! and checkpointed, as KFX does; each iteration then executes one
//! seeded input in the clone's adapter and restores it with
//! `clone_reset`. Xenstore, xencloned, the toolstack and the network are
//! absent from the measured phase.

use std::time::Instant;

use nephele::apps::{ExecResult, FuzzAdapterApp};
use nephele::hypervisor::cloneop::{CloneOp, CloneOpResult};
use nephele::sim_core::{DomId, Pfn, SplitMix64};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform};

use super::{config, finish, Meter, Round};
use crate::measure::{elapsed_ns, Call};

/// Iterations per benchmark round.
pub const SIZE: u32 = 400_000;
/// Distinct inputs, cycled through by the iterations.
const INPUTS: usize = 1024;
/// Bytes per input: 8 syscalls.
const INPUT_LEN: usize = 16;
/// Text pages the instrumentation privatizes.
const TEXT_PAGES: u64 = 64;

/// Boots the target, clones it, and instruments and checkpoints the
/// clone. Returns the platform and the clone.
pub fn setup(seed: u64, traced: bool) -> (Platform, DomId) {
    let mut p = Platform::new(
        config(seed, traced)
            .guest_pool_mib(256)
            .ring_capacity(128)
            .mux(MuxKind::None)
            .build(),
    );
    let cfg = DomainConfig::builder("fuzz-target")
        .memory_mib(16)
        .max_clones(1)
        .resume_clones(false)
        .build();
    let parent = p
        .launch(
            &cfg,
            &KernelImage::unikraft("fuzz-adapter"),
            Box::new(FuzzAdapterApp::new()),
        )
        .expect("target boot on a fresh platform");
    let clone = p
        .clone_domain(parent, 1)
        .expect("clone of a fresh target")
        .first()
        .copied()
        .expect("one clone requested");
    let text: Vec<Pfn> = (0..TEXT_PAGES).map(Pfn).collect();
    p.hv.cloneop(
        DomId::DOM0,
        CloneOp::CloneCow {
            dom: clone,
            pfns: text.clone(),
        },
    )
    .expect("clone_cow on a fresh clone");
    for (i, pfn) in text.iter().enumerate() {
        p.clock.advance(p.costs.kfx_breakpoint_insert);
        p.hv.write_page(clone, *pfn, 0, &[0xCC, i as u8])
            .expect("breakpoint write into a privatized page");
    }
    p.hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: clone })
        .expect("checkpoint of a fresh clone");
    (p, clone)
}

pub fn round(seed: u64, size: u32, traced: bool) -> (Round, Platform) {
    let mut rng = SplitMix64::new(seed);
    let inputs: Vec<[u8; INPUT_LEN]> = (0..INPUTS)
        .map(|_| {
            let mut b = [0u8; INPUT_LEN];
            rng.fill_bytes(&mut b);
            b
        })
        .collect();
    let t0 = Instant::now();
    let (mut p, clone) = setup(seed, traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let (mut crashes, mut edges, mut dirty) = (0u64, 0u64, 0u64);
    let mut m = Meter::with_capacity(size as usize);
    let start = Instant::now();
    for i in 0..size as usize {
        let input = &inputs[i % INPUTS];
        let t0 = Instant::now();
        let exec = m.timers.time(Call::Execute, || {
            p.with_app::<FuzzAdapterApp, ExecResult>(clone, |app, env| app.execute(env, input))
        });
        let reset = m.timers.time(Call::CloneReset, || {
            p.hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: clone })
        });
        m.op_ns.push(elapsed_ns(t0));
        m.tally
            .check(exec.is_some(), || format!("clone {clone} lost its adapter"));
        if let Some(exec) = exec {
            // A crashing input is an output of the fuzz target, not a
            // failure of the platform.
            crashes += u64::from(exec.crashed);
            edges += exec.edges.len() as u64;
        }
        if let Some(CloneOpResult::Reset { dirty_pages }) = m.tally.ok("clone_reset", reset) {
            m.tally.check(dirty_pages > 0, || {
                format!("iteration {i} reset no dirty pages")
            });
            dirty += dirty_pages;
            m.ops += 1;
        }
    }
    let wall_ns = elapsed_ns(start);
    for v in [crashes, edges, dirty] {
        m.digest.word(v);
    }
    let per_reset = dirty as f64 / m.ops.max(1) as f64;
    finish(
        p,
        m,
        setup_s,
        wall_ns,
        vec![("hypervisor.dirty_pages_per_reset", per_reset)],
    )
}
