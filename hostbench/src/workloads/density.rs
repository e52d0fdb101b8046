//! `density_replay`: `scale100k`'s scenario rebuilt from public calls.
//! Batched Dom0 clones of a vif-less template ramp the platform to
//! `size` live clones; every 64th ramp clone is destroyed and the pool
//! refilled; a warm pool is cloned; then a seeded tape of `size / 5`
//! requests is replayed under `clone_request_k3` and `clone_vm`.

use std::time::Instant;

use faas::traffic::{generate, replay, Policy, TrafficConfig};
use nephele::sim_core::{DomId, SimDuration};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform};

use super::{config, dom0_clone, finish, Meter, Round};
use crate::measure::{elapsed_ns, Call};

/// Live clones a benchmark round ramps to.
pub const SIZE: u32 = 100_000;
/// Clones per `cloneop` batch; one batch is the workload's timed op.
const BATCH: u32 = 100;
/// Every this many ramp clones, one is destroyed by the churn phase.
const CHURN_EVERY: usize = 64;
/// Warm instances serving the replay.
const WARM: u32 = 32;
/// Replicas per request under `clone_request_k3`.
const FANOUT: u32 = 3;

/// Boots the platform and the vif-less template.
pub fn setup(seed: u64, size: u32, traced: bool) -> (Platform, DomId) {
    // scale100k's sizing: 8 GiB of guest pool hold 10^5 vif-less clones.
    let pool_mib = 256 + u64::from(size) * 8192 / 100_000;
    let mut p = Platform::new(
        config(seed, traced)
            .guest_pool_mib(pool_mib)
            .ring_capacity(128)
            .mux(MuxKind::None)
            .build(),
    );
    let cfg = DomainConfig::builder("density-tmpl")
        .memory_mib(4)
        .max_clones(u32::MAX)
        .resume_clones(false)
        .build();
    let tmpl = p
        .launch_plain(&cfg, &KernelImage::unikraft("density-fn"))
        .expect("template boot on a fresh platform");
    (p, tmpl)
}

/// Clones `want` children in timed batches, each followed by 10 ms of
/// virtual time as `scale100k` paces its ramp. Stops early if a batch
/// comes up short.
fn clone_batches(p: &mut Platform, m: &mut Meter, tmpl: DomId, want: usize) -> Vec<DomId> {
    let mut kids = Vec::with_capacity(want);
    while kids.len() < want {
        let n = BATCH.min((want - kids.len()) as u32);
        let t0 = Instant::now();
        let batch = dom0_clone(p, m, tmpl, n);
        m.op_ns.push(elapsed_ns(t0));
        m.timers
            .time(Call::RunFor, || p.run_for(SimDuration::from_ms(10)));
        let short = batch.len() < n as usize;
        kids.extend(batch);
        if short {
            break;
        }
    }
    kids
}

pub fn round(seed: u64, size: u32, traced: bool) -> (Round, Platform) {
    let t0 = Instant::now();
    let (mut p, tmpl) = setup(seed, size, traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut m = Meter::with_capacity(size as usize / 50);
    let start = Instant::now();
    let ramp = clone_batches(&mut p, &mut m, tmpl, size as usize);
    let victims: Vec<DomId> = ramp
        .iter()
        .copied()
        .skip(CHURN_EVERY - 1)
        .step_by(CHURN_EVERY)
        .collect();
    for &v in &victims {
        let r = m.timers.time(Call::Destroy, || p.destroy(v));
        if m.tally.ok("destroy", r).is_some() {
            m.ops += 1;
        }
    }
    clone_batches(&mut p, &mut m, tmpl, victims.len());
    clone_batches(&mut p, &mut m, tmpl, WARM as usize);
    let traffic = TrafficConfig {
        requests: size / 5,
        ..TrafficConfig::default()
    };
    let tape = m.timers.time(Call::Generate, || generate(&traffic, seed));
    let outcomes = [Policy::CloneRequest { k: FANOUT }, Policy::CloneVm].map(|policy| {
        m.timers.time(Call::Replay, || {
            replay(&mut p, tmpl, WARM, &tape, policy, seed)
        })
    });
    let wall_ns = elapsed_ns(start);

    for v in &victims {
        m.digest.word(v.0.into());
    }
    for o in &outcomes {
        m.tally.check(o.served == tape.len() as u64, || {
            format!(
                "{} served {} of {} requests",
                o.policy.label(),
                o.served,
                tape.len()
            )
        });
        for v in [o.served, o.cancelled, o.cloned_on_demand, o.queued] {
            m.digest.word(v);
        }
        for q in [50.0, 90.0, 99.0, 100.0] {
            m.digest.word(o.latency.percentile(q));
        }
    }
    let [k3, vm] = &outcomes;
    let extra = vec![
        ("faas.cloned_on_demand", vm.cloned_on_demand as f64),
        ("faas.cancelled", k3.cancelled as f64),
    ];
    finish(p, m, setup_s, wall_ns, extra)
}
