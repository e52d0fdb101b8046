//! `boot_restore`: the Fig. 4 boot/restore baseline. Each cycle boots a
//! fresh vif'd domain (`xl create`), saves it into one of 64 reused
//! slots (`xl save`, which destroys it) and restores it (`xl restore`).
//! Restored domains stay live; past 256 a seeded victim is destroyed.
//! No cloning, so xencloned and `cloneop` are absent, and Xenstore grows
//! with the platform's history of destroyed domains.

use std::net::Ipv4Addr;
use std::time::Instant;

use nephele::sim_core::SplitMix64;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::Platform;

use super::{config, finish, Meter, Round};
use crate::measure::{elapsed_ns, Call};

/// Cycles per benchmark round.
pub const SIZE: u32 = 6_000;
/// Restored domains kept live before victims are destroyed.
const LIVE_CAP: usize = 256;
/// Save slots, reused round-robin.
const SLOTS: u32 = 64;
const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Boots the platform; the pool holds the live cap with room to spare.
pub fn setup(seed: u64, traced: bool) -> Platform {
    Platform::new(config(seed, traced).guest_pool_mib(2048).build())
}

pub fn round(seed: u64, size: u32, traced: bool) -> (Round, Platform) {
    let mut rng = SplitMix64::new(seed);
    let t0 = Instant::now();
    let mut p = setup(seed, traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let img = KernelImage::minios("minios-udp");
    let mut live = Vec::with_capacity(LIVE_CAP + 1);
    let mut m = Meter::with_capacity(size as usize);
    let start = Instant::now();
    for i in 0..size {
        let cfg = DomainConfig::builder(&format!("boot-{i}"))
            .memory_mib(4)
            .vif(IP)
            .build();
        let slot = format!("slot-{}", i % SLOTS);
        let t0 = Instant::now();
        let r = m.timers.time(Call::Create, || p.launch_plain(&cfg, &img));
        let Some(dom) = m.tally.ok("xl create", r) else {
            continue;
        };
        let r = m.timers.time(Call::Save, || {
            p.xl.save(
                &mut p.hv,
                &mut p.xs,
                &mut p.dm,
                &mut p.udev,
                dom,
                &slot,
                &img,
            )
        });
        if m.tally.ok("xl save", r).is_none() {
            continue;
        }
        let r = m.timers.time(Call::Restore, || {
            p.xl.restore(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, &slot, None)
        });
        let Some(restored) = m.tally.ok("xl restore", r) else {
            continue;
        };
        m.op_ns.push(elapsed_ns(t0));
        m.ops += 1;
        m.digest.word(dom.0.into());
        m.digest.word(restored.id.0.into());
        live.push(restored.id);
        if live.len() > LIVE_CAP {
            let victim = live.swap_remove(rng.next_below(live.len() as u64) as usize);
            let r = m.timers.time(Call::Destroy, || p.destroy(victim));
            m.tally.ok("destroy", r);
            m.digest.word(victim.0.into());
        }
    }
    let wall_ns = elapsed_ns(start);
    finish(p, m, setup_s, wall_ns, Vec::new())
}
