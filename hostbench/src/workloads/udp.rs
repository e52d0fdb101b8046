//! `udp_family`: the Fig. 4/5 UDP server with load-balanced serving. A
//! vif'd `UdpEchoApp::shared_port` parent sits in the bond mux and grows
//! a family of `size` members by Dom0 clones, the event loop pumped after
//! each. Every 12 clones the host sends 8 datagrams from seeded source
//! ports to the family's address; each must be echoed exactly once.

use std::net::Ipv4Addr;
use std::time::Instant;

use nephele::apps::UdpEchoApp;
use nephele::netmux::SockEvent;
use nephele::sim_core::{DomId, SplitMix64};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::Platform;

use super::{config, dom0_clone, finish, Meter, Round};
use crate::measure::{elapsed_ns, Call};

/// Family members a benchmark round grows to. Per-op cost grows with
/// the family, so a round's time grows with its square; 2 500 members
/// keep a round near 1.5 s, so a run holds enough rounds for steady
/// medians.
pub const SIZE: u32 = 2_500;
/// Clones between two request bursts: 1 664 requests per round.
const PROBE_EVERY: u32 = 12;
/// Requests per burst; one request round trip is the workload's timed op.
const PROBES: u32 = 8;
/// The family's shared service address.
const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 7000;

/// Boots the platform and the parent, enlisted in the bond mux.
pub fn setup(seed: u64, size: u32, traced: bool) -> (Platform, DomId) {
    // Fig. 5's footprint: a vif'd clone takes ~1.6 MB, mostly RX ring.
    let pool_mib = 256 + u64::from(size) * 2;
    let mut p = Platform::new(config(seed, traced).guest_pool_mib(pool_mib).build());
    let cfg = DomainConfig::builder("udp")
        .memory_mib(4)
        .vif(IP)
        .max_clones(size)
        .build();
    let parent = p
        .launch(
            &cfg,
            &KernelImage::minios("minios-udp"),
            Box::new(UdpEchoApp::shared_port(PORT)),
        )
        .expect("parent boot on a fresh platform");
    p.enlist_in_mux(parent);
    // The parent's readiness notification is not a request's echo.
    p.take_host_events();
    (p, parent)
}

pub fn round(seed: u64, size: u32, traced: bool) -> (Round, Platform) {
    let mut rng = SplitMix64::new(seed);
    let t0 = Instant::now();
    let (mut p, parent) = setup(seed, size, traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut m = Meter::with_capacity(size as usize);
    let start = Instant::now();
    for i in 1..=size {
        dom0_clone(&mut p, &mut m, parent, 1);
        m.timers.time(Call::Pump, || p.pump());
        if i % PROBE_EVERY != 0 {
            continue;
        }
        for _ in 0..PROBES {
            let src_port = rng.range(10_000, 60_000) as u16;
            let tag = rng.next_u64().to_le_bytes();
            let t0 = Instant::now();
            m.timers.time(Call::UdpSend, || {
                p.host_udp_send(IP, src_port, PORT, tag.to_vec())
            });
            m.op_ns.push(elapsed_ns(t0));
            let echoes = p
                .take_host_events()
                .into_iter()
                .filter(|e| {
                    matches!(e, SockEvent::UdpData { port, payload, .. } if *port == src_port && payload[..] == tag)
                })
                .count();
            m.tally.check(echoes == 1, || {
                format!("request from port {src_port} got {echoes} echoes")
            });
            m.digest.word(echoes as u64);
            if echoes == 1 {
                m.ops += 1;
            }
        }
    }
    let wall_ns = elapsed_ns(start);
    finish(p, m, setup_s, wall_ns, Vec::new())
}
