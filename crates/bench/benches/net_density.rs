//! Host cost of one request round trip as a function of family size: the
//! gate that pins per-packet cost independent of the number of live vifs.
//!
//! Each iteration sends one UDP datagram from the host to a clone
//! family's shared address and collects the echo: IP→MAC resolution,
//! bond selection, the RX ring of the chosen member, its guest stack,
//! the reply's TX ring and the pump rounds that carry both. Before the
//! event-driven pump, every pump round walked every live vif twice and
//! each host send scanned them all to resolve the MAC, so the round trip
//! grew linearly with the family. With the pending sets and the IP index
//! it touches only the vif that has work. `scripts/verify.sh` asserts the
//! 10^3-member median stays within 3x of the 10^2-member median.

use std::net::Ipv4Addr;

use testkit::bench::Bench;

use nephele::apps::UdpEchoApp;
use nephele::netmux::SockEvent;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, MuxKind, Platform, PlatformConfig, TraceConfig};

const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 7000;

/// Builds a bond family of `members` UDP echo servers (the root plus
/// `members - 1` Dom0 clones sharing its port).
fn family(members: u32) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256 + u64::from(members) * 2)
            .ring_capacity(1_024)
            .mux(MuxKind::Bond)
            .seed(0x7e7_de25)
            .tracing(TraceConfig::default())
            .audit(AuditMode::Off)
            .build(),
    );
    let cfg = DomainConfig::builder("net-density")
        .memory_mib(4)
        .vif(IP)
        .max_clones(members)
        .build();
    let root = p
        .launch(
            &cfg,
            &KernelImage::minios("net-density"),
            Box::new(UdpEchoApp::shared_port(PORT)),
        )
        .expect("root boot");
    p.enlist_in_mux(root);
    let mut made = 1u32;
    while made < members {
        let want = (members - made).min(100);
        let kids = p.clone_domain(root, want).expect("family clone");
        assert_eq!(
            kids.len() as u32,
            want,
            "pool exhausted while growing the family"
        );
        made += want;
    }
    p.pump();
    assert_eq!(p.snapshot().mux_members, members as usize);
    p.take_host_events();
    p
}

fn main() {
    let mut c = Bench::new("net_density");
    for members in [100u32, 1_000] {
        let mut g = c.benchmark_group(&format!("family_{members}"));
        g.sample_size(30);
        let mut p = family(members);
        let mut src_port = 10_000u16;
        g.bench_function("udp_round_trip", |b| {
            b.iter(|| {
                src_port = if src_port >= 60_000 {
                    10_000
                } else {
                    src_port + 1
                };
                p.host_udp_send(IP, src_port, PORT, b"ping".to_vec());
                let echoes = p
                    .take_host_events()
                    .into_iter()
                    .filter(|e| matches!(e, SockEvent::UdpData { port, .. } if *port == src_port))
                    .count();
                assert_eq!(echoes, 1, "request from port {src_port}");
            })
        });
        g.finish();
    }
    c.finish();
}
