//! Property suite for the event-driven network fabric: the event loop
//! visits only vifs with queued packets, host sends resolve through the
//! IP index, and a domain that leaves takes its clone-mux membership and
//! its MAC-table entry with it.
//!
//! Each tape drives one small UDP echo family, in a bond or an OVS select
//! group, plus standalone echo servers that the bridge's MAC table routes
//! to. The ops are: launch (the family root when the family is empty, a
//! standalone otherwise), a guest fork or a Dom0 clone of 1–3 children of
//! a family member, destroying any live domain (the family root
//! included), a host send from a random source port, and advancing
//! virtual time. The platform audits after every op (`AuditMode::EveryOp`)
//! and the test audits again after each step. Every request to a family
//! with a live member must get exactly one echo; a request to a family
//! with none gets none.

use std::net::Ipv4Addr;

use nephele::apps::UdpEchoApp;
use nephele::netmux::SockEvent;
use nephele::sim_core::{DomId, SimDuration};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, MuxKind, Platform, PlatformConfig};
use testkit::prop::{bools, check, ranges, vecs, Gen};

const FAMILY_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 7000;

#[derive(Debug, Clone)]
enum Op {
    /// Boot the family root if the family is empty, else a standalone.
    Launch,
    /// Guest-initiated fork of family member `idx` into `nr` children.
    Fork { idx: u64, nr: u32 },
    /// Dom0-triggered clone of family member `idx` into `nr` children.
    Clone { idx: u64, nr: u32 },
    /// Destroy live domain `idx` (family members first, then standalones).
    Destroy { idx: u64 },
    /// Host send to family `idx` (the clone family first, then each
    /// standalone) from `src_port`.
    Send { idx: u64, src_port: u16 },
    /// Advance virtual time.
    Run { ms: u64 },
}

fn ops_gen() -> impl Gen<Value = Vec<Op>> {
    vecs(
        (ranges(0u64..7), ranges(0u64..64), ranges(10_000u64..60_000)).map(|(kind, idx, n)| {
            match kind {
                0 => Op::Launch,
                1 => Op::Fork {
                    idx,
                    nr: 1 + (n % 3) as u32,
                },
                2 => Op::Clone {
                    idx,
                    nr: 1 + (n % 3) as u32,
                },
                3 => Op::Destroy { idx },
                4 | 5 => Op::Send {
                    idx,
                    src_port: n as u16,
                },
                _ => Op::Run { ms: 1 + n % 50 },
            }
        }),
        1..16,
    )
}

fn echo_cfg(name: &str, ip: Ipv4Addr) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(4)
        .vif(ip)
        .max_clones(64)
        .build()
}

/// Echoes of the request tagged `tag` that the host received on `port`.
fn echoes(p: &mut Platform, port: u16, tag: &[u8]) -> usize {
    p.take_host_events()
        .into_iter()
        .filter(|e| {
            matches!(e, SockEvent::UdpData { port: to, payload, .. } if *to == port && payload[..] == *tag)
        })
        .count()
}

#[test]
fn every_request_to_a_live_family_is_echoed_once() {
    let img = KernelImage::minios("echo");
    check(24, |g| {
        let mux = if g.draw(&bools()) {
            MuxKind::Bond
        } else {
            MuxKind::Ovs
        };
        let ops = g.draw(&ops_gen());
        let mut p = Platform::new(
            PlatformConfig::builder()
                .guest_pool_mib(192)
                .ring_capacity(128)
                .mux(mux)
                .audit(AuditMode::EveryOp)
                .flightrec_dir("target/test-flightrec")
                .build(),
        );
        let mut family: Vec<DomId> = Vec::new();
        let mut standalones: Vec<(DomId, Ipv4Addr)> = Vec::new();
        let mut next_host = 1u8;
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Launch if family.is_empty() => {
                    let app = Box::new(UdpEchoApp::shared_port(PORT));
                    let root = p
                        .launch(&echo_cfg("family", FAMILY_IP), &img, app)
                        .expect("root boot");
                    p.enlist_in_mux(root);
                    family.push(root);
                }
                Op::Launch => {
                    let ip = Ipv4Addr::new(10, 0, 1, next_host);
                    next_host += 1;
                    let app = Box::new(UdpEchoApp::new(PORT));
                    let dom = p
                        .launch(&echo_cfg(&format!("solo{ip}"), ip), &img, app)
                        .expect("boot");
                    standalones.push((dom, ip));
                }
                Op::Fork { idx, nr } | Op::Clone { idx, nr } if !family.is_empty() => {
                    let parent = family[*idx as usize % family.len()];
                    let kids = match op {
                        Op::Fork { .. } => p.guest_fork(parent, *nr),
                        _ => p.clone_domain(parent, *nr),
                    };
                    family.extend(kids.unwrap_or_default());
                }
                Op::Fork { .. } | Op::Clone { .. } => {}
                Op::Destroy { idx } => {
                    let live = family.len() + standalones.len();
                    if live > 0 {
                        let i = *idx as usize % live;
                        let dom = if i < family.len() {
                            family.remove(i)
                        } else {
                            standalones.remove(i - family.len()).0
                        };
                        p.destroy(dom).expect("destroy a live domain");
                    }
                }
                Op::Send { idx, src_port } => {
                    // Family 0 is the clone family; the rest are standalones.
                    let i = *idx as usize % (1 + standalones.len());
                    let (ip, live) = match i {
                        0 => (FAMILY_IP, !family.is_empty()),
                        _ => (standalones[i - 1].1, true),
                    };
                    p.take_host_events();
                    let tag = format!("req{step}").into_bytes();
                    p.host_udp_send(ip, *src_port, PORT, tag.clone());
                    let got = echoes(&mut p, *src_port, &tag);
                    assert_eq!(
                        got,
                        usize::from(live),
                        "{mux:?}: request {step} to {ip} (family {family:?}, standalones \
                         {standalones:?}) got {got} echoes, after {ops:?}"
                    );
                }
                Op::Run { ms } => p.run_for(SimDuration::from_ms(*ms)),
            }
            let report = p.audit();
            assert!(
                report.is_clean(),
                "{mux:?}: after op {step} of {ops:?}:\n{report}"
            );
        }
    });
}
