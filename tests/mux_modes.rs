//! The two clone-networking options of §5.2.1 — Linux bond and Open
//! vSwitch select groups — exercised end-to-end, including members
//! leaving the family, plus save/restore interplay with cloning.

use std::net::Ipv4Addr;

use nephele::apps::UdpEchoApp;
use nephele::netmux::SockEvent;
use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform, PlatformConfig};

const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn cfg(name: &str) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(4)
        .vif(IP)
        .max_clones(64)
        .build()
}

fn run_family_udp(mux: MuxKind) -> usize {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .ring_capacity(128)
            .mux(mux)
            .build(),
    );
    let parent = p
        .launch(
            &cfg("echo"),
            &KernelImage::minios("echo"),
            Box::new(UdpEchoApp::shared_port(7000)),
        )
        .unwrap();
    p.enlist_in_mux(parent);
    p.guest_fork(parent, 3).unwrap();
    p.take_host_events();
    for port in 0..24u16 {
        p.host_udp_send(IP, 5000 + port, 7000, b"q".to_vec());
    }
    p.take_host_events()
        .into_iter()
        .filter(|e| matches!(e, SockEvent::UdpData { src_port: 7000, .. }))
        .count()
}

#[test]
fn bond_and_ovs_both_serve_every_flow() {
    assert_eq!(run_family_udp(MuxKind::Bond), 24);
    assert_eq!(run_family_udp(MuxKind::Ovs), 24);
}

/// A four-member family in `mux` loses one member through `kill`; the
/// survivors must still answer every one of 24 flows, and the audit
/// must stay clean.
fn serve_after_losing_a_member(mux: MuxKind, kill: impl Fn(&mut Platform, DomId)) -> usize {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .ring_capacity(128)
            .mux(mux)
            .build(),
    );
    let parent = p
        .launch(
            &cfg("echo"),
            &KernelImage::minios("echo"),
            Box::new(UdpEchoApp::shared_port(7000)),
        )
        .unwrap();
    p.enlist_in_mux(parent);
    let kids = p.guest_fork(parent, 3).unwrap();
    kill(&mut p, kids[1]);
    assert_eq!(p.snapshot().mux_members, 3, "the victim left the {mux:?} mux");
    let report = p.audit();
    assert!(report.is_clean(), "{report}");
    p.take_host_events();
    for port in 0..24u16 {
        p.host_udp_send(IP, 5000 + port, 7000, b"q".to_vec());
    }
    echoes_from(&mut p, 7000)
}

fn echoes_from(p: &mut Platform, port: u16) -> usize {
    p.take_host_events()
        .into_iter()
        .filter(|e| matches!(e, SockEvent::UdpData { src_port, .. } if *src_port == port))
        .count()
}

#[test]
fn destroyed_family_member_leaves_the_mux() {
    for mux in [MuxKind::Bond, MuxKind::Ovs] {
        let served = serve_after_losing_a_member(mux, |p, victim| p.destroy(victim).unwrap());
        assert_eq!(served, 24, "{mux:?}: a destroyed member must take no flows");
    }
}

/// `xl save` destroys the domain through the toolstack alone, bypassing
/// `Platform::destroy`; the device teardown must still detach it.
#[test]
fn saved_family_member_leaves_the_mux() {
    let img = KernelImage::minios("echo");
    for mux in [MuxKind::Bond, MuxKind::Ovs] {
        let served = serve_after_losing_a_member(mux, |p, victim| {
            p.xl
                .save(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, victim, "slot", &img)
                .unwrap()
        });
        assert_eq!(served, 24, "{mux:?}: a saved member must take no flows");
    }
}

/// A domain that reuses a destroyed domain's id inherits its MAC
/// (`MacAddr::xen(domid, devid)`); the bridge's MAC table must route to
/// the new interface, not the dead one.
#[test]
fn reused_domid_receives_its_traffic() {
    let mut p = Platform::new(PlatformConfig::builder().guest_pool_mib(256).build());
    let img = KernelImage::minios("echo");
    let first_ip = Ipv4Addr::new(10, 0, 1, 1);
    let second_ip = Ipv4Addr::new(10, 0, 1, 2);
    let standalone = |name: &str, ip: Ipv4Addr| {
        DomainConfig::builder(name).memory_mib(4).vif(ip).build()
    };
    let first = p
        .launch(&standalone("first", first_ip), &img, Box::new(UdpEchoApp::new(7000)))
        .unwrap();
    p.destroy(first).unwrap();
    let second = p
        .launch(&standalone("second", second_ip), &img, Box::new(UdpEchoApp::new(7000)))
        .unwrap();
    assert_eq!(second, first, "the domid allocator reuses the freed id");
    let report = p.audit();
    assert!(report.is_clean(), "{report}");
    p.take_host_events();
    p.host_udp_send(second_ip, 5000, 7000, b"q".to_vec());
    assert_eq!(echoes_from(&mut p, 7000), 1);
}

#[test]
fn restored_domain_can_be_cloned() {
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("sr");
    let d = p.launch_plain(&cfg("sr"), &img).unwrap();
    p.hv.write_page(d, nephele::sim_core::Pfn(9), 0, b"persist").unwrap();

    p.xl
        .save(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, d, "slot", &img)
        .unwrap();
    let restored = p
        .xl
        .restore(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, "slot", None)
        .unwrap()
        .id;

    // The restored domain carries its state and its clone policy, so it
    // can immediately be cloned — and the clone sees the restored state.
    let child = p.clone_domain(restored, 1).unwrap()[0];
    let mut buf = [0u8; 7];
    p.hv.read_page(child, nephele::sim_core::Pfn(9), 0, &mut buf).unwrap();
    assert_eq!(&buf, b"persist");
}

#[test]
fn clone_of_clone_chains_through_generations() {
    let mut p = Platform::new(PlatformConfig::small());
    let root = p
        .launch(&cfg("gen"), &KernelImage::minios("gen"), Box::new(UdpEchoApp::new(7000)))
        .unwrap();
    p.enlist_in_mux(root);
    let mut current = root;
    for gen in 0..5 {
        let kids = p.guest_fork(current, 1).unwrap();
        assert_eq!(kids.len(), 1, "generation {gen}");
        current = kids[0];
    }
    assert!(p.hv.is_descendant(current, root));
    // Five generations of clones plus the root are alive and connected.
    assert_eq!(p.hv.domain_count(), 7); // dom0 + 6 family members
    assert_eq!(p.snapshot().mux_members, 6); // root + 5 generations
}
