//! Ablation study: isolates the contribution of individual Nephele design
//! choices (see DESIGN.md §4).
//!
//! Usage: `cargo run -p bench --release --bin ablation`

use std::net::Ipv4Addr;

use bench::support::{udp_guest_cfg, udp_image};
use nephele::apps::UdpEchoApp;
use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{ClonePolicy, DeviceClass, MuxKind, Platform, PlatformConfig};

fn clone_mean_ms(p: &mut Platform, parent: DomId, n: usize) -> f64 {
    let t0 = p.clock.now();
    for _ in 0..n {
        p.guest_fork(parent, 1).expect("fork");
    }
    p.clock.now().since(t0).as_ms_f64() / n as f64
}

fn platform(mux: MuxKind) -> Platform {
    Platform::new(PlatformConfig::builder().mux(mux).build())
}

fn boot_parent(p: &mut Platform) -> DomId {
    let parent = p
        .launch(
            &udp_guest_cfg("udp", u32::MAX),
            &udp_image(),
            Box::new(UdpEchoApp::new(7000)),
        )
        .expect("boot");
    p.enlist_in_mux(parent);
    parent
}

fn ablate_xs_clone() {
    println!("## xs_clone vs deep copy (mean clone time, ms)");
    println!("instances,xs_clone,deep_copy");
    for n in [50usize, 200, 500] {
        let mut with = platform(MuxKind::Bond);
        let parent = boot_parent(&mut with);
        let fast = clone_mean_ms(&mut with, parent, n);

        let mut without = platform(MuxKind::Bond);
        without.daemon.config.use_xs_clone = false;
        let parent = boot_parent(&mut without);
        let slow = clone_mean_ms(&mut without, parent, n);
        println!("{n},{fast:.2},{slow:.2}");
    }
}

fn ablate_mux() {
    println!("\n## clone mux flavour (mean clone time over 100 clones, ms)");
    println!("mux,clone_ms");
    for (label, mux) in [
        ("bond", MuxKind::Bond),
        ("ovs", MuxKind::Ovs),
        ("none", MuxKind::None),
    ] {
        let mut p = platform(mux);
        let parent = boot_parent(&mut p);
        let ms = clone_mean_ms(&mut p, parent, 100);
        println!("{label},{ms:.2}");
    }
}

fn ablate_ring_capacity() {
    println!("\n## notification-ring capacity (burst of 64 clones in one hypercall)");
    println!("capacity,succeeded_without_drain");
    for cap in [4usize, 16, 64, 128] {
        let mut p = Platform::new(
            PlatformConfig::builder()
                .ring_capacity(cap)
                .mux(MuxKind::None)
                .build(),
        );
        let parent = p
            .launch(
                &udp_guest_cfg("udp", u32::MAX),
                &udp_image(),
                Box::new(UdpEchoApp::new(7000)),
            )
            .unwrap();
        // Issue first-stage clones without draining: backpressure kicks in
        // once the ring fills (§5).
        use nephele::hypervisor::cloneop::CloneOp;
        let mut ok = 0;
        for _ in 0..64 {
            if p
                .hv
                .cloneop(
                    DomId::DOM0,
                    CloneOp::Clone {
                        target: Some(parent),
                        nr_clones: 1,
                    },
                )
                .is_ok()
            {
                ok += 1;
            } else {
                break;
            }
        }
        println!("{cap},{ok}");
        let _ = p.finish_pending_clones(parent);
    }
}

fn ablate_device_cloning() {
    println!("\n## device-cloning scope (mean clone time over 50 clones, ms)");
    println!("devices_cloned,clone_ms");
    for (label, network, p9) in [
        ("all", true, true),
        ("no_network", false, true),
        ("minimal", false, false),
    ] {
        let mut p = Platform::new(PlatformConfig::builder().mux(MuxKind::None).build());
        p.daemon.config.policy = ClonePolicy::all()
            .set(DeviceClass::Vif, network)
            .set(DeviceClass::P9fs, p9);
        p.daemon.config.minimal = !network && !p9;
        let cfg = DomainConfig::builder("redis")
            .memory_mib(16)
            .vif(Ipv4Addr::new(10, 0, 0, 2))
            .p9fs("/export")
            .max_clones(u32::MAX)
            .build();
        // No guest app: we isolate the second stage's device work from
        // application-level fork behaviour.
        let parent = p.launch_plain(&cfg, &KernelImage::unikraft("redis")).unwrap();
        let t0 = p.clock.now();
        for _ in 0..50 {
            p.clone_domain(parent, 1).expect("clone");
        }
        let ms = p.clock.now().since(t0).as_ms_f64() / 50.0;
        println!("{label},{ms:.2}");
    }
}

fn main() {
    eprintln!("ablation: isolating Nephele design choices...");
    ablate_xs_clone();
    ablate_mux();
    ablate_ring_capacity();
    ablate_device_cloning();
}
