//! Quickstart: boot a unikernel, clone it, and watch copy-on-write at work.
//!
//! Run with: `cargo run --release --example quickstart`

use std::net::Ipv4Addr;

use nephele::hypervisor::memory::FrameOwner;
use nephele::sim_core::Pfn;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{Platform, PlatformConfig};

fn main() {
    // A full virtualization platform: hypervisor, Xenstore, device
    // backends, toolstack and the xencloned daemon.
    let mut platform = Platform::new(PlatformConfig::default());

    // Boot a 4 MiB unikernel with one network interface, allowed to clone.
    let config = DomainConfig::builder("demo")
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .max_clones(16)
        .build();
    let t0 = platform.clock.now();
    let parent = platform
        .launch_plain(&config, &KernelImage::minios("demo"))
        .expect("boot");
    let boot_time = platform.clock.now().since(t0);
    println!("booted {parent} in {boot_time} (virtual time)");

    // Write some state so the sharing is visible.
    platform
        .hv
        .write_page(parent, Pfn(100), 0, b"hello from the parent")
        .unwrap();

    // Clone it three times (Dom0-triggered, like VM fuzzing would).
    let t1 = platform.clock.now();
    let clones = platform.clone_domain(parent, 3).expect("clone");
    let clone_time = platform.clock.now().since(t1);
    println!("cloned 3 instances in {clone_time} total ({:.1}x faster than boot, per clone)",
        boot_time.as_ns() as f64 / (clone_time.as_ns() as f64 / 3.0));

    // All four domains share the written page through dom_cow.
    let mfn = platform.hv.domain(parent).unwrap().lookup(Pfn(100)).unwrap();
    let frame = platform.hv.frames().inspect(mfn).unwrap();
    println!(
        "page {mfn}: owner = {:?}, shared by {} domains",
        frame.owner(),
        frame.refcount()
    );
    assert_eq!(frame.owner(), FrameOwner::Cow);

    // A clone reads the parent's data...
    let mut buf = [0u8; 21];
    platform.hv.read_page(clones[0], Pfn(100), 0, &mut buf).unwrap();
    println!("clone {} reads: {:?}", clones[0], String::from_utf8_lossy(&buf));

    // ...and writing diverges it without touching anyone else.
    platform
        .hv
        .write_page(clones[0], Pfn(100), 0, b"hello from the clone!")
        .unwrap();
    platform.hv.read_page(parent, Pfn(100), 0, &mut buf).unwrap();
    println!("parent still reads: {:?}", String::from_utf8_lossy(&buf));

    // Memory economics: a clone costs a fraction of a boot.
    let before = platform.snapshot().hyp_free_bytes;
    platform.clone_domain(parent, 1).unwrap();
    let clone_cost = before - platform.snapshot().hyp_free_bytes;
    println!(
        "one more clone consumed {} KiB (a full 4 MiB boot would consume >4096 KiB)",
        clone_cost / 1024
    );
}
