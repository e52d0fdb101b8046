//! End-to-end cloning lifecycle: boot → clone → COW divergence → destroy.

use std::net::Ipv4Addr;

use nephele::apps::{MemhogApp, UdpEchoApp};
use nephele::hypervisor::cloneop::CloneOp;
use nephele::hypervisor::domain::DomainState;
use nephele::hypervisor::memory::{FrameOwner, PageContent};
use nephele::sim_core::{DomId, Pfn};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{Platform, PlatformConfig};

fn cfg(name: &str, last_octet: u8) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, last_octet))
        .max_clones(64)
        .build()
}

#[test]
fn full_lifecycle() {
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("udp");
    let parent = p.launch_plain(&cfg("udp", 2), &img).unwrap();

    // Dirty a page pre-clone so we can observe sharing.
    p.hv.write_page(parent, Pfn(50), 0, b"shared-data").unwrap();

    let kids = p.clone_domain(parent, 3).unwrap();
    assert_eq!(kids.len(), 3);

    // All four domains run; all children registered everywhere.
    assert_eq!(p.hv.domain(parent).unwrap().state, DomainState::Running);
    for k in &kids {
        assert_eq!(p.hv.domain(*k).unwrap().state, DomainState::Running);
        assert!(p.xl.record(*k).is_some(), "toolstack registry");
        assert!(p.xs.exists(&format!("/local/domain/{}", k.0)), "xenstore home");
        assert!(p.dm.vif(*k, 0).unwrap().is_connected(), "vif connected");
        assert!(p.dm.console_attached(*k), "console attached");
    }

    // The dirtied page is one COW frame shared by four domains.
    let mfn = p.hv.domain(parent).unwrap().lookup(Pfn(50)).unwrap();
    assert_eq!(p.hv.frames().inspect(mfn).unwrap().owner(), FrameOwner::Cow);
    assert_eq!(p.hv.frames().inspect(mfn).unwrap().refcount(), 4);
    for k in &kids {
        assert_eq!(p.hv.domain(*k).unwrap().lookup(Pfn(50)).unwrap(), mfn);
    }

    // One child diverges; the others and the parent are unaffected.
    p.hv.write_page(kids[0], Pfn(50), 0, b"child0-data").unwrap();
    let mut buf = [0u8; 11];
    p.hv.read_page(parent, Pfn(50), 0, &mut buf).unwrap();
    assert_eq!(&buf, b"shared-data");
    p.hv.read_page(kids[0], Pfn(50), 0, &mut buf).unwrap();
    assert_eq!(&buf, b"child0-data");
    p.hv.read_page(kids[1], Pfn(50), 0, &mut buf).unwrap();
    assert_eq!(&buf, b"shared-data");
    assert_eq!(p.hv.frames().inspect(mfn).unwrap().refcount(), 3);

    // Destroying everything returns all memory.
    let live_before_any = p.snapshot().hyp_free_bytes;
    for k in kids {
        p.destroy(k).unwrap();
    }
    p.destroy(parent).unwrap();
    assert!(p.snapshot().hyp_free_bytes > live_before_any);
    assert!(!p.hv.domain_exists(parent));
}

#[test]
fn nested_families_share_transitively() {
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("udp");
    let root = p.launch_plain(&cfg("root", 2), &img).unwrap();
    let child = p.clone_domain(root, 1).unwrap()[0];
    let grandchild = p.clone_domain(child, 1).unwrap()[0];

    assert!(p.hv.is_descendant(grandchild, root));
    assert!(p.hv.same_family(grandchild, root));

    // A never-written image page is one frame shared by all three.
    let mfn = p.hv.domain(root).unwrap().lookup(Pfn(0)).unwrap();
    assert_eq!(p.hv.domain(grandchild).unwrap().lookup(Pfn(0)).unwrap(), mfn);
    assert_eq!(p.hv.frames().inspect(mfn).unwrap().refcount(), 3);
}

#[test]
fn clone_of_unconfigured_domain_fails() {
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("udp");
    let cfg = DomainConfig::builder("noclone")
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 9))
        .build(); // max_clones = 0
    let d = p.launch_plain(&cfg, &img).unwrap();
    assert!(p.clone_domain(d, 1).is_err());
}

#[test]
fn paused_clone_policy_leaves_children_stopped() {
    // §5: "the child domains are either resumed or left in paused state,
    // depending on how they are configured."
    let mut p = Platform::new(PlatformConfig::small());
    let cfg = DomainConfig::builder("paused")
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 8))
        .max_clones(4)
        .resume_clones(false)
        .build();
    let parent = p.launch_plain(&cfg, &KernelImage::minios("paused")).unwrap();
    let child = p.clone_domain(parent, 1).unwrap()[0];

    // The parent resumed; the child stays paused until explicitly woken.
    assert_eq!(p.hv.domain(parent).unwrap().state, DomainState::Running);
    assert_eq!(p.hv.domain(child).unwrap().state, DomainState::Paused);
    p.hv.unpause(child).unwrap();
    assert!(p.hv.domain(child).unwrap().is_runnable());
}

#[test]
fn memory_density_clone_vs_boot() {
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("udp");
    let parent = p.launch_plain(&cfg("density", 2), &img).unwrap();

    let before = p.snapshot().hyp_free_bytes;
    p.clone_domain(parent, 8).unwrap();
    let per_clone = (before - p.snapshot().hyp_free_bytes) / 8;

    // A 4 MiB guest must cost far less than 4 MiB per clone; the paper
    // reports ~1.6 MiB dominated by the RX ring.
    assert!(per_clone < 2 * 1024 * 1024, "per-clone = {per_clone} bytes");
    assert!(per_clone > 512 * 1024, "rings must still be duplicated");
}

#[test]
fn rax_discriminates_parent_and_children() {
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("udp");
    let parent = p.launch_plain(&cfg("rax", 2), &img).unwrap();
    let kids = p.clone_domain(parent, 2).unwrap();
    assert_eq!(p.hv.domain(parent).unwrap().vcpus[0].regs.rax, 0);
    for k in kids {
        assert_eq!(p.hv.domain(k).unwrap().vcpus[0].regs.rax, 1);
    }
}

#[test]
fn xenstore_parent_entry_written_for_clones() {
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("udp");
    let parent = p.launch_plain(&cfg("xsp", 2), &img).unwrap();
    let child = p.clone_domain(parent, 1).unwrap()[0];
    assert_eq!(
        p.xs.read(DomId::DOM0, &format!("/local/domain/{}/parent", child.0))
            .unwrap(),
        parent.0.to_string()
    );
    // Clone names are generated and unique without any validation scan.
    let name = p
        .xs
        .read(DomId::DOM0, &format!("/local/domain/{}/name", child.0))
        .unwrap();
    assert_eq!(name, "xsp-c1");
}

#[test]
fn cloning_a_vif_guest_materializes_no_page() {
    // Every page a clone of a 1-vif guest gets is a zero page, a shared
    // frame or its compact start_info: none holds a 4 KiB byte buffer.
    let mut p = Platform::new(PlatformConfig::small());
    let img = KernelImage::minios("udp");
    let parent = p.launch_plain(&cfg("lean", 2), &img).unwrap();
    let materialized = |p: &Platform| {
        p.hv.frames()
            .iter_frames()
            .filter(|(_, f)| matches!(f.content(), PageContent::Bytes(_)))
            .count()
    };
    let before = materialized(&p);
    let kids = p.clone_domain(parent, 4).unwrap();
    assert_eq!(kids.len(), 4);
    assert_eq!(materialized(&p), before, "cloning materialized a page");
}

#[test]
fn stage2_gives_each_child_its_own_parents_guest() {
    // One stage-2 drain completes every queued notification, whichever
    // parent's stage 2 was asked for; each child must still run a copy
    // of its own parent's guest.
    let mut p = Platform::new(PlatformConfig::small());
    let a = p
        .launch(
            &cfg("memhog", 2),
            &KernelImage::minios("memhog"),
            Box::new(MemhogApp::new(1)),
        )
        .unwrap();
    let b = p
        .launch(
            &cfg("echo", 3),
            &KernelImage::minios("echo"),
            Box::new(UdpEchoApp::new(7000)),
        )
        .unwrap();
    let fork = CloneOp::Clone {
        target: None,
        nr_clones: 1,
    };
    for parent in [a, b] {
        p.hv.cloneop(parent, fork.clone()).unwrap();
    }

    let kids = p.finish_pending_clones(a).unwrap();
    assert_eq!(kids.len(), 2, "the drain completes both parents' children");
    assert_eq!(p.hv.domain(kids[0]).unwrap().parent, Some(a));
    assert_eq!(p.hv.domain(kids[1]).unwrap().parent, Some(b));
    assert!(
        p.with_app::<MemhogApp, _>(kids[0], |_, _| ()).is_some(),
        "A's child runs A's guest"
    );
    assert!(
        p.with_app::<UdpEchoApp, _>(kids[1], |_, _| ()).is_some(),
        "B's child runs B's guest"
    );
}
