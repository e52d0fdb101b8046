//! Property suite for the device bus (§4.2), at platform level (the
//! audit runs on every op).
//!
//! 1. **Stage 2 clones every class like its parent.** For random mixes of
//!    a console, 0..=2 vifs and an optional 9pfs, and a random number of
//!    clones, every child comes up with its console attached, the
//!    parent's vif devids connected, its 9pfs served by the parent's QEMU
//!    process, and device Xenstore subtrees equal to the parent's with the
//!    domid rewritten.
//! 2. **COW block overlays.** Clone families share one base image;
//!    writes diverge per clone and never leak across members.
//! 3. **Vsock reconnect.** Every clone comes up on its own
//!    deterministically reallocated port with an empty stream.
//! 4. **Detach-on-clone (negative).** Cloning a domain holding an
//!    exclusively passed-through USB device leaves the child detached
//!    (no device state, no Xenstore nodes) and the parent attached, with
//!    a clean audit throughout.

use std::net::Ipv4Addr;

use nephele::devices::block::SECTOR_SIZE;
use nephele::devices::p9fs::{P9Request, P9Response};
use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::xenstore::Xenstore;
use nephele::{AuditMode, Platform, PlatformConfig};
use testkit::prop::{check, ranges};

fn audited(dir: &str) -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::EveryOp)
            .flightrec_dir(dir)
            .build(),
    )
}

fn mixed_cfg(nvifs: u64, p9: bool) -> DomainConfig {
    let mut b = DomainConfig::builder("mix").memory_mib(4).max_clones(64);
    for i in 0..nvifs {
        b = b.vif(Ipv4Addr::new(10, 0, 0, 2 + i as u8));
    }
    if p9 {
        b = b.p9fs("/export");
    }
    b.build()
}

/// Rewrites `from`'s domid to `to` the way the paper's `xs_clone` device
/// heuristic does (Fig. 3): a bare domid value, the `/local/domain/<id>`
/// component, and the frontend-domid component of a backend path.
fn rewrite(s: &str, from: DomId, to: DomId) -> String {
    if s == from.0.to_string() {
        return to.0.to_string();
    }
    let mut parts: Vec<String> = s.split('/').map(str::to_string).collect();
    let at = if s.starts_with("/local/domain/0/backend/") { 6 } else { 3 };
    if s.starts_with("/local/domain/") && parts.get(at) == Some(&from.0.to_string()) {
        parts[at] = to.0.to_string();
    }
    parts.join("/")
}

/// Every (path, value) pair of `dom`'s device subtrees — console,
/// frontends and the vif/9pfs backends — with `dom` rewritten to `as_dom`.
fn device_nodes(xs: &Xenstore, dom: DomId, as_dom: DomId) -> Vec<(String, Option<String>)> {
    fn walk(xs: &Xenstore, path: &str, out: &mut Vec<(String, Option<String>)>) {
        out.push((path.to_string(), xs.peek(path)));
        for child in xs.peek_directory(path) {
            walk(xs, &format!("{path}/{child}"), out);
        }
    }
    let mut out = Vec::new();
    for root in [
        format!("/local/domain/{}/console", dom.0),
        format!("/local/domain/{}/device", dom.0),
        format!("/local/domain/0/backend/vif/{}", dom.0),
        format!("/local/domain/0/backend/9pfs/{}", dom.0),
    ] {
        walk(xs, &root, &mut out);
    }
    out.into_iter()
        .map(|(path, value)| {
            let value = value.map(|v| rewrite(&v, dom, as_dom));
            (rewrite(&path, dom, as_dom), value)
        })
        .collect()
}

#[test]
fn stage2_clones_every_class_like_its_parent() {
    check(16, |g| {
        let nvifs = g.draw(&ranges(0u64..3));
        let p9 = g.draw(&ranges(0u64..2)) == 1;
        let nclones = g.draw(&ranges(1u64..4));
        let mut p = audited("target/test-prop-bus-mix");
        let parent = p
            .launch_plain(&mixed_cfg(nvifs, p9), &KernelImage::minios("mix"))
            .unwrap();
        if p9 {
            // An open fid the clones must inherit through the shared
            // backend process.
            p.dm.p9_request(parent, P9Request::Attach { fid: 0 }).unwrap();
            p.dm.p9_request(parent, P9Request::Create { fid: 0, name: "db".into() })
                .unwrap();
            p.dm.p9_request(parent, P9Request::Write { fid: 0, offset: 0, data: b"v1".to_vec() })
                .unwrap();
        }
        let children: Vec<DomId> =
            (0..nclones).map(|_| p.clone_domain(parent, 1).unwrap()[0]).collect();

        let case = format!("vifs={nvifs}, p9={p9}, clones={nclones}");
        for &c in &children {
            assert!(p.dm.console_attached(c), "console not attached ({case})");
            for devid in 0..nvifs as u32 {
                let vif = p.dm.vif(c, devid).unwrap_or_else(|| panic!("vif {devid} missing ({case})"));
                assert!(vif.is_connected(), "vif {devid} not connected ({case})");
            }
            assert!(p.dm.vif(c, nvifs as u32).is_none(), "extra vif ({case})");
            assert_eq!(p.dm.p9_served(c), p9, "9pfs service ({case})");
            if p9 {
                let r = p.dm.p9_request(c, P9Request::Read { fid: 0, offset: 0, count: 10 });
                assert_eq!(r.unwrap(), P9Response::Data(b"v1".to_vec()), "inherited fid ({case})");
            }
            assert_eq!(
                device_nodes(&p.xs, c, c),
                device_nodes(&p.xs, parent, c),
                "device subtrees differ from the parent's ({case})"
            );
        }
        // The parent's QEMU process serves the whole family: one process
        // however many clones, so every served child is served by it.
        assert_eq!(p.dm.qemu_count(), usize::from(p9), "backend processes ({case})");
        assert!(p.audit().is_clean(), "audit after stage 2 ({case})");
    });
}

#[test]
fn block_overlays_diverge_per_clone_and_share_the_base() {
    check(12, |g| {
        let sectors = g.draw(&ranges(4u64..32));
        let writes = g.draw(&ranges(1u64..8));
        let mut p = audited("target/test-prop-bus-blk");
        let cfg = DomainConfig::builder("blk")
            .memory_mib(4)
            .vbd(sectors)
            .max_clones(16)
            .build();
        let parent = p.launch_plain(&cfg, &KernelImage::unikraft("blk")).unwrap();

        // Parent dirties a few sectors, then clones.
        for s in 0..writes.min(sectors) {
            p.dm.vbd_write(parent, 0, s, &[0xAA; SECTOR_SIZE]).unwrap();
        }
        let child = p.clone_domain(parent, 1).unwrap()[0];

        // The child inherits the parent's view...
        for s in 0..writes.min(sectors) {
            assert_eq!(p.dm.vbd_read(child, 0, s).unwrap(), [0xAA; SECTOR_SIZE]);
        }
        // ...shares the base image by reference...
        let (pa, ca) = (
            p.dm.vbd(parent, 0).unwrap().base_addr(),
            p.dm.vbd(child, 0).unwrap().base_addr(),
        );
        assert_eq!(pa, ca, "clone must share the parent's base image");
        // ...and diverges privately.
        let s = writes.min(sectors) - 1;
        p.dm.vbd_write(child, 0, s, &[0xBB; SECTOR_SIZE]).unwrap();
        assert_eq!(p.dm.vbd_read(child, 0, s).unwrap(), [0xBB; SECTOR_SIZE]);
        assert_eq!(p.dm.vbd_read(parent, 0, s).unwrap(), [0xAA; SECTOR_SIZE]);

        let snap = p.snapshot();
        assert!(snap.blk_shared_bytes > 0, "family must report shared block bytes");
        assert!(p.audit().is_clean(), "audit after block divergence");
    });
}

#[test]
fn vsock_clones_reconnect_on_deterministic_ports() {
    let mut p = audited("target/test-prop-bus-vsock");
    let cfg = DomainConfig::builder("vs")
        .memory_mib(4)
        .vsock()
        .max_clones(16)
        .build();
    let parent = p.launch_plain(&cfg, &KernelImage::unikraft("vs")).unwrap();
    p.dm.vsock_send(parent, b"parent-hello".to_vec()).unwrap();

    let kids: Vec<DomId> = (0..3).map(|_| p.clone_domain(parent, 1).unwrap()[0]).collect();
    for c in &kids {
        let conn = p.dm.vsock(*c).expect("clone has a vsock");
        assert!(conn.connected);
        assert_eq!(conn.port, 52000 + c.0, "deterministic port reallocation");
        assert!(conn.sent.is_empty(), "parent's stream must not leak into the clone");
        assert_eq!(
            p.xs.peek(&format!("/local/domain/{}/device/vsock/0/port", c.0)).unwrap(),
            conn.port.to_string(),
            "frontend port entry rewritten for the child"
        );
    }
    // The parent's connection is untouched.
    let pc = p.dm.vsock(parent).unwrap();
    assert_eq!(pc.port, 52000 + parent.0);
    assert_eq!(pc.sent.len(), 1);
    assert!(p.audit().is_clean());
}

#[test]
fn usb_detach_on_clone_leaves_child_detached_and_parent_attached() {
    let mut p = audited("target/test-prop-bus-usb");
    let cfg = DomainConfig::builder("usb")
        .memory_mib(4)
        .usb("3-4.1")
        .max_clones(16)
        .build();
    let parent = p.launch_plain(&cfg, &KernelImage::unikraft("usb")).unwrap();
    assert!(p.dm.usb_submit(parent, 0).unwrap());

    let child = p.clone_domain(parent, 1).unwrap()[0];

    // Negative: the exclusive device did NOT follow the clone.
    assert!(p.dm.usb(child, 0).is_none(), "child must come up detached");
    assert!(!p.dm.usb_submit(child, 0).unwrap_or(false));
    assert!(
        !p.xs.exists(&format!("/local/domain/{}/device/vusb/0", child.0)),
        "no frontend node for the detached child"
    );
    assert!(
        !p.xs.exists(&format!("/local/domain/0/backend/vusb/{}/0", child.0)),
        "no backend node (orphan ring) for the detached child"
    );
    // The parent still holds the device and keeps working.
    assert!(p.dm.usb(parent, 0).unwrap().attached);
    assert!(p.dm.usb_submit(parent, 0).unwrap());
    // And the audit — including the orphan-ring sweep — is clean.
    assert!(p.audit().is_clean(), "audit after detach-on-clone");

    // The busid stays exclusive: a second domain cannot attach it while
    // the parent holds it.
    let cfg2 = DomainConfig::builder("usb2")
        .memory_mib(4)
        .usb("3-4.1")
        .max_clones(4)
        .build();
    assert!(p.launch_plain(&cfg2, &KernelImage::unikraft("usb2")).is_err());
}
