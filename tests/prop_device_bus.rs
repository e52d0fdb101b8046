//! Property suite for the §4.2 per-class device clone heuristics, at
//! platform level (the audit runs on every op).
//!
//! 1. **Stage 2 clones every class like its parent.** For random mixes of
//!    a console, 0..=2 vifs and an optional 9pfs, and a random number of
//!    clones, every child comes up with its console attached, the
//!    parent's vif devids connected, its 9pfs served by the parent's QEMU
//!    process, and device Xenstore subtrees equal to the parent's with the
//!    domid rewritten.

use std::net::Ipv4Addr;

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
