//! The state invariant auditor end-to-end: clean after arbitrary
//! clone/destroy/save/restore sequences, and able to detect (and name)
//! deliberately injected frame-table corruption, dumping the flight
//! recorder alongside.

use std::net::Ipv4Addr;
use std::path::Path;

use nephele::hypervisor::cloneop::CloneOp;
use nephele::hypervisor::memory::FrameOwner;
use nephele::netmux::IfaceId;
use nephele::sim_core::{DomId, Pfn};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, Platform, PlatformConfig};
use testkit::prop::{check, ranges, vecs, Gen};

fn guest_cfg(name: &str) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .max_clones(64)
        .build()
}

fn audited_platform(flightrec_dir: &str) -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::EveryOp)
            .flightrec_dir(flightrec_dir)
            .build(),
    )
}

/// One step of a random platform lifecycle sequence. Indices select from
/// the currently live domains (modulo the list length at execution time).
#[derive(Debug, Clone)]
enum Op {
    /// Clone domain `idx` into `nr` children.
    Clone { idx: u64, nr: u64 },
    /// Destroy domain `idx`.
    Destroy { idx: u64 },
    /// Dirty a page of domain `idx` (forces a COW break on shared frames).
    Write { idx: u64, pfn: u64, val: u64 },
    /// `xl save` domain `idx` to a slot, then restore it.
    SaveRestore { idx: u64 },
}

fn ops_gen() -> impl Gen<Value = Vec<Op>> {
    vecs(
        (ranges(0u64..4), ranges(0u64..64), ranges(0u64..1024), ranges(0u64..256)).map(
            |(kind, idx, pfn, val)| match kind {
                0 => Op::Clone { idx, nr: 1 + val % 3 },
                1 => Op::Destroy { idx },
                2 => Op::Write { idx, pfn, val },
                _ => Op::SaveRestore { idx },
            },
        ),
        1..14,
    )
}

/// After any random sequence of clone/destroy/write/save/restore ops the
/// auditor must report zero violations. The platform runs with
/// `AuditMode::EveryOp`, so every intermediate state is audited too (a
/// violation mid-sequence panics inside the lifecycle hook).
#[test]
fn audit_is_clean_after_random_lifecycle_sequences() {
    let img = KernelImage::minios("audited");
    check(25, |g| {
        let ops = g.draw(&ops_gen());
        let mut p = audited_platform("target/test-flightrec");
        let root = p.launch_plain(&guest_cfg("root"), &img).expect("root boot");
        let mut live = vec![root];
        let mut slot = 0u32;
        for op in &ops {
            match op {
                Op::Clone { idx, nr } => {
                    let parent = live[(*idx as usize) % live.len()];
                    if let Ok(kids) = p.clone_domain(parent, *nr as u32) {
                        live.extend(kids);
                    }
                }
                Op::Destroy { idx } => {
                    if live.len() > 1 {
                        let dom = live.remove((*idx as usize) % live.len());
                        p.destroy(dom).expect("destroy live domain");
                    }
                }
                Op::Write { idx, pfn, val } => {
                    let dom = live[(*idx as usize) % live.len()];
                    let _ = p.hv.write_page(dom, Pfn(pfn % 1024), 0, &[*val as u8]);
                }
                Op::SaveRestore { idx } => {
                    let dom = live.remove((*idx as usize) % live.len());
                    let name = format!("slot-{slot}");
                    slot += 1;
                    p.xl
                        .save(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, dom, &name, &img)
                        .expect("save");
                    let restored = p
                        .xl
                        .restore(&mut p.hv, &mut p.xs, &mut p.dm, &mut p.udev, &name, None)
                        .expect("restore");
                    live.push(restored.id);
                }
            }
        }
        let report = p.audit();
        assert!(report.is_clean(), "after {ops:?}:\n{report}");
        assert!(report.checks > 0, "the audit must actually check something");
    });
}

/// A deliberately corrupted COW refcount is invisible to the incremental
/// owner counters (the owner class does not change), so only the
/// refcount-vs-p2m cross-check can catch it — and the report must name
/// the corrupted frame. The failed audit must also dump the flight
/// recorder black box.
#[test]
fn corrupted_refcount_is_detected_and_named() {
    let dir = "target/test-audit-dump";
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir(dir)
            .build(),
    );
    // Dump filenames carry the platform seed so runs cannot clobber
    // each other's evidence.
    let dump = Path::new(dir).join(format!("flightrec-audit-fail-seed{:x}.json", p.seed()));
    let _ = std::fs::remove_file(&dump);
    let img = KernelImage::minios("victim");
    let parent = p.launch_plain(&guest_cfg("victim"), &img).expect("boot");
    p.clone_domain(parent, 2).expect("clone");
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");

    // Pick a COW frame (parent/clone shared) and bump its refcount.
    let victim = p
        .hv
        .frames()
        .iter_frames()
        .find(|(_, f)| f.owner() == FrameOwner::Cow)
        .map(|(mfn, _)| mfn)
        .expect("a clone leaves COW frames behind");
    p.hv.frames_mut().corrupt_refcount_for_test(victim, 1);

    let report = p.audit();
    assert!(!report.is_clean(), "corruption must fail the audit");
    let v = &report.violations[0];
    assert_eq!(v.invariant, "frame-refcount");
    assert!(
        v.detail.contains(&victim.to_string()),
        "violation must name the corrupted frame {victim}: {}",
        v.detail
    );

    // The failed audit shipped its black box.
    assert!(dump.exists(), "audit failure must dump the flight recorder");
    let body = std::fs::read_to_string(&dump).unwrap();
    assert!(body.contains("\"context\":\"audit-fail\""), "dump context: {body}");
    assert!(body.contains("platform.launch"), "dump must hold lifecycle events: {body}");

    // Undoing the corruption brings the audit back to clean, proving the
    // detection was not incidental to the clone run itself.
    p.hv.frames_mut().corrupt_refcount_for_test(victim, -1);
    assert!(p.audit().is_clean());
}

/// The audit hook (AuditMode::EveryOp) panics on a corrupted platform at
/// the next lifecycle operation instead of letting it keep running.
#[test]
fn audit_hook_panics_on_corruption_at_next_op() {
    let result = std::panic::catch_unwind(|| {
        let mut p = Platform::new(
            PlatformConfig::builder()
                .guest_pool_mib(256)
                .audit(AuditMode::EveryOp)
                .flightrec_dir("target/test-audit-hook")
                .build(),
        );
        let img = KernelImage::minios("hooked");
        let parent = p.launch_plain(&guest_cfg("hooked"), &img).expect("boot");
        p.clone_domain(parent, 1).expect("clone");
        let victim = p
            .hv
            .frames()
            .iter_frames()
            .find(|(_, f)| f.owner() == FrameOwner::Cow)
            .map(|(mfn, _)| mfn)
            .expect("cow frame");
        p.hv.frames_mut().corrupt_refcount_for_test(victim, 1);
        // The next lifecycle op runs the hook, which must panic.
        p.clone_domain(parent, 1).expect("clone after corruption");
    });
    let err = result.expect_err("the audit hook must panic on corruption");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".into());
    assert!(msg.contains("audit failed"), "panic message: {msg}");
    assert!(msg.contains("frame-refcount"), "panic names the invariant: {msg}");
}

/// An armed KFX checkpoint with live COW-fault journals must audit
/// clean at every stage: the journal holds one keep-alive reference per
/// journaled original, and the refcount cross-check has to account for
/// it (a pure p2m back-reference count would flag every checkpointed
/// domain that faulted a page).
#[test]
fn armed_checkpoints_with_faults_audit_clean() {
    let mut p = audited_platform("target/test-flightrec");
    let img = KernelImage::minios("kfx");
    let parent = p.launch_plain(&guest_cfg("kfx"), &img).expect("boot");
    let child = p.clone_domain(parent, 1).expect("clone")[0];

    p.hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: child })
        .expect("checkpoint");
    assert!(p.audit().is_clean(), "armed, no faults yet");

    // COW-fault a few shared pages inside the window: each fault moves a
    // p2m reference off the original and journals a keep-alive one.
    for pfn in [3u64, 17, 42] {
        p.hv.write_page(child, Pfn(pfn), 0, &[0xAB]).expect("dirty write");
    }
    let mid = p.audit();
    assert!(mid.is_clean(), "mid-window with journaled faults:\n{mid}");

    // Reset drains the journal and turns its references back into p2m
    // references; destroy releases whatever the re-armed journal holds.
    p.hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: child })
        .expect("reset");
    assert!(p.audit().is_clean(), "post-reset");
    p.hv.write_page(child, Pfn(3), 0, &[0xCD]).expect("re-dirty");
    p.destroy(child).expect("destroy mid-window");
    assert!(p.audit().is_clean(), "post-destroy");
}

/// A deliberately de-canonicalized p2m overlay (an entry redundantly
/// storing the template's value) is invisible to the merged view and to
/// every refcount, so only the overlay invariant can catch it — and the
/// report must name the frame involved.
#[test]
fn corrupted_overlay_is_detected_and_named() {
    let mut p = audited_platform("target/test-flightrec");
    let img = KernelImage::minios("overlay");
    let parent = p.launch_plain(&guest_cfg("overlay"), &img).expect("boot");
    p.clone_domain(parent, 1).expect("clone");
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");

    // Shadow a template slot with its own value: logically a no-op, but
    // it breaks the canonical-form invariant the O(dirty) reset relies
    // on (redundant entries would make overlay comparisons lie about
    // divergence).
    let base_val = p.hv.domain(parent).expect("parent").p2m.base_get(7);
    let victim = base_val.expect("pfn 7 is part of the launch mapping");
    p.hv.domain_mut(parent)
        .expect("parent")
        .p2m
        .corrupt_overlay_for_test(7, base_val);

    let report = p.audit();
    assert!(!report.is_clean(), "corruption must fail the audit");
    let v = &report.violations[0];
    assert_eq!(v.invariant, "p2m-overlay");
    assert!(
        v.detail.contains(&victim.to_string()),
        "violation must name the shadowed frame {victim}: {}",
        v.detail
    );

    // Re-setting the slot through the canonical API removes the
    // redundant entry again.
    p.hv.domain_mut(parent).expect("parent").p2m.set(7, base_val);
    assert!(p.audit().is_clean());
}

/// One step of a random toolstack lifecycle tape for the
/// index-consistency property: create and rename draw from a small name
/// vocabulary so collisions (rejected when `validate_names` is on) are
/// common.
#[derive(Debug, Clone)]
enum NameOp {
    /// Launch a fresh domain named `n<tag>` (fails on a name collision).
    Create { tag: u64 },
    /// Clone domain `idx` into `nr` children.
    Clone { idx: u64, nr: u64 },
    /// Destroy domain `idx`.
    Destroy { idx: u64 },
    /// Rename domain `idx` to `r<tag>` (fails on a collision).
    Rename { idx: u64, tag: u64 },
}

fn name_ops_gen() -> impl Gen<Value = Vec<NameOp>> {
    vecs(
        (ranges(0u64..4), ranges(0u64..64), ranges(0u64..6)).map(|(kind, idx, tag)| match kind {
            0 => NameOp::Create { tag },
            1 => NameOp::Clone { idx, nr: 1 + tag % 3 },
            2 => NameOp::Destroy { idx },
            _ => NameOp::Rename { idx, tag },
        }),
        1..16,
    )
}

/// The scan-replacing indices (xl's name index, the hypervisor's
/// referrer and fan-out indices) must equal the scans they replaced
/// after any random create/clone/destroy/rename tape — checked both
/// directly and through the full audit (which runs the same comparison
/// as invariant 13, at every op under `AuditMode::EveryOp`).
#[test]
fn indices_match_scans_after_random_name_lifecycle_tapes() {
    let img = KernelImage::minios("indexed");
    check(25, |g| {
        let ops = g.draw(&name_ops_gen());
        let mut p = audited_platform("target/test-flightrec");
        p.xl.validate_names = true;
        let root = p.launch_plain(&guest_cfg("root"), &img).expect("root boot");
        let mut live = vec![root];
        for op in &ops {
            match op {
                NameOp::Create { tag } => {
                    let cfg = DomainConfig::builder(&format!("n{tag}")).memory_mib(4).build();
                    if let Ok(dom) = p.launch_plain(&cfg, &img) {
                        live.push(dom);
                    }
                }
                NameOp::Clone { idx, nr } => {
                    let parent = live[(*idx as usize) % live.len()];
                    if let Ok(kids) = p.clone_domain(parent, *nr as u32) {
                        live.extend(kids);
                    }
                }
                NameOp::Destroy { idx } => {
                    if live.len() > 1 {
                        let dom = live.remove((*idx as usize) % live.len());
                        p.destroy(dom).expect("destroy live domain");
                    }
                }
                NameOp::Rename { idx, tag } => {
                    let dom = live[(*idx as usize) % live.len()];
                    let _ = p.xl.rename(&mut p.xs, dom, &format!("r{tag}"));
                }
            }
        }
        assert_eq!(p.hv.audit_ref_indices(), Vec::<String>::new(), "after {ops:?}");
        assert_eq!(p.xl.audit_name_index(), Vec::<String>::new(), "after {ops:?}");
        let report = p.audit();
        assert!(report.is_clean(), "after {ops:?}:\n{report}");
    });
}

/// A name-index entry planted without a registry record is invisible to
/// every lookup that happens to probe other names, so only the
/// index-consistency invariant can catch it — and the report must name
/// the ghost entry.
#[test]
fn corrupted_name_index_is_detected_and_named() {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let img = KernelImage::minios("ghost");
    let parent = p.launch_plain(&guest_cfg("ghost"), &img).expect("boot");
    p.clone_domain(parent, 1).expect("clone");
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");

    p.xl.corrupt_name_index_for_test("ghost-name", 4242, true);
    let report = p.audit();
    assert!(!report.is_clean(), "index drift must fail the audit");
    assert!(
        report.violations.iter().all(|v| v.invariant == "index-consistency"),
        "only the index invariant can see a planted name entry:\n{report}"
    );
    assert!(
        report.violations.iter().any(|v| v.detail.contains("ghost-name")),
        "violation must name the ghost entry:\n{report}"
    );

    p.xl.corrupt_name_index_for_test("ghost-name", 4242, false);
    assert!(p.audit().is_clean());
}

/// A drifted referrer-index count (one extra reference charged to Dom0)
/// leaves every channel and grant table untouched, so only the
/// index-vs-recount comparison can see it.
#[test]
fn corrupted_peer_ref_index_is_detected() {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let img = KernelImage::minios("refdrift");
    let parent = p.launch_plain(&guest_cfg("refdrift"), &img).expect("boot");
    p.clone_domain(parent, 1).expect("clone");
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");

    p.hv.corrupt_peer_ref_for_test(parent, DomId::DOM0, 1);
    let report = p.audit();
    assert!(!report.is_clean(), "referrer drift must fail the audit");
    assert!(
        report.violations.iter().all(|v| v.invariant == "index-consistency"),
        "only the index invariant can see referrer drift:\n{report}"
    );

    p.hv.corrupt_peer_ref_for_test(parent, DomId::DOM0, -1);
    assert!(p.audit().is_clean());
}

/// A ghost TX-pending entry for an idle vif costs the event loop nothing
/// (draining an empty ring is a no-op), so only the index-consistency
/// invariant can see it — and the report must name the vif.
#[test]
fn corrupted_vif_index_is_detected_and_named() {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let img = KernelImage::minios("ghost-vif");
    let parent = p.launch_plain(&guest_cfg("ghost-vif"), &img).expect("boot");
    let child = p.clone_domain(parent, 1).expect("clone")[0];
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");

    p.dm.corrupt_vif_index_for_test(child, 0, true);
    let report = p.audit();
    assert!(!report.is_clean(), "pending-set drift must fail the audit");
    assert!(
        report.violations.iter().all(|v| v.invariant == "index-consistency"),
        "only the index invariant can see a ghost pending entry:\n{report}"
    );
    assert!(
        report.violations.iter().any(|v| v.detail.contains(&format!("vif {}/0", child.0))),
        "violation must name the vif:\n{report}"
    );

    p.dm.corrupt_vif_index_for_test(child, 0, false);
    assert!(p.audit().is_clean());
}

/// A clone-mux member that names no live vif silently drops every flow
/// that hashes to it; the device-liveness invariant must name it.
#[test]
fn dead_mux_member_is_detected_and_named() {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let img = KernelImage::minios("dead-member");
    let parent = p.launch_plain(&guest_cfg("dead-member"), &img).expect("boot");
    p.clone_domain(parent, 2).expect("clone");
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");

    assert!(p.dm.enslave(IfaceId(9_999)), "the default platform runs a bond");
    let report = p.audit();
    assert!(!report.is_clean(), "a dead mux member must fail the audit");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "device-liveness" && v.detail.contains("iface 9999")),
        "violation must name the dead member:\n{report}"
    );
}

/// Dom0 alone (a freshly booted platform) audits clean, and the report's
/// check count grows with platform size.
#[test]
fn audit_scales_its_coverage_with_the_platform()
{
    let mut p = audited_platform("target/test-flightrec");
    let empty_checks = p.audit().checks;
    let img = KernelImage::minios("cov");
    let parent = p.launch_plain(&guest_cfg("cov"), &img).unwrap();
    p.clone_domain(parent, 4).unwrap();
    let full_checks = p.audit().checks;
    assert!(
        full_checks > empty_checks,
        "more domains must mean more checks ({empty_checks} -> {full_checks})"
    );
}
