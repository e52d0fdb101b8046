//! The state invariant auditor end-to-end: clean after arbitrary
//! clone/destroy/save/restore sequences, and able to detect (and name)
//! deliberately injected frame-table corruption, dumping the flight
//! recorder alongside.

use std::net::Ipv4Addr;
use std::path::Path;

use nephele::hypervisor::cloneop::CloneOp;
use nephele::hypervisor::memory::FrameOwner;
use nephele::netmux::IfaceId;
use nephele::sim_core::{DomId, Mfn, Pfn};
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

/// A platform without per-op audits holding one vif-less 4 MiB template
/// and `members` clones of it; returns the platform and the template.
fn family_platform(members: u32) -> (Platform, DomId) {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .ring_capacity(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let cfg = DomainConfig::builder("family-tmpl")
        .memory_mib(4)
        .max_clones(members)
        .build();
    let template = p
        .launch_plain(&cfg, &KernelImage::minios("family-tmpl"))
        .expect("template boot");
    let mut made = 0;
    while made < members {
        let want = (members - made).min(250);
        made += p.clone_domain(template, want).expect("clone batch").len() as u32;
    }
    (p, template)
}

/// The refcount of a COW frame a whole 1 000-member family shares is
/// checked against the sum the per-template gather weights by holders:
/// one reference too many or too few is flagged, and the frame named.
#[test]
fn family_shared_refcount_drift_is_detected_and_named() {
    let (mut p, _) = family_platform(1_000);
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");
    let (victim, refcount) = p
        .hv
        .frames()
        .iter_frames()
        .filter(|(_, f)| f.owner() == FrameOwner::Cow)
        .map(|(mfn, f)| (mfn, f.refcount()))
        .max_by_key(|&(_, refcount)| refcount)
        .expect("a clone leaves COW frames behind");
    assert!(refcount > 1_000, "the whole family shares {victim} ({refcount} refs)");

    for delta in [1, -1] {
        p.hv.frames_mut().corrupt_refcount_for_test(victim, delta);
        let report = p.audit();
        assert!(
            report.violations.iter().any(|v| v.invariant == "frame-refcount"
                && v.detail.contains(&format!("cow {victim} refcount"))),
            "a refcount off by {delta} must be named:\n{report}"
        );
        p.hv.frames_mut().corrupt_refcount_for_test(victim, -delta);
        assert!(p.audit().is_clean(), "undoing the drift of {delta} must audit clean");
    }
}

/// A sibling's overlay mapping a frame another clone owns outright gives
/// that frame a second back-reference; the frame check must name the
/// owner. Once the owner's own slot lets go of it, the sibling is its
/// single referrer, and the check must name the sibling.
#[test]
fn sibling_overlay_onto_an_owned_frame_is_detected_and_named() {
    let (mut p, template) = family_platform(2);
    let kids: Vec<DomId> = p
        .hv
        .domains()
        .map(|d| d.id)
        .filter(|&d| d != template && !d.is_dom0())
        .collect();
    let (owner, sibling) = (kids[0], kids[1]);
    let (owned_slot, owned) = p
        .hv
        .domain(owner)
        .expect("owner")
        .p2m
        .iter_mapped()
        .find(|&(_, mfn)| {
            p.hv.frames().inspect(mfn).map(|f| f.owner()).ok() == Some(FrameOwner::Dom(owner))
        })
        .expect("a clone owns its private pages outright");
    let sibling_slot = p.hv.domain(sibling).expect("sibling").p2m.len() as u64 - 1;

    p.hv.domain_mut(sibling)
        .expect("sibling")
        .p2m
        .corrupt_overlay_for_test(sibling_slot, Some(owned));
    let report = p.audit();
    assert!(
        report.violations.iter().any(|v| v.invariant == "frame-refcount"
            && v.detail.contains(&format!("{owned} owned by {owner} must"))
            && v.detail.contains("found 2 p2m")),
        "the doubly referenced frame and its owner must be named:\n{report}"
    );

    p.hv.domain_mut(owner)
        .expect("owner")
        .p2m
        .corrupt_overlay_for_test(owned_slot.0, None);
    let report = p.audit();
    assert!(
        report.violations.iter().any(|v| v.invariant == "frame-refcount"
            && v.detail.contains(&format!("{owned} owned by {owner} must"))
            && v.detail.contains("found 1 p2m + 0 aux")
            && v.detail.contains(&format!("from domain {}", sibling.0))),
        "the single referrer must be named:\n{report}"
    );
}

/// An overlay entry past the p2m length is outside the merged view, so
/// it must count toward no frame: the overlay invariant flags it, and
/// every frame's refcount check still passes.
#[test]
fn overlay_entry_past_the_p2m_length_leaves_frame_counts_intact() {
    let (mut p, template) = family_platform(1);
    let child = p
        .hv
        .domains()
        .map(|d| d.id)
        .find(|&d| d != template && !d.is_dom0())
        .expect("a clone");
    let d = p.hv.domain(child).expect("clone");
    let (_, mapped) = d.p2m.iter_mapped().next().expect("a clone maps pages");
    let past = d.p2m.len() as u64 + 5;
    p.hv.domain_mut(child)
        .expect("clone")
        .p2m
        .corrupt_overlay_for_test(past, Some(mapped));

    let report = p.audit();
    assert!(
        report.violations.iter().any(|v| v.invariant == "p2m-overlay"
            && v.detail.contains(&format!("overlay slot {past} is past the p2m length"))),
        "the stray overlay slot must be named:\n{report}"
    );
    assert!(
        report.violations.iter().all(|v| v.invariant == "p2m-overlay"),
        "no frame may count the stray slot:\n{report}"
    );
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
/// index-consistency property: create draws from a small name
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
}

fn name_ops_gen() -> impl Gen<Value = Vec<NameOp>> {
    vecs(
        (ranges(0u64..3), ranges(0u64..64), ranges(0u64..6)).map(|(kind, idx, tag)| match kind {
            0 => NameOp::Create { tag },
            1 => NameOp::Clone { idx, nr: 1 + tag % 3 },
            _ => NameOp::Destroy { idx },
        }),
        1..16,
    )
}

/// After any random create/clone/destroy tape, the hypervisor's
/// scan-replacing indices (referrer and fan-out) must equal the scans
/// they replaced — checked both directly and through the full audit
/// (which runs the same comparison as invariant 13, at every op under
/// `AuditMode::EveryOp`) — and xl's uniqueness scan, on throughout,
/// must have kept every `n<tag>` name on one live record.
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
            }
        }
        assert_eq!(p.hv.audit_ref_indices(), Vec::<String>::new(), "after {ops:?}");
        let tagged = |n: &&str| match n.strip_prefix('n') {
            Some(tag) => !tag.is_empty() && tag.bytes().all(|b| b.is_ascii_digit()),
            None => false,
        };
        let mut checked: Vec<&str> = p.xl.records().map(|r| &*r.name).filter(tagged).collect();
        let count = checked.len();
        checked.sort_unstable();
        checked.dedup();
        assert_eq!(checked.len(), count, "a checked name is on two records after {ops:?}");
        let report = p.audit();
        assert!(report.is_clean(), "after {ops:?}:\n{report}");
    });
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

/// Family links are checked both ways: a child missing from its parent's
/// birth-keyed `children`, and a `children` entry whose domain does not
/// link back, each fail the index-consistency invariant and name the
/// domains involved.
#[test]
fn broken_family_links_are_detected_both_ways() {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let img = KernelImage::minios("family");
    let parent = p.launch_plain(&guest_cfg("family"), &img).expect("boot");
    let kids = p.clone_domain(parent, 2).expect("clone");
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");

    let unlinked = p.hv.domain_mut(parent).expect("parent").children.remove(&1);
    assert_eq!(unlinked, Some(kids[1]));
    let report = p.audit();
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.invariant == "index-consistency"),
        "{report}"
    );
    assert!(
        report.violations.iter().any(|v| v
            .detail
            .starts_with(&format!("dom {}: parent link", kids[1].0))),
        "the child whose parent lost it is named:\n{report}"
    );

    // Relinked under the wrong key: the parent's entry does not match
    // the child's birth key, seen from both ends.
    p.hv.domain_mut(parent)
        .expect("parent")
        .children
        .insert(7, kids[1]);
    let report = p.audit();
    assert!(
        report.violations.iter().any(|v| v
            .detail
            .starts_with(&format!("dom {}: children entry 7", parent.0))),
        "the parent's stray entry is named:\n{report}"
    );

    p.hv.domain_mut(parent).expect("parent").children.remove(&7);
    p.hv.domain_mut(parent)
        .expect("parent")
        .children
        .insert(1, kids[1]);
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

/// A platform without per-op audits holding one booted vif guest and a
/// clone of it, audited clean; returns the platform and the clone.
fn audit_clean_clone(name: &str) -> (Platform, DomId) {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let img = KernelImage::minios(name);
    let parent = p.launch_plain(&guest_cfg(name), &img).expect("boot");
    let child = p.clone_domain(parent, 1).expect("clone")[0];
    assert!(p.audit().is_clean(), "pre-corruption state must be clean");
    (p, child)
}

/// A p2m entry naming a frame the table never handed out is corruption
/// too: the frame check must count it against that free frame and name
/// it, although the back-reference index holds a slot only for frames
/// handed out.
#[test]
fn reference_to_a_never_used_frame_is_detected_and_named() {
    let (mut p, child) = audit_clean_clone("never-used");
    let fresh = Mfn(p.hv.frames().handed_out());
    assert!(fresh.0 < p.hv.frames().total_frames(), "the pool has untouched frames");
    p.hv.domain_mut(child)
        .expect("clone")
        .p2m
        .corrupt_overlay_for_test(0, Some(fresh));

    let report = p.audit();
    assert!(
        report.violations.iter().any(|v| v.invariant == "frame-refcount"
            && v.detail.starts_with(&format!("free {fresh} still referenced (1 p2m"))),
        "the never-used frame must be named:\n{report}"
    );
}

/// A device node that no held device owns is an orphan, whether its
/// class is one the platform does not model (a USB frontend) or one it
/// does (a vif frontend and a vif backend at a device index the 1-vif
/// child does not hold). The device invariant must name each node in
/// its own violation.
#[test]
fn orphan_device_node_is_detected_and_named() {
    let (mut p, child) = audit_clean_clone("orphan-node");

    let nodes = [
        format!("/local/domain/{}/device/vusb/0", child.0),
        format!("/local/domain/{}/device/vif/7", child.0),
        format!("/local/domain/0/backend/vif/{}/7", child.0),
    ];
    for node in &nodes {
        p.xs.write(DomId::DOM0, &format!("{node}/state"), "4")
            .unwrap();
    }
    let report = p.audit();
    for node in &nodes {
        assert!(
            report.violations.iter().any(|v| v.invariant == "device-bus"
                && v.detail == format!("device node {node} has no held device (orphan)")),
            "violation must name the orphan node {node}:\n{report}"
        );
    }

    for node in &nodes {
        p.xs.rm(DomId::DOM0, node).unwrap();
    }
    assert!(p.audit().is_clean());
}

/// A held device whose Xenstore node is gone is invisible to its frontend
/// until the next reconnect; removing a live vif's backend directory must
/// be named by the device invariant.
#[test]
fn missing_device_node_is_detected_and_named() {
    let (mut p, child) = audit_clean_clone("missing-node");

    let node = format!("/local/domain/0/backend/vif/{}/0", child.0);
    p.xs.rm(DomId::DOM0, &node).unwrap();
    let report = p.audit();
    assert!(
        report.violations.iter().any(|v| v.invariant == "device-bus"
            && v.detail.contains(&format!(
                "vif 0 of {child} is missing its Xenstore node {node}"
            ))),
        "violation must name the missing node:\n{report}"
    );
}

/// A domain destroyed behind the device manager's back leaves its
/// devices held for a dead owner; the device invariant must name them.
#[test]
fn device_of_dead_owner_is_detected_and_named() {
    let (mut p, child) = audit_clean_clone("dead-owner");

    p.hv.destroy_domain(child).unwrap();
    let report = p.audit();
    for device in ["console 0", "vif 0"] {
        assert!(
            report.violations.iter().any(|v| v.invariant == "device-bus"
                && v.detail == format!("{device} held for dead {child}")),
            "violation must name the {device} of dead {child}:\n{report}"
        );
    }
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
