//! The observability layer end-to-end: span counts of a clone run, their
//! clone-family attribution, virtual-time accounting, and deterministic
//! export.

use std::net::Ipv4Addr;

use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{Platform, PlatformConfig, TraceConfig};

fn cfg(name: &str) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .max_clones(64)
        .build()
}

fn traced_platform() -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .tracing(TraceConfig::aggregate())
            .build(),
    )
}

/// Boots a parent and clones it twice; returns the platform and the
/// parent.
fn run_two_clones() -> (Platform, DomId) {
    let mut p = traced_platform();
    let parent = p
        .launch_plain(&cfg("traced"), &KernelImage::minios("traced"))
        .expect("boot");
    p.clone_domain(parent, 2).expect("clone");
    (p, parent)
}

/// The aggregate of the spans named `name`: `(count, total_ns)`.
fn span_totals(p: &Platform, name: &str) -> (u64, u64) {
    p.trace()
        .span_aggregates()
        .iter()
        .find(|a| a.name == name)
        .map_or((0, 0), |a| (a.count, a.total_ns))
}

#[test]
fn tracing_is_off_by_default_and_records_nothing() {
    let mut p = Platform::new(PlatformConfig::small());
    assert!(!p.trace().is_enabled());
    let parent = p
        .launch_plain(&cfg("dark"), &KernelImage::minios("dark"))
        .unwrap();
    p.clone_domain(parent, 1).unwrap();
    assert!(p.trace().span_aggregates().is_empty());
    assert!(p.trace().counters().is_empty());
}

#[test]
fn two_clone_run_emits_expected_span_counts() {
    let (p, parent) = run_two_clones();
    p.trace().validate_well_nested().expect("all spans closed, well nested");

    // One Dom0-triggered clone call and one batch for it, whose shared
    // pages are converted once; then each child's first-stage phases and
    // second stage, which clones its console and vif.
    for (name, count) in [
        ("platform.clone_domain", 1),
        ("clone.batch", 1),
        ("clone.cow_convert", 1),
        ("clone.child", 2),
        ("clone.vcpu_copy", 2),
        ("clone.private_pages", 2),
        ("clone.pt_rebuild", 2),
        ("xencloned.stage2", 2),
        ("dev.clone_console", 2),
        ("dev.clone_vif", 2),
    ] {
        assert_eq!(span_totals(&p, name).0, count, "{name}");
    }

    // Both children's first and second stages go to the parent's family:
    // `xencloned.stage2` through its parent, `clone.child` through the
    // child, which joined the family when it was cloned.
    let family = p.trace().family_root_of(parent).expect("parent has a family");
    let row = |metric: &str| {
        p.trace()
            .family_rows()
            .into_iter()
            .find(|r| r.family == family && r.metric == metric)
            .map(|r| r.value)
    };
    assert_eq!(row("span.xencloned.stage2.count"), Some(2));
    assert_eq!(row("span.clone.child.count"), Some(2));
}

#[test]
fn platform_span_durations_match_virtual_time() {
    let mut p = traced_platform();
    let parent = p
        .launch_plain(&cfg("timed"), &KernelImage::minios("timed"))
        .unwrap();

    let t0 = p.clock.now();
    p.clone_domain(parent, 2).unwrap();
    let observed_ns = p.clock.now().since(t0).as_ns();

    assert_eq!(
        span_totals(&p, "platform.clone_domain"),
        (1, observed_ns),
        "the platform.clone_domain span must cover exactly the observed virtual-time delta"
    );
}

#[test]
fn span_aggregate_export_is_deterministic_across_runs() {
    let (a, _) = run_two_clones();
    let (b, _) = run_two_clones();
    let csv_a = a.trace().span_aggregates_csv();
    let csv_b = b.trace().span_aggregates_csv();
    assert_eq!(csv_a, csv_b, "same seed must produce byte-identical span aggregates");
    assert!(csv_a.starts_with("span,count,total_ms,mean_ms\n"));
    assert!(csv_a.contains("clone.child,2,"), "aggregate counts both clones:\n{csv_a}");
    assert!(csv_a.contains("clone.batch,1,"), "one batch for the two-child call:\n{csv_a}");
}

#[test]
fn forced_clone_failure_increments_failure_counters() {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .tracing(TraceConfig::aggregate())
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let limited = DomainConfig::builder("limited")
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .max_clones(1)
        .build();
    let parent = p
        .launch_plain(&limited, &KernelImage::minios("limited"))
        .unwrap();
    assert_eq!(p.trace().counter_total("clone.fail"), 0);

    // Two children exceed the policy's one-clone limit: the hypercall is
    // rejected and the error-outcome counter must tick.
    let err = p.clone_domain(parent, 2).expect_err("clone limit");
    assert!(matches!(err, nephele::PlatformError::Hv(_)));
    assert_eq!(p.trace().counter_total("clone.fail"), 1);

    // A failing Xenstore request ticks xs.fail the same way.
    assert_eq!(p.trace().counter_total("xs.fail"), 0);
    p.xs.read(DomId::DOM0, "/no/such/path").expect_err("missing path");
    assert_eq!(p.trace().counter_total("xs.fail"), 1);

    // The failed platform op left its trail in the flight recorder too.
    let events = p.flightrec().events();
    assert!(
        events.iter().any(|e| e.op == "platform.clone" && e.outcome == "err"),
        "flight recorder must hold the failed clone: {events:?}"
    );
}

#[test]
fn latency_histograms_are_recorded_and_deterministic() {
    let (a, _) = run_two_clones();
    let (b, _) = run_two_clones();

    let csv_a = a.trace().histograms_csv();
    let csv_b = b.trace().histograms_csv();
    assert_eq!(csv_a, csv_b, "same-seed histogram CSVs must be byte-identical");
    assert!(csv_a.starts_with("op,count,p50_us,p90_us,p99_us,max_us\n"));
    for op in ["clone.stage1", "clone.stage2", "xs.xs_clone", "xl.create"] {
        assert!(csv_a.contains(op), "{op} missing from histogram CSV:\n{csv_a}");
    }

    // The batched hypercall records once; each child's second stage once.
    let stage1 = a.trace().histogram("clone.stage1").expect("stage1 histogram");
    assert_eq!(stage1.count(), 1);
    let stage2 = a.trace().histogram("clone.stage2").expect("stage2 histogram");
    assert_eq!(stage2.count(), 2);
    // Histogram percentiles stay within the recorded extremes.
    assert!(stage2.percentile(50.0) >= stage2.min());
    assert!(stage2.percentile(99.0) <= stage2.max());
}

#[test]
fn counters_track_clone_mechanics() {
    let (p, _) = run_two_clones();
    let total = p.trace().counter_total("xencloned.parent_cache.miss")
        + p.trace().counter_total("xencloned.parent_cache.hit");
    assert_eq!(total, 2, "both second stages consulted the parent-info cache");
    assert_eq!(
        p.trace().counter_total("xencloned.parent_cache.miss"),
        1,
        "first stage2 misses, second hits"
    );
}
