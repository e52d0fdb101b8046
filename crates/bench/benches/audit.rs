//! Host time of one full `Platform::audit()`, as a function of what the
//! platform's state holds rather than what its p2ms map.
//!
//! A clone family shares one p2m template, so its distinct state is the
//! template plus each member's small overlay. An audit that walks every
//! member's merged p2m costs members x template slots instead.
//!
//! - `family_100000` audits one 10^5-member family of a 4 MiB vif-less
//!   template, the platform `clone_density`'s largest group ramps.
//! - `template_4mib` and `template_64mib` audit 10^4-member families of a
//!   4 MiB and a 64 MiB template, each in its own 4 GiB pool. The second
//!   template maps 16x the slots of the first, so a per-domain walk costs
//!   ~16x as much on it; a walk per template costs about the same.
//!   `scripts/verify.sh` asserts the 64 MiB median stays within 2x of the
//!   4 MiB median of the same run.
//!
//! Every platform is ramped before any is timed, so the groups a gate
//! compares run back to back. Each timed audit must come back clean.

use testkit::bench::Bench;

use nephele::sim_core::SimDuration;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, MuxKind, Platform, PlatformConfig, TraceConfig};

/// Builds a platform with a `pool_mib` guest pool holding one vif-less
/// `template_mib` template and `members` clones of it.
fn family(members: u32, template_mib: u64, pool_mib: u64) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(pool_mib)
            .ring_capacity(1_024)
            .mux(MuxKind::None)
            .seed(0xa0d17)
            .tracing(TraceConfig::default())
            .audit(AuditMode::Off)
            .build(),
    );
    let cfg = DomainConfig::builder("audit-tmpl")
        .memory_mib(template_mib)
        .max_clones(u32::MAX)
        .resume_clones(false)
        .build();
    let template = p
        .launch_plain(&cfg, &KernelImage::unikraft("audit-fn"))
        .expect("template boot");
    let mut made = 0u32;
    while made < members {
        let want = (members - made).min(500);
        let kids = p.clone_domain(template, want).expect("ramp clone");
        assert_eq!(kids.len() as u32, want, "pool exhausted during ramp");
        made += want;
        p.run_for(SimDuration::from_ms(10));
    }
    p
}

fn main() {
    let mut c = Bench::new("audit");
    let cases = [
        ("family_100000", family(100_000, 4, 8_192)),
        ("template_4mib", family(10_000, 4, 4_096)),
        ("template_64mib", family(10_000, 64, 4_096)),
    ];
    for (group, p) in &cases {
        let mut g = c.benchmark_group(group);
        g.sample_size(if *group == "family_100000" { 5 } else { 10 });
        g.bench_function("audit", |b| {
            b.iter(|| {
                let report = p.audit();
                assert!(report.is_clean(), "{group}: {report}");
                report.checks
            })
        });
        g.finish();
    }
    c.finish();
}
