//! Per-clone latency as a function of live-domain count: the gate that
//! pins clone cost independent of density.
//!
//! Before the index work, each create/clone/destroy walked structures
//! sized by the number of live domains — the xl name-uniqueness scan and
//! the hypervisor's all-domains peer sweep — so per-clone host cost grew
//! linearly with density. With the name index, the per-table peer/grantee
//! indexes and the hypervisor-level referrer index, the hot path is
//! O(refs actually held), so a clone into a 10^4-domain platform must
//! cost the same as a clone into a 10^2-domain one. `scripts/verify.sh`
//! asserts the 10^4 median stays within 2x of the 10^2 median.
//!
//! Each iteration clones a fresh batch into the pre-ramped platform and
//! destroys it again, so the measurement covers exactly the two hot-path
//! ops (clone_domain and destroy) at the given density — the pool always
//! returns to its ramped size between iterations.

use testkit::bench::Bench;

use nephele::sim_core::SimDuration;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, MuxKind, Platform, PlatformConfig, TraceConfig};

/// Clones per timed batch (kept small so the batch itself does not
/// dominate; the point is the density of the surrounding pool).
const BATCH: u32 = 16;

/// Builds a platform pre-ramped to `live` live vif-less clones and
/// returns it with the template.
fn rammed_platform(live: u32) -> (Platform, nephele::sim_core::DomId) {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(((live as u64) / 4).clamp(256, 8_192))
            .ring_capacity(1_024)
            .mux(MuxKind::None)
            .seed(0xd_e2_51_7e)
            .tracing(TraceConfig::default())
            .audit(AuditMode::Off)
            .build(),
    );
    let cfg = DomainConfig::builder("density-tmpl")
        .memory_mib(4)
        .max_clones(u32::MAX)
        .resume_clones(false)
        .build();
    let template = p
        .launch_plain(&cfg, &KernelImage::unikraft("density-fn"))
        .expect("template boot");
    let mut made = 0u32;
    while made < live {
        let want = (live - made).min(500);
        let kids = p.clone_domain(template, want).expect("ramp clone");
        assert_eq!(kids.len() as u32, want, "pool exhausted during ramp");
        made += want;
        p.run_for(SimDuration::from_ms(10));
    }
    (p, template)
}

fn main() {
    let mut c = Bench::new("clone_density");
    for live in [100u32, 1_000, 10_000] {
        let mut g = c.benchmark_group(&format!("density_{live}"));
        g.sample_size(if live >= 10_000 { 10 } else { 20 });
        // One ramp per density, shared across samples: each iteration
        // clones a batch and destroys it again, leaving the pool at its
        // ramped size.
        let (mut p, template) = rammed_platform(live);
        g.bench_function("clone_destroy_batch16", |b| {
            b.iter(|| {
                let kids = p.clone_domain(template, BATCH).expect("timed clone");
                for k in kids {
                    p.destroy(k).expect("timed destroy");
                }
            })
        });
        g.finish();
    }
    c.finish();
}
