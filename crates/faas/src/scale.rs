//! Scale driver: packing one platform with thousands of cloned domains.
//!
//! The FaaS experiment of §7.3 scales to a handful of instances; this
//! driver exists to exercise the *observability* pipeline at the scale the
//! paper's density numbers imply (Fig. 5 reaches ~8900 clones). Domains
//! are cloned from one vif-less template in batches, so each clone costs
//! only its private frames and Xenstore subtree — no 1 MiB RX ring — and a
//! 10^4-domain run fits a small guest pool.
//!
//! The run traces, to demonstrate the bounded-memory property:
//! spans, counters and gauges are folded into histograms, timeline slices
//! and family rollups as they are recorded, so the sink holds at most the
//! spans open at once, not O(events) records — see
//! [`ScaleReport::overhead`].

use nephele::sim_core::SimDuration;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, MuxKind, Platform, PlatformConfig, SinkOverhead, TraceConfig};

/// Scale-run parameters.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Clones to create (the template is extra).
    pub domains: u32,
    /// Clones per `clone_domain` batch.
    pub batch: u32,
    /// Guest pool, MiB. Vif-less clones cost ~10 frames each, so 1 GiB
    /// comfortably holds 10^4 domains.
    pub pool_mib: u64,
    /// Master PRNG seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            domains: 10_000,
            batch: 250,
            pool_mib: 1024,
            seed: 0x5ca1e,
        }
    }
}

/// Scale-run results: counts plus the streaming exports.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Clones actually created (less than asked if memory ran out).
    pub domains_created: u64,
    /// Clones destroyed again by the driver (every 16th, to exercise
    /// family-membership retirement).
    pub domains_destroyed: u64,
    /// The sink's self-accounting: host-side work done and peak open
    /// spans held.
    pub overhead: SinkOverhead,
    /// The sink's [`timeline_csv`](nephele::TraceSink::timeline_csv) at
    /// the end of the run.
    pub timeline_csv: String,
    /// The sink's [`metrics_text`](nephele::TraceSink::metrics_text) at
    /// the end of the run.
    pub metrics_text: String,
    /// [`Platform::family_rollup_csv`] at the end of the run (resident
    /// rows included).
    pub family_rollup_csv: String,
}

/// Runs the scale experiment: boot one template, clone it to
/// `cfg.domains` in batches of `cfg.batch`, destroy every 16th clone,
/// then collect the streaming exports.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(cfg.pool_mib)
            .ring_capacity((cfg.batch as usize).max(128))
            .mux(MuxKind::None)
            .seed(cfg.seed)
            .tracing(TraceConfig::aggregate())
            .audit(AuditMode::Off)
            .build(),
    );

    // Vif-less minimal template: private frames + Xenstore subtree only.
    let dom_cfg = DomainConfig::builder("scale-tmpl")
        .memory_mib(4)
        .max_clones(cfg.domains.saturating_add(1))
        .resume_clones(false)
        .build();
    let template = p
        .launch_plain(&dom_cfg, &KernelImage::unikraft("scale-fn"))
        .expect("template boot");

    let mut created = 0u64;
    let mut children = Vec::new();
    while created < cfg.domains as u64 {
        let want = (cfg.domains as u64 - created).min(cfg.batch as u64) as u32;
        let Ok(kids) = p.clone_domain(template, want) else { break };
        created += kids.len() as u64;
        let short = kids.len() < want as usize;
        children.extend(kids);
        if short {
            break;
        }
        // A little virtual time between batches spreads the clones over
        // timeline slices instead of piling them into one.
        p.run_for(SimDuration::from_ms(50));
    }

    let mut destroyed = 0u64;
    for dom in children.iter().skip(15).step_by(16) {
        if p.destroy(*dom).is_ok() {
            destroyed += 1;
        }
    }

    ScaleReport {
        domains_created: created,
        domains_destroyed: destroyed,
        overhead: p.trace().overhead(),
        timeline_csv: p.trace().timeline_csv(),
        metrics_text: p.trace().metrics_text(),
        family_rollup_csv: p.family_rollup_csv(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline scale property: 10^4 traced domains with the sink
    /// holding at most the concurrently open spans (a handful) — not the
    /// millions of span/counter/gauge events the run emits.
    #[test]
    fn ten_thousand_domains_bounded_sink() {
        let single = run_scale(&ScaleConfig::default());
        assert_eq!(single.domains_created, 10_000, "pool must fit 10^4 clones");
        assert_eq!(single.domains_destroyed, 625);

        // Bounded memory: the run recorded work for >10^4 lifecycle spans
        // and counters, but held almost nothing.
        let o = &single.overhead;
        assert!(o.span_closes > 10_000, "span closes {}", o.span_closes);
        assert!(o.counter_bumps > 10_000, "counter bumps {}", o.counter_bumps);
        assert!(
            o.peak_retained_spans <= 16,
            "peak open spans should be nesting depth, got {}",
            o.peak_retained_spans
        );
        assert_eq!(o.retained_spans, 0, "all spans folded and freed");

        // Exports exist and carry the family.
        assert!(single.timeline_csv.lines().count() > 1);
        assert!(single.metrics_text.contains("nephele_"));
        assert!(
            single.family_rollup_csv.contains("members_total,10001"),
            "rollup:\n{}",
            single.family_rollup_csv.lines().take(5).collect::<Vec<_>>().join("\n")
        );
    }
}
