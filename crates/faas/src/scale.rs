//! Scale driver: packing one platform with thousands of cloned domains.
//!
//! The FaaS experiment of §7.3 scales to a handful of instances; this
//! driver exists to exercise the *observability* pipeline at the scale the
//! paper's density numbers imply (Fig. 5 reaches ~8900 clones). Domains
//! are cloned from one vif-less template in batches, so each clone costs
//! only its private frames and Xenstore subtree — no 1 MiB RX ring — and a
//! 10^4-domain run fits a small guest pool.
//!
//! With the sink in [`TraceMode::Aggregate`](nephele::TraceMode), the run
//! demonstrates the bounded-memory property: spans, counters and gauges
//! are folded into histograms, timeline slices and family rollups as they
//! are recorded, so peak retained raw records stay O(open spans), not
//! O(events) — see [`ScaleReport::overhead`].

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
    /// Observability knobs; Aggregate mode is the point of this driver.
    pub tracing: TraceConfig,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            domains: 10_000,
            batch: 250,
            pool_mib: 1024,
            seed: 0x5ca1e,
            tracing: TraceConfig::aggregate(),
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
    /// The sink's self-accounting: host-side work done and peak raw
    /// records retained.
    pub overhead: SinkOverhead,
    /// [`Platform::timeline_csv`] at the end of the run.
    pub timeline_csv: String,
    /// [`Platform::metrics_text`] at the end of the run.
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
            .tracing(cfg.tracing.clone())
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
        timeline_csv: p.timeline_csv(),
        metrics_text: p.metrics_text(),
        family_rollup_csv: p.family_rollup_csv(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline scale property: 10^4 domains in Aggregate mode with
    /// raw-record retention bounded by concurrently-open spans (a handful)
    /// — not by the millions of span/counter/gauge events the run emits.
    #[test]
    fn ten_thousand_domains_bounded_sink() {
        let single = run_scale(&ScaleConfig::default());
        assert_eq!(single.domains_created, 10_000, "pool must fit 10^4 clones");
        assert_eq!(single.domains_destroyed, 625);

        // Bounded memory: the run recorded work for >10^4 lifecycle spans
        // and counters, but retained almost nothing.
        let o = &single.overhead;
        assert!(o.span_closes > 10_000, "span closes {}", o.span_closes);
        assert!(o.counter_bumps > 10_000, "counter bumps {}", o.counter_bumps);
        assert!(
            o.peak_retained_spans <= 16,
            "peak open spans should be nesting depth, got {}",
            o.peak_retained_spans
        );
        assert_eq!(o.retained_spans, 0, "all spans folded and freed");
        assert_eq!(o.peak_retained_counter_samples, 0, "no raw counter samples in Aggregate");
        assert_eq!(o.peak_retained_gauge_samples, 0, "no raw gauge samples in Aggregate");

        // Exports exist and carry the family.
        assert!(single.timeline_csv.lines().count() > 1);
        assert!(single.metrics_text.contains("nephele_"));
        assert!(
            single.family_rollup_csv.contains("members_total,10001"),
            "rollup:\n{}",
            single.family_rollup_csv.lines().take(5).collect::<Vec<_>>().join("\n")
        );
    }

    /// Full mode on a smaller run retains O(events) records — the contrast
    /// that makes Aggregate's bound meaningful — while producing the same
    /// aggregate exports.
    #[test]
    fn full_mode_retains_raw_records_but_matches_aggregate_exports() {
        let base = ScaleConfig {
            domains: 200,
            batch: 50,
            pool_mib: 256,
            ..Default::default()
        };
        let agg = run_scale(&base);
        let full = run_scale(&ScaleConfig {
            tracing: TraceConfig::enabled(),
            ..base
        });
        assert!(
            full.overhead.retained_spans > 200,
            "Full keeps raw spans, got {}",
            full.overhead.retained_spans
        );
        assert_eq!(agg.overhead.retained_spans, 0);
        assert_eq!(agg.timeline_csv, full.timeline_csv);
        assert_eq!(agg.metrics_text, full.metrics_text);
        assert_eq!(agg.family_rollup_csv, full.family_rollup_csv);
    }
}
