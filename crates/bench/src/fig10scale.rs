//! Fig. 10 (scale companion) — request-cloning policies at high clone
//! density.
//!
//! Delegates to [`faas::traffic`]: a platform is rammed to `live`
//! concurrently live vif-less clones (with destroy churn on the way up),
//! then one seeded bursty arrival tape is replayed under both serving
//! policies — `clone_request_k3` (fan each request to 3 warm instances,
//! first response wins) and `clone_vm` (Nephele-clone an instance on
//! demand when the warm pool is busy). The emitted series is the latency
//! percentile curve per policy, in microseconds.
//!
//! The run is deterministic: integer log-bucketed histograms plus an
//! all-virtual-time tape make the CSV byte-identical for the same seed,
//! which is exactly what the determinism gate checks.

use faas::{run_macro, MacroConfig, MacroReport, TrafficConfig};
use sim_core::stats::Series;

/// Percentiles plotted on the x axis.
pub const PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 100.0];

/// Runs the macro scenario at `live` concurrently live clones and
/// returns the per-policy latency-percentile series plus the raw report.
pub fn run(live: u32) -> (Series, MacroReport) {
    let report = run_macro(&MacroConfig {
        live_domains: live,
        batch: 500,
        pool_mib: pool_mib_for(live),
        // Small enough that burst episodes overflow it: the clone_vm
        // policy must actually clone on demand, not coast on idle warmth.
        warm_pool: 32,
        fanout_k: 3,
        churn_every: 64,
        traffic: TrafficConfig::default(),
        ..MacroConfig::default()
    });

    let mut series = Series::new("percentile", &["clone_request_k3_us", "clone_vm_us"]);
    for p in PERCENTILES {
        series.row(
            p,
            &[
                report.clone_request.latency.percentile(p) as f64 / 1_000.0,
                report.clone_vm.latency.percentile(p) as f64 / 1_000.0,
            ],
        );
    }
    (series, report)
}

/// Guest pool sized for `live` vif-less 4 MiB clones (~26 pages each)
/// plus template, warm pool and on-demand headroom.
pub fn pool_mib_for(live: u32) -> u64 {
    (live as u64 / 4).clamp(512, 16_384)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_starts_past_the_requested_density() {
        let (_, report) = run(2_000);
        assert!(report.live_at_replay > 2_000);
        assert!(report.audit.is_clean(), "{}", report.audit);
    }
}
