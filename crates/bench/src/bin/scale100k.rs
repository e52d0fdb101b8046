//! The 10^5 live-domain scenario: ramps one platform to 100 000
//! concurrently live vif-less clones (with destroy churn), then replays
//! the seeded traffic tape under both request-cloning policies.
//!
//! This is the acceptance run for the index work — every create, clone,
//! destroy and replay step must cost O(log pool) or O(refs), never
//! O(live domains), or the run visibly crawls. The run ends with a full
//! state audit of the 10^5-domain platform, which must come back clean.
//! `scripts/verify.sh` runs it once in release mode and asserts the
//! scenario completes.
//!
//! Usage: `cargo run -p bench --release --bin scale100k [live_domains]`
//! (default 100000).

use faas::{run_macro, MacroConfig, TrafficConfig};

fn main() {
    let live: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    eprintln!("scale100k: ramping to {live} live clones...");
    let report = run_macro(&MacroConfig {
        live_domains: live,
        batch: 1_000,
        pool_mib: 8_192,
        // Small enough that burst episodes overflow it, so the replay
        // exercises on-demand cloning at full density too.
        warm_pool: 32,
        fanout_k: 3,
        churn_every: 64,
        traffic: TrafficConfig::default(),
        ..MacroConfig::default()
    });

    assert!(
        report.live_at_replay >= live as u64,
        "only {} of {live} domains live at replay",
        report.live_at_replay
    );
    assert_eq!(report.clone_request.served, report.clone_vm.served);
    assert!(report.destroyed > 0, "churn phase did not run");
    assert!(
        report.audit.is_clean(),
        "scale100k: audit after the replay failed:\n{}",
        report.audit
    );

    println!(
        "scale100k OK: {} live domains at replay, {} churned, {} requests per policy",
        report.live_at_replay, report.destroyed, report.clone_request.served
    );
    println!(
        "  clone_request_k3 p50/p99 us: {:.1}/{:.1} ({} cancelled)",
        report.clone_request.latency.percentile(50.0) as f64 / 1_000.0,
        report.clone_request.latency.percentile(99.0) as f64 / 1_000.0,
        report.clone_request.cancelled
    );
    println!(
        "  clone_vm p50/p99 us: {:.1}/{:.1} ({} cloned on demand, {} queued)",
        report.clone_vm.latency.percentile(50.0) as f64 / 1_000.0,
        report.clone_vm.latency.percentile(99.0) as f64 / 1_000.0,
        report.clone_vm.cloned_on_demand,
        report.clone_vm.queued
    );
    println!(
        "  audit: clean, {} checks in {:.2} s",
        report.audit.checks,
        report.audit_wall.as_secs_f64()
    );
}
