//! Regenerates the Fig. 10 scale companion: request-cloning policy
//! latency percentiles at high clone density.
//!
//! Usage: `cargo run -p bench --release --bin fig10scale [live_domains]`
//! (default 10000).

fn main() {
    let live: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    eprintln!("fig10scale: replaying traffic against {live} live clones...");
    let (series, report) = bench::fig10scale::run(live);
    assert!(
        report.audit.is_clean(),
        "fig10scale: audit after the replay failed:\n{}",
        report.audit
    );
    bench::support::print_csv("fig10scale: request-cloning policy latency (us)", &series);

    eprintln!();
    eprintln!("summary:");
    eprintln!(
        "  live domains at replay: {} ({} churned through destroy)",
        report.live_at_replay, report.destroyed
    );
    eprintln!(
        "  clone_request_k3: {} served, {} loser replicas cancelled, p99 {:.1} us",
        report.clone_request.served,
        report.clone_request.cancelled,
        report.clone_request.latency.percentile(99.0) as f64 / 1_000.0
    );
    eprintln!(
        "  clone_vm: {} served, {} cloned on demand, {} queued, p99 {:.1} us",
        report.clone_vm.served,
        report.clone_vm.cloned_on_demand,
        report.clone_vm.queued,
        report.clone_vm.latency.percentile(99.0) as f64 / 1_000.0
    );
    eprintln!(
        "  audit after the replay: clean, {} checks in {:.2} s",
        report.audit.checks,
        report.audit_wall.as_secs_f64()
    );
}
