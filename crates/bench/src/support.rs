//! Shared helpers for the figure experiments.

use std::net::Ipv4Addr;
use std::path::Path;

use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{Platform, PlatformConfig, TraceSink};

/// The service IP every UDP-server family shares.
pub const UDP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Builds the paper's Fig. 4/5 machine: a 12 GiB guest pool.
/// Tracing is off unless `NEPHELE_TRACE` turns it on, as for every
/// platform.
pub fn paper_platform() -> Platform {
    Platform::new(PlatformConfig::default())
}

/// Builds a platform with a custom guest pool (MiB).
pub fn platform_with_pool(pool_mib: u64) -> Platform {
    Platform::new(PlatformConfig::builder().guest_pool_mib(pool_mib).build())
}

/// Exports a figure run's trace under `results/`: the span-aggregate CSV
/// and the latency histogram CSV (per-operation p50/p90/p99/max), both
/// also printed to stdout next to the figure's series, and the streaming
/// exports — virtual-time timeline CSV, the sink's per-clone-family rollup
/// CSV and the Prometheus-style text exposition — to files only (stdout
/// stays byte-identical to earlier releases, which the determinism gate
/// relies on). No-op when the sink is disabled.
///
/// This is the one export path every figure runner goes through, so any
/// figure run with `NEPHELE_TRACE=1` yields the same artifact set.
pub fn export_trace(trace: &TraceSink, fig: &str) {
    if !trace.is_enabled() {
        return;
    }
    let spans = trace.span_aggregates_csv();
    let hist = trace.histograms_csv();
    println!("# {fig}: span aggregates");
    print!("{spans}");
    println!("# {fig}: latency histograms (us)");
    print!("{hist}");
    let write = |suffix: &str, content: &str| {
        let path = Path::new("results").join(format!("{fig}_{suffix}"));
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, content)) {
            Ok(()) => eprintln!("{fig}: wrote {}", path.display()),
            Err(e) => eprintln!("{fig}: {suffix} export failed: {e}"),
        }
    };
    write("spans.csv", &spans);
    write("hist.csv", &hist);
    write("timeline.csv", &trace.timeline_csv());
    write("families.csv", &trace.family_rollup_csv());
    write("metrics.prom", &trace.metrics_text());
}

/// Percentile summary of one measured curve (used for the figure
/// percentile columns; units are whatever the samples are in).
#[derive(Debug, Clone, PartialEq)]
pub struct PctRow {
    /// Curve name, e.g. `clone_deepcopy_ms`.
    pub curve: String,
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank percentiles (same convention as
    /// `sim_core::stats::percentile` and `sim_core::hist::Histogram`).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// Builds a [`PctRow`] from raw samples.
pub fn pct_row(curve: impl Into<String>, samples: &[f64]) -> PctRow {
    use sim_core::stats::percentile;
    let mut s = samples.to_vec();
    PctRow {
        curve: curve.into(),
        count: samples.len(),
        p50: percentile(&mut s, 50.0),
        p90: percentile(&mut s, 90.0),
        p99: percentile(&mut s, 99.0),
        max: percentile(&mut s, 100.0),
    }
}

/// Renders percentile rows as CSV (`curve,count,p50,p90,p99,max`), with
/// three fixed decimals so same-seed runs are byte-identical.
pub fn pct_csv(rows: &[PctRow]) -> String {
    let mut out = String::from("curve,count,p50,p90,p99,max\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.3},{:.3},{:.3},{:.3}\n",
            r.curve, r.count, r.p50, r.p90, r.p99, r.max
        ));
    }
    out
}

/// Prints the percentile columns for a figure and writes them to
/// `results/{fig}_percentiles.csv`.
pub fn export_percentiles(fig: &str, rows: &[PctRow]) {
    let csv = pct_csv(rows);
    println!("# {fig}: percentiles");
    print!("{csv}");
    let path = Path::new("results").join(format!("{fig}_percentiles.csv"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, csv) {
        Ok(()) => eprintln!("{fig}: wrote {}", path.display()),
        Err(e) => eprintln!("{fig}: percentile export failed: {e}"),
    }
}

/// The Fig. 4/5 guest: 4 MiB Mini-OS UDP server with one vif.
pub fn udp_guest_cfg(name: &str, max_clones: u32) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(4)
        .vif(UDP_IP)
        .max_clones(max_clones)
        .build()
}

/// The Mini-OS image for the UDP server.
pub fn udp_image() -> KernelImage {
    KernelImage::minios("minios-udp")
}

/// Prints a series as CSV to stdout with a `# figN` header comment.
pub fn print_csv(fig: &str, series: &sim_core::stats::Series) {
    println!("# {fig}");
    print!("{}", series.to_csv());
}
