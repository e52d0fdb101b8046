//! Turns a run's rounds into the benchmark's metrics and result line.

use crate::measure::{median, CALLS};
use crate::workloads::Round;

/// Per-call metric suffixes (suffix, unit); each timed call reports all
/// four under its `<layer>.<call>` name.
const PER_CALL: [(&str, &str); 4] = [
    ("share", "ratio"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("calls", "count"),
];

/// The other per-layer metrics (name, unit). A count a workload does not
/// produce reads 0.
const LAYER_COUNTS: [(&str, &str); 23] = [
    ("hypervisor.domains_live", "count"),
    ("hypervisor.dirty_pages_per_reset", "pages"),
    ("hypervisor.cow_faults", "count"),
    ("xencloned.stage2.per_child_us", "us"),
    ("xencloned.parent_cache.hit_ratio", "ratio"),
    ("xencloned.clones_completed", "count"),
    ("xenstore.entries", "count"),
    ("xenstore.entries_per_live_domain", "ratio"),
    ("xenstore.xs_clone.count", "count"),
    ("xenstore.log_rotations", "count"),
    ("xenstore.commits", "count"),
    ("devices.vifs_live", "count"),
    ("devices.ring_tx", "count"),
    ("devices.ring_rx", "count"),
    ("netmux.packets_routed", "count"),
    ("faas.cloned_on_demand", "count"),
    ("faas.cancelled", "count"),
    ("trace.span_closes", "count"),
    ("trace.hist_records", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("platform.audit_s", "s"),
    ("unattributed.share", "ratio"),
    ("host.reference_ms", "ms"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The median over rounds of `f(round)`.
fn over_rounds(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end metrics: medians over `rounds`, the median of `setups`, and
/// the process's peak resident set. Host times are normalized by each
/// round's reference scale.
pub fn end_to_end(rounds: &[Round], setups: &[f64]) -> Vec<Metric> {
    vec![
        metric(
            "throughput_ops_s",
            over_rounds(rounds, |r| {
                r.ops as f64 * 1e9 / (r.wall_ns.max(1) as f64 * r.scale)
            }),
            "ops/s",
        ),
        metric(
            "op_p50_us",
            over_rounds(rounds, |r| r.op.p50_ns as f64 * r.scale / 1e3),
            "us",
        ),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Per-layer metrics: per-call shares and latencies from the `untraced`
/// rounds, sink counts from the `traced` ones, the tracing overhead as
/// the ratio of their median normalized walls, and the run's median
/// reference-work time (which undoes the normalization).
pub fn per_layer(
    untraced: &[Round],
    traced: &[Round],
    audit_s: f64,
    reference_ns: u64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut shares = vec![0.0; untraced.len()];
    for call in CALLS {
        let per_round: Vec<[f64; 4]> = untraced
            .iter()
            .map(|r| {
                let s = r.calls[call as usize];
                [
                    s.sum_ns as f64 / r.wall_ns.max(1) as f64,
                    s.p50_ns as f64 * r.scale / 1e3,
                    s.p99_ns as f64 * r.scale / 1e3,
                    s.count as f64,
                ]
            })
            .collect();
        for (total, v) in shares.iter_mut().zip(&per_round) {
            *total += v[0];
        }
        for (i, (suffix, unit)) in PER_CALL.iter().enumerate() {
            let v = median(&per_round.iter().map(|v| v[i]).collect::<Vec<_>>());
            out.push(metric(format!("{}.{suffix}", call.name()), v, unit));
        }
    }
    let wall = |rounds: &[Round]| over_rounds(rounds, |r| r.wall_ns as f64 * r.scale);
    for (name, unit) in LAYER_COUNTS {
        let count = |rounds: &[Round]| {
            median(
                &rounds
                    .iter()
                    .filter_map(|r| r.counts.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                    .collect::<Vec<_>>(),
            )
        };
        let value = match name {
            "trace.overhead_ratio" if !traced.is_empty() => wall(traced) / wall(untraced),
            "platform.audit_s" => audit_s,
            "host.reference_ms" => reference_ns as f64 / 1e6,
            "unattributed.share" => median(&shares.iter().map(|s| 1.0 - s).collect::<Vec<_>>()),
            // Counts only an enabled sink records come from traced rounds.
            _ if traced
                .iter()
                .any(|r| r.counts.iter().any(|(n, _)| *n == name)) =>
            {
                count(traced)
            }
            _ => count(untraced),
        };
        out.push(metric(name, value, unit));
    }
    out
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A run's result: checked outcomes and metrics.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Sums the rounds' checks plus two of the run's own: every round
    /// produced the same digest, and the final audit was clean.
    pub fn new<'a>(
        rounds: impl IntoIterator<Item = &'a Round>,
        audit_clean: bool,
        metrics: Vec<Metric>,
    ) -> Outcome {
        let (mut attempted, mut failed) = (2, u64::from(!audit_clean));
        let mut digests = Vec::new();
        for r in rounds {
            attempted += r.tally.attempted;
            failed += r.tally.failed;
            digests.push(r.digest);
        }
        digests.dedup();
        if digests.len() != 1 {
            eprintln!("hostbench: rounds disagree on the digest: {digests:#018x?}");
            failed += 1;
        }
        Outcome {
            attempted,
            failed,
            metrics,
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The process exit code: non-zero when a check failed.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
