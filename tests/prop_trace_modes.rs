//! Trace-mode retention: both enabled [`TraceMode`](nephele::TraceMode)s
//! fold every observation through one aggregation path, so for any random
//! clone-family tape they export identical span aggregates, histograms,
//! family rollups, `timeline_csv()` and `metrics_text()`. They differ only
//! in what they keep: Full retains every raw span, counter sample and
//! gauge sample; Aggregate retains none, and holds at most the spans open
//! at once.
//!
//! The same exports must also be invariant under a same-seed rerun — the
//! determinism contract every figure gate depends on.

use nephele::hypervisor::cloneop::CloneOp;
use nephele::sim_core::{DomId, Pfn, TraceConfig, TraceMode, PAGE_SIZE};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, Platform, PlatformConfig, SinkOverhead};
use testkit::prop::{check, ranges, vecs, Gen};

/// One step of a random clone-family tape. Domain indices select from
/// the currently live domains modulo the list length.
#[derive(Debug, Clone)]
enum Op {
    /// Batch-clone domain `idx` into `nr` children.
    Clone { idx: u64, nr: u32 },
    /// Write one byte at (pfn, offset) of domain `idx` (COW breaks).
    Write { idx: u64, pfn: u64, off: usize, val: u8 },
    /// Arm (or re-arm) the KFX checkpoint of domain `idx`.
    Checkpoint { idx: u64 },
    /// Restore domain `idx` to its checkpoint.
    Reset { idx: u64 },
    /// Destroy domain `idx` (retires its family membership).
    Destroy { idx: u64 },
}

fn ops_gen() -> impl Gen<Value = Vec<Op>> {
    vecs(
        (ranges(0u64..8), ranges(0u64..8), ranges(0u64..1060), ranges(0u64..65536)).map(
            |(kind, idx, pfn, val)| match kind {
                0 | 1 | 2 => Op::Clone { idx, nr: 1 + (val % 4) as u32 },
                3 | 4 => Op::Write {
                    idx,
                    pfn,
                    off: (val as usize).wrapping_mul(61) % PAGE_SIZE,
                    val: val as u8,
                },
                5 => Op::Checkpoint { idx },
                6 => Op::Reset { idx },
                _ => Op::Destroy { idx },
            },
        ),
        1..14,
    )
}

/// Everything the two modes must agree on, plus what the run retained.
struct Exports {
    span_aggregates: String,
    histograms: String,
    timeline: String,
    metrics: String,
    families: String,
    /// Raw spans, counter samples and gauge samples held at the end.
    retained: [usize; 3],
    /// Most spans ever open at once, from the retained spans' depths
    /// (0 when none are retained).
    nesting: u64,
    overhead: SinkOverhead,
}

fn run_tape(mode: TraceMode, ops: &[Op]) -> Exports {
    let img = KernelImage::minios("traceprop");
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(64)
            .tracing(TraceConfig::with_mode(mode))
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-prop-trace")
            .build(),
    );
    let cfg = DomainConfig::builder("traceprop").memory_mib(4).max_clones(64).build();
    let root = p.launch_plain(&cfg, &img).expect("root boot");
    let mut live = vec![root];
    for op in ops {
        match op {
            Op::Clone { idx, nr } => {
                if live.len() >= 12 {
                    continue;
                }
                let parent = live[(*idx as usize) % live.len()];
                if let Ok(kids) = p.clone_domain(parent, *nr) {
                    live.extend(kids);
                }
            }
            Op::Write { idx, pfn, off, val } => {
                let dom = live[(*idx as usize) % live.len()];
                let _ = p.hv.write_page(dom, Pfn(*pfn), *off, &[*val]);
            }
            Op::Checkpoint { idx } => {
                let dom = live[(*idx as usize) % live.len()];
                let _ = p.hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom });
            }
            Op::Reset { idx } => {
                let dom = live[(*idx as usize) % live.len()];
                let _ = p.hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom });
            }
            Op::Destroy { idx } => {
                if live.len() <= 1 {
                    continue;
                }
                let pos = (*idx as usize) % live.len();
                if live[pos] == root {
                    continue;
                }
                let dom = live.remove(pos);
                p.destroy(dom).expect("destroy live domain");
            }
        }
    }

    let sink = p.trace();
    sink.validate_well_nested().expect("spans nest");
    let spans = sink.spans();
    Exports {
        span_aggregates: sink.span_aggregates_csv(),
        histograms: sink.histograms_csv(),
        timeline: p.timeline_csv(),
        metrics: p.metrics_text(),
        families: p.family_rollup_csv(),
        retained: [spans.len(), sink.counter_samples().len(), sink.gauges().len()],
        nesting: spans.iter().map(|s| s.depth as u64 + 1).max().unwrap_or(0),
        overhead: sink.overhead(),
    }
}

/// Full keeps every raw record and Aggregate none, while every aggregate
/// export agrees across modes and a same-seed rerun.
#[test]
fn modes_differ_only_in_retention() {
    check(10, |g| {
        let ops = g.draw(&ops_gen());
        let full = run_tape(TraceMode::Full, &ops);
        let agg = run_tape(TraceMode::Aggregate, &ops);

        let o = full.overhead;
        assert_eq!(
            full.retained,
            [o.span_opens as usize, o.counter_bumps as usize, o.gauge_records as usize],
            "Full must retain every raw record for {ops:?}"
        );
        assert_eq!(agg.retained, [0, 0, 0], "Aggregate must retain no raw record for {ops:?}");
        assert!(
            agg.overhead.peak_retained_spans <= full.nesting,
            "Aggregate held {} spans at once, nesting depth is {} for {ops:?}",
            agg.overhead.peak_retained_spans,
            full.nesting
        );

        for (what, a, b) in [
            ("span aggregates", &full.span_aggregates, &agg.span_aggregates),
            ("histograms", &full.histograms, &agg.histograms),
            ("timeline", &full.timeline, &agg.timeline),
            ("metrics text", &full.metrics, &agg.metrics),
            ("family rollups", &full.families, &agg.families),
        ] {
            assert_eq!(a, b, "{what} diverge between modes for {ops:?}");
        }

        let rerun = run_tape(TraceMode::Aggregate, &ops);
        assert_eq!(agg.timeline, rerun.timeline, "same-seed rerun drifted for {ops:?}");
        assert_eq!(agg.metrics, rerun.metrics, "same-seed rerun drifted for {ops:?}");
    });
}
