//! The trace sink over random clone-family tapes: every export is
//! invariant under a same-seed rerun — the determinism contract every
//! figure gate depends on — and the sink holds no more spans at once than
//! the instrumentation nests, however many events the tape produces.

use nephele::hypervisor::cloneop::CloneOp;
use nephele::sim_core::{DomId, Pfn, TraceConfig, PAGE_SIZE};
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

/// Every export of a run, and the sink's self-accounting.
#[derive(Debug, PartialEq)]
struct Exports {
    span_aggregates: String,
    histograms: String,
    timeline: String,
    metrics: String,
    families: String,
    overhead: SinkOverhead,
}

fn run_tape(ops: &[Op]) -> Exports {
    let img = KernelImage::minios("traceprop");
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(64)
            .tracing(TraceConfig::aggregate())
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
    Exports {
        span_aggregates: sink.span_aggregates_csv(),
        histograms: sink.histograms_csv(),
        timeline: sink.timeline_csv(),
        metrics: sink.metrics_text(),
        families: p.family_rollup_csv(),
        overhead: sink.overhead(),
    }
}

/// The deepest span nesting the tapes reach: `platform.clone_domain` ›
/// `hv.cloneop` › `clone.batch` › `clone.child` › a first-stage phase.
const MAX_NESTING: u64 = 5;

/// A same-seed rerun reproduces every export byte for byte.
#[test]
fn same_seed_reruns_export_identical_bytes() {
    check(10, |g| {
        let ops = g.draw(&ops_gen());
        assert_eq!(run_tape(&ops), run_tape(&ops), "same-seed rerun drifted for {ops:?}");
    });
}

/// The sink holds only open spans: at most the nesting depth at once,
/// and none once the tape ends.
#[test]
fn sink_holds_at_most_nesting_depth_open_spans() {
    check(10, |g| {
        let ops = g.draw(&ops_gen());
        let o = run_tape(&ops).overhead;
        assert!(
            o.peak_retained_spans <= MAX_NESTING,
            "{} spans open at once over {} opened for {ops:?}",
            o.peak_retained_spans,
            o.span_opens
        );
        assert_eq!(o.retained_spans, 0, "spans left open for {ops:?}");
    });
}
