//! Sink self-overhead: host cost of one instrumentation "tick" — a mixed
//! batch of spans, counters, gauges and explicit histogram records — on
//! a disabled sink and on an enabled one, which folds every observation.
//!
//! A disabled sink must stay near-free, and folding must stay within its
//! budget: verify.sh gates the enabled / disabled ratio, and the general
//! bench gate tracks both medians against the seeded baselines.

use nephele::sim_core::{Clock, DomId};
use nephele::{TraceConfig, TraceSink};
use testkit::bench::Bench;

/// Spans (each attributed to a domain) per timed batch.
const SPANS: u64 = 256;
/// Domain-attributed counter bumps per batch.
const COUNTS: u64 = 512;
/// Gauge observations per batch.
const GAUGES: u64 = 128;
/// Explicit histogram records per batch.
const RECORDS: u64 = 128;

/// Builds a sink from `config` with a two-member clone family
/// registered, so the fold exercises family attribution like a real
/// platform.
fn sink(config: TraceConfig) -> TraceSink {
    let s = TraceSink::new(Clock::new(), &config);
    s.family_root_created(DomId(1), "bench-root");
    s.family_cloned(DomId(2), Some(DomId(1)));
    s
}

/// One instrumentation tick: the mixed batch above, attributed to the
/// registered family. The sink is cleared first so the folds start from
/// the same state every iteration.
fn tick(s: &TraceSink) {
    s.clear();
    for i in 0..SPANS {
        let span = s.span("bench.op");
        span.dom(DomId(1 + (i & 1) as u32));
    }
    for i in 0..COUNTS {
        s.count_dom("bench.counter", DomId(1 + (i & 1) as u32), 1);
    }
    for i in 0..GAUGES {
        s.gauge("bench.gauge", DomId(1 + (i & 1) as u32), i * 4096);
    }
    for i in 0..RECORDS {
        s.record_ns("bench.latency", 1000 + i * 37);
    }
}

fn main() {
    let mut c = Bench::new("trace_overhead");
    {
        let mut g = c.benchmark_group("trace_overhead");
        g.sample_size(30);
        let off = sink(TraceConfig::default());
        g.bench_function("mixed_off", |b| b.iter(|| tick(&off)));
        let agg = sink(TraceConfig::aggregate());
        g.bench_function("mixed_agg", |b| b.iter(|| tick(&agg)));
        g.finish();
    }
    c.finish();
}
