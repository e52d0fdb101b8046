//! Deterministic, zero-dependency observability for the simulation.
//!
//! The platform owns a [`TraceSink`]; each mechanism component holds a
//! cloned handle (they share one buffer, like [`Clock`] handles share one
//! instant). Instrumented code opens virtual-time [`spans`](TraceSink::span)
//! around hot paths, bumps named monotonic [`counters`](TraceSink::count)
//! and records per-domain [`gauges`](TraceSink::gauge). Everything is
//! stamped from the virtual [`Clock`] — the host clock is never read — so
//! two runs with the same seed produce byte-identical exports.
//!
//! A sink is **disabled by default** ([`TraceSink::default`]): every
//! operation on a disabled sink is a single `Option` check, so leaving the
//! instrumentation in place costs effectively nothing when tracing is off.
//!
//! # Folding
//!
//! An enabled sink keeps no raw records. Each span is folded into a
//! per-name log-bucketed [`Histogram`] *when it closes*, and every
//! observation is folded into the counter totals, the last gauge values,
//! a bounded virtual-time [`Timeline`] and the clone-family rollups of the
//! [`FamilyRegistry`] fed by the hypervisor. The sink holds only the spans
//! still open, so its memory stays at O(distinct metric keys × timeline
//! slices) no matter how many events a run produces, which is what lets
//! tracing follow 10^5-domain experiments. A span carries at most one
//! domain ([`SpanGuard::dom`]), the one whose clone family its time goes
//! to.
//!
//! Exporters, each reading those folds:
//!
//! * [`TraceSink::span_aggregates_csv`] — a flat `span,count,total_ms,mean_ms`
//!   table, sorted by span name, for printing next to experiment series;
//! * [`TraceSink::histograms_csv`] — per-operation latency percentiles;
//! * [`TraceSink::timeline_csv`] — the virtual-time slice ring;
//! * [`TraceSink::metrics_text`] — Prometheus-style text exposition of the
//!   end-of-run state;
//! * [`TraceSink::family_rollup_csv`] — per-clone-family rollups.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::clock::Clock;
use crate::hist::Histogram;
use crate::ids::DomId;
use crate::rollup::{render_family_csv, FamilyRegistry, FamilyRow};
use crate::time::SimTime;
use crate::timeline::Timeline;

/// Tracing switch for a platform: off by default, on with
/// [`TraceConfig::aggregate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    on: bool,
}

impl TraceConfig {
    /// A config with tracing on: the sink folds every observation as it
    /// is recorded (see the [module docs](self)).
    pub fn aggregate() -> Self {
        TraceConfig { on: true }
    }
}

/// Aggregate statistics for all spans sharing a name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAggregate {
    /// Span name.
    pub name: &'static str,
    /// Number of finished spans with this name.
    pub count: u64,
    /// Total virtual nanoseconds across them.
    pub total_ns: u64,
    /// Mean virtual nanoseconds (integer division).
    pub mean_ns: u64,
}

/// The sink's accounting of its own host-side work and of the spans it
/// holds. All counts are cumulative since construction (or the last
/// [`TraceSink::clear`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkOverhead {
    /// Spans opened.
    pub span_opens: u64,
    /// Spans closed.
    pub span_closes: u64,
    /// Counter bumps.
    pub counter_bumps: u64,
    /// Gauge observations.
    pub gauge_records: u64,
    /// Explicit histogram records ([`TraceSink::record_ns`]).
    pub hist_records: u64,
    /// Spans currently open, the only span records the sink holds.
    pub retained_spans: u64,
    /// High-water mark of `retained_spans`.
    pub peak_retained_spans: u64,
}

#[derive(Debug)]
struct TraceBuf {
    clock: Clock,
    /// Open spans, innermost last: each span's open number and name.
    stack: Vec<(u64, &'static str)>,
    /// Spans opened so far, which numbers the next one.
    opened: u64,
    /// Spans closed while a span opened after them was still open, and
    /// the name of the first one — the nesting violations
    /// [`TraceSink::validate_well_nested`] reports.
    misnested: (u64, Option<&'static str>),
    counters: BTreeMap<&'static str, u64>,
    /// Last value per `(gauge, domain)` — the end-of-run state
    /// [`TraceSink::metrics_text`] exposes.
    gauge_last: BTreeMap<(&'static str, u32), u64>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Per-name span duration histograms; their exact count and sum are
    /// also the [`SpanAggregate`]s.
    span_hists: BTreeMap<&'static str, Histogram>,
    timeline: Timeline,
    families: FamilyRegistry,
    overhead: SinkOverhead,
}

/// A shareable handle onto a trace buffer; see the [module docs](self).
///
/// Cloning yields another handle onto the same buffer. The default sink is
/// disabled: all recording calls return immediately.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

/// RAII guard for an open span: folds the span, stamped from the shared
/// virtual clock, when dropped, which makes spans robust to `?`-style
/// early returns.
#[must_use = "a span ends when its guard drops; binding to _ ends it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    buf: Rc<RefCell<TraceBuf>>,
    /// Open number, which tells the span apart on the sink's stack.
    id: u64,
    name: &'static str,
    start: SimTime,
    dom: Cell<Option<DomId>>,
}

impl SpanGuard {
    /// Attributes the span's time to `dom`'s clone family in the family
    /// rollups. The family is looked up when the span closes, so a span
    /// whose domain is destroyed before then attributes nothing.
    pub fn dom(&self, dom: DomId) {
        if let Some(s) = &self.inner {
            s.dom.set(Some(dom));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else { return };
        let mut b = s.buf.borrow_mut();
        let end = b.clock.now();
        let dur = end.since(s.start).as_ns();
        // Parents are fixed at open and the clock never runs back, so a
        // child escapes its parent exactly when the parent closes first,
        // i.e. when a span closes while not on top of the stack.
        if b.stack.last().map(|&(id, _)| id) == Some(s.id) {
            b.stack.pop();
        } else {
            b.stack.retain(|&(id, _)| id != s.id);
            b.misnested.0 += 1;
            b.misnested.1.get_or_insert(s.name);
        }
        b.overhead.span_closes += 1;
        b.overhead.retained_spans = b.stack.len() as u64;
        b.timeline.fold_span(end, s.name, dur);
        b.span_hists.entry(s.name).or_default().record(dur);
        if let Some(root) = s.dom.get().and_then(|d| b.families.root_of(d)) {
            b.families.record_span(root, s.name, dur);
        }
    }
}

impl TraceSink {
    /// A disabled sink (same as [`TraceSink::default`]).
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// Builds a sink from the shared clock and a config; returns a disabled
    /// sink unless the config turns tracing on.
    pub fn new(clock: Clock, config: &TraceConfig) -> Self {
        if !config.on {
            return TraceSink::disabled();
        }
        TraceSink {
            inner: Some(Rc::new(RefCell::new(TraceBuf {
                clock,
                stack: Vec::new(),
                opened: 0,
                misnested: (0, None),
                counters: BTreeMap::new(),
                gauge_last: BTreeMap::new(),
                hists: BTreeMap::new(),
                span_hists: BTreeMap::new(),
                timeline: Timeline::default(),
                families: FamilyRegistry::default(),
                overhead: SinkOverhead::default(),
            }))),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`, stamped at the current virtual instant.
    /// The span closes (and is folded) when the returned guard drops.
    /// Spans opened while another is open nest inside it.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(buf) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let mut b = buf.borrow_mut();
        let id = b.opened;
        b.opened += 1;
        b.stack.push((id, name));
        let open = b.stack.len() as u64;
        let o = &mut b.overhead;
        o.span_opens += 1;
        o.retained_spans = open;
        o.peak_retained_spans = o.peak_retained_spans.max(open);
        SpanGuard {
            inner: Some(OpenSpan {
                buf: buf.clone(),
                id,
                name,
                start: b.clock.now(),
                dom: Cell::new(None),
            }),
        }
    }

    /// Bumps the named monotonic counter by `delta`.
    pub fn count(&self, name: &'static str, delta: u64) {
        self.count_inner(name, None, delta);
    }

    /// Like [`count`](Self::count), additionally attributing the bump to
    /// `dom`'s clone family for [`family_rollup_csv`](Self::family_rollup_csv).
    pub fn count_dom(&self, name: &'static str, dom: DomId, delta: u64) {
        self.count_inner(name, Some(dom), delta);
    }

    fn count_inner(&self, name: &'static str, dom: Option<DomId>, delta: u64) {
        let Some(buf) = &self.inner else { return };
        let mut b = buf.borrow_mut();
        let at = b.clock.now();
        let total = {
            let c = b.counters.entry(name).or_insert(0);
            *c += delta;
            *c
        };
        b.overhead.counter_bumps += 1;
        b.timeline.fold_count(at, name, delta, total);
        if let Some(root) = dom.and_then(|d| b.families.root_of(d)) {
            b.families.record_counter(root, name, delta);
        }
    }

    /// Records a per-domain gauge observation; the last value per
    /// `(name, dom)` is kept. Gauges of domains in a registered clone
    /// family also update the family rollup (last value per member, dying
    /// with the member).
    pub fn gauge(&self, name: &'static str, dom: DomId, value: u64) {
        let Some(buf) = &self.inner else { return };
        let mut b = buf.borrow_mut();
        let at = b.clock.now();
        b.overhead.gauge_records += 1;
        b.gauge_last.insert((name, dom.0), value);
        b.timeline.fold_gauge(at, name, dom.0, value);
        if let Some(root) = b.families.root_of(dom) {
            b.families.record_gauge(root, name, dom.0, value);
        }
    }

    /// Records a virtual-nanosecond latency sample into the named
    /// log-bucketed [`Histogram`] (see [`crate::hist`]). The timeline's
    /// span rows count span closes only, so a sample recorded under a
    /// span's name is not counted twice there. O(1); a no-op on a
    /// disabled sink.
    pub fn record_ns(&self, name: &'static str, ns: u64) {
        let Some(buf) = &self.inner else { return };
        let mut b = buf.borrow_mut();
        b.overhead.hist_records += 1;
        b.hists.entry(name).or_default().record(ns);
    }

    /// Snapshot of the named latency histogram (`None` when unknown or
    /// disabled).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|b| b.borrow().hists.get(name).cloned())
    }

    /// Snapshot of all latency histograms, keyed by operation name.
    pub fn histograms(&self) -> BTreeMap<&'static str, Histogram> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().hists.clone())
            .unwrap_or_default()
    }

    /// Per-name histograms of span durations, folded at close time.
    pub fn span_hists(&self) -> BTreeMap<&'static str, Histogram> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().span_hists.clone())
            .unwrap_or_default()
    }

    /// The latency histograms as
    /// `op,count,p50_us,p90_us,p99_us,max_us` CSV (header included, rows
    /// sorted by operation name, fixed-point microseconds). Byte-identical
    /// across runs that record the same values.
    pub fn histograms_csv(&self) -> String {
        let mut out = String::from("op,count,p50_us,p90_us,p99_us,max_us\n");
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                name,
                h.count(),
                fmt_us(h.percentile(50.0)),
                fmt_us(h.percentile(90.0)),
                fmt_us(h.percentile(99.0)),
                fmt_us(h.max())
            ));
        }
        out
    }

    /// Current total of a counter (0 when unknown or disabled).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|b| b.borrow().counters.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Snapshot of all counter totals.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().counters.clone())
            .unwrap_or_default()
    }

    /// Last observed value per `(gauge, domain id)`.
    pub fn gauge_last(&self) -> BTreeMap<(&'static str, u32), u64> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().gauge_last.clone())
            .unwrap_or_default()
    }

    /// The sink's self-accounting (zero when disabled).
    pub fn overhead(&self) -> SinkOverhead {
        self.inner
            .as_ref()
            .map(|b| b.borrow().overhead)
            .unwrap_or_default()
    }

    /// Clears all recorded metric data (counters, gauges, timeline,
    /// aggregates, overhead) and the open-span stack; the sink stays
    /// enabled and the clone-family *lineage* is kept — lineage is
    /// structural state fed by lifecycle events that will not be replayed
    /// — while per-family metric stats reset. Useful for scoping an export
    /// to one phase of an experiment.
    pub fn clear(&self) {
        if let Some(buf) = &self.inner {
            let mut b = buf.borrow_mut();
            b.stack.clear();
            b.misnested = (0, None);
            b.counters.clear();
            b.gauge_last.clear();
            b.hists.clear();
            b.span_hists.clear();
            b.timeline.clear();
            b.families.clear_stats();
            b.overhead = SinkOverhead::default();
        }
    }

    /// Checks that the recorded spans nest: every span is finished, and
    /// none closed before a span opened inside it (which would escape its
    /// parent's interval). Returns a description of the first violation.
    /// The check is made as spans close.
    pub fn validate_well_nested(&self) -> Result<(), String> {
        let Some(buf) = &self.inner else { return Ok(()) };
        let b = buf.borrow();
        if let Some(&(_, innermost)) = b.stack.last() {
            return Err(format!(
                "{} span(s) still open, innermost {innermost:?}",
                b.stack.len()
            ));
        }
        if let (n, Some(first)) = b.misnested {
            return Err(format!(
                "{n} span(s) closed before a span nested inside them, first {first:?}"
            ));
        }
        Ok(())
    }

    /// Per-name aggregates over finished spans, sorted by name: the count
    /// and exact sum of each span-duration histogram.
    pub fn span_aggregates(&self) -> Vec<SpanAggregate> {
        let Some(buf) = &self.inner else { return Vec::new() };
        let b = buf.borrow();
        b.span_hists
            .iter()
            .map(|(&name, h)| {
                let (count, total_ns) = (h.count(), h.sum() as u64);
                SpanAggregate { name, count, total_ns, mean_ns: total_ns / count.max(1) }
            })
            .collect()
    }

    /// The span aggregates as `span,count,total_ms,mean_ms` CSV (header
    /// included, rows sorted by span name, fixed-point milliseconds).
    pub fn span_aggregates_csv(&self) -> String {
        let mut out = String::from("span,count,total_ms,mean_ms\n");
        for a in self.span_aggregates() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                a.name,
                a.count,
                fmt_ms(a.total_ns),
                fmt_ms(a.mean_ns)
            ));
        }
        out
    }

    // ------------------------------------------------------------------
    // Clone-family provenance (fed by the hypervisor's family tree)
    // ------------------------------------------------------------------

    /// Registers `dom` as the root of a new clone family.
    pub fn family_root_created(&self, dom: DomId, name: &str) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().families.register_root(dom, name);
        }
    }

    /// Registers `child` as a clone of `parent`, joining its family.
    pub fn family_cloned(&self, child: DomId, parent: Option<DomId>) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().families.register_child(child, parent);
        }
    }

    /// Notes that `dom` was destroyed (its family's live count drops).
    pub fn family_destroyed(&self, dom: DomId) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().families.forget(dom);
        }
    }

    /// The clone family root a live domain belongs to, if registered.
    pub fn family_root_of(&self, dom: DomId) -> Option<u32> {
        self.inner.as_ref().and_then(|b| b.borrow().families.root_of(dom))
    }

    /// Per-family rollup rows: membership, gauges, and the span and
    /// counter attributions folded as they were recorded.
    pub fn family_rows(&self) -> Vec<FamilyRow> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().families.rows())
            .unwrap_or_default()
    }

    /// The family rollups as `family,root,metric,value` CSV, sorted by
    /// `(family, metric)`.
    pub fn family_rollup_csv(&self) -> String {
        render_family_csv(self.family_rows())
    }

    // ------------------------------------------------------------------
    // Timeline + Prometheus-style exposition
    // ------------------------------------------------------------------

    /// The virtual-time slice ring as CSV (see [`Timeline::csv`]); the
    /// header alone when disabled.
    pub fn timeline_csv(&self) -> String {
        self.inner
            .as_ref()
            .map(|b| b.borrow().timeline.csv())
            .unwrap_or_else(|| Timeline::default().csv())
    }

    /// Prometheus-style text exposition of the end-of-run state: counter
    /// totals, last gauge values per domain, explicit latency histograms
    /// and span-duration histograms as summaries (ns quantiles), and span
    /// totals. Metric names are `nephele_`-prefixed with `.` mapped to
    /// `_`. Identical across same-seed runs; empty when disabled.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        for (name, total) in self.counters() {
            let s = sanitize(name);
            out.push_str(&format!("# TYPE nephele_{s}_total counter\n"));
            out.push_str(&format!("nephele_{s}_total {total}\n"));
        }
        let mut last_gauge: Option<&'static str> = None;
        for ((name, dom), value) in self.gauge_last() {
            if last_gauge != Some(name) {
                out.push_str(&format!("# TYPE nephele_{} gauge\n", sanitize(name)));
                last_gauge = Some(name);
            }
            out.push_str(&format!("nephele_{}{{dom=\"{dom}\"}} {value}\n", sanitize(name)));
        }
        for (name, h) in self.histograms() {
            push_summary(&mut out, &format!("nephele_{}_ns", sanitize(name)), &h);
        }
        for (name, h) in self.span_hists() {
            push_summary(&mut out, &format!("nephele_span_{}_duration_ns", sanitize(name)), &h);
        }
        for a in self.span_aggregates() {
            let s = sanitize(a.name);
            out.push_str(&format!("# TYPE nephele_span_{s}_ns_total counter\n"));
            out.push_str(&format!("nephele_span_{s}_ns_total {}\n", a.total_ns));
            out.push_str(&format!("# TYPE nephele_span_{s}_count counter\n"));
            out.push_str(&format!("nephele_span_{s}_count {}\n", a.count));
        }
        out
    }
}

/// One Prometheus summary block: p50/p90/p99 quantiles plus `_sum` and
/// `_count`, all in the histogram's native unit (integer ns).
fn push_summary(out: &mut String, metric: &str, h: &Histogram) {
    out.push_str(&format!("# TYPE {metric} summary\n"));
    for (q, p) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
        out.push_str(&format!("{metric}{{quantile=\"{q}\"}} {}\n", h.percentile(p)));
    }
    out.push_str(&format!("{metric}_sum {}\n", h.sum()));
    out.push_str(&format!("{metric}_count {}\n", h.count()));
}

/// Maps a metric name onto the Prometheus charset (`.`/other separators
/// become `_`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Formats nanoseconds as fixed-point microseconds (`123.456`). Integer
/// math only, so the output is stable.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Formats nanoseconds as fixed-point milliseconds (`1.234567`).
fn fmt_ms(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn sink() -> (Clock, TraceSink) {
        let clock = Clock::new();
        let sink = TraceSink::new(clock.clone(), &TraceConfig::aggregate());
        (clock, sink)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::default();
        assert!(!sink.is_enabled());
        {
            let g = sink.span("noop");
            g.dom(DomId(1));
            sink.count("c", 5);
            sink.gauge("g", DomId::DOM0, 7);
            sink.record_ns("h", 123);
        }
        assert!(sink.span_aggregates().is_empty());
        assert_eq!(sink.counter_total("c"), 0);
        assert!(sink.gauge_last().is_empty());
        assert!(sink.histogram("h").is_none());
        assert_eq!(sink.histograms_csv(), "op,count,p50_us,p90_us,p99_us,max_us\n");
        assert_eq!(sink.overhead(), SinkOverhead::default());
    }

    #[test]
    fn only_an_aggregate_config_builds_an_enabled_sink() {
        let off = TraceSink::new(Clock::new(), &TraceConfig::default());
        assert!(!off.is_enabled());
        assert!(sink().1.is_enabled());
    }

    #[test]
    fn spans_nest_and_stamp_virtual_time() {
        let (clock, sink) = sink();
        {
            let root = sink.span("root");
            clock.advance(SimDuration::from_us(10));
            {
                let _child = sink.span("child");
                clock.advance(SimDuration::from_us(5));
            }
            clock.advance(SimDuration::from_us(1));
            drop(root);
        }
        let agg = sink.span_aggregates();
        assert_eq!((agg[0].name, agg[0].total_ns), ("child", 5_000));
        assert_eq!((agg[1].name, agg[1].total_ns), ("root", 16_000));
        assert_eq!(sink.overhead().peak_retained_spans, 2);
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn guard_survives_early_return() {
        fn inner(sink: &TraceSink, clock: &Clock) -> Result<(), ()> {
            let _g = sink.span("fallible");
            clock.advance(SimDuration::from_ns(3));
            Err(())
        }
        let (clock, sink) = sink();
        let _ = inner(&sink, &clock);
        let agg = sink.span_aggregates();
        assert_eq!((agg[0].count, agg[0].total_ns), (1, 3));
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn counters_accumulate() {
        let (clock, sink) = sink();
        sink.count("ring.tx", 1);
        clock.advance(SimDuration::from_us(2));
        sink.count("ring.tx", 2);
        sink.count("ring.rx", 1);
        assert_eq!(sink.counter_total("ring.tx"), 3);
        assert_eq!(sink.counter_total("ring.rx"), 1);
        assert_eq!(sink.counter_total("missing"), 0);
        let counters = sink.counters();
        assert_eq!(counters.get("ring.tx"), Some(&3));
    }

    #[test]
    fn sink_holds_only_open_spans_but_keeps_aggregates() {
        let (clock, sink) = sink();
        for i in 0..100u64 {
            let g = sink.span("work");
            g.dom(DomId(3));
            clock.advance(SimDuration::from_us(2));
            drop(g);
            sink.count("ticks", 1);
            sink.gauge("level", DomId(3), i);
        }
        assert_eq!(sink.counter_total("ticks"), 100);
        assert_eq!(sink.gauge_last()[&("level", 3)], 99);
        let agg = sink.span_aggregates();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].count, 100);
        assert_eq!(agg[0].total_ns, 200_000);
        assert_eq!(sink.span_hists()["work"].count(), 100);
        let o = sink.overhead();
        assert_eq!(o.span_opens, 100);
        assert_eq!(o.peak_retained_spans, 1, "one span open at a time");
        assert_eq!(o.retained_spans, 0);
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn family_rollups_attribute_spans_and_counters_to_roots() {
        let (clock, sink) = sink();
        sink.family_root_created(DomId(1), "web");
        sink.family_cloned(DomId(2), Some(DomId(1)));
        {
            let g = sink.span("clone.child");
            g.dom(DomId(2));
            clock.advance(SimDuration::from_us(3));
        }
        sink.count_dom("cow.fault", DomId(2), 4);
        sink.gauge("bytes", DomId(2), 77);
        let csv = sink.family_rollup_csv();
        assert_eq!(
            csv,
            "family,root,metric,value\n\
             1,web,counter.cow.fault,4\n\
             1,web,gauge.bytes.dom2,77\n\
             1,web,members_live,2\n\
             1,web,members_total,2\n\
             1,web,span.clone.child.count,1\n\
             1,web,span.clone.child.total_ns,3000\n"
        );
        // The family is looked up at close: a span whose domain dies
        // while it is open attributes nothing.
        {
            let g = sink.span("xl.save");
            g.dom(DomId(2));
            sink.family_destroyed(DomId(2));
        }
        let csv = sink.family_rollup_csv();
        assert!(!csv.contains("gauge.bytes"), "dead members hold no bytes");
        assert!(!csv.contains("xl.save"), "{csv}");
    }

    #[test]
    fn aggregates_group_by_name_sorted() {
        let (clock, sink) = sink();
        for _ in 0..3 {
            let _g = sink.span("b.work");
            clock.advance(SimDuration::from_ms(2));
        }
        {
            let _g = sink.span("a.work");
            clock.advance(SimDuration::from_ms(1));
        }
        let agg = sink.span_aggregates();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].name, "a.work");
        assert_eq!(agg[0].count, 1);
        assert_eq!(agg[0].total_ns, 1_000_000);
        assert_eq!(agg[1].name, "b.work");
        assert_eq!(agg[1].count, 3);
        assert_eq!(agg[1].mean_ns, 2_000_000);
        let csv = sink.span_aggregates_csv();
        assert_eq!(
            csv,
            "span,count,total_ms,mean_ms\n\
             a.work,1,1.000000,1.000000\n\
             b.work,3,6.000000,2.000000\n"
        );
    }

    #[test]
    fn clear_resets_but_keeps_enabled_and_lineage() {
        let (clock, sink) = sink();
        sink.family_root_created(DomId(1), "web");
        {
            let _g = sink.span("x");
            clock.advance(SimDuration::from_ns(1));
        }
        sink.count("c", 1);
        sink.record_ns("h", 5);
        sink.clear();
        assert!(sink.is_enabled());
        assert!(sink.span_aggregates().is_empty());
        assert_eq!(sink.counter_total("c"), 0);
        assert!(sink.histogram("h").is_none());
        assert_eq!(sink.overhead(), SinkOverhead::default());
        assert_eq!(sink.timeline_csv(), Timeline::default().csv());
        assert_eq!(sink.family_root_of(DomId(1)), Some(1), "lineage survives clear");
    }

    #[test]
    fn histograms_export_fixed_point_csv() {
        let (_clock, sink) = sink();
        // Small values land in exact unit buckets, so the CSV is exact.
        for ns in [10u64, 20, 30, 40, 50] {
            sink.record_ns("b.op", ns);
        }
        sink.record_ns("a.op", 1_500);
        let h = sink.histogram("b.op").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(50.0), 30);
        let csv = sink.histograms_csv();
        assert_eq!(
            csv,
            "op,count,p50_us,p90_us,p99_us,max_us\n\
             a.op,1,1.500,1.500,1.500,1.500\n\
             b.op,5,0.030,0.050,0.050,0.050\n"
        );
        let all = sink.histograms();
        assert_eq!(all.len(), 2);
        assert!(all.contains_key("a.op"));
    }

    #[test]
    fn metrics_text_exposes_end_of_run_state() {
        let (clock, sink) = sink();
        sink.count("xs.commits", 3);
        sink.gauge("mem.free", DomId(0), 1024);
        sink.record_ns("op", 50);
        {
            let _g = sink.span("clone.child");
            clock.advance(SimDuration::from_us(1));
        }
        let text = sink.metrics_text();
        assert!(text.contains("# TYPE nephele_xs_commits_total counter\n"));
        assert!(text.contains("nephele_xs_commits_total 3\n"));
        assert!(text.contains("nephele_mem_free{dom=\"0\"} 1024\n"));
        assert!(text.contains("nephele_op_ns{quantile=\"0.5\"} 50\n"));
        assert!(text.contains("nephele_op_ns_count 1\n"));
        assert!(text.contains("nephele_span_clone_child_duration_ns_count 1\n"));
        assert!(text.contains("nephele_span_clone_child_ns_total 1000\n"));
        assert_eq!(text, sink.metrics_text(), "exposition is stable");
    }

    #[test]
    fn validate_catches_open_span() {
        let (_clock, sink) = sink();
        let g = sink.span("open");
        let err = sink.validate_well_nested().unwrap_err();
        assert!(err.contains("\"open\""), "{err}");
        drop(g);
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn validate_catches_parent_closed_before_child() {
        let (clock, sink) = sink();
        let parent = sink.span("parent");
        let child = sink.span("child");
        clock.advance(SimDuration::from_us(1));
        drop(parent);
        clock.advance(SimDuration::from_us(1));
        drop(child);
        let err = sink.validate_well_nested().unwrap_err();
        assert!(err.contains("\"parent\""), "{err}");
        sink.clear();
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn shared_handles_write_one_buffer() {
        let (clock, sink) = sink();
        let other = sink.clone();
        {
            let _g = sink.span("outer");
            clock.advance(SimDuration::from_ns(5));
            let _h = other.span("inner");
        }
        assert_eq!(sink.span_aggregates().len(), 2);
        assert_eq!(sink.overhead().peak_retained_spans, 2, "handles share the span stack");
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn timeline_counts_each_span_close_once() {
        let (clock, sink) = sink();
        {
            let _g = sink.span("xs.xs_clone");
            clock.advance(SimDuration::from_ns(300));
        }
        // A latency sample under a span's name, and one under a name no
        // span carries: histograms only.
        sink.record_ns("xs.xs_clone", 300);
        sink.record_ns("clone.stage1", 50);
        assert_eq!(
            sink.timeline_csv(),
            "slice,start_us,kind,key,dom,n,sum,max,last\n\
             0,0.000,span,xs.xs_clone,,1,300,300,\n"
        );
        assert_eq!(sink.histogram("xs.xs_clone").map(|h| h.count()), Some(1));
        assert_eq!(sink.histogram("clone.stage1").map(|h| h.count()), Some(1));
    }
}
