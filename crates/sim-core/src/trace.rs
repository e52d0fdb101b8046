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
//! # Trace modes
//!
//! Every enabled sink aggregates one way: each span is folded into a
//! per-name log-bucketed [`Histogram`] *when it closes*, and every
//! observation is folded into the counter totals, the last gauge values,
//! a bounded virtual-time [`Timeline`] and the clone-family rollups of the
//! [`FamilyRegistry`] fed by the hypervisor. Every aggregate export
//! ([`span_aggregates_csv`](TraceSink::span_aggregates_csv),
//! [`timeline_csv`](TraceSink::timeline_csv),
//! [`metrics_text`](TraceSink::metrics_text),
//! [`family_rollup_csv`](TraceSink::family_rollup_csv)) reads those folds,
//! so it is byte-identical across modes and same-seed runs. The two
//! enabled [`TraceMode`]s differ only in retention:
//!
//! * [`TraceMode::Full`] also keeps every raw span, counter sample and
//!   gauge sample — O(events) memory — for the Chrome trace exporter.
//! * [`TraceMode::Aggregate`] drops each raw record once it is folded, so
//!   memory stays at O(distinct metric keys × timeline slices) no matter
//!   how many events a run produces — the mode that scales to
//!   10^5-domain experiments.
//!
//! Exporters:
//!
//! * [`TraceSink::chrome_trace_json`] — the Chrome trace-event format
//!   (loadable in `about:tracing` or [Perfetto](https://ui.perfetto.dev)),
//!   with spans as complete (`"ph":"X"`) events and counters as `"ph":"C"`
//!   events (Full mode only — Aggregate drops the raw events);
//! * [`TraceSink::span_aggregates_csv`] — a flat `span,count,total_ms,mean_ms`
//!   table, sorted by span name, for printing next to experiment series;
//! * [`TraceSink::timeline_csv`] — the virtual-time slice ring;
//! * [`TraceSink::metrics_text`] — Prometheus-style text exposition of the
//!   end-of-run state;
//! * [`TraceSink::family_rollup_csv`] — per-clone-family rollups.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::rc::Rc;

use crate::clock::Clock;
use crate::hist::Histogram;
use crate::ids::DomId;
use crate::rollup::{render_family_csv, FamilyRegistry, FamilyRow};
use crate::time::SimTime;
use crate::timeline::Timeline;

/// How much raw data an enabled sink retains; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing at all (the sink is disabled).
    #[default]
    Off,
    /// Also retain every raw record — O(events) memory.
    Full,
    /// Drop raw records once folded — O(keys) memory.
    Aggregate,
}

impl TraceMode {
    /// Parses the `NEPHELE_TRACE` spellings (case-insensitive):
    /// `off`/`0`/`none`, `full`/`1`/`on`, `aggregate`/`agg`.
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(TraceMode::Off),
            "full" | "1" | "on" => Some(TraceMode::Full),
            "aggregate" | "agg" => Some(TraceMode::Aggregate),
            _ => None,
        }
    }
}

impl fmt::Display for TraceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceMode::Off => "off",
            TraceMode::Full => "full",
            TraceMode::Aggregate => "aggregate",
        })
    }
}

/// Tracing knob for a platform (off by default).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Retention mode; [`TraceMode::Off`] (the default) keeps a disabled
    /// sink, whose instrumentation does near-zero work.
    pub mode: TraceMode,
}

impl TraceConfig {
    /// A config with tracing switched on (Full mode).
    pub fn enabled() -> Self {
        TraceConfig::with_mode(TraceMode::Full)
    }

    /// A config with Aggregate-mode tracing switched on.
    pub fn aggregate() -> Self {
        TraceConfig::with_mode(TraceMode::Aggregate)
    }

    /// A config for the given mode ([`TraceMode::Off`] yields a disabled
    /// config).
    pub fn with_mode(mode: TraceMode) -> Self {
        TraceConfig { mode }
    }
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Owned string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded span (finished once `end` is set).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (static taxonomy, e.g. `hv.cloneop`).
    pub name: &'static str,
    /// Index of the enclosing span in the sink's span list, if nested.
    pub parent: Option<usize>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Virtual time at entry.
    pub start: SimTime,
    /// Virtual time at exit (`None` while the span is open).
    pub end: Option<SimTime>,
    /// Typed attributes attached via [`SpanGuard::attr`].
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in virtual nanoseconds (0 while still open).
    pub fn duration_ns(&self) -> u64 {
        self.end.map(|e| e.since(self.start).as_ns()).unwrap_or(0)
    }
}

/// One timestamped counter observation (the running total after the bump).
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Counter name.
    pub name: &'static str,
    /// Virtual time of the bump.
    pub at: SimTime,
    /// The bump itself.
    pub delta: u64,
    /// Running total after the bump.
    pub total: u64,
}

/// One timestamped per-domain gauge observation.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Gauge name.
    pub name: &'static str,
    /// Domain the observation belongs to (Dom0 for host-wide gauges).
    pub dom: DomId,
    /// Virtual time of the observation.
    pub at: SimTime,
    /// Observed value.
    pub value: u64,
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

/// The sink's accounting of its own host-side work and retention — the
/// numbers behind the "Aggregate mode is O(keys), not O(events)" claim.
/// All counts are cumulative since construction (or the last
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
    /// Span records currently held (open spans plus, in Full mode, every
    /// closed one).
    pub retained_spans: u64,
    /// High-water mark of `retained_spans`.
    pub peak_retained_spans: u64,
    /// Raw counter samples currently held (always 0 in Aggregate mode).
    pub retained_counter_samples: u64,
    /// High-water mark of `retained_counter_samples`.
    pub peak_retained_counter_samples: u64,
    /// Raw gauge samples currently held (always 0 in Aggregate mode).
    pub retained_gauge_samples: u64,
    /// High-water mark of `retained_gauge_samples`.
    pub peak_retained_gauge_samples: u64,
}

#[derive(Debug)]
struct TraceBuf {
    clock: Clock,
    mode: TraceMode,
    spans: Vec<SpanRecord>,
    /// Free slots of the span slab (Aggregate mode reuses closed slots so
    /// open-span indices stay stable while memory stays bounded).
    free: Vec<usize>,
    stack: Vec<usize>,
    /// Spans closed while a span opened after them was still open, and
    /// the name of the first one — the nesting violations
    /// [`TraceSink::validate_well_nested`] reports.
    misnested: (u64, Option<&'static str>),
    counters: BTreeMap<&'static str, u64>,
    counter_samples: Vec<CounterSample>,
    gauges: Vec<GaugeSample>,
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

impl TraceBuf {
    /// The family root for a span's attrs: the first of `dom`, `parent`,
    /// `child` that names a domain in a registered family.
    fn family_of_attrs(&self, attrs: &[(&'static str, AttrValue)]) -> Option<u32> {
        for key in ["dom", "parent", "child"] {
            if let Some((_, AttrValue::U64(v))) = attrs.iter().find(|(k, _)| *k == key) {
                if let Ok(d) = u32::try_from(*v) {
                    return self.families.root_of(DomId(d));
                }
            }
        }
        None
    }

    fn note_span_retention(&mut self) {
        let retained = (self.spans.len() - self.free.len()) as u64;
        self.overhead.retained_spans = retained;
        self.overhead.peak_retained_spans = self.overhead.peak_retained_spans.max(retained);
    }
}

/// A shareable handle onto a trace buffer; see the [module docs](self).
///
/// Cloning yields another handle onto the same buffer. The default sink is
/// disabled: all recording calls return immediately.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

/// RAII guard for an open span: records the exit timestamp (from the shared
/// virtual clock) when dropped, which makes spans robust to `?`-style early
/// returns.
#[must_use = "a span ends when its guard drops; binding to _ ends it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Rc<RefCell<TraceBuf>>, usize)>,
}

impl SpanGuard {
    /// Attaches a typed attribute to the span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some((buf, idx)) = &self.inner {
            buf.borrow_mut().spans[*idx].attrs.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((buf, idx)) = self.inner.take() {
            let mut b = buf.borrow_mut();
            let end = b.clock.now();
            let family = b.family_of_attrs(&b.spans[idx].attrs);
            let rec = &mut b.spans[idx];
            rec.end = Some(end);
            let name = rec.name;
            let dur = end.since(rec.start).as_ns();
            // Parents are fixed at open and the clock never runs back, so
            // a child escapes its parent exactly when the parent closes
            // first, i.e. when a span closes while not on top of the stack.
            if b.stack.last() == Some(&idx) {
                b.stack.pop();
            } else {
                b.stack.retain(|&i| i != idx);
                b.misnested.0 += 1;
                b.misnested.1.get_or_insert(name);
            }
            b.overhead.span_closes += 1;
            b.timeline.fold_span(end, name, dur);
            b.span_hists.entry(name).or_default().record(dur);
            if let Some(root) = family {
                b.families.record_span(root, name, dur);
            }
            if b.mode == TraceMode::Aggregate {
                // Tombstone the slot and hand it back to the slab: the
                // raw record (and its attr allocations) die here.
                b.spans[idx] = SpanRecord {
                    name: "",
                    parent: None,
                    depth: 0,
                    start: end,
                    end: Some(end),
                    attrs: Vec::new(),
                };
                b.free.push(idx);
                b.note_span_retention();
            }
        }
    }
}

impl TraceSink {
    /// A disabled sink (same as [`TraceSink::default`]).
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// Builds a sink from the shared clock and a config; returns a disabled
    /// sink when the config's mode is [`TraceMode::Off`].
    pub fn new(clock: Clock, config: &TraceConfig) -> Self {
        let mode = config.mode;
        if mode == TraceMode::Off {
            return TraceSink::disabled();
        }
        TraceSink {
            inner: Some(Rc::new(RefCell::new(TraceBuf {
                clock,
                mode,
                spans: Vec::new(),
                free: Vec::new(),
                stack: Vec::new(),
                misnested: (0, None),
                counters: BTreeMap::new(),
                counter_samples: Vec::new(),
                gauges: Vec::new(),
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

    /// The mode this sink runs in ([`TraceMode::Off`] when disabled).
    pub fn mode(&self) -> TraceMode {
        self.inner.as_ref().map(|b| b.borrow().mode).unwrap_or(TraceMode::Off)
    }

    /// Opens a span named `name`, stamped at the current virtual instant.
    /// The span closes (and its exit is stamped) when the returned guard
    /// drops. Spans opened while another is open become its children.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(buf) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let mut b = buf.borrow_mut();
        let start = b.clock.now();
        let parent = b.stack.last().copied();
        let depth = parent.map(|p| b.spans[p].depth + 1).unwrap_or(0);
        let rec = SpanRecord {
            name,
            parent,
            depth,
            start,
            end: None,
            attrs: Vec::new(),
        };
        let idx = match b.free.pop() {
            Some(i) => {
                b.spans[i] = rec;
                i
            }
            None => {
                b.spans.push(rec);
                b.spans.len() - 1
            }
        };
        b.stack.push(idx);
        b.overhead.span_opens += 1;
        b.note_span_retention();
        SpanGuard {
            inner: Some((buf.clone(), idx)),
        }
    }

    /// Bumps the named monotonic counter by `delta`; in Full mode a
    /// timestamped sample of the new total is retained.
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
        if b.mode == TraceMode::Full {
            b.counter_samples.push(CounterSample { name, at, delta, total });
            let retained = b.counter_samples.len() as u64;
            b.overhead.retained_counter_samples = retained;
            b.overhead.peak_retained_counter_samples =
                b.overhead.peak_retained_counter_samples.max(retained);
        }
    }

    /// Records a timestamped per-domain gauge observation. The last value
    /// per `(name, dom)` is kept; Full mode also retains every sample.
    /// Gauges of domains in a registered clone family also update the
    /// family rollup (last value per member, dying with the member).
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
        if b.mode == TraceMode::Full {
            b.gauges.push(GaugeSample { name, dom, at, value });
            let retained = b.gauges.len() as u64;
            b.overhead.retained_gauge_samples = retained;
            b.overhead.peak_retained_gauge_samples =
                b.overhead.peak_retained_gauge_samples.max(retained);
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

    /// Writes [`histograms_csv`](Self::histograms_csv) to `path`, creating
    /// parent directories as needed.
    pub fn write_histograms(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_creating_dirs(path.as_ref(), &self.histograms_csv())
    }

    /// Current total of a counter (0 when unknown or disabled).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|b| b.borrow().counters.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Snapshot of all recorded spans, in open order. Aggregate mode
    /// returns an empty list: raw records are dropped at close time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map(|b| {
                let b = b.borrow();
                match b.mode {
                    TraceMode::Aggregate => Vec::new(),
                    _ => b.spans.clone(),
                }
            })
            .unwrap_or_default()
    }

    /// Snapshot of all counter totals.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().counters.clone())
            .unwrap_or_default()
    }

    /// Snapshot of the retained raw counter samples, in record order
    /// (empty in Aggregate mode).
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().counter_samples.clone())
            .unwrap_or_default()
    }

    /// Snapshot of all gauge samples, in record order (empty in Aggregate
    /// mode).
    pub fn gauges(&self) -> Vec<GaugeSample> {
        self.inner
            .as_ref()
            .map(|b| b.borrow().gauges.clone())
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

    /// Clears all recorded metric data (spans, counters, gauges, timeline,
    /// aggregates, overhead); the sink stays enabled and the clone-family
    /// *lineage* is kept — lineage is structural state fed by lifecycle
    /// events that will not be replayed — while per-family metric stats
    /// reset. Useful for scoping an export to one phase of an experiment.
    pub fn clear(&self) {
        if let Some(buf) = &self.inner {
            let mut b = buf.borrow_mut();
            b.spans.clear();
            b.free.clear();
            b.stack.clear();
            b.misnested = (0, None);
            b.counters.clear();
            b.counter_samples.clear();
            b.gauges.clear();
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
    /// The check is the same in both modes: it is made as spans close.
    pub fn validate_well_nested(&self) -> Result<(), String> {
        let Some(buf) = &self.inner else { return Ok(()) };
        let b = buf.borrow();
        if let Some(&top) = b.stack.last() {
            return Err(format!(
                "{} span(s) still open, innermost {:?}",
                b.stack.len(),
                b.spans[top].name
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

    /// Writes [`family_rollup_csv`](Self::family_rollup_csv) to `path`,
    /// creating parent directories as needed.
    pub fn write_family_rollup(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_creating_dirs(path.as_ref(), &self.family_rollup_csv())
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

    /// Retained timeline slices and slices evicted off the ring so far:
    /// `(len, evicted)`.
    pub fn timeline_stats(&self) -> (usize, u64) {
        self.inner
            .as_ref()
            .map(|b| {
                let b = b.borrow();
                (b.timeline.len(), b.timeline.evicted())
            })
            .unwrap_or((0, 0))
    }

    /// Writes [`timeline_csv`](Self::timeline_csv) to `path`, creating
    /// parent directories as needed.
    pub fn write_timeline(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_creating_dirs(path.as_ref(), &self.timeline_csv())
    }

    /// Prometheus-style text exposition of the end-of-run state: counter
    /// totals, last gauge values per domain, explicit latency histograms
    /// and span-duration histograms as summaries (ns quantiles), and span
    /// totals. Metric names are `nephele_`-prefixed with `.` mapped to
    /// `_`. Identical across modes, seeds and thread widths.
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

    /// Writes [`metrics_text`](Self::metrics_text) to `path`, creating
    /// parent directories as needed.
    pub fn write_metrics_text(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_creating_dirs(path.as_ref(), &self.metrics_text())
    }

    /// Exports everything recorded so far in the Chrome trace-event JSON
    /// format. Spans become complete (`"ph":"X"`) events on one track,
    /// counters become `"ph":"C"` events, gauges become per-domain counter
    /// tracks. Timestamps are virtual microseconds with nanosecond
    /// precision; the output is byte-stable for identical recordings.
    /// Aggregate mode yields an empty event list (raw events are dropped);
    /// use the timeline / metrics exporters there instead.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for s in &self.spans() {
            let Some(end) = s.end else { continue };
            let mut args = String::new();
            for (k, v) in &s.attrs {
                if !args.is_empty() {
                    args.push(',');
                }
                args.push_str(&format!("{}:{}", json_str(k), json_attr(v)));
            }
            events.push(format!(
                "{{\"name\":{},\"cat\":\"sim\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{{}}}}}",
                json_str(s.name),
                fmt_us(s.start.as_ns()),
                fmt_us(end.since(s.start).as_ns()),
                args
            ));
        }
        for c in &self.counter_samples() {
            events.push(format!(
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"value\":{}}}}}",
                json_str(c.name),
                fmt_us(c.at.as_ns()),
                c.total
            ));
        }
        for g in &self.gauges() {
            events.push(format!(
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":{},\"args\":{{\"value\":{}}}}}",
                json_str(g.name),
                fmt_us(g.at.as_ns()),
                g.dom.0,
                g.value
            ));
        }
        format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
    }

    /// Writes [`chrome_trace_json`](Self::chrome_trace_json) to `path`,
    /// creating parent directories as needed.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_creating_dirs(path.as_ref(), &self.chrome_trace_json())
    }

    /// Writes [`span_aggregates_csv`](Self::span_aggregates_csv) to `path`,
    /// creating parent directories as needed.
    pub fn write_span_aggregates(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_creating_dirs(path.as_ref(), &self.span_aggregates_csv())
    }
}

fn write_creating_dirs(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
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

/// Formats nanoseconds as fixed-point microseconds (`123.456`), the unit of
/// Chrome trace timestamps. Integer math only, so the output is stable.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Formats nanoseconds as fixed-point milliseconds (`1.234567`).
fn fmt_ms(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

/// JSON string literal with the characters the taxonomy can contain escaped.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => n.to_string(),
        AttrValue::I64(n) => n.to_string(),
        AttrValue::F64(n) if n.is_finite() => n.to_string(),
        AttrValue::F64(_) => "null".to_string(),
        AttrValue::Str(s) => json_str(s),
        AttrValue::Bool(b) => b.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn enabled_sink() -> (Clock, TraceSink) {
        let clock = Clock::new();
        let sink = TraceSink::new(clock.clone(), &TraceConfig::enabled());
        (clock, sink)
    }

    fn aggregate_sink() -> (Clock, TraceSink) {
        let clock = Clock::new();
        let sink = TraceSink::new(clock.clone(), &TraceConfig::aggregate());
        (clock, sink)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::default();
        assert!(!sink.is_enabled());
        assert_eq!(sink.mode(), TraceMode::Off);
        {
            let g = sink.span("noop");
            g.attr("k", 1u64);
            sink.count("c", 5);
            sink.gauge("g", DomId::DOM0, 7);
            sink.record_ns("h", 123);
        }
        assert!(sink.spans().is_empty());
        assert_eq!(sink.counter_total("c"), 0);
        assert!(sink.gauges().is_empty());
        assert!(sink.histogram("h").is_none());
        assert_eq!(sink.histograms_csv(), "op,count,p50_us,p90_us,p99_us,max_us\n");
        assert_eq!(sink.chrome_trace_json(), "{\"traceEvents\":[]}\n");
        assert_eq!(sink.overhead(), SinkOverhead::default());
    }

    #[test]
    fn off_mode_config_builds_a_disabled_sink() {
        let clock = Clock::new();
        let sink = TraceSink::new(clock, &TraceConfig::with_mode(TraceMode::Off));
        assert!(!sink.is_enabled());
        assert_eq!(TraceConfig::enabled().mode, TraceMode::Full);
        assert_eq!(TraceConfig::aggregate().mode, TraceMode::Aggregate);
        assert_eq!(TraceConfig::default().mode, TraceMode::Off);
    }

    #[test]
    fn trace_mode_parses_env_spellings() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("FULL"), Some(TraceMode::Full));
        assert_eq!(TraceMode::parse("agg"), Some(TraceMode::Aggregate));
        assert_eq!(TraceMode::parse("aggregate"), Some(TraceMode::Aggregate));
        assert_eq!(TraceMode::parse("bogus"), None);
        assert_eq!(TraceMode::Aggregate.to_string(), "aggregate");
    }

    #[test]
    fn spans_nest_and_stamp_virtual_time() {
        let (clock, sink) = enabled_sink();
        {
            let root = sink.span("root");
            clock.advance(SimDuration::from_us(10));
            {
                let child = sink.span("child");
                child.attr("pages", 42u64);
                clock.advance(SimDuration::from_us(5));
            }
            clock.advance(SimDuration::from_us(1));
            drop(root);
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].duration_ns(), 16_000);
        assert_eq!(spans[1].name, "child");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].start.as_ns(), 10_000);
        assert_eq!(spans[1].duration_ns(), 5_000);
        assert_eq!(spans[1].attrs, vec![("pages", AttrValue::U64(42))]);
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn guard_survives_early_return() {
        fn inner(sink: &TraceSink, clock: &Clock) -> Result<(), ()> {
            let _g = sink.span("fallible");
            clock.advance(SimDuration::from_ns(3));
            Err(())
        }
        let (clock, sink) = enabled_sink();
        let _ = inner(&sink, &clock);
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_ns(), 3);
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn counters_accumulate_with_samples() {
        let (clock, sink) = enabled_sink();
        sink.count("ring.tx", 1);
        clock.advance(SimDuration::from_us(2));
        sink.count("ring.tx", 2);
        sink.count("ring.rx", 1);
        assert_eq!(sink.counter_total("ring.tx"), 3);
        assert_eq!(sink.counter_total("ring.rx"), 1);
        assert_eq!(sink.counter_total("missing"), 0);
        let counters = sink.counters();
        assert_eq!(counters.get("ring.tx"), Some(&3));
        let samples = sink.counter_samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[1].delta, 2);
        assert_eq!(samples[1].total, 3);
    }

    #[test]
    fn aggregate_mode_drops_raw_records_but_keeps_aggregates() {
        let (clock, sink) = aggregate_sink();
        assert_eq!(sink.mode(), TraceMode::Aggregate);
        for i in 0..100u64 {
            let g = sink.span("work");
            g.attr("i", i);
            clock.advance(SimDuration::from_us(2));
            drop(g);
            sink.count("ticks", 1);
            sink.gauge("level", DomId(3), i);
        }
        assert!(sink.spans().is_empty(), "raw spans are folded away");
        assert!(sink.counter_samples().is_empty());
        assert!(sink.gauges().is_empty());
        assert_eq!(sink.counter_total("ticks"), 100);
        assert_eq!(sink.gauge_last()[&("level", 3)], 99);
        let agg = sink.span_aggregates();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].count, 100);
        assert_eq!(agg[0].total_ns, 200_000);
        assert_eq!(sink.span_hists()["work"].count(), 100);
        let o = sink.overhead();
        assert_eq!(o.span_opens, 100);
        assert_eq!(o.peak_retained_spans, 1, "slab reuses the closed slot");
        assert_eq!(o.retained_counter_samples, 0);
        sink.validate_well_nested().unwrap();
    }

    #[test]
    fn aggregate_matches_full_for_same_recording() {
        fn drive(sink: &TraceSink, clock: &Clock) {
            for i in 0..10u64 {
                let g = sink.span("op.a");
                clock.advance(SimDuration::from_us(1 + i));
                drop(g);
                sink.count("n", 2);
                sink.record_ns("h", 10 * i);
                sink.gauge("lvl", DomId(2), i);
            }
        }
        let (c1, full) = enabled_sink();
        let (c2, agg) = aggregate_sink();
        drive(&full, &c1);
        drive(&agg, &c2);
        assert_eq!(full.span_aggregates(), agg.span_aggregates());
        assert_eq!(full.span_hists(), agg.span_hists());
        assert_eq!(full.histograms(), agg.histograms());
        assert_eq!(full.timeline_csv(), agg.timeline_csv());
        assert_eq!(full.metrics_text(), agg.metrics_text());
    }

    #[test]
    fn family_rollups_attribute_spans_and_counters_to_roots() {
        for cfg in [TraceConfig::enabled(), TraceConfig::aggregate()] {
            let clock = Clock::new();
            let sink = TraceSink::new(clock.clone(), &cfg);
            sink.family_root_created(DomId(1), "web");
            sink.family_cloned(DomId(2), Some(DomId(1)));
            {
                let g = sink.span("clone.child");
                g.attr("child", 2u32);
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
                 1,web,span.clone.child.total_ns,3000\n",
                "mode {:?}",
                cfg.mode
            );
            sink.family_destroyed(DomId(2));
            assert!(
                !sink.family_rollup_csv().contains("gauge.bytes"),
                "dead members hold no bytes"
            );
        }
    }

    #[test]
    fn aggregates_group_by_name_sorted() {
        let (clock, sink) = enabled_sink();
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
    fn chrome_trace_is_valid_and_deterministic() {
        fn run() -> String {
            let (clock, sink) = enabled_sink();
            {
                let g = sink.span("hv.cloneop");
                g.attr("children", 2u64);
                g.attr("mode", "xs_clone");
                clock.advance(SimDuration::from_us(7));
                sink.count("cache.miss", 1);
                sink.gauge("hyp_free", DomId(1), 4096);
            }
            sink.chrome_trace_json()
        }
        let a = run();
        let b = run();
        assert_eq!(a, b, "same recording must serialize identically");
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.contains("\"name\":\"hv.cloneop\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"dur\":7.000"));
        assert!(a.contains("\"mode\":\"xs_clone\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"value\":4096"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn clear_resets_but_keeps_enabled_and_lineage() {
        let (clock, sink) = enabled_sink();
        sink.family_root_created(DomId(1), "web");
        {
            let _g = sink.span("x");
            clock.advance(SimDuration::from_ns(1));
        }
        sink.count("c", 1);
        sink.record_ns("h", 5);
        sink.clear();
        assert!(sink.is_enabled());
        assert!(sink.spans().is_empty());
        assert_eq!(sink.counter_total("c"), 0);
        assert!(sink.histogram("h").is_none());
        assert_eq!(sink.overhead(), SinkOverhead::default());
        assert_eq!(sink.timeline_stats(), (0, 0));
        assert_eq!(sink.family_root_of(DomId(1)), Some(1), "lineage survives clear");
    }

    #[test]
    fn histograms_export_fixed_point_csv() {
        let (_clock, sink) = enabled_sink();
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
        let (clock, sink) = enabled_sink();
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
        let (_clock, sink) = enabled_sink();
        let g = sink.span("open");
        assert!(sink.validate_well_nested().is_err());
        drop(g);
        sink.validate_well_nested().unwrap();

        let (_c2, agg) = aggregate_sink();
        let g2 = agg.span("open");
        assert!(agg.validate_well_nested().is_err());
        drop(g2);
        agg.validate_well_nested().unwrap();
    }

    #[test]
    fn validate_catches_parent_closed_before_child_in_both_modes() {
        for (clock, sink) in [enabled_sink(), aggregate_sink()] {
            let parent = sink.span("parent");
            let child = sink.span("child");
            clock.advance(SimDuration::from_us(1));
            drop(parent);
            clock.advance(SimDuration::from_us(1));
            drop(child);
            let err = sink.validate_well_nested().unwrap_err();
            assert!(err.contains("\"parent\""), "mode {:?}: {err}", sink.mode());
            sink.clear();
            sink.validate_well_nested().unwrap();
        }
    }

    #[test]
    fn shared_handles_write_one_buffer() {
        let (clock, sink) = enabled_sink();
        let other = sink.clone();
        {
            let _g = sink.span("outer");
            clock.advance(SimDuration::from_ns(5));
            let _h = other.span("inner");
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0), "handles share the span stack");
    }

    #[test]
    fn timeline_counts_each_span_close_once() {
        let (clock, sink) = enabled_sink();
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
