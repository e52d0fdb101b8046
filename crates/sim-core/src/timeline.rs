//! Virtual-time time-series: counters, gauges and span closures folded
//! into fixed-width virtual-time slices.
//!
//! A [`Timeline`] is a bounded ring of [`MAX_SLICES`] slices; each slice
//! covers `[k·SLICE, (k+1)·SLICE)` of virtual time, so slice boundaries
//! are a pure function of the virtual clock and never depend on host
//! scheduling. The sink folds every counter bump, gauge observation and
//! span close into the current slice in O(log keys); memory is bounded by
//! `MAX_SLICES × distinct keys` regardless of how many events a run
//! produces. Slices are created lazily (quiet periods cost nothing) and
//! the oldest slices are evicted once the ring is full.
//!
//! [`Timeline::csv`] renders the ring as a flat table; because everything
//! is keyed by virtual time and folded in program order, the bytes are
//! identical across same-seed runs.

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimDuration;
use crate::time::SimTime;

/// Width of one virtual-time slice.
pub const SLICE: SimDuration = SimDuration::from_ms(100);

/// Slices the ring keeps, oldest evicted first: ~51 virtual seconds of
/// history.
pub const MAX_SLICES: usize = 512;

/// Per-slice statistics of one counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSlice {
    /// Bumps observed in the slice.
    pub bumps: u64,
    /// Sum of the deltas.
    pub delta: u64,
    /// Running total after the last bump in the slice.
    pub last_total: u64,
}

/// Per-slice statistics of one `(gauge, domain)` series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeSlice {
    /// Observations in the slice.
    pub n: u64,
    /// Largest observed value.
    pub max: u64,
    /// Last observed value.
    pub last: u64,
}

/// Per-slice statistics of one span name (folded at span close).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSlice {
    /// Spans closed in the slice.
    pub closes: u64,
    /// Total virtual nanoseconds across them.
    pub total_ns: u64,
    /// Longest single span in virtual nanoseconds.
    pub max_ns: u64,
}

/// One virtual-time slice of the ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineSlice {
    /// Slice number: the slice covers `[index·width, (index+1)·width)`.
    pub index: u64,
    /// Counter stats keyed by counter name.
    pub counters: BTreeMap<&'static str, CounterSlice>,
    /// Gauge stats keyed by `(name, domain id)`.
    pub gauges: BTreeMap<(&'static str, u32), GaugeSlice>,
    /// Span stats keyed by span name.
    pub spans: BTreeMap<&'static str, SpanSlice>,
}

/// Bounded ring of virtual-time slices; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    slices: VecDeque<TimelineSlice>,
}

impl Timeline {
    /// The slice covering `at`, creating (and evicting) as needed. The
    /// virtual clock is monotonic, so the target index never precedes the
    /// newest slice; if it somehow did we fold into the newest slice
    /// rather than corrupt the ring order.
    fn slice_at(&mut self, at: SimTime) -> &mut TimelineSlice {
        let index = at.as_ns() / SLICE.as_ns();
        let need_new = match self.slices.back() {
            Some(s) => index > s.index,
            None => true,
        };
        if need_new {
            self.slices.push_back(TimelineSlice { index, ..Default::default() });
            if self.slices.len() > MAX_SLICES {
                self.slices.pop_front();
            }
        }
        self.slices.back_mut().expect("ring is non-empty after push")
    }

    /// Folds one counter bump into the slice covering `at`.
    pub fn fold_count(&mut self, at: SimTime, name: &'static str, delta: u64, total: u64) {
        let c = self.slice_at(at).counters.entry(name).or_default();
        c.bumps += 1;
        c.delta += delta;
        c.last_total = total;
    }

    /// Folds one gauge observation into the slice covering `at`.
    pub fn fold_gauge(&mut self, at: SimTime, name: &'static str, dom: u32, value: u64) {
        let g = self.slice_at(at).gauges.entry((name, dom)).or_default();
        g.n += 1;
        g.max = g.max.max(value);
        g.last = value;
    }

    /// Folds one span close into the slice covering the close instant.
    pub fn fold_span(&mut self, end: SimTime, name: &'static str, dur_ns: u64) {
        let s = self.slice_at(end).spans.entry(name).or_default();
        s.closes += 1;
        s.total_ns += dur_ns;
        s.max_ns = s.max_ns.max(dur_ns);
    }

    /// Drops all slices.
    pub fn clear(&mut self) {
        self.slices.clear();
    }

    /// The retained ring as CSV:
    /// `slice,start_us,kind,key,dom,n,sum,max,last` — one row per
    /// `(slice, series)`. `n`/`sum`/`max`/`last` are, per kind:
    ///
    /// | kind    | n     | sum      | max    | last          |
    /// |---------|-------|----------|--------|---------------|
    /// | counter | bumps | Σ delta  | —      | running total |
    /// | gauge   | obs   | —        | max    | last value    |
    /// | span    | closes| Σ ns     | max ns | —             |
    ///
    /// Unused cells are left empty. Rows are ordered by slice, then kind
    /// (counter < gauge < span), then key — a deterministic function of
    /// the recording alone.
    pub fn csv(&self) -> String {
        let mut out = String::from("slice,start_us,kind,key,dom,n,sum,max,last\n");
        for s in &self.slices {
            let start_ns = s.index * SLICE.as_ns();
            let start_us = format!("{}.{:03}", start_ns / 1_000, start_ns % 1_000);
            for (name, c) in &s.counters {
                out.push_str(&format!(
                    "{},{},counter,{},,{},{},,{}\n",
                    s.index, start_us, name, c.bumps, c.delta, c.last_total
                ));
            }
            for ((name, dom), g) in &s.gauges {
                out.push_str(&format!(
                    "{},{},gauge,{},{},{},,{},{}\n",
                    s.index, start_us, name, dom, g.n, g.max, g.last
                ));
            }
            for (name, sp) in &s.spans {
                out.push_str(&format!(
                    "{},{},span,{},,{},{},{},\n",
                    s.index, start_us, name, sp.closes, sp.total_ns, sp.max_ns
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_ns(ms * 1_000_000)
    }

    #[test]
    fn slices_are_fixed_width_and_sparse() {
        let mut tl = Timeline::default();
        tl.fold_count(t(10), "c", 1, 1);
        tl.fold_count(t(20), "c", 2, 3); // same 100 ms slice
        tl.fold_count(t(950), "c", 1, 4); // slice 9; 1..9 never created
        let s = &tl.slices;
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].index, 0);
        assert_eq!(s[0].counters["c"], CounterSlice { bumps: 2, delta: 3, last_total: 3 });
        assert_eq!(s[1].index, 9);
        assert_eq!(s[1].counters["c"].last_total, 4);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut tl = Timeline::default();
        for k in 0..=MAX_SLICES as u64 {
            tl.fold_gauge(t(k * 100), "g", 7, k);
        }
        assert_eq!(tl.slices.len(), MAX_SLICES);
        assert_eq!(tl.slices[0].index, 1, "slice 0 is evicted");
    }

    #[test]
    fn csv_is_deterministic_and_typed() {
        let mut tl = Timeline::default();
        tl.fold_count(t(10), "net.tx", 2, 2);
        tl.fold_gauge(t(10), "mem.free", 3, 4096);
        tl.fold_span(t(10), "clone.child", 1_500);
        tl.fold_span(t(10), "clone.child", 500);
        let csv = tl.csv();
        assert_eq!(
            csv,
            "slice,start_us,kind,key,dom,n,sum,max,last\n\
             0,0.000,counter,net.tx,,1,2,,2\n\
             0,0.000,gauge,mem.free,3,1,,4096,4096\n\
             0,0.000,span,clone.child,,2,2000,1500,\n"
        );
        assert_eq!(csv, tl.clone().csv());
    }
}
