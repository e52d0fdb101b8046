//! Micro-benchmark harness replacing criterion for the `crates/bench`
//! targets (which keep `harness = false`, so `cargo bench` runs them).
//!
//! Each benchmark function measures wall-clock time of a closure:
//! a warmup phase first calibrates a batch size so that one sample spans
//! at least ~50µs (amortising timer overhead for fast operations), then a
//! fixed number of samples is collected and summarised as
//! median / p90 / p99 / mean / min / max per-iteration nanoseconds.
//!
//! [`Bench::finish`] prints a summary table and writes
//! `results/BENCH_<name>.json` at the workspace root — the same
//! `results/` directory the figure binaries use — in a flat,
//! hand-parseable shape (see [`parse_report`], which round-trips it
//! without serde).
//!
//! ```no_run
//! use testkit::bench::Bench;
//!
//! fn bench_sum(c: &mut Bench) {
//!     let mut g = c.benchmark_group("math");
//!     g.sample_size(20);
//!     g.bench_function("sum_1k", |b| {
//!         let xs: Vec<u64> = (0..1000).collect();
//!         b.iter(|| xs.iter().sum::<u64>());
//!     });
//!     g.finish();
//! }
//!
//! fn main() {
//!     let mut c = Bench::new("example");
//!     bench_sum(&mut c);
//!     c.finish();
//! }
//! ```

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Default number of timed samples per benchmark function.
pub const DEFAULT_SAMPLES: usize = 50;
/// Target wall-clock span of one sample, used to calibrate the batch size.
const TARGET_SAMPLE_NS: u64 = 50_000;
/// Wall-clock budget for warmup/calibration per benchmark function.
const WARMUP_BUDGET_NS: u64 = 20_000_000;

/// Collects benchmark records for one bench target (e.g. `clone_boot`).
pub struct Bench {
    name: String,
    records: Vec<Record>,
}

/// Summary statistics for one benchmark function, in nanoseconds per
/// iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Benchmark group, or empty for ungrouped functions.
    pub group: String,
    /// Benchmark function id.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations averaged per sample.
    pub batch: u64,
    pub median_ns: f64,
    pub p90_ns: f64,
    pub p99_ns: f64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

/// A named group of benchmark functions sharing a sample size.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    samples: usize,
}

/// The measurement driver passed to benchmark closures.
pub struct Timer {
    samples: usize,
    /// Per-iteration nanoseconds, one entry per sample.
    measurements: Vec<f64>,
    batch: u64,
}

impl Bench {
    /// A new collection for the bench target `name`.
    pub fn new(name: &str) -> Self {
        Bench { name: name.to_string(), records: Vec::new() }
    }

    /// Opens a named group (criterion-style).
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group { bench: self, name: name.to_string(), samples: DEFAULT_SAMPLES }
    }

    /// Runs one ungrouped benchmark function.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Timer)) {
        self.run("", id, DEFAULT_SAMPLES, f);
    }

    fn run(&mut self, group: &str, id: &str, samples: usize, mut f: impl FnMut(&mut Timer)) {
        let mut timer = Timer { samples, measurements: Vec::new(), batch: 1 };
        f(&mut timer);
        if timer.measurements.is_empty() {
            eprintln!("[testkit::bench] {group}/{id}: closure never called iter(); skipped");
            return;
        }
        let mut sorted = timer.measurements.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        let record = Record {
            group: group.to_string(),
            name: id.to_string(),
            samples: sorted.len(),
            batch: timer.batch,
            median_ns: pct(0.5),
            p90_ns: pct(0.9),
            p99_ns: pct(0.99),
            mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
        };
        let label =
            if group.is_empty() { id.to_string() } else { format!("{group}/{id}") };
        println!(
            "{label:<40} median {:>12.1} ns/iter   p90 {:>12.1}   p99 {:>12.1}   ({} samples x {} iters)",
            record.median_ns, record.p90_ns, record.p99_ns, record.samples, record.batch,
        );
        self.records.push(record);
    }

    /// The records collected so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Renders the report as JSON (the exact bytes written by
    /// [`Bench::finish`]).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"bench\": \"{}\",\n  \"results\": [", self.name);
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"group\": \"{}\", \"name\": \"{}\", \"samples\": {}, \"batch\": {}, \
                 \"median_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \
                 \"min_ns\": {}, \"max_ns\": {}}}",
                r.group,
                r.name,
                r.samples,
                r.batch,
                fmt_f64(r.median_ns),
                fmt_f64(r.p90_ns),
                fmt_f64(r.p99_ns),
                fmt_f64(r.mean_ns),
                fmt_f64(r.min_ns),
                fmt_f64(r.max_ns),
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Prints the summary and writes `BENCH_<name>.json` into the
    /// workspace `results/` directory (override with `TESTKIT_BENCH_DIR`).
    pub fn finish(self) {
        let dir = bench_output_dir();
        let path = dir.join(format!("BENCH_{}.json", self.name));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.to_json()))
        {
            eprintln!("[testkit::bench] could not write {}: {e}", path.display());
            return;
        }
        println!("[testkit::bench] wrote {}", path.display());
    }
}

impl Group<'_> {
    /// Sets the number of timed samples for functions in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(2);
        self
    }

    /// Runs one benchmark function in this group.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Timer)) -> &mut Self {
        let (group, samples) = (self.name.clone(), self.samples);
        self.bench.run(&group, id, samples, f);
        self
    }

    /// Ends the group (kept for criterion API parity; a no-op).
    pub fn finish(&mut self) {}
}

impl Timer {
    /// Like [`Timer::iter`], but each iteration consumes a fresh input
    /// built by `setup`, and only `routine` is timed: setup runs before
    /// the clock starts and the routine's outputs are dropped after it
    /// stops. Use this when the operation under test mutates expensive
    /// state (say, a whole hypervisor) that must be rebuilt per call —
    /// with plain `iter` the rebuild and teardown would dominate the
    /// measurement.
    pub fn iter_with_setup<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        // Inputs are materialised per sample, so cap the batch: a fast
        // routine behind an expensive setup must not demand 2^20 live
        // setup states at once.
        const MAX_SETUP_BATCH: u64 = 256;

        let mut run_batch = |batch: u64| -> f64 {
            let inputs: Vec<S> = (0..batch).map(|_| setup()).collect();
            let mut outputs = Vec::with_capacity(inputs.len());
            let t = Instant::now();
            for s in inputs {
                outputs.push(black_box(routine(s)));
            }
            let per_iter = t.elapsed().as_nanos() as f64 / batch as f64;
            drop(outputs);
            per_iter
        };

        let warmup_start = Instant::now();
        let mut batch = 1u64;
        let est_ns = loop {
            let est = run_batch(batch);
            if warmup_start.elapsed().as_nanos() as u64 >= WARMUP_BUDGET_NS / 2 {
                break est;
            }
            batch = batch.saturating_mul(2).min(MAX_SETUP_BATCH);
        };
        self.batch =
            ((TARGET_SAMPLE_NS as f64 / est_ns.max(1.0)).ceil() as u64).clamp(1, MAX_SETUP_BATCH);

        self.measurements.clear();
        for _ in 0..self.samples {
            let per_iter = run_batch(self.batch);
            self.measurements.push(per_iter);
        }
    }

    /// Like [`Timer::iter`], but `routine(n)` runs `n` iterations itself
    /// and returns the time they took. Use this when each iteration mixes
    /// timed work with work that must not be timed, such as undoing the
    /// timed operation so the next iteration starts from the same state.
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        let mut per_iter = |batch: u64| routine(batch).as_nanos() as f64 / batch as f64;
        // Warmup, measuring a growing batch until the time budget is
        // spent; the last full batch calibrates the per-iter estimate.
        let warmup_start = Instant::now();
        let mut batch = 1u64;
        let est_ns = loop {
            let est = per_iter(batch);
            if warmup_start.elapsed().as_nanos() as u64 >= WARMUP_BUDGET_NS / 2 {
                break est;
            }
            batch = batch.saturating_mul(2).min(1 << 20);
        };
        self.batch = ((TARGET_SAMPLE_NS as f64 / est_ns.max(1.0)).ceil() as u64).clamp(1, 1 << 20);

        self.measurements.clear();
        for _ in 0..self.samples {
            let sample = per_iter(self.batch);
            self.measurements.push(sample);
        }
    }

    /// Measures `f`: warmup + batch calibration, then `samples` timed
    /// batches. Results are recorded per iteration.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        self.iter_custom(|batch| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed()
        });
    }
}

fn fmt_f64(v: f64) -> String {
    // Stable shortest-ish formatting: integral values print without a
    // fraction, everything else with enough digits to round-trip.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `TESTKIT_BENCH_DIR`, or `<workspace root>/results` (the topmost
/// ancestor of `CARGO_MANIFEST_DIR` containing a `Cargo.toml`).
fn bench_output_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("TESTKIT_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    let mut root = start.clone();
    for anc in start.ancestors() {
        if anc.join("Cargo.toml").is_file() {
            root = anc.to_path_buf();
        }
    }
    root.join("results")
}

// ---- serde-free report parsing --------------------------------------------

/// A report read back from `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub bench: String,
    pub results: Vec<Record>,
}

/// Parses the JSON written by [`Bench::to_json`] with a small hand-rolled
/// scanner (no serde in the hermetic workspace). Returns `None` on any
/// structural mismatch.
pub fn parse_report(text: &str) -> Option<Report> {
    let bench = field_str(text, "bench")?;
    let open = text.find('[')?;
    let close = text.rfind(']')?;
    let body = &text[open + 1..close];
    let mut results = Vec::new();
    let mut rest = body;
    while let Some(start) = rest.find('{') {
        let end = start + rest[start..].find('}')?;
        let obj = &rest[start + 1..end];
        results.push(Record {
            group: field_str(obj, "group")?,
            name: field_str(obj, "name")?,
            samples: field_num(obj, "samples")? as usize,
            batch: field_num(obj, "batch")? as u64,
            median_ns: field_num(obj, "median_ns")?,
            p90_ns: field_num(obj, "p90_ns")?,
            p99_ns: field_num(obj, "p99_ns")?,
            mean_ns: field_num(obj, "mean_ns")?,
            min_ns: field_num(obj, "min_ns")?,
            max_ns: field_num(obj, "max_ns")?,
        });
        rest = &rest[end + 1..];
    }
    Some(Report { bench, results })
}

/// Extracts `"key": "value"` from a flat JSON object body (values must
/// not contain escapes — ours are bench/group/function names).
fn field_str(obj: &str, key: &str) -> Option<String> {
    let rest = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let open = rest.find('"')?;
    let close = open + 1 + rest[open + 1..].find('"')?;
    Some(rest[open + 1..close].to_string())
}

/// Extracts `"key": number` from a flat JSON object body.
fn field_num(obj: &str, key: &str) -> Option<f64> {
    let rest = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}
