//! Streaming statistics and experiment series recording.
//!
//! The benchmark harness reports every figure of the paper as a series of
//! `(x, y)` samples. [`Series`] collects them with labels and renders CSV;
//! [`OnlineStats`] provides Welford-style streaming moments for summarizing
//! repeated runs.

use std::fmt::Write as _;

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 for fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Computes the `p`-th percentile (0–100) of a sample set by the
/// nearest-rank method — the sample of 1-based rank `ceil(p/100 · n)` —
/// the same convention as [`crate::hist::Histogram::percentile`], so a
/// float sample set and a histogram fed the same values agree. Sorting
/// uses `f64::total_cmp`, a deterministic total order (NaNs sort last
/// instead of poisoning the comparison). Returns 0 for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// A labelled multi-column series of samples, rendered as CSV.
///
/// Each row is an x-value plus one y-value per column; columns are the
/// figure's curves (e.g. `boot`, `restore`, `clone`).
///
/// # Examples
///
/// ```
/// use sim_core::stats::Series;
///
/// let mut s = Series::new("instances", &["boot_ms", "clone_ms"]);
/// s.row(1.0, &[160.2, 21.0]);
/// s.row(2.0, &[160.9, 21.2]);
/// let csv = s.to_csv();
/// assert!(csv.starts_with("instances,boot_ms,clone_ms\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Series {
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(f64, Vec<f64>)>,
}

impl Series {
    /// Creates a series with an x-axis label and named columns.
    pub fn new(x_label: &str, columns: &[&str]) -> Self {
        Series {
            x_label: x_label.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `ys` does not match the column count.
    pub fn row(&mut self, x: f64, ys: &[f64]) {
        assert_eq!(
            ys.len(),
            self.columns.len(),
            "row arity mismatch for series '{}'",
            self.x_label
        );
        self.rows.push((x, ys.to_vec()));
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the recorded rows.
    pub fn rows(&self) -> &[(f64, Vec<f64>)] {
        &self.rows
    }

    /// Returns the column labels.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Returns the y-values of a named column.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, ys)| ys[idx]).collect())
    }

    /// Renders the series as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label);
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (x, ys) in &self.rows {
            let _ = write!(out, "{x}");
            for y in ys {
                let _ = write!(out, ",{y:.4}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.stddev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut xs = vec![4.0, 2.0, 1.0, 3.0];
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 100.0), 4.0);
        // rank(50) = ceil(0.5*4) = 2 -> second-smallest sample.
        assert_eq!(percentile(&mut xs, 50.0), 2.0);
        // rank(90) = ceil(3.6) = 4 -> the maximum.
        assert_eq!(percentile(&mut xs, 90.0), 4.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn percentile_agrees_with_histogram_on_exact_buckets() {
        use crate::hist::Histogram;
        // Values below 64 land in exact unit buckets, so both sides are
        // exact and must agree under the shared nearest-rank convention.
        let vals: Vec<u64> = vec![3, 9, 14, 27, 33, 41, 55, 60];
        let mut h = Histogram::new();
        let mut f: Vec<f64> = Vec::new();
        for &v in &vals {
            h.record(v);
            f.push(v as f64);
        }
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                percentile(&mut f.clone(), p) as u64,
                h.percentile(p),
                "p{p} disagrees"
            );
        }
    }

    #[test]
    fn percentile_sort_is_total_even_with_nan() {
        let mut xs = vec![2.0, f64::NAN, 1.0];
        // NaN sorts last under total_cmp; the p50 of three samples is the
        // second-smallest finite value.
        assert_eq!(percentile(&mut xs, 50.0), 2.0);
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
    }

    #[test]
    fn series_csv_roundtrip() {
        let mut s = Series::new("n", &["a", "b"]);
        s.row(1.0, &[0.5, 1.5]);
        s.row(2.0, &[0.25, 2.5]);
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(s.column("b").unwrap(), vec![1.5, 2.5]);
        assert!(s.column("missing").is_none());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn series_rejects_wrong_arity() {
        let mut s = Series::new("n", &["a"]);
        s.row(1.0, &[1.0, 2.0]);
    }
}
