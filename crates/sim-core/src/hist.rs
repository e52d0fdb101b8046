//! Deterministic log-bucketed latency histograms (HDR-histogram style).
//!
//! A [`Histogram`] records `u64` values (virtual nanoseconds) into
//! logarithmic buckets: values below 64 get one bucket each, and every
//! power-of-two range above that is split into 64 sub-buckets, bounding the
//! relative quantization error of any reported value to 1/64 (< 1.6 %)
//! while keeping recording O(1) and the memory footprint a few KiB.
//!
//! Percentiles use exact rank selection (the nearest-rank method with rank
//! `ceil(p/100 · n)`): the reported value is the upper bound of the bucket
//! holding the sample of that rank, clamped to the exactly-tracked
//! `min`/`max`. All arithmetic is integer, so two runs that record the
//! same sequence of values produce byte-identical exports — the property
//! the figure runners' percentile columns rely on.

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per power of two.
const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const SUB_MASK: u64 = SUB_COUNT - 1;

/// A log-bucketed histogram of `u64` samples (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket occupancy; grown on demand (indexes are small for ns-scale
    /// latencies: a full second lands in bucket ~1500).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Maps a value to its bucket index. Identity below [`SUB_COUNT`]; above,
/// each power-of-two range contributes [`SUB_COUNT`] sub-buckets.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let base = ((msb - SUB_BITS + 1) as usize) << SUB_BITS;
    base + ((v >> shift) & SUB_MASK) as usize
}

/// The largest value mapping to bucket `idx` (inverse of [`bucket_index`]).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB_COUNT as usize {
        return idx as u64;
    }
    let msb = (idx >> SUB_BITS) as u32 + SUB_BITS - 1;
    let sub = (idx as u64) & SUB_MASK;
    let lower = (1u64 << msb) + (sub << (msb - SUB_BITS));
    // Parenthesized so the top bucket (upper == u64::MAX) does not overflow.
    lower + ((1u64 << (msb - SUB_BITS)) - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value. O(1).
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (exact; 0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Sum of all recorded values (exact; `u128` so even u64-scale values
    /// cannot overflow the accumulator).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the recorded values (integer division; 0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// The value at percentile `p` (0–100) by the nearest-rank method:
    /// the sample of rank `ceil(p/100 · n)` (1-based), reported as its
    /// bucket's upper bound clamped to the exact `min`/`max`. `p >= 100`
    /// returns the exact maximum; an empty histogram returns 0.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let p = p.max(0.0);
        // ceil(p/100 * count) with integer-friendly math, clamped to 1..=n.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_inverse_consistent() {
        let mut last = None;
        for v in (0u64..4096).chain([1 << 20, (1 << 20) + 7, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            if let Some((lv, li)) = last {
                assert!(idx >= li, "index must not decrease: {lv}->{li}, {v}->{idx}");
            }
            assert!(bucket_upper(idx) >= v, "upper({idx}) >= {v}");
            // The upper bound maps back to the same bucket.
            assert_eq!(bucket_index(bucket_upper(idx)), idx);
            last = Some((v, idx));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert_eq!(h.mean(), 3);
        // Nearest-rank: rank(50) = ceil(0.5*5) = 3 -> value 3.
        assert_eq!(h.percentile(50.0), 3);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 5);
        // rank(90) = ceil(4.5) = 5 -> value 5.
        assert_eq!(h.percentile(90.0), 5);
    }

    #[test]
    fn large_values_quantize_within_a_64th() {
        let mut h = Histogram::new();
        let v = 1_234_567u64;
        h.record(v);
        let p = h.percentile(50.0);
        assert!(p >= v, "reported {p} must not undershoot {v}");
        assert!(p - v <= v / 64 + 1, "error {} above 1/64 of {v}", p - v);
        assert_eq!(h.max(), v, "max is exact");
        assert_eq!(h.percentile(100.0), v);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn percentiles_are_deterministic_across_recordings() {
        let run = || {
            let mut h = Histogram::new();
            for i in 0..1000u64 {
                h.record(i * 997 % 100_000);
            }
            (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0), h.max())
        };
        assert_eq!(run(), run());
    }
}
