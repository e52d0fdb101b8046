//! The `wrk` load-generator model (closed loop), as used in §7.1.

use sim_core::{SimDuration, SplitMix64};

/// A `wrk`-style closed-loop generator: `connections` concurrent
/// connections, each issuing its next request as soon as the previous
/// response arrives, for a fixed duration.
#[derive(Debug, Clone)]
pub struct WrkConfig {
    /// Concurrent connections ("wrk keeps 400 open HTTP connections with
    /// each worker").
    pub connections: usize,
    /// Test duration.
    pub duration: SimDuration,
    /// Repetitions (the paper repeats 30 times).
    pub repetitions: usize,
}

impl Default for WrkConfig {
    fn default() -> Self {
        WrkConfig {
            connections: 400,
            duration: SimDuration::from_secs(5),
            repetitions: 30,
        }
    }
}

/// Draws a jittered service time around `mean` with relative standard
/// deviation `rel_stddev`, clamped to a tenth of the mean.
pub fn jittered_service(rng: &mut SplitMix64, mean: SimDuration, rel_stddev: f64) -> SimDuration {
    let ns = rng.normal(mean.as_ns() as f64, mean.as_ns() as f64 * rel_stddev);
    SimDuration::from_ns(ns.max(mean.as_ns() as f64 / 10.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_methodology() {
        let w = WrkConfig::default();
        assert_eq!(w.connections, 400);
        assert_eq!(w.duration.as_secs_f64(), 5.0);
        assert_eq!(w.repetitions, 30);
    }

    #[test]
    fn jitter_stays_positive_and_near_mean() {
        let mut rng = SplitMix64::new(1);
        let mean = SimDuration::from_us(30);
        let mut acc = 0u64;
        for _ in 0..1000 {
            let s = jittered_service(&mut rng, mean, 0.1);
            assert!(s.as_ns() > 0);
            acc += s.as_ns();
        }
        let avg = acc / 1000;
        assert!((27_000..33_000).contains(&avg), "avg = {avg} ns");
    }
}
