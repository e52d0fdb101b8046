//! Host-time measurement: per-call timers around the platform's public
//! entry points, nearest-rank percentiles, and the FNV-1a digest that
//! fingerprints a round's virtual-time results.

use std::time::Instant;

/// A public platform entry point the benchmark times from the outside.
/// Each one belongs to the layer named by the prefix of [`Call::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Hypervisor::cloneop(Clone { .. })`: the first clone stage.
    Cloneop,
    /// `Hypervisor::cloneop(CloneReset { .. })`: O(dirty) memory reset.
    CloneReset,
    /// `Platform::finish_pending_clones`: xencloned's second stage.
    Stage2,
    /// `Platform::launch_plain`: `xl create` without a guest app.
    Create,
    /// `Xl::save`: snapshot then destroy.
    Save,
    /// `Xl::restore`: recreate from a saved image.
    Restore,
    /// `Platform::destroy`: `xl destroy`.
    Destroy,
    /// `Platform::pump`: the event loop run to quiescence.
    Pump,
    /// `Platform::run_for`: virtual-time advance with timers and pumping.
    RunFor,
    /// `Platform::host_udp_send`: mux selection, device rings, one pump.
    UdpSend,
    /// `faas::traffic::generate`: the seeded arrival tape.
    Generate,
    /// `faas::traffic::replay`: one policy over the whole tape.
    Replay,
    /// `Platform::with_app(FuzzAdapterApp::execute)`: one guest input.
    Execute,
}

/// Every timed call, in report order.
pub const CALLS: [Call; 13] = [
    Call::Cloneop,
    Call::CloneReset,
    Call::Stage2,
    Call::Create,
    Call::Save,
    Call::Restore,
    Call::Destroy,
    Call::Pump,
    Call::RunFor,
    Call::UdpSend,
    Call::Generate,
    Call::Replay,
    Call::Execute,
];

impl Call {
    /// `<layer>.<call>`, the prefix of the call's per-layer metrics.
    pub fn name(self) -> &'static str {
        match self {
            Call::Cloneop => "hypervisor.cloneop",
            Call::CloneReset => "hypervisor.clone_reset",
            Call::Stage2 => "xencloned.stage2",
            Call::Create => "toolstack.create",
            Call::Save => "toolstack.save",
            Call::Restore => "toolstack.restore",
            Call::Destroy => "toolstack.destroy",
            Call::Pump => "platform.pump",
            Call::RunFor => "platform.run_for",
            Call::UdpSend => "platform.host_udp_send",
            Call::Generate => "faas.generate",
            Call::Replay => "faas.replay",
            Call::Execute => "guest.execute",
        }
    }
}

/// Host-ns samples of every timed call made during one round.
#[derive(Debug, Default)]
pub struct Timers {
    samples: [Vec<u64>; CALLS.len()],
    capacity: usize,
}

impl Timers {
    /// Timers whose per-call buffers hold `capacity` samples before they
    /// grow.
    pub fn with_capacity(capacity: usize) -> Self {
        Timers {
            samples: Default::default(),
            capacity,
        }
    }

    /// Runs `f` and records its host duration under `call`.
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = elapsed_ns(t0);
        let samples = &mut self.samples[call as usize];
        if samples.capacity() == 0 {
            *samples = sample_buffer(self.capacity);
        }
        samples.push(ns);
        r
    }

    /// Summarizes the recorded durations of `call`.
    pub fn stats(&mut self, call: Call) -> Stats {
        Stats::of(&mut self.samples[call as usize])
    }
}

/// Summary of a set of host-ns samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub count: u64,
    /// Their sum: the busy time of a timed call.
    pub sum_ns: u64,
    /// Nearest-rank median.
    pub p50_ns: u64,
    /// Nearest-rank 99th percentile.
    pub p99_ns: u64,
}

impl Stats {
    /// Summarizes `samples`, sorting them in place.
    pub fn of(samples: &mut [u64]) -> Stats {
        Stats {
            count: samples.len() as u64,
            sum_ns: samples.iter().sum(),
            p50_ns: percentile(samples, 50.0),
            p99_ns: percentile(samples, 99.0),
        }
    }
}

/// An empty sample buffer with room for `capacity` samples, its memory
/// already written once: growing a buffer or faulting in its pages
/// inside a timed op would put the benchmark's own cost in the op's tail.
pub fn sample_buffer(capacity: usize) -> Vec<u64> {
    let mut v = Vec::with_capacity(capacity);
    v.resize(capacity, u64::MAX);
    v.clear();
    v
}

/// Host ns the reference work is normalized to: every reported host
/// duration reads as if one unit of reference work had taken this long.
pub const REFERENCE_NS: f64 = 5e6;

/// Host ns of the reference work right now: the median of five units.
/// A VM whose cores are shared with other tenants can change speed by
/// up to 2x over minutes. The reference is measured around each round,
/// so dividing by it cancels most of that swing.
pub fn reference_ns() -> u64 {
    let mut units: Vec<u64> = (0..5).map(|_| reference_unit_ns()).collect();
    percentile(&mut units, 50.0)
}

/// Host ns of one unit of reference work: ordered-map and hash-map churn
/// plus page-sized copies, the operations the simulator spends its time
/// in.
fn reference_unit_ns() -> u64 {
    use std::collections::{BTreeMap, HashMap};
    use std::hint::black_box;
    let t0 = Instant::now();
    let mut rng = nephele::sim_core::SplitMix64::new(0x5eed);
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut pages: Vec<Box<[u8]>> = Vec::new();
    let page = vec![7u8; 4096];
    for i in 0..20_000u64 {
        let k = rng.next_below(1 << 14);
        ordered.insert(k, i);
        ordered.remove(&(k ^ 1));
        hashed.insert(k, i);
        hashed.remove(&(k ^ 2));
        if i % 8 == 0 {
            pages.push(page.clone().into_boxed_slice());
            if pages.len() > 256 {
                pages.swap_remove(rng.next_below(256) as usize);
            }
        }
    }
    black_box((ordered.len(), hashed.len(), pages.len()));
    elapsed_ns(t0)
}

/// Host nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank
/// method: the sample of 1-based rank `ceil(p/100 · n)`. The same
/// convention as `sim_core::stats::percentile`. 0 for no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p.clamp(0.0, 100.0) / 100.0 * samples.len() as f64).ceil() as usize)
        .clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of `values` (the mean of the two middle values for an
/// even count); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nephele::sim_core::stats;

    #[test]
    fn percentile_matches_sim_core_nearest_rank() {
        let mut rng = nephele::sim_core::SplitMix64::new(7);
        for n in [1usize, 2, 3, 10, 99, 100, 1601] {
            let xs: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 40)).collect();
            for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let mut f: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
                assert_eq!(
                    percentile(&mut xs.clone(), p) as f64,
                    stats::percentile(&mut f, p),
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile(&mut [], 50.0), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        // FNV-1a of the 8 bytes of 0u64, computed byte by byte.
        let mut want: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            want = want.wrapping_mul(0x0100_0000_01b3);
        }
        let mut d = Digest::default();
        d.word(0);
        assert_eq!(d.value(), want);
    }
}
