//! Fig. 5 — Memory consumption: booting vs. cloning.
//!
//! The machine is split as in §6.2: 4 GiB for Dom0, 12 GiB for the guest
//! pool. Instances of the 4 MiB UDP server are created until memory runs
//! out — by booting in one run and by cloning in the other — while free
//! memory is sampled on both sides. The paper reaches ~2800 booted
//! instances vs ~8900 clones (~3x), each clone consuming ~1.6 MB of which
//! 1 MB is the preallocated RX ring.

use apps::UdpEchoApp;
use nephele::{Platform, TraceSink};
use sim_core::stats::Series;
use sim_core::PAGE_SIZE;

use crate::support::{platform_with_pool, udp_guest_cfg, udp_image};

/// Result of one packing run.
#[derive(Debug, Clone)]
pub struct PackingRun {
    /// `(instances, hyp free GB, dom0 free GB)` samples.
    pub series: Series,
    /// Instances running when memory was exhausted.
    pub max_instances: u64,
    /// Mean memory per instance, bytes.
    pub bytes_per_instance: u64,
    /// Host-side p2m bytes shared between family members at the end of
    /// the run (zero when booting: every boot builds its own template).
    pub p2m_shared_bytes: u64,
    /// Host-side p2m bytes private to one domain at the end of the run.
    pub p2m_unique_bytes: u64,
    /// The run's trace sink (disabled unless `NEPHELE_TRACE` is set).
    pub trace: TraceSink,
}

/// Combined experiment result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// The boot run.
    pub booting: PackingRun,
    /// The clone run.
    pub cloning: PackingRun,
}

const SAMPLE_EVERY: u64 = 25;

/// The two free-memory figures a sample plots, in GiB: the hypervisor's
/// guest pool, then Dom0. They are read directly because a
/// [`Platform::snapshot`] also walks the whole Xenstore tree and every
/// p2m for fields this figure never plots.
fn free_gib(p: &Platform) -> [f64; 2] {
    let hyp = p.hv.memory_stats().free * PAGE_SIZE as u64;
    let dom0 = p.dom0.free_bytes(&p.xs, &p.dm, &p.xl);
    [hyp, dom0].map(|bytes| bytes as f64 / (1u64 << 30) as f64)
}

fn run_boot(pool_mib: u64, limit: u64) -> PackingRun {
    let mut p = platform_with_pool(pool_mib);
    let img = udp_image();
    let mut series = Series::new("instances", &["hyp_free_gb", "dom0_free_gb"]);
    let free0 = p.snapshot().hyp_free_bytes;
    let mut count = 0u64;
    while count < limit {
        let cfg = udp_guest_cfg(&format!("udp-{count}"), 0);
        match p.launch(&cfg, &img, Box::new(UdpEchoApp::new(7000))) {
            Ok(_) => count += 1,
            Err(_) => break,
        }
        if count % SAMPLE_EVERY == 0 {
            series.row(count as f64, &free_gib(&p));
        }
    }
    let end = p.snapshot();
    PackingRun {
        series,
        max_instances: count,
        bytes_per_instance: (free0 - end.hyp_free_bytes) / count.max(1),
        p2m_shared_bytes: end.p2m_shared_bytes,
        p2m_unique_bytes: end.p2m_unique_bytes,
        trace: p.trace().clone(),
    }
}

fn run_clone(pool_mib: u64, limit: u64) -> PackingRun {
    let mut p = platform_with_pool(pool_mib);
    let img = udp_image();
    let cfg = udp_guest_cfg("udp", u32::MAX);
    let parent = p
        .launch(&cfg, &img, Box::new(UdpEchoApp::new(7000)))
        .expect("parent");
    p.enlist_in_mux(parent);
    let mut series = Series::new("instances", &["hyp_free_gb", "dom0_free_gb"]);
    let free_after_parent = p.snapshot().hyp_free_bytes;
    let mut count = 1u64; // the parent
    while count < limit {
        match p.guest_fork(parent, 1) {
            Ok(kids) if !kids.is_empty() => count += 1,
            _ => break,
        }
        if count % SAMPLE_EVERY == 0 {
            series.row(count as f64, &free_gib(&p));
        }
    }
    let end = p.snapshot();
    PackingRun {
        series,
        max_instances: count,
        bytes_per_instance: (free_after_parent - end.hyp_free_bytes) / (count - 1).max(1),
        p2m_shared_bytes: end.p2m_shared_bytes,
        p2m_unique_bytes: end.p2m_unique_bytes,
        trace: p.trace().clone(),
    }
}

/// Runs both packing experiments on the paper's 12 GiB pool, capping each
/// at `limit` instances (`u64::MAX` replicates run-to-exhaustion).
pub fn run(limit: u64) -> Fig5Result {
    run_with_pool(12 * 1024, limit)
}

/// Runs both packing experiments on a guest pool of `pool_mib` MiB (a
/// smaller machine packs proportionally fewer instances with the same
/// density ratio — handy for quick runs).
pub fn run_with_pool(pool_mib: u64, limit: u64) -> Fig5Result {
    Fig5Result {
        booting: run_boot(pool_mib, limit),
        cloning: run_clone(pool_mib, limit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloning_packs_several_times_more_instances() {
        // A 1 GiB pool keeps the test quick; the density ratio is
        // pool-size independent.
        let r = run_with_pool(1024, u64::MAX);
        let boots = r.booting.max_instances;
        let clones = r.cloning.max_instances;
        assert!(
            clones as f64 / boots as f64 > 2.0,
            "clones {clones} vs boots {boots}"
        );
        // Per-instance footprints: ~4 MiB booted vs ~1-2 MiB cloned.
        assert!(r.booting.bytes_per_instance > 4 * 1024 * 1024);
        assert!(
            r.cloning.bytes_per_instance < 2 * 1024 * 1024,
            "clone footprint = {}",
            r.cloning.bytes_per_instance
        );
        // The RX ring alone accounts for ~1 MiB of each clone.
        assert!(r.cloning.bytes_per_instance > 1024 * 1024);
    }
}
