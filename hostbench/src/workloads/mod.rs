//! The four workloads. Each round builds a fresh platform from the seed,
//! times its set-up, then runs the measured phase through public calls
//! only, each wrapped in a [`Timers`] timer. A round ends outside the
//! timed phase by folding its virtual-time results into a digest, which
//! must be the same in every round of a run, traced or not.

mod boot;
mod density;
mod fuzz;
mod udp;

use std::fmt::Display;
use std::time::Instant;

use nephele::hypervisor::cloneop::{CloneOp, CloneOpResult};
use nephele::sim_core::DomId;
use nephele::{AuditMode, Platform, PlatformConfig, PlatformConfigBuilder, TraceConfig};

use crate::measure::{sample_buffer, Call, Digest, Stats, Timers, CALLS};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batched Dom0 clones of a vif-less template to 10^5 live domains,
    /// destroy churn and refill, then a traffic-tape replay.
    Density,
    /// A vif'd UDP echo family grown one Dom0 clone at a time in the bond
    /// mux, with host→mux datagrams every 12 clones.
    Udp,
    /// `xl create` → `xl save` → `xl restore` cycles with seeded victims.
    Boot,
    /// Fuzzer executions on a `clone_cow`-instrumented clone, each
    /// followed by `clone_reset`.
    Fuzz,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Density,
    Workload::Udp,
    Workload::Boot,
    Workload::Fuzz,
];

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Density => "density_replay",
            Workload::Udp => "udp_family",
            Workload::Boot => "boot_restore",
            Workload::Fuzz => "fuzz_reset",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Round size of a benchmark run: live clones, family members, cycles
    /// or iterations.
    pub fn size(self) -> u32 {
        match self {
            Workload::Density => density::SIZE,
            Workload::Udp => udp::SIZE,
            Workload::Boot => boot::SIZE,
            Workload::Fuzz => fuzz::SIZE,
        }
    }

    /// Runs one round of `size` on a fresh platform built from `seed`,
    /// with the platform's trace sink in Aggregate mode when `traced`.
    /// The platform is returned so the caller can audit it.
    pub fn round(self, seed: u64, size: u32, traced: bool) -> (Round, Platform) {
        match self {
            Workload::Density => density::round(seed, size, traced),
            Workload::Udp => udp::round(seed, size, traced),
            Workload::Boot => boot::round(seed, size, traced),
            Workload::Fuzz => fuzz::round(seed, size, traced),
        }
    }

    /// Host seconds of the workload's set-up alone: what each round pays
    /// before its measured phase.
    pub fn setup_s(self, seed: u64, size: u32) -> f64 {
        let t0 = Instant::now();
        let platform = match self {
            Workload::Density => density::setup(seed, size, false).0,
            Workload::Udp => udp::setup(seed, size, false).0,
            Workload::Boot => boot::setup(seed, false),
            Workload::Fuzz => fuzz::setup(seed, false).0,
        };
        let s = t0.elapsed().as_secs_f64();
        drop(platform);
        s
    }
}

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Host seconds of the set-up: `Platform::new` plus template boot.
    pub setup_s: f64,
    /// Host ns of the measured phase.
    pub wall_ns: u64,
    /// Factor that normalizes this round's host durations to the
    /// reference work (`REFERENCE_NS` over its time around the round);
    /// 1 until the caller measures it.
    pub scale: f64,
    /// Workload ops completed in the measured phase.
    pub ops: u64,
    /// Host latency of the workload's op.
    pub op: Stats,
    /// Host time of each timed platform call, indexed by [`Call`].
    pub calls: [Stats; CALLS.len()],
    /// Checked outcomes and failures.
    pub tally: Tally,
    /// FNV-1a digest of the round's virtual-time results.
    pub digest: u64,
    /// Layer counts read after the measured phase.
    pub counts: Vec<(&'static str, f64)>,
}

/// What the measured phase accumulates while it runs.
#[derive(Debug, Default)]
struct Meter {
    /// Host ns of each timed platform call.
    timers: Timers,
    /// Checked outcomes and failures.
    tally: Tally,
    /// Host ns of each workload op.
    op_ns: Vec<u64>,
    /// Workload ops completed.
    ops: u64,
    /// Virtual-time results seen so far.
    digest: Digest,
    /// Children that completed xencloned's second stage.
    stage2_children: u64,
}

impl Meter {
    /// A meter whose sample buffers hold `capacity` samples per call
    /// before they grow: the most calls of one kind a round makes.
    fn with_capacity(capacity: usize) -> Self {
        Meter {
            timers: Timers::with_capacity(capacity),
            op_ns: sample_buffer(capacity),
            ..Meter::default()
        }
    }
}

/// A Dom0 clone of `n` children of `parent`: the timed first stage, then
/// the timed second stage. Returns the children both stages agree on;
/// each counts as one op.
fn dom0_clone(p: &mut Platform, m: &mut Meter, parent: DomId, n: u32) -> Vec<DomId> {
    let op = CloneOp::Clone {
        target: Some(parent),
        nr_clones: n,
    };
    let r = m
        .timers
        .time(Call::Cloneop, || p.hv.cloneop(DomId::DOM0, op));
    let Some(CloneOpResult::Cloned(kids)) = m.tally.ok("cloneop", r) else {
        return Vec::new();
    };
    let r = m
        .timers
        .time(Call::Stage2, || p.finish_pending_clones(parent));
    let done = m.tally.ok("stage 2", r).unwrap_or_default();
    m.tally.check(done == kids, || {
        format!(
            "stage 2 completed {} children, stage 1 created {}",
            done.len(),
            kids.len()
        )
    });
    for k in &done {
        m.digest.word(k.0.into());
    }
    m.ops += done.len() as u64;
    m.stage2_children += done.len() as u64;
    done
}

/// Closes a round after its measured phase: digests the platform's end
/// state and reads the layer counts, `extra` included.
fn finish(
    p: Platform,
    mut m: Meter,
    setup_s: f64,
    wall_ns: u64,
    extra: Vec<(&'static str, f64)>,
) -> (Round, Platform) {
    let mut counts = end_state(&mut m.digest, &p);
    counts.extend(sink_counts(&p));
    let calls = CALLS.map(|c| m.timers.stats(c));
    if m.stage2_children > 0 {
        let busy_ns = calls[Call::Stage2 as usize].sum_ns;
        counts.push((
            "xencloned.stage2.per_child_us",
            busy_ns as f64 / 1e3 / m.stage2_children as f64,
        ));
    }
    counts.extend(extra);
    let round = Round {
        setup_s,
        wall_ns,
        scale: 1.0,
        ops: m.ops,
        op: Stats::of(&mut m.op_ns),
        calls,
        tally: m.tally,
        digest: m.digest.value(),
        counts,
    };
    (round, p)
}

/// Checked outcomes of a round: every `Result` of a timed call and every
/// workload invariant is one attempt.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Outcomes checked.
    pub attempted: u64,
    /// Outcomes that were an `Err` or a violated invariant.
    pub failed: u64,
}

/// Failures printed per round; the rest are only counted.
const REPORTED_FAILURES: u64 = 5;

impl Tally {
    /// Checks one call result, returning its value on success.
    pub fn ok<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Checks one invariant; `what` describes the violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            if self.failed < REPORTED_FAILURES {
                eprintln!("hostbench: check failed: {}", what());
            }
            self.failed += 1;
        }
    }
}

/// The configuration every workload starts from: one host thread, no
/// automatic audits and no flight-recorder files, so nothing the
/// environment says can change what is measured.
fn config(seed: u64, traced: bool) -> PlatformConfigBuilder {
    PlatformConfig::builder()
        .seed(seed)
        .threads(1)
        .audit(AuditMode::Off)
        .flightrec_dumps(false)
        .tracing(if traced {
            TraceConfig::aggregate()
        } else {
            TraceConfig::default()
        })
}

/// Folds the platform's end state into `d` (the virtual clock, every
/// `PlatformSnapshot` field and the Xenstore entry count) and returns the
/// layer counts public getters give, which every round has.
fn end_state(d: &mut Digest, p: &Platform) -> Vec<(&'static str, f64)> {
    let s = p.snapshot();
    let entries = p.xs.entry_count();
    for v in [
        p.clock.now().as_ns(),
        s.hyp_free_bytes,
        s.dom0_free_bytes,
        s.cow_shared_frames,
        s.xen_frames,
        s.packets_routed,
        s.mux_members as u64,
        s.domains as u64,
        s.clones_completed,
        s.xs_shared_entry_bytes,
        s.xs_unique_entry_bytes,
        s.p2m_shared_bytes,
        s.p2m_unique_bytes,
        s.blk_shared_bytes,
        s.blk_unique_bytes,
        entries,
    ] {
        d.word(v);
    }
    vec![
        ("hypervisor.domains_live", s.domains as f64),
        ("xenstore.entries", entries as f64),
        (
            "xenstore.entries_per_live_domain",
            entries as f64 / s.domains as f64,
        ),
        ("xenstore.log_rotations", p.xs.log_rotations() as f64),
        ("xencloned.clones_completed", s.clones_completed as f64),
        ("devices.vifs_live", p.dm.vif_count() as f64),
        ("netmux.packets_routed", s.packets_routed as f64),
    ]
}

/// Layer counts only an enabled trace sink records; empty when the
/// round ran untraced.
fn sink_counts(p: &Platform) -> Vec<(&'static str, f64)> {
    let sink = p.trace();
    if !sink.is_enabled() {
        return Vec::new();
    }
    let spans = sink.span_aggregates();
    let span_count = |name: &str| {
        spans
            .iter()
            .find(|a| a.name == name)
            .map_or(0.0, |a| a.count as f64)
    };
    let hits = sink.counter_total("xencloned.parent_cache.hit") as f64;
    let misses = sink.counter_total("xencloned.parent_cache.miss") as f64;
    let overhead = sink.overhead();
    vec![
        (
            "hypervisor.cow_faults",
            (sink.counter_total("hv.cow_fault.copy") + sink.counter_total("hv.cow_fault.transfer"))
                as f64,
        ),
        (
            "xencloned.parent_cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        ("xenstore.xs_clone.count", span_count("xs.xs_clone")),
        ("xenstore.commits", span_count("xs.txn_commit")),
        ("devices.ring_tx", sink.counter_total("dev.ring.tx") as f64),
        ("devices.ring_rx", sink.counter_total("dev.ring.rx") as f64),
        ("trace.span_closes", overhead.span_closes as f64),
        ("trace.hist_records", overhead.hist_records as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    #[test]
    fn cloning_a_destroyed_domain_fails_the_run() {
        let (mut p, tmpl) = density::setup(1, 2_000, false);
        p.destroy(tmpl).expect("destroy the template");
        let mut m = Meter::default();
        assert!(dom0_clone(&mut p, &mut m, tmpl, 1).is_empty());
        let (round, p) = finish(p, m, 0.0, 1, Vec::new());
        let outcome = Outcome::new([&round], p.audit().is_clean(), Vec::new());
        assert!(
            outcome.failed > 0,
            "error rate {}/{}",
            outcome.failed,
            outcome.attempted
        );
        assert!(!outcome.correct());
        assert_ne!(outcome.exit_code(), 0);
        assert!(outcome.json().starts_with("{\"correct\": false, "));
    }
}
