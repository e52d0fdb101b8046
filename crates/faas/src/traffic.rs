//! Deterministic open-loop traffic replay against a scaled clone pool.
//!
//! This is the payoff scenario for the index work: a seeded, bursty
//! arrival process (Poisson-like inter-arrivals with diurnal and burst
//! modulation, all drawn from [`sim_core::rng::SplitMix64`] in virtual
//! time) replayed against a platform holding up to 10^5 concurrently
//! live vif-less clones. Two serving policies are compared with the
//! integer latency histograms of [`sim_core::hist::Histogram`], so
//! same-seed runs are byte-reproducible:
//!
//! * [`Policy::CloneRequest`] — *clone the request*: fan each request
//!   to `k` warm instances, first response wins, losers are cancelled
//!   when the winner answers (the request-cloning policy axis of the
//!   Pellegrini reproducibility report);
//! * [`Policy::CloneVm`] — *clone the VM*: serve from an idle warm
//!   instance when one exists, otherwise Nephele-clone a fresh instance
//!   on demand and pay its (virtual-time) readiness latency up front.
//!
//! Every per-request step is O(log pool): instances are scheduled from
//! a min-heap on their busy-until times, and the platform's own
//! create/clone/destroy paths are index-driven — nothing here scales
//! with the number of live domains, which is the property the
//! `clone_density` bench gate pins.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use nephele::sim_core::hist::Histogram;
use nephele::sim_core::rng::SplitMix64;
use nephele::sim_core::SimDuration;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, AuditReport, MuxKind, Platform, PlatformConfig, TraceConfig};

/// Parameters of the open-loop arrival process.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Requests to generate.
    pub requests: u32,
    /// Mean arrival rate, requests per virtual second, before
    /// modulation.
    pub base_rps: f64,
    /// Diurnal swing as a fraction of the base rate (0 disables; 0.5
    /// swings between 0.5x and 1.5x).
    pub diurnal_amplitude: f64,
    /// Virtual period of one diurnal cycle.
    pub diurnal_period: SimDuration,
    /// Rate multiplier while a burst episode is active.
    pub burst_multiplier: f64,
    /// Per-arrival chance of starting a burst episode.
    pub burst_probability: f64,
    /// Arrivals per burst episode.
    pub burst_len: u32,
    /// Mean per-request service demand, ns of instance time.
    pub service_ns_mean: u64,
    /// Relative jitter of per-request (and per-replica) demand.
    pub service_jitter: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            requests: 20_000,
            base_rps: 2_000.0,
            diurnal_amplitude: 0.6,
            diurnal_period: SimDuration::from_secs(4),
            burst_multiplier: 8.0,
            burst_probability: 0.002,
            burst_len: 200,
            service_ns_mean: 2_000_000,
            service_jitter: 0.35,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time on the replay timeline, ns.
    pub at_ns: u64,
    /// Service demand of the request, ns of instance time.
    pub demand_ns: u64,
}

/// Generates the seeded arrival tape: exponential inter-arrivals whose
/// rate is modulated by a diurnal sinusoid and by burst episodes. Pure
/// virtual time — the same seed yields the same tape on every host.
pub fn generate(cfg: &TrafficConfig, seed: u64) -> Vec<Arrival> {
    let mut master = SplitMix64::new(seed);
    let mut arrivals_rng = master.fork_stream();
    let mut demand_rng = master.fork_stream();

    let period_ns = cfg.diurnal_period.as_ns().max(1) as f64;
    let mut t_ns = 0u64;
    let mut burst_remaining = 0u32;
    let mut out = Vec::with_capacity(cfg.requests as usize);
    for _ in 0..cfg.requests {
        let diurnal = 1.0
            + cfg.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * (t_ns as f64) / period_ns).sin();
        let mut rate = cfg.base_rps * diurnal.max(0.05);
        if burst_remaining > 0 {
            burst_remaining -= 1;
            rate *= cfg.burst_multiplier;
        } else if arrivals_rng.chance(cfg.burst_probability) {
            burst_remaining = cfg.burst_len;
        }
        // Inverse-transform exponential inter-arrival at the modulated
        // rate, rounded to whole ns.
        let u = arrivals_rng.next_f64();
        let gap_s = -(1.0 - u).ln() / rate.max(1e-9);
        t_ns = t_ns.saturating_add((gap_s * 1e9).round() as u64);

        let demand = demand_rng
            .normal(cfg.service_ns_mean as f64, cfg.service_jitter * cfg.service_ns_mean as f64)
            .max(cfg.service_ns_mean as f64 * 0.1);
        out.push(Arrival {
            at_ns: t_ns,
            demand_ns: demand.round() as u64,
        });
    }
    out
}

/// How requests are served from the clone pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Fan each request to `k` warm instances; first response wins and
    /// the losers are cancelled at the winner's completion time.
    CloneRequest {
        /// Replication factor per request.
        k: u32,
    },
    /// Serve from an idle warm instance, or Nephele-clone a fresh one
    /// on demand, paying its readiness latency up front.
    CloneVm,
}

impl Policy {
    /// Stable label used in CSV columns and reports.
    pub fn label(&self) -> String {
        match self {
            Policy::CloneRequest { k } => format!("clone_request_k{k}"),
            Policy::CloneVm => "clone_vm".to_string(),
        }
    }
}

/// Outcome of replaying one policy over one arrival tape.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy that was replayed.
    pub policy: Policy,
    /// End-to-end request latency, ns (log-bucketed integer histogram —
    /// byte-identical for the same seed).
    pub latency: Histogram,
    /// Requests served.
    pub served: u64,
    /// Loser replicas cancelled ([`Policy::CloneRequest`] only).
    pub cancelled: u64,
    /// Instances cloned on demand ([`Policy::CloneVm`] only).
    pub cloned_on_demand: u64,
    /// Requests that found no idle instance and could not clone
    /// (served after queueing on the earliest-free instance).
    pub queued: u64,
}

/// One warm instance: identified by its heap slot; the heap orders
/// slots by the time they next become free.
type InstanceHeap = BinaryHeap<Reverse<(u64, u32)>>;

/// Replays `arrivals` under `policy` against `template`'s warm pool of
/// `warm` instances on `platform`. [`Policy::CloneVm`] grows the pool
/// by really cloning the template; the readiness latency charged to the
/// request is the virtual time the clone operation itself took.
pub fn replay(
    platform: &mut Platform,
    template: nephele::sim_core::DomId,
    warm: u32,
    arrivals: &[Arrival],
    policy: Policy,
    seed: u64,
) -> PolicyOutcome {
    let mut rng = SplitMix64::new(seed ^ 0x7ea7_5eed);
    let mut heap: InstanceHeap = (0..warm.max(1)).map(|slot| Reverse((0u64, slot))).collect();
    let mut next_slot = warm.max(1);

    let mut out = PolicyOutcome {
        policy,
        latency: Histogram::new(),
        served: 0,
        cancelled: 0,
        cloned_on_demand: 0,
        queued: 0,
    };

    for a in arrivals {
        match policy {
            Policy::CloneRequest { k } => {
                let k = k.max(1).min(heap.len() as u32);
                // Pop the k instances that free up earliest; each
                // replica draws its own demand around the request's.
                let mut replicas = Vec::with_capacity(k as usize);
                let mut winner = u64::MAX;
                for _ in 0..k {
                    let Reverse((free_at, slot)) = heap.pop().expect("k <= heap len");
                    let start = free_at.max(a.at_ns);
                    let factor = rng.normal(1.0, 0.25).clamp(0.3, 3.0);
                    let completion =
                        start.saturating_add((a.demand_ns as f64 * factor).round() as u64);
                    winner = winner.min(completion);
                    replicas.push((slot, completion));
                }
                // First response wins; every other replica is cancelled
                // when the winner answers, so all k slots free then.
                for (slot, completion) in replicas {
                    if completion > winner {
                        out.cancelled += 1;
                    }
                    heap.push(Reverse((winner, slot)));
                }
                out.latency.record(winner.saturating_sub(a.at_ns));
                out.served += 1;
            }
            Policy::CloneVm => {
                let Reverse((free_at, slot)) = *heap.peek().expect("pool is never empty");
                if free_at <= a.at_ns {
                    heap.pop();
                    let completion = a.at_ns + a.demand_ns;
                    heap.push(Reverse((completion, slot)));
                    out.latency.record(a.demand_ns);
                } else {
                    // No idle instance: clone one on demand and charge
                    // the request the clone's own virtual-time latency.
                    let before = platform.clock.now().as_ns();
                    match platform.clone_domain(template, 1) {
                        Ok(kids) if !kids.is_empty() => {
                            let ready_ns = platform.clock.now().as_ns() - before;
                            let latency = ready_ns + a.demand_ns;
                            heap.push(Reverse((a.at_ns + latency, next_slot)));
                            next_slot += 1;
                            out.cloned_on_demand += 1;
                            out.latency.record(latency);
                        }
                        _ => {
                            // Pool exhausted: queue on the earliest-free
                            // instance instead.
                            heap.pop();
                            let start = free_at;
                            let completion = start + a.demand_ns;
                            heap.push(Reverse((completion, slot)));
                            out.queued += 1;
                            out.latency.record(completion - a.at_ns);
                        }
                    }
                }
                out.served += 1;
            }
        }
    }
    out
}

/// Macro-scenario parameters: ramp a platform to `live_domains`
/// concurrently live vif-less clones (with destroy churn along the
/// way), then replay the same arrival tape under both policies.
#[derive(Debug, Clone)]
pub struct MacroConfig {
    /// Concurrently live clones to ramp to before the replay.
    pub live_domains: u32,
    /// Clones per ramp batch.
    pub batch: u32,
    /// Guest pool, MiB (vif-less clones cost ~26 pages each).
    pub pool_mib: u64,
    /// Master seed for the platform and the traffic tape.
    pub seed: u64,
    /// Warm instances serving the replay.
    pub warm_pool: u32,
    /// Replication factor of the [`Policy::CloneRequest`] replay.
    pub fanout_k: u32,
    /// Destroy every Nth ramp clone, then top the pool back up — this
    /// keeps the destroy path honest at full scale (0 disables).
    pub churn_every: u32,
    /// The arrival process.
    pub traffic: TrafficConfig,
}

impl Default for MacroConfig {
    fn default() -> Self {
        MacroConfig {
            live_domains: 10_000,
            batch: 500,
            pool_mib: 2048,
            seed: 0xfaa5_10ad,
            warm_pool: 256,
            fanout_k: 3,
            churn_every: 64,
            traffic: TrafficConfig::default(),
        }
    }
}

/// Macro-scenario results.
#[derive(Debug, Clone)]
pub struct MacroReport {
    /// Live domains (clones + template + warm pool) when the replay
    /// started.
    pub live_at_replay: u64,
    /// Clones destroyed by the churn phase.
    pub destroyed: u64,
    /// The request-cloning replay.
    pub clone_request: PolicyOutcome,
    /// The VM-cloning replay.
    pub clone_vm: PolicyOutcome,
    /// The platform's state audit after both replays.
    pub audit: AuditReport,
    /// Host wall time the audit took.
    pub audit_wall: Duration,
}

/// Runs the macro scenario: boot one vif-less template, clone it to
/// `live_domains` in batches, churn a slice of the pool through
/// destroy + re-clone, replay the seeded tape under
/// [`Policy::CloneRequest`] and [`Policy::CloneVm`], then audit the
/// platform. The audit is read-only, so it moves no virtual time.
pub fn run_macro(cfg: &MacroConfig) -> MacroReport {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(cfg.pool_mib)
            .ring_capacity((cfg.batch as usize).max(128))
            .mux(MuxKind::None)
            .seed(cfg.seed)
            .tracing(TraceConfig::default())
            .audit(AuditMode::Off)
            .build(),
    );

    let dom_cfg = DomainConfig::builder("traffic-tmpl")
        .memory_mib(4)
        .max_clones(u32::MAX)
        .resume_clones(false)
        .build();
    let template = p
        .launch_plain(&dom_cfg, &KernelImage::unikraft("traffic-fn"))
        .expect("template boot");

    // Ramp to the target live-domain count in batches.
    let mut children = Vec::with_capacity(cfg.live_domains as usize);
    while (children.len() as u32) < cfg.live_domains {
        let want = (cfg.live_domains - children.len() as u32).min(cfg.batch);
        let kids = p.clone_domain(template, want).expect("ramp clone batch");
        let short = (kids.len() as u32) < want;
        children.extend(kids);
        if short {
            panic!(
                "guest pool exhausted at {} of {} clones",
                children.len(),
                cfg.live_domains
            );
        }
        p.run_for(SimDuration::from_ms(10));
    }

    // Churn: destroy a deterministic slice, then top the pool back up
    // so the replay still sees the full target count live.
    let mut destroyed = 0u64;
    if cfg.churn_every > 1 {
        let victims: Vec<_> = children
            .iter()
            .copied()
            .skip(cfg.churn_every as usize - 1)
            .step_by(cfg.churn_every as usize)
            .collect();
        children.retain(|d| !victims.contains(d));
        for dom in victims {
            p.destroy(dom).expect("churn destroy");
            destroyed += 1;
        }
        // Top back up in ramp-sized batches: a single burst larger than
        // the notification ring would overflow it before Dom0 drains.
        let mut refilled = 0u32;
        while (refilled as u64) < destroyed {
            let want = (destroyed as u32 - refilled).min(cfg.batch);
            let kids = p.clone_domain(template, want).expect("churn refill");
            assert_eq!(kids.len() as u32, want, "refill must restore the pool");
            refilled += want;
            children.extend(kids);
            p.run_for(SimDuration::from_ms(10));
        }
    }

    let live_at_replay = (children.len() + 1 + cfg.warm_pool as usize) as u64;
    p.clone_domain(template, cfg.warm_pool)
        .expect("warm pool clone");

    let arrivals = generate(&cfg.traffic, cfg.seed);
    let clone_request = replay(
        &mut p,
        template,
        cfg.warm_pool,
        &arrivals,
        Policy::CloneRequest { k: cfg.fanout_k },
        cfg.seed,
    );
    let clone_vm = replay(
        &mut p,
        template,
        cfg.warm_pool,
        &arrivals,
        Policy::CloneVm,
        cfg.seed,
    );

    let started = Instant::now();
    let audit = p.audit();
    let audit_wall = started.elapsed();

    MacroReport {
        live_at_replay,
        destroyed,
        clone_request,
        clone_vm,
        audit,
        audit_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_is_deterministic_and_bursty() {
        let cfg = TrafficConfig::default();
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a, b, "same seed, same tape");
        let c = generate(&cfg, 43);
        assert_ne!(a, c, "different seed, different tape");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "monotone arrivals");
        // Burstiness: the smallest inter-arrival gaps must be far below
        // the mean gap (bursts multiply the rate).
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1].at_ns - w[0].at_ns).collect();
        let mean = gaps.iter().sum::<u64>() / gaps.len() as u64;
        let min = *gaps.iter().min().unwrap();
        assert!(min * 10 < mean, "min gap {min} vs mean {mean}");
    }

    #[test]
    fn fanout_beats_single_replica_latency_and_cancels_losers() {
        // Uncongested pool: with idle capacity to spare, fanning to k
        // replicas wins on the min-of-k draw; under congestion the k-way
        // slot occupancy would instead triple queueing delay.
        let cfg = MacroConfig {
            live_domains: 200,
            batch: 100,
            pool_mib: 256,
            warm_pool: 128,
            churn_every: 16,
            traffic: TrafficConfig {
                requests: 2_000,
                base_rps: 1_000.0,
                ..TrafficConfig::default()
            },
            ..MacroConfig::default()
        };
        let r = run_macro(&cfg);
        assert!(r.audit.is_clean(), "{}", r.audit);
        assert_eq!(r.clone_request.served, 2_000);
        assert_eq!(r.clone_vm.served, 2_000);
        assert!(r.destroyed > 0);
        assert_eq!(
            r.clone_request.cancelled,
            (cfg.fanout_k as u64 - 1) * r.clone_request.served,
            "every request cancels k-1 losers"
        );
        // min-of-k beats one draw at the median.
        assert!(
            r.clone_request.latency.percentile(50.0) <= r.clone_vm.latency.percentile(50.0),
            "fanout p50 {} vs clone_vm p50 {}",
            r.clone_request.latency.percentile(50.0),
            r.clone_vm.latency.percentile(50.0)
        );
    }

    #[test]
    fn clone_vm_clones_under_load() {
        // A tiny warm pool under a hot tape must force on-demand clones.
        let r = run_macro(&MacroConfig {
            live_domains: 100,
            batch: 100,
            pool_mib: 256,
            warm_pool: 2,
            churn_every: 0,
            traffic: TrafficConfig {
                requests: 500,
                base_rps: 5_000.0,
                ..TrafficConfig::default()
            },
            ..MacroConfig::default()
        });
        assert!(r.clone_vm.cloned_on_demand > 0, "no on-demand clones happened");
        assert_eq!(r.clone_request.cloned_on_demand, 0);
    }
}
