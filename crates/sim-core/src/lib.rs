//! Core simulation substrate for the Nephele reproduction.
//!
//! Every other crate in this workspace models a component of a Xen-like
//! virtualization environment (hypervisor, Xenstore, toolstack, guests, ...).
//! This crate provides the pieces they all share:
//!
//! * [`time`] — a virtual-time representation ([`SimTime`], [`SimDuration`]).
//!   The simulation never reads the host clock; all reported durations are
//!   derived from virtual time.
//! * [`clock`] — a shareable monotonic [`Clock`] advanced by charging costs.
//! * [`costs`] — the single calibrated [`CostModel`] from which every
//!   modelled operation derives its virtual duration.
//! * [`rng`] — a small deterministic PRNG ([`SplitMix64`]) so the lower
//!   layers do not need external crates.
//! * [`stats`] — streaming statistics and series recording for experiments.
//! * [`trace`] — deterministic observability: virtual-time spans, counters,
//!   gauges and log-bucketed latency [`hist`]ograms, folded as they are
//!   recorded into CSV exporters, a Prometheus-style text exposition and
//!   per-clone-family rollups.
//! * [`timeline`] — bounded virtual-time slice ring: counters, gauges and
//!   span closes folded into fixed-width slices with a CSV exporter.
//! * [`rollup`] — the clone-family provenance registry behind the
//!   family rollup exports.
//! * [`hist`] — HDR-style log-bucketed histograms with exact-rank
//!   percentiles.
//! * [`flightrec`] — an always-on fixed-size ring of compact events, dumped
//!   as JSON when something goes wrong.
//! * [`ids`] — strongly typed identifiers (domain ids, frame numbers) and
//!   page-size constants.
//!
//! [`SimTime`]: time::SimTime
//! [`SimDuration`]: time::SimDuration
//! [`Clock`]: clock::Clock
//! [`CostModel`]: costs::CostModel
//! [`SplitMix64`]: rng::SplitMix64

pub mod clock;
pub mod costs;
pub mod flightrec;
pub mod hist;
pub mod ids;
pub mod rng;
pub mod rollup;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod trace;

pub use clock::Clock;
pub use costs::CostModel;
pub use flightrec::{FlightEvent, FlightRecorder, DEFAULT_FLIGHTREC_CAPACITY};
pub use hist::Histogram;
pub use ids::{DomId, Mfn, Pfn, PAGE_SIZE};
pub use rng::SplitMix64;
pub use rollup::{FamilyRegistry, FamilyRow, FamilyStats};
pub use time::{SimDuration, SimTime};
pub use timeline::Timeline;
pub use trace::{SinkOverhead, SpanGuard, TraceConfig, TraceSink};
