//! Nephele: cloning support for unikernel-based VMs — the platform facade.
//!
//! This crate assembles every component of the reproduction — hypervisor,
//! Xenstore, device manager, toolstack, `xencloned`, network fabric and the
//! guest runtime — into one [`Platform`] with a deterministic event loop.
//! It is the public API a downstream user programs against:
//!
//! ```
//! use nephele::{Platform, PlatformConfig};
//! use nephele::toolstack::{DomainConfig, KernelImage};
//!
//! let mut p = Platform::new(PlatformConfig::default());
//! let cfg = DomainConfig::builder("quick").memory_mib(4).max_clones(4).build();
//! let dom = p.launch_plain(&cfg, &KernelImage::minios("quick")).unwrap();
//! let kids = p.clone_domain(dom, 2).unwrap();
//! assert_eq!(kids.len(), 2);
//! ```
//!
//! Every device is a [`DeviceId`] — a [`DeviceClass`] plus a device
//! index. The three classes are the paper's (§4.2): the console, network
//! devices (vifs) and 9pfs, each cloned by its own heuristic. The device
//! manager's per-class state is the one registry of live devices: the
//! cloning daemon's second stage walks a parent's devices in `(class,
//! devid)` order and clones each by its class, and which classes follow
//! a clone is a per-class [`ClonePolicy`] in the daemon's configuration:
//!
//! ```
//! use nephele::{ClonePolicy, DeviceClass, Platform, PlatformConfig};
//!
//! // Redis-style clones: skip network-device cloning (§7.1).
//! let mut p = Platform::new(PlatformConfig::default());
//! p.daemon.config.policy = ClonePolicy::all().set(DeviceClass::Vif, false);
//! assert!(!p.daemon.config.policy.clones(DeviceClass::Vif));
//! ```
//!
//! To observe what a run did, turn tracing on
//! ([`TraceConfig::aggregate`], or `NEPHELE_TRACE=1` at runtime) and read
//! the exports of [`Platform::trace`]. The sink folds each observation
//! into histograms, virtual-time timeline slices and per-clone-family
//! rollups as it is recorded and keeps no raw records, so its memory
//! stays bounded by distinct metric keys rather than events. Its CSV
//! exporters, [`TraceSink::timeline_csv`], [`TraceSink::metrics_text`]
//! and [`Platform::family_rollup_csv`] (the sink's rollup plus resident
//! bytes per family) give identical bytes across same-seed runs.
//!
//! Re-exports give access to every subsystem (`nephele::hypervisor`,
//! `nephele::xenstore`, ...).

pub use apps;
pub use devices;
pub use guest;
pub use hypervisor;
pub use linux_procs;
pub use netmux;
pub use sim_core;
pub use toolstack;
pub use xencloned;
pub use xenstore;

pub mod audit;
mod platform;

pub use audit::{AuditReport, AuditViolation};
pub use platform::{
    AuditMode,
    MuxKind,
    Platform,
    PlatformConfig,
    PlatformConfigBuilder,
    PlatformError,
    PlatformSnapshot, //
};

// The §4.2 device classes and the clone policy over them (see the
// crate-level example).
pub use devices::bus::{
    ClonePolicy,
    DeviceClass,
    DeviceId, //
};

// The observability surface and the component error types wrapped by
// `PlatformError`, so downstream code rarely needs to name member crates.
pub use devices::DevError;
pub use hypervisor::error::HvError;
pub use sim_core::{
    FamilyRow,
    SinkOverhead,
    TraceConfig,
    TraceSink, //
};
pub use toolstack::XlError;
pub use xencloned::CloneDaemonError;
pub use xenstore::XsError;
