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
//! Devices hang off a uniform bus: every live device registers on the
//! [`DeviceBus`] declaring its identity ([`DeviceId`]) and its clone
//! heuristic ([`CloneSemantics`], paper §4.2); the cloning daemon's
//! second stage dispatches through [`CloneDevice::clone_into`], and
//! which classes follow a clone is a per-class [`ClonePolicy`]:
//!
//! ```
//! use nephele::{ClonePolicy, CloneSemantics, DeviceClass, Platform, PlatformConfig};
//!
//! // Redis-style clones: skip network-device cloning (§7.1).
//! let p = Platform::new(
//!     PlatformConfig::builder()
//!         .clone_policy(ClonePolicy::all().set(DeviceClass::Vif, false))
//!         .build(),
//! );
//! assert!(!p.daemon.config.policy.clones(DeviceClass::Vif));
//! assert_eq!(DeviceClass::Vbd.semantics(), CloneSemantics::CowOverlay);
//! assert_eq!(DeviceClass::Usb.semantics(), CloneSemantics::DetachOnClone);
//! ```
//!
//! To observe what a run did, enable tracing and export the recorded
//! spans ([`TraceConfig`], [`Platform::trace`], chrome-trace JSON and CSV
//! exporters in [`sim_core::trace`]). Every enabled sink folds each
//! observation into histograms, virtual-time timeline slices and
//! per-clone-family rollups as it is recorded; Full mode additionally keeps
//! the raw records for the chrome-trace export. Long or wide runs should
//! use [`TraceMode::Aggregate`] (or `NEPHELE_TRACE=aggregate` at runtime),
//! which drops them, so sink memory stays bounded by distinct metric keys
//! rather than events. [`Platform::timeline_csv`],
//! [`Platform::metrics_text`] and [`Platform::family_rollup_csv`] export
//! identical bytes in either mode.
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

// The device bus: the uniform per-device clone-semantics surface (see
// the crate-level example).
pub use devices::bus::{
    CloneCtx,
    CloneDevice,
    CloneOutcome,
    ClonePolicy,
    CloneSemantics,
    DeviceBus,
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
    TraceMode,
    TraceSink, //
};
pub use toolstack::XlError;
pub use xencloned::CloneDaemonError;
pub use xenstore::XsError;
