//! Baseline models the paper compares Nephele against: Linux processes
//! with `fork()`/COW semantics ([`process`]), Kubernetes-orchestrated
//! containers ([`container`]) and the `wrk` load generator ([`loadgen`]).

pub mod container;
pub mod loadgen;
pub mod process;

pub use container::{Container, ContainerRuntime};
pub use loadgen::{jittered_service, WrkConfig};
pub use process::{LinuxProcess, ProcessModel};
