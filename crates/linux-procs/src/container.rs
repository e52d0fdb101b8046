//! The container baseline used by the FaaS experiments (§7.3).
//!
//! Models what the paper's vanilla OpenFaaS setup measures: Kubernetes-
//! orchestrated containers running a language runtime. Two quantities
//! matter for Figs. 10–11:
//!
//! * **readiness latency** — the delay from the scale-up decision until
//!   Kubernetes reports the new instance Ready (pod scheduling + container
//!   start + readiness probing); containers take tens of seconds, cloned
//!   unikernels a few;
//! * **memory footprint** — the first container is comparatively cheap
//!   (~90 MB: shared image layers, warm caches) but each subsequent one
//!   carries its full runtime (~220 MB average in the paper's measurement),
//!   whereas unikernel clones add only tens of MB.

use std::rc::Rc;

use sim_core::{Clock, CostModel, SimTime};

/// One running container instance.
#[derive(Debug, Clone)]
pub struct Container {
    /// Instance id.
    pub id: u32,
    /// When the scale-up decision launched it.
    pub launched_at: SimTime,
    /// When Kubernetes reports it Ready.
    pub ready_at: SimTime,
    /// Resident memory in bytes.
    pub mem_bytes: u64,
}

impl Container {
    /// Whether the instance is Ready at `now`.
    pub fn is_ready(&self, now: SimTime) -> bool {
        now >= self.ready_at
    }
}

/// The container runtime + orchestrator model.
#[derive(Debug)]
pub struct ContainerRuntime {
    clock: Clock,
    costs: Rc<CostModel>,
    next_id: u32,
    containers: Vec<Container>,
    /// Memory of the first instance (shared layers warm), bytes.
    pub first_instance_bytes: u64,
    /// Memory of each subsequent instance, bytes.
    pub per_instance_bytes: u64,
}

impl ContainerRuntime {
    /// Creates the runtime with the paper's measured footprints (≈90 MB
    /// first, ≈220 MB per additional instance).
    pub fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        ContainerRuntime {
            clock,
            costs,
            next_id: 0,
            containers: Vec::new(),
            first_instance_bytes: 90 * 1024 * 1024,
            per_instance_bytes: 220 * 1024 * 1024,
        }
    }

    /// Launches a container; returns the instance. Charging happens on the
    /// orchestration clock (`container_start`), and the instance becomes
    /// Ready only after the pod latency elapses.
    pub fn launch(&mut self) -> Container {
        let launched_at = self.clock.now();
        self.clock.advance(self.costs.container_start);
        let ready_at = launched_at + self.costs.container_start + self.costs.pod_ready_latency;
        let mem_bytes = if self.containers.is_empty() {
            self.first_instance_bytes
        } else {
            self.per_instance_bytes
        };
        let c = Container {
            id: self.next_id,
            launched_at,
            ready_at,
            mem_bytes,
        };
        self.next_id += 1;
        self.containers.push(c.clone());
        c
    }

    /// All running instances.
    pub fn containers(&self) -> &[Container] {
        &self.containers
    }

    /// Total resident memory of all instances, bytes.
    pub fn total_mem_bytes(&self) -> u64 {
        self.containers.iter().map(|c| c.mem_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use sim_core::SimDuration;

    use super::*;

    fn rt() -> (Clock, ContainerRuntime) {
        let clock = Clock::new();
        (clock.clone(), ContainerRuntime::new(clock, Rc::new(CostModel::calibrated())))
    }

    #[test]
    fn readiness_takes_seconds() {
        let (clock, mut rt) = rt();
        let c = rt.launch();
        assert!(!c.is_ready(clock.now()));
        let wait = c.ready_at.since(SimTime::ZERO);
        assert!(wait >= SimDuration::from_secs(5), "pod readiness = {wait}");
        assert!(c.is_ready(c.ready_at));
        assert_eq!(rt.containers().len(), 1);
    }

    #[test]
    fn first_instance_cheaper_than_rest() {
        let (_, mut rt) = rt();
        let a = rt.launch();
        let b = rt.launch();
        let c = rt.launch();
        assert!(a.mem_bytes < b.mem_bytes);
        assert_eq!(b.mem_bytes, c.mem_bytes);
        assert_eq!(rt.total_mem_bytes(), a.mem_bytes + 2 * b.mem_bytes);
    }
}
