//! `xencloned`: the Nephele cloning daemon (second stage).
//!
//! `xencloned` runs in Dom0 and completes what the hypervisor's first stage
//! started (§4.2, §5). Woken by `VIRQ_CLONED`, it drains the clone
//! notification ring and, for each new child:
//!
//! 1. introduces the child to the Xenstore daemon (introduction augmented
//!    with the parent id);
//! 2. generates and writes the clone's name — uniqueness is guaranteed by
//!    construction, so the O(n) validation scan `xl` performs is skipped;
//! 3. clones each parent device's registry information, either with the
//!    `xs_clone` request (few round-trips) or with a deep per-entry copy
//!    (the Fig. 4 comparison), which triggers the backend drivers' own
//!    cloning operations;
//! 4. performs the userspace follow-ups for udev events (enslaving new
//!    vifs to the bond / adding them to the OVS group);
//! 5. signals completion back to the hypervisor via the `clone_completion`
//!    subcommand of `CLONEOP`, resuming the parent (and the children,
//!    policy permitting).
//!
//! The daemon caches parent Xenstore information after the first clone,
//! which is why the paper measures ~3 ms of userspace operations for the
//! first clone and ~1.9 ms afterwards (§6.2).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use devices::bus::{CloneCtx, ClonePolicy};
use devices::udev::{UdevBus, UdevEvent};
use devices::{DevError, DeviceManager};
use hypervisor::cloneop::CloneOp;
use hypervisor::error::HvError;
use hypervisor::notify::CloneNotification;
use hypervisor::Hypervisor;
use netmux::IfaceId;
use sim_core::{Clock, CostModel, DomId, TraceSink};
use toolstack::Xl;
use xenstore::{XsCloneOp, XsError, Xenstore};

/// Errors from the cloning daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloneDaemonError {
    /// Hypervisor failure.
    Hv(HvError),
    /// Xenstore failure.
    Xs(XsError),
    /// Device failure.
    Dev(DevError),
}

impl fmt::Display for CloneDaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloneDaemonError::Hv(e) => write!(f, "{e}"),
            CloneDaemonError::Xs(e) => write!(f, "{e}"),
            CloneDaemonError::Dev(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CloneDaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CloneDaemonError::Hv(e) => Some(e),
            CloneDaemonError::Xs(e) => Some(e),
            CloneDaemonError::Dev(e) => Some(e),
        }
    }
}

impl From<HvError> for CloneDaemonError {
    fn from(e: HvError) -> Self {
        CloneDaemonError::Hv(e)
    }
}
impl From<XsError> for CloneDaemonError {
    fn from(e: XsError) -> Self {
        CloneDaemonError::Xs(e)
    }
}
impl From<DevError> for CloneDaemonError {
    fn from(e: DevError) -> Self {
        CloneDaemonError::Dev(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CloneDaemonError>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct XenclonedConfig {
    /// Use the `xs_clone` request (`false` falls back to the deep per-entry
    /// copy measured by the "clone + XS deep copy" curve of Fig. 4).
    pub use_xs_clone: bool,
    /// Per-device-class clone policy (the Redis experiment of §7.1
    /// disables the network class: "the I/O cloning is optimized to clone
    /// only the devices that are needed by the clones").
    pub policy: ClonePolicy,
    /// Restrict the second stage to the mandatory operations only
    /// (toolstack introduction and naming) — the configuration used for
    /// the memory-scaling experiment of §6.2 / Fig. 6.
    pub minimal: bool,
}

impl Default for XenclonedConfig {
    fn default() -> Self {
        XenclonedConfig {
            use_xs_clone: true,
            policy: ClonePolicy::all(),
            minimal: false,
        }
    }
}

/// A completed clone, as reported by the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedClone {
    /// The parent domain.
    pub parent: DomId,
    /// The new child domain.
    pub child: DomId,
    /// The child's generated name.
    pub name: String,
    /// Host interfaces created for the child's vifs.
    pub ifaces: Vec<IfaceId>,
}

/// The `xencloned` daemon state.
#[derive(Debug)]
pub struct Xencloned {
    clock: Clock,
    costs: Rc<CostModel>,
    /// Behavioural configuration.
    pub config: XenclonedConfig,
    /// Parent names, read from Xenstore and cached on each parent's
    /// first clone.
    parent_names: HashMap<u32, String>,
    clone_seq: HashMap<u32, u64>,
    clones_completed: u64,
    trace: TraceSink,
}

impl Xencloned {
    /// Creates the daemon.
    pub fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        Xencloned {
            clock,
            costs,
            config: XenclonedConfig::default(),
            parent_names: HashMap::new(),
            clone_seq: HashMap::new(),
            clones_completed: 0,
            trace: TraceSink::default(),
        }
    }

    /// Attaches a trace sink (disabled by default); second-stage spans and
    /// parent-cache counters are recorded into it.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Daemon startup: binds `VIRQ_CLONED` and enables cloning globally.
    pub fn start(&mut self, hv: &mut Hypervisor) -> Result<()> {
        hv.bind_virq(DomId::DOM0, hypervisor::event::Virq::Cloned)?;
        hv.cloneop(DomId::DOM0, CloneOp::SetGlobalEnabled(true))?;
        Ok(())
    }

    /// Total clones whose second stage this daemon completed.
    pub fn clones_completed(&self) -> u64 {
        self.clones_completed
    }

    /// Drains and handles every pending clone notification, one at a time
    /// in ring order. Call this when `VIRQ_CLONED` fires (the platform
    /// routes the event here). On an error, the failing notification has
    /// been consumed and the ones behind it stay queued.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_pending(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        xl: &mut Xl,
    ) -> Result<Vec<CompletedClone>> {
        let mut done = Vec::new();
        while let Some(n) = hv.clone_ring_pop() {
            let start = self.clock.now();
            match self.handle_one(hv, xs, dm, udev, xl, n) {
                Ok(c) => {
                    self.trace
                        .record_ns("clone.stage2", self.clock.now().since(start).as_ns());
                    done.push(c);
                }
                Err(e) => {
                    self.trace.count_dom("clone.fail", n.parent, 1);
                    return Err(e);
                }
            }
        }
        Ok(done)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_one(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        xl: &mut Xl,
        n: CloneNotification,
    ) -> Result<CompletedClone> {
        let CloneNotification { parent, child, .. } = n;
        let span = self.trace.span("xencloned.stage2");
        span.attr("parent", parent.0);
        span.attr("child", child.0);
        self.clock.advance(self.costs.xencloned_dispatch);

        // Read and cache the parent's Xenstore information on first use
        // (first clone ≈3 ms of userspace ops, later ≈1.9 ms, §6.2).
        let parent_name = match self.parent_names.entry(parent.0) {
            Entry::Occupied(e) => {
                self.trace
                    .count_dom("xencloned.parent_cache.hit", parent, 1);
                e.into_mut()
            }
            Entry::Vacant(e) => {
                self.trace
                    .count_dom("xencloned.parent_cache.miss", parent, 1);
                self.clock.advance(self.costs.xencloned_parent_scan);
                let name = xs
                    .read(DomId::DOM0, &format!("/local/domain/{}/name", parent.0))
                    .unwrap_or_else(|_| format!("dom{}", parent.0));
                e.insert(name)
            }
        };

        // Introduce the child with the parent id (step 2.1).
        xs.introduce_domain(child, Some(parent))?;

        // Unique name — no validation scan needed.
        let seq = self.clone_seq.entry(parent.0).or_insert(0);
        *seq += 1;
        let name = format!("{parent_name}-c{seq}");
        let home = format!("/local/domain/{}", child.0);
        xs.write(DomId::DOM0, &format!("{home}/name"), &name)?;
        xs.write(DomId::DOM0, &format!("{home}/domid"), &child.0.to_string())?;

        let mut ifaces = Vec::new();
        if !self.config.minimal {
            // Basic (non-device) registry state.
            if self.config.use_xs_clone {
                let pm = format!("/local/domain/{}/memory", parent.0);
                if xs.exists(&pm) {
                    xs.xs_clone(
                        DomId::DOM0,
                        XsCloneOp::Basic,
                        parent,
                        child,
                        &pm,
                        &format!("{home}/memory"),
                    )?;
                }
            } else {
                for key in ["memory/target", "memory/static-max"] {
                    if let Ok(v) = xs.read(DomId::DOM0, &format!("/local/domain/{}/{key}", parent.0)) {
                        xs.write(DomId::DOM0, &format!("{home}/{key}"), &v)?;
                    }
                }
            }

            // Devices: one loop over the parent's bus entries, dispatched
            // through each device's declared clone semantics (steps
            // 2.1–2.3). The bus sorts by (class, devid), so consoles clone
            // first, then vifs by device index, then 9pfs — the same order
            // the legacy hand-enumerated stage used.
            let deep_copy = !self.config.use_xs_clone;
            for dev in dm.bus_devices(parent) {
                if !self.config.policy.clones(dev.id().class) {
                    continue;
                }
                let mut ctx = CloneCtx {
                    parent,
                    child,
                    deep_copy,
                    hv,
                    xs,
                    udev,
                    dm,
                };
                let outcome = dev.as_ref().clone_into(&mut ctx)?;
                ifaces.extend(outcome.ifaces);
            }

            // Userspace follow-ups for the udev events (step 2.3) —
            // enslaving each new vif.
            for e in udev.drain() {
                if let UdevEvent::VifCreated { .. } = e {
                    if dm.mux().is_some() {
                        self.clock.advance(self.costs.bond_enslave);
                    } else {
                        self.clock.advance(self.costs.bridge_add);
                    }
                }
            }
            for i in &ifaces {
                dm.enslave(*i);
            }
        }

        // Register in the instance-management registry.
        xl.register_clone(parent, child, &name, ifaces.clone());

        // Step 2.4: completion hypercall; parent resumes when all its
        // pending children completed.
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child })?;
        self.clones_completed += 1;
        Ok(CompletedClone {
            parent,
            child,
            name,
            ifaces,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use devices::bus::DeviceClass;
    use devices::udev::UdevBus;
    use hypervisor::domain::DomainState;
    use hypervisor::MachineConfig;
    use netmux::{Bond, XmitHashPolicy};
    use toolstack::{DomainConfig, KernelImage};

    use super::*;

    struct World {
        clock: Clock,
        hv: Hypervisor,
        xs: Xenstore,
        dm: DeviceManager,
        udev: UdevBus,
        xl: Xl,
        daemon: Xencloned,
    }

    fn world() -> World {
        let clock = Clock::new();
        let costs = Rc::new(CostModel::calibrated());
        let mut w = World {
            clock: clock.clone(),
            hv: Hypervisor::new(
                clock.clone(),
                costs.clone(),
                &MachineConfig {
                    guest_pool_mib: 512,
                    cores: 4,
                    notification_ring_capacity: 128,
                },
            ),
            xs: Xenstore::new(clock.clone(), costs.clone()),
            dm: DeviceManager::new(clock.clone(), costs.clone()),
            udev: UdevBus::new(),
            xl: Xl::new(clock.clone(), costs.clone()),
            daemon: Xencloned::new(clock, costs),
        };
        w.daemon.start(&mut w.hv).unwrap();
        w
    }

    fn boot_parent(w: &mut World) -> DomId {
        boot(w, "udp", 2)
    }

    fn boot(w: &mut World, name: &str, last_octet: u8) -> DomId {
        let cfg = DomainConfig::builder(name)
            .memory_mib(4)
            .vif(Ipv4Addr::new(10, 0, 0, last_octet))
            .max_clones(64)
            .build();
        let img = KernelImage::minios(name);
        w.xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &cfg, &img)
            .unwrap()
            .id
    }

    /// Queues `nr` clones of `parent` (Dom0-triggered) without running
    /// their second stage.
    fn queue(w: &mut World, parent: DomId, nr: u32) -> Vec<DomId> {
        match w.hv.cloneop(
            DomId::DOM0,
            CloneOp::Clone {
                target: Some(parent),
                nr_clones: nr,
            },
        ) {
            Ok(hypervisor::cloneop::CloneOpResult::Cloned(kids)) => kids,
            other => panic!("clone of {parent} failed: {other:?}"),
        }
    }

    fn drain(w: &mut World) -> Result<Vec<CompletedClone>> {
        w.daemon
            .handle_pending(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &mut w.xl)
    }

    fn fork(w: &mut World, parent: DomId) -> CompletedClone {
        w.hv.cloneop(
            parent,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        )
        .unwrap();
        let done = w
            .daemon
            .handle_pending(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &mut w.xl)
            .unwrap();
        assert_eq!(done.len(), 1);
        done.into_iter().next().unwrap()
    }

    #[test]
    fn full_clone_second_stage() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        w.dm.set_mux(Box::new(Bond::new(XmitHashPolicy::Layer34)));
        let c = fork(&mut w, parent);

        // Parent and child both run again.
        assert_eq!(w.hv.domain(parent).unwrap().state, DomainState::Running);
        assert_eq!(w.hv.domain(c.child).unwrap().state, DomainState::Running);
        // The clone is named, registered and in Xenstore.
        assert_eq!(c.name, "udp-c1");
        assert_eq!(
            w.xs.read(DomId::DOM0, &format!("/local/domain/{}/name", c.child.0)).unwrap(),
            "udp-c1"
        );
        assert!(w.xl.record(c.child).is_some());
        assert_eq!(
            w.xs.read(DomId::DOM0, &format!("/local/domain/{}/parent", c.child.0)).unwrap(),
            parent.0.to_string()
        );
        // Its vif exists, is connected and was enslaved to the bond.
        assert!(w.dm.vif(c.child, 0).unwrap().is_connected());
        let child_iface = w.dm.vif(c.child, 0).unwrap().iface;
        assert_eq!(w.dm.mux().unwrap().members(), [child_iface]);
        // Same MAC/IP as the parent.
        assert_eq!(w.dm.vif(c.child, 0).unwrap().mac, w.dm.vif(parent, 0).unwrap().mac);
        // Console attached, fresh output.
        assert!(w.dm.console_attached(c.child));
    }

    #[test]
    fn clone_is_roughly_8x_faster_than_boot() {
        let mut w = world();
        let t0 = w.clock.now();
        let parent = boot_parent(&mut w);
        let boot = w.clock.now().since(t0);

        // Warm up the daemon cache with one clone.
        fork(&mut w, parent);

        let t1 = w.clock.now();
        fork(&mut w, parent);
        let clone = w.clock.now().since(t1);

        let speedup = boot.as_ms_f64() / clone.as_ms_f64();
        assert!(
            speedup > 3.0,
            "clone ({clone}) must be several times faster than boot ({boot}), got {speedup:.1}x"
        );
    }

    #[test]
    fn deep_copy_clone_is_slower_than_xs_clone() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        fork(&mut w, parent); // warm cache

        let t0 = w.clock.now();
        fork(&mut w, parent);
        let fast = w.clock.now().since(t0);

        w.daemon.config.use_xs_clone = false;
        let t1 = w.clock.now();
        fork(&mut w, parent);
        let slow = w.clock.now().since(t1);

        assert!(slow > fast, "deep copy ({slow}) must exceed xs_clone ({fast})");
    }

    #[test]
    fn first_clone_charges_parent_scan() {
        let mut w = world();
        let parent = boot_parent(&mut w);

        let t0 = w.clock.now();
        fork(&mut w, parent);
        let first = w.clock.now().since(t0);

        let t1 = w.clock.now();
        fork(&mut w, parent);
        let second = w.clock.now().since(t1);

        assert!(first > second, "first clone ({first}) includes the parent scan ({second})");
    }

    #[test]
    fn minimal_mode_skips_devices() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        w.daemon.config.minimal = true;
        let c = fork(&mut w, parent);
        assert!(w.dm.vif(c.child, 0).is_none(), "no device cloning in minimal mode");
        assert!(w.xl.record(c.child).is_some(), "but toolstack introduction happened");
        assert_eq!(w.hv.domain(parent).unwrap().state, DomainState::Running);
    }

    #[test]
    fn network_skipping_for_redis_style_clones() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        w.daemon.config.policy = ClonePolicy::all().set(DeviceClass::Vif, false);
        let c = fork(&mut w, parent);
        assert!(w.dm.vif(c.child, 0).is_none());
        assert!(w.dm.console_attached(c.child), "console still cloned");
    }

    #[test]
    fn clone_names_count_up_per_parent() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        let a = fork(&mut w, parent);
        let b = fork(&mut w, parent);
        assert_eq!(a.name, "udp-c1");
        assert_eq!(b.name, "udp-c2");
        assert_eq!(w.daemon.clones_completed(), 2);
    }

    #[test]
    fn interleaved_parents_complete_in_ring_order() {
        let mut w = world();
        let a = boot(&mut w, "udp", 2);
        let b = boot(&mut w, "echo", 3);
        let mut queued = Vec::new();
        for parent in [a, b, a] {
            queued.extend(queue(&mut w, parent, 1));
        }

        // Neither parent is cached yet: B is first seen between two
        // children of A, and the names still count up per parent.
        let done = drain(&mut w).unwrap();
        let got: Vec<(DomId, DomId, &str)> = done
            .iter()
            .map(|c| (c.parent, c.child, c.name.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                (a, queued[0], "udp-c1"),
                (b, queued[1], "echo-c1"),
                (a, queued[2], "udp-c2")
            ]
        );
        assert_eq!(w.hv.clone_ring_len(), 0);
        assert_eq!(w.hv.domain(a).unwrap().state, DomainState::Running);
        assert_eq!(w.hv.domain(b).unwrap().state, DomainState::Running);
    }

    #[test]
    fn failed_child_leaves_the_rest_of_the_ring_queued() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        let kids = queue(&mut w, parent, 3);
        w.hv.destroy_domain(kids[1]).unwrap();

        let err = drain(&mut w).unwrap_err();
        assert!(
            matches!(err, CloneDaemonError::Dev(DevError::Hv(HvError::NoSuchDomain(d))) if d == kids[1]),
            "got {err:?}"
        );
        assert_eq!(w.daemon.clones_completed(), 1, "the first child completed");
        let pending: Vec<DomId> = w.hv.clone_ring_pending().map(|n| n.child).collect();
        assert_eq!(pending, [kids[2]], "the third child stays queued");
    }
}
