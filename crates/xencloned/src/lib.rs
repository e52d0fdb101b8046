//! `xencloned`: the Nephele cloning daemon (second stage).
//!
//! `xencloned` runs in Dom0 and completes what the hypervisor's first stage
//! started (§4.2, §5). In the paper `VIRQ_CLONED` wakes it; here the
//! platform runs it right after each `CLONEOP` (the hypervisor still
//! raises and charges the VIRQ). It drains the clone notification ring
//! and, for each new child:
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
//! first clone and ~1.9 ms afterwards (§6.2). Across drains it keeps the
//! parent's name. Within one drain, consecutive notifications from one
//! parent form a run: its first child resolves the parent's clone
//! sources once, with no virtual-time charge (the devices the policy
//! clones and `Subtree` handles on the parent's `memory` and device
//! directories), and every child of the run grafts from them. Each child
//! still charges, traces and fails on its own, in its own home scope; a
//! run of one is the whole path, and no child writes under its parent's
//! entries, which debug builds of `xs_clone` check on every handle.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::rc::Rc;

use devices::bus::ClonePolicy;
use devices::udev::{UdevBus, UdevEvent};
use devices::{CloneSource, DevError, DeviceManager};
use hypervisor::cloneop::CloneOp;
use hypervisor::error::HvError;
use hypervisor::notify::CloneNotification;
use hypervisor::Hypervisor;
use netmux::IfaceId;
use sim_core::{Clock, CostModel, DomId, TraceSink};
use toolstack::Xl;
use xenstore::{Subtree, XsCloneOp, XsError, Xenstore};

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

/// The directory holding every domain's home.
const DOMAIN_DIR: &str = "/local/domain";

/// Formats `<home>/<key>` into `buf`, reusing its allocation, and
/// returns it.
fn home_path<'b>(buf: &'b mut String, home: &str, key: &str) -> &'b str {
    buf.clear();
    buf.push_str(home);
    buf.push('/');
    buf.push_str(key);
    buf
}

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

/// What the daemon caches about a parent on its first clone.
#[derive(Debug)]
struct ParentInfo {
    /// The parent's creation serial. Domain ids are reused, so an entry
    /// whose serial differs from the parent's belongs to an earlier
    /// holder of the id and is stale.
    serial: u64,
    /// The parent's name, read from Xenstore.
    name: String,
    /// Clones of this parent named so far.
    seq: u64,
}

/// The parent side of a run: consecutive ring notifications from one
/// parent, with one creation serial. The run's first child resolves it,
/// with no virtual-time charge, and every child of the run clones from
/// it. A run lives for one drain at most: the parent's entries can
/// change between drains, but not within one, because no child's second
/// stage writes under its parent's entries (debug builds of `xs_clone`
/// check every handle it is given against a fresh lookup).
#[derive(Debug)]
struct ParentRun {
    parent: DomId,
    serial: u64,
    /// Handle on `/local/domain/<parent>/memory`.
    memory: Subtree,
    /// The parent's devices the clone policy clones, with handles on
    /// their directories.
    devices: Vec<CloneSource>,
}

impl ParentRun {
    fn resolve(
        xs: &Xenstore,
        dm: &DeviceManager,
        parent: DomId,
        serial: u64,
        policy: &ClonePolicy,
    ) -> Self {
        ParentRun {
            parent,
            serial,
            memory: xs.subtree(format!("/local/domain/{}/memory", parent.0)),
            devices: dm.clone_sources(xs, parent, policy),
        }
    }
}

/// The `xencloned` daemon state.
#[derive(Debug)]
pub struct Xencloned {
    clock: Clock,
    costs: Rc<CostModel>,
    /// Behavioural configuration.
    pub config: XenclonedConfig,
    /// Per-parent cache, by domid.
    parents: HashMap<u32, ParentInfo>,
    /// Reused buffers stage 2 formats the child's home and its paths
    /// into, so an `xs_clone` child's requests allocate no paths of their
    /// own.
    bufs: [String; 2],
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
            parents: HashMap::new(),
            bufs: Default::default(),
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
    /// in ring order. The platform calls this right after each `CLONEOP`
    /// that queued clones. Consecutive notifications from one parent
    /// form a run whose first child resolves the parent side once; each
    /// child still charges and traces all of its own requests. On an
    /// error, the failing notification has been consumed and the ones
    /// behind it stay queued, for a drain that resolves afresh.
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
        let mut run = None;
        while let Some(n) = hv.clone_ring_pop() {
            let start = self.clock.now();
            match self.handle_one(hv, xs, dm, udev, xl, n, &mut run) {
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
        run: &mut Option<ParentRun>,
    ) -> Result<CompletedClone> {
        let CloneNotification {
            parent,
            parent_serial,
            child,
            ..
        } = n;
        let span = self.trace.span("xencloned.stage2");
        span.dom(parent);
        self.clock.advance(self.costs.xencloned_dispatch);

        // Read and cache the parent's Xenstore information on first use
        // (first clone ≈3 ms of userspace ops, later ≈1.9 ms, §6.2). An
        // entry left by an earlier holder of the parent's id is a miss,
        // and the new parent's names start again at 1.
        let parent_info = match self.parents.entry(parent.0) {
            Entry::Occupied(e) if e.get().serial == parent_serial => {
                self.trace
                    .count_dom("xencloned.parent_cache.hit", parent, 1);
                e.into_mut()
            }
            entry => {
                self.trace
                    .count_dom("xencloned.parent_cache.miss", parent, 1);
                self.clock.advance(self.costs.xencloned_parent_scan);
                let name = xs
                    .read(DomId::DOM0, &format!("/local/domain/{}/name", parent.0))
                    .unwrap_or_else(|_| format!("dom{}", parent.0));
                let info = ParentInfo {
                    serial: parent_serial,
                    name,
                    seq: 0,
                };
                match entry {
                    Entry::Occupied(mut e) => {
                        e.insert(info);
                        e.into_mut()
                    }
                    Entry::Vacant(e) => e.insert(info),
                }
            }
        };

        // The parent side, resolved by the first child of a run.
        let run = match run {
            Some(r) if r.parent == parent && r.serial == parent_serial => r,
            _ => run.insert(ParentRun::resolve(xs, dm, parent, parent_serial, &self.config.policy)),
        };

        // Steps 2.1–2.3 are Xenstore requests on the child's home and on
        // the parent's entries: run them with the home resolved once.
        let mut ifaces = Vec::new();
        let name = xs.with_home(child, |xs| -> Result<String> {
            // Introduce the child with the parent id (step 2.1).
            xs.introduce_domain(child, Some(parent))?;

            // Unique name — no validation scan needed. The child's id is
            // formatted once, into its home, whose last component is the
            // `domid` value.
            parent_info.seq += 1;
            let name = format!("{}-c{}", parent_info.name, parent_info.seq);
            let [home, dst] = &mut self.bufs;
            home.clear();
            write!(home, "{DOMAIN_DIR}/{}", child.0).expect("formatting into a String cannot fail");
            let domid = &home[DOMAIN_DIR.len() + 1..];
            xs.write(DomId::DOM0, home_path(dst, home, "name"), &name)?;
            xs.write(DomId::DOM0, home_path(dst, home, "domid"), domid)?;
            if self.config.minimal {
                return Ok(name);
            }

            // Basic (non-device) registry state.
            if self.config.use_xs_clone {
                if run.memory.exists() {
                    xs.xs_clone(
                        DomId::DOM0,
                        XsCloneOp::Basic,
                        parent,
                        child,
                        &run.memory,
                        home_path(dst, home, "memory"),
                    )?;
                }
            } else {
                for key in ["memory/target", "memory/static-max"] {
                    let src = format!("{DOMAIN_DIR}/{}/{key}", parent.0);
                    if let Ok(v) = xs.read(DomId::DOM0, &src) {
                        xs.write(DomId::DOM0, home_path(dst, home, key), &v)?;
                    }
                }
            }

            // Devices: one loop over the parent's devices the policy
            // clones, in (class, devid) order — the console first, then
            // vifs by device index, then 9pfs — each cloned by its class's
            // heuristic (steps 2.1–2.3).
            let deep_copy = !self.config.use_xs_clone;
            for src in &run.devices {
                ifaces.extend(dm.clone_device(hv, xs, udev, src, child, deep_copy)?);
            }
            Ok(name)
        })?;

        if !self.config.minimal {
            // Userspace follow-ups for the udev events (step 2.3) —
            // adding each new vif to the host's mux (bond or OVS select
            // group), or to the plain bridge without one.
            let attach = dm
                .mux()
                .map_or(self.costs.bridge_add, |m| m.add_member_cost(&self.costs));
            for e in udev.drain() {
                if let UdevEvent::VifCreated { .. } = e {
                    self.clock.advance(attach);
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
    use netmux::Bond;
    use toolstack::{DomainConfig, KernelImage};
    use xenstore::tree::DomidRewrite;

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
        boot_mib(w, name, last_octet, 4)
    }

    fn boot_mib(w: &mut World, name: &str, last_octet: u8, mib: u64) -> DomId {
        let cfg = DomainConfig::builder(name)
            .memory_mib(mib)
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
        w.dm.set_mux(Box::new(Bond::new()));
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
    fn a_reused_parent_id_starts_a_fresh_name_sequence() {
        let mut w = world();
        let udp = boot(&mut w, "udp", 2);
        let first = fork(&mut w, udp);
        assert_eq!(first.name, "udp-c1");
        for dom in [first.child, udp] {
            w.xl.destroy(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, dom)
                .unwrap();
        }
        let echo = boot(&mut w, "echo", 3);
        assert_eq!(echo, udp, "echo reuses the dead parent's id");

        // The cache entry for the id belongs to the dead parent: a miss,
        // charged like a first clone, and the sequence restarts.
        let t0 = w.clock.now();
        let c = fork(&mut w, echo);
        let first_fork = w.clock.now().since(t0);
        assert_eq!(c.name, "echo-c1");
        let t1 = w.clock.now();
        assert_eq!(fork(&mut w, echo).name, "echo-c2");
        assert!(first_fork > w.clock.now().since(t1), "the first fork scans the parent");
    }

    /// Every `(path below dir, value)` under `dir`, read through the
    /// uncharged introspection calls, with `rewrite` applied to values.
    fn entries(
        xs: &Xenstore,
        dir: &str,
        rewrite: Option<DomidRewrite>,
    ) -> Vec<(String, Option<String>)> {
        let mut out = Vec::new();
        let mut stack = vec![String::new()];
        while let Some(rel) = stack.pop() {
            let path = format!("{dir}{rel}");
            let value = xs.peek(&path).map(|v| match rewrite {
                Some(r) => r.apply(&v),
                None => v,
            });
            out.push((rel.clone(), value));
            stack.extend(xs.peek_directory(&path).into_iter().map(|name| format!("{rel}/{name}")));
        }
        out
    }

    #[test]
    fn interleaved_parents_complete_in_ring_order() {
        let mut w = world();
        let a = boot_mib(&mut w, "udp", 2, 4);
        let b = boot_mib(&mut w, "echo", 3, 8);
        let mut queued = Vec::new();
        for parent in [a, a, b, a] {
            queued.extend(queue(&mut w, parent, 1));
        }

        // Three runs, A's twice: neither parent is cached yet, B is first
        // seen between children of A, and the names still count up per
        // parent.
        let done = drain(&mut w).unwrap();
        let got: Vec<(DomId, DomId, &str)> = done
            .iter()
            .map(|c| (c.parent, c.child, c.name.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                (a, queued[0], "udp-c1"),
                (a, queued[1], "udp-c2"),
                (b, queued[2], "echo-c1"),
                (a, queued[3], "udp-c3")
            ]
        );
        assert_eq!(w.hv.clone_ring_len(), 0);
        assert_eq!(w.hv.domain(a).unwrap().state, DomainState::Running);
        assert_eq!(w.hv.domain(b).unwrap().state, DomainState::Running);

        // Each child holds its own parent's entries: `memory` as is, the
        // console with the parent's domid rewritten to the child's.
        let home = |d: DomId, key: &str| format!("/local/domain/{}/{key}", d.0);
        assert_ne!(
            entries(&w.xs, &home(a, "memory"), None),
            entries(&w.xs, &home(b, "memory"), None),
            "the parents' memory entries differ"
        );
        for c in &done {
            let rewrite = DomidRewrite { old: c.parent.0, new: c.child.0 };
            assert_eq!(
                entries(&w.xs, &home(c.child, "memory"), None),
                entries(&w.xs, &home(c.parent, "memory"), None),
                "{}",
                c.name
            );
            let console = entries(&w.xs, &home(c.child, "console"), None);
            assert!(console.len() > 1, "{} has a console", c.name);
            let parents = entries(&w.xs, &home(c.parent, "console"), Some(rewrite));
            assert_eq!(console, parents, "{}", c.name);
        }
    }

    #[test]
    fn a_run_does_not_outlive_its_drain() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        queue(&mut w, parent, 1);
        drain(&mut w).unwrap();

        // Between drains, the parent's entries may change: the next drain
        // clones what is there now.
        let target = |d: DomId| format!("/local/domain/{}/memory/target", d.0);
        w.xs.write(DomId::DOM0, &target(parent), "1234").unwrap();
        let kid = queue(&mut w, parent, 1)[0];
        let done = drain(&mut w).unwrap();
        assert_eq!(done[0].name, "udp-c2", "the name cache does outlive the drain");
        assert_eq!(w.xs.read(DomId::DOM0, &target(kid)).unwrap(), "1234");
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
        // The failing child's home scope closed on the error: the entries
        // written before it are back in the tree.
        let name = format!("/local/domain/{}/name", kids[1].0);
        assert_eq!(w.xs.read(DomId::DOM0, &name).unwrap(), "udp-c2");
        w.xs.audit_tree().unwrap();
    }
}
